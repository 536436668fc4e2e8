"""Correctness checks on the canonical reports the benchmark's operations write.

Each check holds on any solver path: it tests what a report claims against
the input graph and against invariants of the paper's construction, not
against frozen numbers, so a change of LP formulation still passes.  A check
returns a list of failure messages; an empty list means the operation passed.
"""

from __future__ import annotations

# Pipeline exit code when the run is forced past a failed eigenvalue hypothesis.
FORCED_EXIT = 1
LP_GAP_MAX = 2e-7
LAMBDA_ABS_TOL = 1e-6
SPECTRAL_TOL = 1e-8
# The CLI's default --tol, which the benchmark's pipeline commands run with.
PIPELINE_TOL = 1e-7


def read_graph(path: str):
    """(n, edge set) from the plain or weighted edge-list format."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.strip()]
    n = int(lines[0][0])
    return n, {(int(p[0]), int(p[1])) for p in lines[1:]}


def check_pipeline(code: int, report: dict, n: int, edges: set, t: int) -> list:
    fails = []
    if code != FORCED_EXIT:
        fails.append(f"pipeline exit code {code}, expected {FORCED_EXIT}")
    audits = report["stage_audits"]
    if audits["hypothesis_failed"] is not True:
        fails.append("hypothesis_failed is not true on a forced run")
    matched = report["result"]["matched"]
    seen = set()
    for tup in matched:
        if len(tup) != t or len(set(tup)) != t:
            fails.append(f"matched tuple {tup} does not have {t} distinct vertices")
            continue
        if not all(0 <= v < n for v in tup):
            fails.append(f"matched tuple {tup} has a vertex outside 0..{n - 1}")
            continue
        pairs = [(min(u, v), max(u, v)) for i, u in enumerate(tup) for v in tup[i + 1 :]]
        if not all(p in edges for p in pairs):
            fails.append(f"matched tuple {tup} is not a K_{t} of the input graph")
        if seen.intersection(tup):
            fails.append(f"matched tuple {tup} overlaps an earlier tuple")
        seen.update(tup)
    expected = n - t * len(matched)
    if report["result"]["uncovered_count"] != expected:
        fails.append(
            f"uncovered_count {report['result']['uncovered_count']} != n - t*|matched| = {expected}"
        )
    tol = PIPELINE_TOL
    extraction = audits["extraction"]
    if extraction["max_per_edge_load"] > 1 + 10 * tol:
        fails.append(f"max_per_edge_load {extraction['max_per_edge_load']} exceeds 1 + 10 tol")
    achieved = report["parameters"]["ell_achieved"]
    if extraction["achieved"] != achieved:
        fails.append(f"extraction achieved {extraction['achieved']} != ell_achieved {achieved}")
    if report["parameters"]["mode_effective"] == "dense":
        # Only the dense engine reports a degree residual per extracted factor.
        for it in extraction["iterations"]:
            if it["extracted"] and it["degree_residual"] > 10 * tol:
                fails.append(f"iteration {it['iteration']} degree_residual {it['degree_residual']}")
    else:
        # The sparse engine splits E(G) into `requested` parts, one LP each.
        sizes = extraction["split_sizes"]
        if len(sizes) != extraction["requested"] or sum(sizes) != len(edges):
            fails.append(f"split sizes {sizes} do not partition the {len(edges)} edges")
        if achieved + len(extraction["failed_parts"]) != extraction["requested"]:
            fails.append(f"{achieved} factors + failed parts {extraction['failed_parts']} "
                         f"!= {extraction['requested']} parts")
    return fails


def check_audit_mixing(code: int, report: dict, lam_ref: float) -> list:
    fails = []
    if code != 0:
        fails.append(f"audit-mixing exit code {code}, expected 0")
    cert, mixing = report["cert"], report["mixing"]
    if abs(cert["lambda"] - lam_ref) > LAMBDA_ABS_TOL:
        fails.append(f"lambda {cert['lambda']} differs from the eigvalsh reference {lam_ref}")
    if cert["residual"] > SPECTRAL_TOL:
        fails.append(f"certificate residual {cert['residual']} exceeds {SPECTRAL_TOL}")
    if mixing["violated"] is not False:
        fails.append("mixing audit reports a violation")
    return fails


def check_lp(code: int, report: dict) -> list:
    fails = []
    if code != 0:
        fails.append(f"lp exit code {code}, expected 0")
    if report["gap"] > LP_GAP_MAX:
        fails.append(f"primal/dual gap {report['gap']} exceeds {LP_GAP_MAX}")
    for part in ("prop3", "slackness"):
        if report[part]["all_pass"] is not True:
            fails.append(f"{part}.all_pass is not true")
    return fails
