"""Acceptance harness: nine empirical criteria behind `cfl suite`.

Each criterion runs a fixed, seeded experiment and returns its failures with
the measured numbers.  It passes when it reports none and finishes within its
declared limit: 60 s for criterion 1, 300 s for criterion 6, none for the
rest.  Where the criterion demands an independent check, the oracle here
takes a different algorithmic route from the library path: LP optima are
recomputed by a dense Bland-rule simplex instead of HiGHS, and clique
enumeration is recomputed by testing every vertex tuple.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

from .cliques import count_cliques_window, enumerate_cliques
from .errors import NumericalError
from .factor_lp import TOL_DEFAULT, check_prop3, solve_lp, t_star
from .generators import gen_complete, gen_paley, gen_random_regular
from .graphs import Graph, WeightedGraph, edge_ids, from_edge_list, uniform_weights, write_graph
from .pipeline import (
    PipelineConfig,
    build_Hf,
    dense_extract,
    hf_codegrees,
    hf_degrees,
    run_end_to_end,
    sparse_extract,
    sparse_split,
)
from .spectral import lambda_floor_check, mixing_audit, second_eigenvalue


# ------------------------------------------------------------------ oracles


def simplex_lp_value(c, A, b, tol: float = 1e-9, max_iter: int = 200000) -> float:
    """max c.x s.t. Ax <= b, x >= 0 by dense tableau simplex with Bland's rule.

    Requires b >= 0 (slack basis is then feasible), which holds for every
    matching LP here.  Deliberately shares no code with the HiGHS path.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if np.any(b < -tol):
        raise NumericalError("simplex oracle needs b >= 0")
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = np.maximum(b, 0.0)
    T[m, :n] = -c
    basis = list(range(n, n + m))
    for _ in range(max_iter):
        enter = -1
        for j in range(n + m):
            if T[m, j] < -tol:
                enter = j
                break
        if enter < 0:
            return float(T[m, -1])
        row = -1
        best = math.inf
        for i in range(m):
            if T[i, enter] > tol:
                r = T[i, -1] / T[i, enter]
                if r < best - 1e-12 or (abs(r - best) <= 1e-12 and (row < 0 or basis[i] < basis[row])):
                    best = r
                    row = i
        if row < 0:
            raise NumericalError("simplex oracle: unbounded LP")
        T[row] /= T[row, enter]
        for i in range(m + 1):
            if i != row and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[row]
        basis[row] = enter
    raise NumericalError("simplex oracle: iteration cap reached")


def oracle_t_star(wg: WeightedGraph, t: int) -> float:
    """t*(G,w) via the simplex oracle on the explicitly built primal."""
    cliques = brute_force_cliques(wg.base, t)
    if not cliques:
        return 0.0
    A = np.zeros((wg.n + wg.base.m, len(cliques)))
    for j, tup in enumerate(cliques):
        A[list(tup), j] = 1.0
        A[wg.n + edge_ids(wg.base, list(itertools.combinations(tup, 2))), j] = 1.0
    b = np.concatenate([np.ones(wg.n), wg.w])
    return simplex_lp_value(np.ones(len(cliques)), A, b)


def brute_force_cliques(g: Graph, t: int) -> list:
    """Every t-tuple tested against every pair, looked up in a set of g.edges."""
    edges = set(g.edges)
    return [
        tup
        for tup in itertools.combinations(range(g.n), t)
        if all(pair in edges for pair in itertools.combinations(tup, 2))
    ]


def petersen() -> Graph:
    """Outer 5-cycle, inner pentagram, five spokes; 3-regular, triangle-free."""
    i = np.arange(5)
    ends = [np.r_[i, 5 + i, i], np.r_[(i + 1) % 5, 5 + (i + 2) % 5, 5 + i]]
    return from_edge_list(10, np.column_stack(ends))


# ------------------------------------------------------------------ corpus


def _corpus() -> list:
    """(name, WeightedGraph, t) instances shared by criteria 1, 2, and 4."""
    out = []
    for n in range(4, 13):
        out.append((f"K_{n}", uniform_weights(gen_complete(n)), 3))
    out.append(("paley_13", uniform_weights(gen_paley(13)), 3))
    rr_specs = [(20, 6, 101), (30, 8, 102), (40, 10, 103), (60, 20, 104)]
    for n, d, s in rr_specs:
        out.append((f"rr_{n}_{d}", uniform_weights(gen_random_regular(n, d, s)), 3))
    rng = np.random.default_rng(424242)
    for name, base in [
        ("K_8", gen_complete(8)),
        ("K_10", gen_complete(10)),
        ("K_12", gen_complete(12)),
        ("paley_13", gen_paley(13)),
        ("rr_20_6", gen_random_regular(20, 6, 101)),
        ("rr_30_8", gen_random_regular(30, 8, 102)),
    ]:
        w = {e: float(rng.random()) for e in base.edges}
        out.append((f"{name}_weighted", WeightedGraph(base, w), 3))
    out.append(("K_8_t4", uniform_weights(gen_complete(8)), 4))
    out.append(("K_9_t4", uniform_weights(gen_complete(9)), 4))
    return out


# ------------------------------------------------------------------ criteria


CRITERIA: dict = {}


def _criterion(number: int, name: str, limit_s: float | None = None):
    """Register a body returning (failures, details) as criterion `number`.

    The registered function times the body, adds a failure when it ran for
    limit_s seconds or more, and returns {criterion, name, passed, runtime_s,
    details} with the failures under details["failures"].
    """

    def register(body):
        @functools.wraps(body)
        def run() -> dict:
            start = time.perf_counter()
            failures, details = body()
            runtime = time.perf_counter() - start
            if limit_s is not None and runtime >= limit_s:
                failures.append(f"ran {runtime:.1f}s, past its {limit_s:g}s limit")
            details["failures"] = failures
            return {"criterion": number, "name": name, "passed": not failures,
                    "runtime_s": runtime, "details": details}

        CRITERIA[number] = run
        return run

    return register


@_criterion(1, "lp-duality-corpus", limit_s=60)
def criterion_1():
    """LP duality corpus: |primal - dual| <= 2e-7 and all four duality checks."""
    corpus = _corpus()
    max_gap = 0.0
    failures = []
    if len(corpus) < 20:
        failures.append(f"corpus has {len(corpus)} instances, fewer than 20")
    for idx, (name, wg, t) in enumerate(corpus):
        cliques = enumerate_cliques(wg.base, t)
        p, d = solve_lp(wg, cliques)
        gap = abs(p.objective - d.objective)
        max_gap = max(max_gap, gap)
        if gap > 2e-7:
            failures.append(f"{name}: gap {gap:.3e}")
        report = check_prop3(wg, cliques, TOL_DEFAULT, idx, p, d)
        if not report.all_pass:
            failures.append(
                f"{name}: prop3 i={report.i_pass} ii={report.ii_pass} "
                f"iii={report.iii_pass} iv={report.iv_pass}"
            )
    return failures, {"instances": len(corpus), "max_gap": max_gap}


@_criterion(2, "brute-force-oracles")
def criterion_2():
    """Simplex-oracle equivalence on n <= 12, all-tuples enumeration, Paley triangles."""
    failures = []
    worst = 0.0
    for name, wg, t in _corpus():
        cliques = enumerate_cliques(wg.base, t)
        if wg.n <= 12:
            lib = t_star(wg, cliques)
            ora = oracle_t_star(wg, t)
            worst = max(worst, abs(lib - ora))
            if abs(lib - ora) > 1e-6:
                failures.append(f"{name}: t_star {lib:.9f} vs oracle {ora:.9f}")
        lib_cliques = list(map(tuple, cliques.members.tolist()))
        if lib_cliques != brute_force_cliques(wg.base, t):
            failures.append(f"{name}: clique enumeration mismatch")
    paley_triangles = len(brute_force_cliques(gen_paley(13), 3))
    lib_paley = len(enumerate_cliques(gen_paley(13), 3))
    if not (paley_triangles == lib_paley == 26):
        failures.append(f"paley_13 triangles: oracle {paley_triangles}, library {lib_paley}")
    return failures, {"max_t_star_deviation": worst}


@_criterion(3, "dense-extraction-identity")
def criterion_3():
    """Dense extraction on K_6, K_12, K_30: degree drops exactly 2, loads <= 1."""
    failures = []
    residuals = {}
    loads = {}
    for n in (6, 12, 30):
        g = gen_complete(n)
        bundle = dense_extract(g, 3, 2)
        worst = max(
            (it["degree_residual"] for it in bundle.audits["iterations"] if it["extracted"]),
            default=math.inf,
        )
        residuals[f"K_{n}"] = worst
        loads[f"K_{n}"] = load = bundle.audits["max_per_edge_load"]
        if bundle.ell != 2:
            failures.append(f"K_{n}: only {bundle.ell} factors extracted")
        if worst > 1e-6:
            failures.append(f"K_{n}: degree residual {worst:.3e}")
        if load > 1 + 1e-7:
            failures.append(f"K_{n}: per_edge_load {load:.9f}")
    return failures, {"degree_residuals": residuals, "max_edge_loads": loads}


@_criterion(4, "spectral-certificates")
def criterion_4():
    """Eigenvalues of the three reference graphs, clean mixing audits, lambda floor."""
    failures = []
    targets = [
        ("K_6", gen_complete(6), 1.0),
        ("petersen", petersen(), 2.0),
        ("paley_13", gen_paley(13), (1 + math.sqrt(13)) / 2),
    ]
    lambdas = {}
    for name, g, expected in targets:
        cert = second_eigenvalue(g)
        lambdas[name] = cert.lam
        if abs(cert.lam - expected) > 1e-8:
            failures.append(f"{name}: lambda {cert.lam!r} vs {expected!r}")
        if lambda_floor_check(cert) is False:
            failures.append(f"{name}: lambda {cert.lam:.6f} below sqrt(d/2)")
        audit = mixing_audit(g, cert, 10000, seed=5)
        if audit.violated:
            failures.append(f"{name}: mixing violation {audit.max_violation:.3e}")
    floor_checked = 0
    for name, wg, _ in _corpus():
        cert = second_eigenvalue(wg.base)
        ok = lambda_floor_check(cert)
        if ok is not None:
            floor_checked += 1
            if not ok:
                failures.append(f"{name}: lambda {cert.lam:.6f} below sqrt(d/2)")
    if floor_checked == 0:
        failures.append("no corpus graph was checked against the lambda floor")
    return failures, {"lambdas": lambdas, "floor_checked": floor_checked}


@_criterion(5, "clique-count-windows")
def criterion_5():
    """K_2/K_3 count windows on random_regular(100, 50), U = V and 20 random U."""
    g = gen_random_regular(100, 50, 2025)
    rng = np.random.default_rng(7)
    subsets = [tuple(range(100))]
    while len(subsets) < 21:
        size = int(rng.integers(25, 101))
        subsets.append(tuple(int(x) for x in np.sort(rng.permutation(100)[:size])))
    failures = []
    checked = 0
    for i in (2, 3):
        for U in subsets:
            count, lower, upper, within = count_cliques_window(g, U, i)
            checked += 1
            if not within:
                failures.append(
                    f"i={i} |U|={len(U)}: count {count} outside [{lower:.3f}, {upper:.3f}]"
                )
    if checked == 0:
        failures.append("no window was checked")
    return failures, {"windows_checked": checked}


@_criterion(6, "pipeline-coverage", limit_s=300)
def criterion_6():
    """Coverage: K_60 dense ell=2 fully covered >= 4/5 seeds; rr(90,45) auto
    leaves at most 10% uncovered >= 4/5 seeds; under five minutes.  As
    completion alone covers nearly all, the H_f matcher must also leave at
    most 2n/3 on >= 4/5 seeds of each (measured 24-33 of 60, 30-45 of 90)."""
    k60, rr = gen_complete(60), gen_random_regular(90, 45, 31)

    def runs(g: Graph, **config) -> list:
        return [run_end_to_end(g, 3, PipelineConfig(seed=s, force=True, **config)) for s in range(5)]

    k60_runs, rr_runs = runs(k60, mode="dense", ell=2), runs(rr, mode="auto")
    k60_uncovered = [r.result.uncovered_count for r in k60_runs]
    k60_ok = sum(1 for u in k60_uncovered if u == 0)
    rr_fracs = [r.uncovered_fraction for r in rr_runs]
    rr_ok = sum(1 for f in rr_fracs if f <= 0.10)
    k60_hf, rr_hf = ([r.stage_audits["matching"]["hf_uncovered_count"] for r in rs]
                     for rs in (k60_runs, rr_runs))
    hf_ok = [sum(1 for u in hf if 3 * u <= 2 * g.n) for g, hf in ((k60, k60_hf), (rr, rr_hf))]
    counts = [
        ("K_60 fully covered", k60_ok),
        ("rr(90,45) at most 10% uncovered", rr_ok),
        ("K_60 H_f at most 2n/3 uncovered", hf_ok[0]),
        ("rr(90,45) H_f at most 2n/3 uncovered", hf_ok[1]),
    ]
    failures = [f"{label} on {ok} of 5 seeds, fewer than 4" for label, ok in counts if ok < 4]
    return failures, {
        "k60_uncovered": k60_uncovered,
        "k60_fully_covered": k60_ok,
        "rr90_fractions": rr_fracs,
        "rr90_within_10pct": rr_ok,
        "k60_hf_uncovered": k60_hf,
        "rr90_hf_uncovered": rr_hf,
        "hf_within_two_thirds": hf_ok,
    }


def _one_part_per_clique(bundle, label: str, failures: list) -> int:
    """Record cliques positive in more than one factor of a sparse bundle;
    returns how many (factor, clique) weights were positive."""
    seen: dict = {}
    positive = 0
    for i, (ids, weights) in enumerate(bundle.factors):
        for cid in ids[weights > 0].tolist():
            positive += 1
            if cid in seen:
                failures.append(f"{label}: clique {cid} positive in parts {seen[cid]},{i}")
            seen[cid] = i
    return positive


@_criterion(7, "sparse-split-structure")
def criterion_7():
    """Sparse splits partition E, sizes within 5 sigma, one positive f_i per clique.

    At ell=5 no part of rr(100,50) carries a factor, so the per-clique check
    is also run at ell=2, where every seed must extract at least one factor.
    """
    g = gen_random_regular(100, 50, 2025)
    ell = 5
    mean = g.m / ell
    sigma = math.sqrt(g.m * (1 / ell) * (1 - 1 / ell))
    failures = []
    achieved: dict = {"ell=5": [], "ell=2": []}
    positive = 0
    for seed in range(20):
        parts = sparse_split(g, ell, seed)
        if not np.array_equal(np.sort(np.concatenate([p.edge_keys for p in parts])), g.edge_keys):
            failures.append(f"seed {seed}: parts do not partition E")
        for i, p in enumerate(parts):
            if abs(p.m - mean) > 5 * sigma:
                failures.append(f"seed {seed}: part {i} has {p.m} edges vs {mean:.0f}")
        bundle = sparse_extract(g, 3, ell, seed)
        achieved["ell=5"].append(bundle.ell)
        positive += _one_part_per_clique(bundle, f"seed {seed}", failures)
    for seed in range(3):
        bundle = sparse_extract(g, 3, 2, seed)
        achieved["ell=2"].append(bundle.ell)
        if bundle.ell < 1:
            failures.append(f"ell=2 seed {seed}: no factor extracted")
        positive += _one_part_per_clique(bundle, f"ell=2 seed {seed}", failures)
    if positive == 0:
        failures.append("the per-clique check saw no positive clique")
    return failures, {"seeds": 20, "sigma": sigma, "achieved": achieved, "positive": positive}


@_criterion(8, "hf-statistics")
def criterion_8():
    """H_f on a K_12 dense ell=2 bundle: mean degree 2 +/- 0.5, codegree bound."""
    g = gen_complete(12)
    bundle = dense_extract(g, 3, 2)
    degree_sums = np.zeros(12)
    max_codeg = 0
    bound = 1 + 3 * math.log(12)
    codeg_violations = 0
    hyperedges = 0
    for seed in range(200):
        hf = build_Hf(bundle, seed)
        hyperedges += len(hf.hyperedges)
        degree_sums += hf_degrees(hf)
        worst = int(hf_codegrees(hf).max(initial=0))
        max_codeg = max(max_codeg, worst)
        if worst > bound:
            codeg_violations += 1
    means = degree_sums / 200
    failures = []
    if bundle.ell != 2:
        failures.append(f"bundle has {bundle.ell} factors")
    if means.min() < 1.5 or means.max() > 2.5:
        failures.append(f"mean degree range [{means.min():.3f}, {means.max():.3f}]")
    if codeg_violations:
        failures.append(f"{codeg_violations} samples broke the codegree bound")
    if hyperedges == 0:
        failures.append("the 200 samples hold no hyperedge")
    return failures, {
        "mean_degree_min": float(means.min()),
        "mean_degree_max": float(means.max()),
        "max_codegree": max_codeg,
        "codegree_bound": bound,
        "hyperedges": hyperedges,
    }


@_criterion(9, "pipeline-determinism")
def criterion_9():
    """Two identical `cfl pipeline` invocations produce byte-identical reports."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "paley13.txt")
        with open(graph_path, "w", encoding="utf-8") as fh:
            fh.write(write_graph(gen_paley(13)))
        outs = []
        for label in ("a", "b"):
            out = os.path.join(tmp, f"{label}.json")
            cmd = [
                sys.executable,
                "-m",
                "cfl.cli",
                "pipeline",
                "--in",
                graph_path,
                "--t",
                "3",
                "--seed",
                "11",
                "--force",
                "--out",
                out,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode not in (0, 1):
                failures.append(f"run {label}: exit {proc.returncode}: {proc.stderr.strip()}")
            elif not os.path.isfile(out) or not os.path.getsize(out):
                last = (proc.stderr.strip().splitlines() or [""])[-1]
                failures.append(f"run {label}: exit {proc.returncode}, no report: {last}")
            outs.append(out)
        if not failures:
            first, second = (pathlib.Path(out).read_bytes() for out in outs)
            if first != second:
                failures.append("reports differ between identical runs")
    return failures, {}


def run_all(only=None) -> list:
    indices = sorted(only) if only else sorted(CRITERIA)
    return [CRITERIA[i]() for i in indices]
