"""Tests of the benchmark's own code: report checks, self time, metric names.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os

import checks
import run
from spans import layer_metrics, self_times

BENCHMARK_JSON = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")

K6_EDGES = {(u, v) for u in range(6) for v in range(u + 1, 6)}


def _pipeline_report():
    return {
        "parameters": {"ell_achieved": 2, "ell_requested": 2, "mode_effective": "dense"},
        "stage_audits": {
            "hypothesis_failed": True,
            "extraction": {
                "requested": 2,
                "achieved": 2,
                "max_per_edge_load": 1.0,
                "iterations": [{"iteration": 0, "extracted": True, "degree_residual": 1e-12}],
            },
            "hf": {"hyperedges": 2},
            "matching": {"hf_uncovered_count": 0},
            "completion": {"added": 0},
        },
        "result": {"matched": [[0, 1, 2], [3, 4, 5]], "uncovered": [], "uncovered_count": 0},
        "uncovered_fraction": 0.0,
    }


def test_pipeline_check_accepts_valid_report():
    assert checks.check_pipeline(1, _pipeline_report(), 6, K6_EDGES, 3) == []


def test_pipeline_check_rejects_overlapping_tuples():
    report = _pipeline_report()
    report["result"]["matched"] = [[0, 1, 2], [2, 3, 4]]
    assert any("overlaps" in f for f in checks.check_pipeline(1, report, 6, K6_EDGES, 3))


def test_pipeline_check_rejects_non_clique():
    edges = K6_EDGES - {(3, 5)}
    assert any("is not a K_3" in f for f in checks.check_pipeline(1, _pipeline_report(), 6, edges, 3))


def test_pipeline_check_rejects_wrong_uncovered_count():
    report = _pipeline_report()
    report["result"]["uncovered_count"] = 3
    assert any("uncovered_count" in f for f in checks.check_pipeline(1, report, 6, K6_EDGES, 3))


def test_pipeline_check_rejects_exit_code_and_loads():
    report = _pipeline_report()
    report["stage_audits"]["extraction"]["max_per_edge_load"] = 1.01
    report["stage_audits"]["extraction"]["iterations"][0]["degree_residual"] = 1e-3
    assert len(checks.check_pipeline(0, report, 6, K6_EDGES, 3)) == 3


def test_pipeline_check_sparse_split():
    report = _pipeline_report()
    report["parameters"]["mode_effective"] = "sparse"
    extraction = report["stage_audits"]["extraction"]
    del extraction["iterations"]
    extraction.update(split_sizes=[7, 8], failed_parts=[])
    assert checks.check_pipeline(1, report, 6, K6_EDGES, 3) == []
    extraction["split_sizes"] = [7, 7]
    assert any("partition" in f for f in checks.check_pipeline(1, report, 6, K6_EDGES, 3))
    extraction["split_sizes"], extraction["failed_parts"] = [7, 8], [1]
    assert any("failed parts" in f for f in checks.check_pipeline(1, report, 6, K6_EDGES, 3))


def test_audit_checks():
    mixing = {"cert": {"lambda": 2.0, "residual": 1e-9}, "mixing": {"violated": False}}
    assert checks.check_audit_mixing(0, mixing, 2.0 + 1e-7) == []
    assert len(checks.check_audit_mixing(0, mixing, 2.1)) == 1
    lp = {"gap": 1e-9, "prop3": {"all_pass": True}, "slackness": {"all_pass": True}}
    assert checks.check_lp(0, lp) == []
    bad = copy.deepcopy(lp)
    bad["gap"], bad["prop3"]["all_pass"] = 1e-3, False
    assert len(checks.check_lp(1, bad)) == 3


def _span(i, name, parent, start, end, **attrs):
    return {"id": i, "name": name, "parent": parent, "round": 1, "start": start, "end": end,
            "attrs": attrs}


# A factor certificate (0..10) with a t* solve (1..4, simplex leaf 1.5..3.5)
# and an IPM re-solve (5..9); a later pipeline.run span (10..12) is unrelated.
NESTED = [
    _span(0, "factor_lp.factor", None, 0.0, 10.0, has_factor=True),
    _span(1, "factor_lp.t_star", 0, 1.0, 4.0),
    _span(2, "factor_lp.linprog", 1, 1.5, 3.5, method="highs", rows=4, nnz=9, status=0, nit=7),
    _span(3, "factor_lp.linprog", 0, 5.0, 9.0, method="highs-ipm", rows=6, nnz=8, status=0, nit=3),
    _span(4, "pipeline.run", None, 10.0, 12.0),
]


def test_self_time_subtracts_direct_children_only():
    own = self_times(NESTED)
    assert own == {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0, 4: 2.0}


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "a", None, 0.0, 10.0), _span(1, "b", 0, 1.0, 4.0), _span(2, "c", 0, 3.0, 6.0)]
    assert self_times(spans)[0] == 5.0


def test_layer_metrics_from_nested_spans():
    m = layer_metrics(NESTED)
    assert m["factor_lp.factor_s"] == 3.0
    assert m["factor_lp.t_star_s"] == 1.0
    assert m["factor_lp.lp_simplex_s"] == 2.0
    assert m["factor_lp.lp_ipm_s"] == 4.0
    assert m["pipeline.self_s"] == 2.0
    assert m["factor_lp.lp_solves"] == 2
    assert m["factor_lp.lp_iterations"] == 10
    assert m["factor_lp.solves_per_factor"] == 2.0
    assert m["factor_lp.lp_rows_max"] == 6
    assert m["factor_lp.lp_nnz_max"] == 9


def _declared(section):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_printed_metric_names_are_declared():
    rounds = [
        {"wall": 2.0, "cpu": 2.5, "traced": False, "reports": [_pipeline_report()]},
        {"wall": 2.1, "cpu": 2.6, "traced": True, "reports": [], "spans": NESTED},
    ]
    e2e = run.end_to_end_metrics(rounds, [0.5, 0.6], 100.0)
    assert set(e2e) == _declared("end_to_end")
    layers = run.per_layer_metrics(rounds, [_span(0, "generators.gen", None, 0.0, 0.1)])
    assert set(layers) == _declared("per_layer")


def test_an_operation_with_several_faults_fails_once(tmp_path, monkeypatch):
    out = tmp_path / "lp.json"

    def bad_lp(argv):
        report = {"gap": 1.0, "prop3": {"all_pass": False}, "slackness": {"all_pass": False}}
        out.write_text(json.dumps(report))
        return 1

    monkeypatch.setattr(run.workloads, "round_ops", lambda *a: [("lp", [], str(out))])
    bench = run.Run("audit", {}, str(tmp_path))
    bench.main = bad_lp
    bench.round(0, None)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert len(bench.failures) == 4
