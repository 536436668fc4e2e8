"""Acceptance gate: every suite criterion must pass at its stated tolerance.

Each criterion prints one PASS/FAIL line with its runtime so a bare
`pytest tests/test_acceptance.py -s` doubles as the sign-off table; the
details dict is attached to the assertion message on failure.
"""

import dataclasses
import subprocess

import pytest
from scipy.optimize import linprog

import cfl.acceptance as acceptance_mod
import cfl.factor_lp as factor_lp_mod
import cfl.pipeline as pipeline_mod
from cfl.acceptance import CRITERIA, _corpus, criterion_1, criterion_6, criterion_9, run_all


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, capsys):
    result = CRITERIA[number]()
    line = (
        f"ACCEPTANCE {result['criterion']} {result['name']}: "
        f"{'PASS' if result['passed'] else 'FAIL'} ({result['runtime_s']:.1f}s)"
    )
    with capsys.disabled():
        print(line)
    assert result["passed"], f"{line}\ndetails: {result['details']}"


def test_criteria_are_numbered_one_to_nine_with_unique_names():
    records = run_all()
    assert [r["criterion"] for r in records] == list(range(1, 10)) == sorted(CRITERIA)
    assert len({r["name"] for r in records}) == 9
    for r in records:
        assert set(r) == {"criterion", "name", "passed", "runtime_s", "details"}
        assert isinstance(r["details"]["failures"], list)


def _registered(monkeypatch, failures, limit_s=None):
    monkeypatch.setattr(acceptance_mod, "CRITERIA", {})

    @acceptance_mod._criterion(10, "stand-in", limit_s=limit_s)
    def stand_in():
        return list(failures), {"measured": 1}

    assert acceptance_mod.CRITERIA == {10: stand_in}
    return stand_in()


def test_a_reported_failure_fails_the_criterion(monkeypatch):
    record = _registered(monkeypatch, ["broken"], limit_s=60)
    assert record["passed"] is False
    assert record["details"] == {"measured": 1, "failures": ["broken"]}
    assert _registered(monkeypatch, [], limit_s=60)["passed"] is True


def test_running_past_the_limit_fails_the_criterion(monkeypatch):
    # every run takes at least the 0 s it is allowed
    record = _registered(monkeypatch, [], limit_s=0)
    assert record["passed"] is False
    assert record["details"]["failures"] == [f"ran {record['runtime_s']:.1f}s, past its 0s limit"]


def test_criterion_1_solves_each_instance_once(monkeypatch):
    # per instance: one primal-dual pair, the subset's t* (4 of the 22 random
    # subsets span no clique and solve nothing) and the integral matching's
    # relaxation (0 <= x <= 1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("bounds"))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(factor_lp_mod, "linprog", counting)
    assert criterion_1()["passed"]
    instances = len(_corpus())
    assert instances == 22
    assert calls.count((0, 1)) == instances
    assert calls.count((0, None)) == 2 * instances - 4
    assert len(calls) == 62


def test_criterion_9_fails_when_a_run_writes_no_report(monkeypatch):
    # a child that dies before main (a traceback) also exits 1, the code of
    # a forced run, but leaves no report behind
    def crashed(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, "", "Traceback ...\nImportError: boom\n")

    monkeypatch.setattr(acceptance_mod.subprocess, "run", crashed)
    result = criterion_9()
    assert result["passed"] is False
    assert result["details"]["failures"] == [
        "run a: exit 1, no report: ImportError: boom",
        "run b: exit 1, no report: ImportError: boom",
    ]


def test_criterion_6_fails_on_an_empty_H_f(monkeypatch):
    # completion alone still covers these instances, so only the H_f
    # matcher's count before completion can tell that H_f was emptied
    build = pipeline_mod.build_Hf

    def emptied(*args, **kwargs):
        hf = build(*args, **kwargs)
        return dataclasses.replace(hf, hyperedges=hf.hyperedges[:0])

    monkeypatch.setattr(pipeline_mod, "build_Hf", emptied)
    result = criterion_6()
    assert result["passed"] is False
    assert result["details"]["k60_hf_uncovered"] == [60] * 5
    assert result["details"]["rr90_hf_uncovered"] == [90] * 5
    assert result["details"]["hf_within_two_thirds"] == [0, 0]
    assert result["details"]["failures"] == [
        "K_60 H_f at most 2n/3 uncovered on 0 of 5 seeds, fewer than 4",
        "rr(90,45) H_f at most 2n/3 uncovered on 0 of 5 seeds, fewer than 4",
    ]


def test_criterion_1_fails_on_a_short_corpus(monkeypatch):
    monkeypatch.setattr(acceptance_mod, "_corpus", lambda: _corpus()[:3])
    result = criterion_1()
    assert result["passed"] is False
    assert result["details"]["failures"] == ["corpus has 3 instances, fewer than 20"]
