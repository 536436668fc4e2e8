"""One OpenBLAS thread per dense solve, and reports that do not depend on the count."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import cfl
import cfl.factor_lp as factor_lp_mod
import cfl.spectral as spectral_mod
from cfl import blas
from cfl.cli import main
from cfl.generators import GenSpec, build
from cfl.graphs import WeightedGraph, uniform_weights, write_graph, write_weighted_graph
from cfl.pipeline import PipelineConfig, run_end_to_end

SETTER = blas._openblas()
needs_openblas = pytest.mark.skipif(SETTER is None, reason="scipy's bundled OpenBLAS not found")


def _count() -> int:
    """The OpenBLAS count the calling thread sees, read by setting it and setting it back."""
    previous = SETTER(1)
    SETTER(previous)
    return previous


def _rr(n: int, d: int, seed: int):
    return build(GenSpec(kind="random_regular", n=n, d=d, seed=seed))


def _write_inputs(tmp_path) -> tuple:
    """The benchmark's weighted rr(70,35) (weight seed 1) and rr(90,45) seed 31."""
    g = _rr(70, 35, 0)
    weights = np.random.default_rng(1).random(g.m)
    weighted = tmp_path / "weighted.txt"
    weighted.write_text(write_weighted_graph(WeightedGraph(g, dict(zip(g.edges, weights.tolist())))))
    host = tmp_path / "host.txt"
    host.write_text(write_graph(_rr(90, 45, 31)))
    return weighted, host


def _commands(weighted, host, out) -> dict:
    return {
        "lp": ["lp", "--in", str(weighted), "--t", "3", "--prop3", "--slackness", "--seed", "0",
               "--out", str(out / "lp.json")],
        "pipeline": ["pipeline", "--in", str(host), "--t", "3", "--mode", "auto", "--force",
                     "--seed", "0", "--out", str(out / "pipeline.json")],
    }


@pytest.fixture
def solves(monkeypatch) -> list:
    """(name, OpenBLAS count) of each dense solve, in call order."""
    seen = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            seen.append((name, _count()))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(factor_lp_mod, "cho_factor", recording("cho_factor", factor_lp_mod.cho_factor))
    monkeypatch.setattr(spectral_mod.linalg, "eigh", recording("eigh", scipy.linalg.eigh))
    monkeypatch.setattr(spectral_mod, "eigsh", recording("eigsh", spectral_mod.eigsh))
    return seen


@needs_openblas
class TestOneThread:
    def test_each_dense_solve_runs_on_one_thread(self, solves, tmp_path, monkeypatch):
        monkeypatch.setenv("CFL_THREADS", "2")
        g = _rr(90, 45, 31)
        host = tmp_path / "host.txt"
        host.write_text(write_graph(g))
        previous = SETTER(2)
        try:
            run_end_to_end(g, 3, PipelineConfig(seed=0, force=True))
            monkeypatch.setattr(spectral_mod, "DENSE_LIMIT", 59)  # n = 60 takes Lanczos
            spectral_mod.second_eigenvalue(_rr(60, 6, 0))
            # the two seeds run on the pool's worker threads
            assert main(["pipeline", "--in", str(host), "--t", "3", "--seeds", "0,1", "--force",
                         "--mode", "sparse", "--ell", "3", "--out", str(tmp_path / "out.json")]) == 1
            after = _count()
        finally:
            SETTER(previous)
        assert after == 1  # never set back
        assert {name for name, _ in solves} == {"cho_factor", "eigh", "eigsh"}, solves
        assert {count for _, count in solves} == {1}

    def test_a_count_raised_between_solves_never_reaches_one(self, solves):
        g = _rr(30, 15, 0)
        previous = SETTER(2)
        try:
            cert = cfl.has_fractional_factor(uniform_weights(g), cfl.enumerate_cliques(g, 3))
            SETTER(2)
            spectral_mod.second_eigenvalue(g)
            after = _count()
        finally:
            SETTER(previous)
        assert cert.has_factor
        assert {name for name, _ in solves} == {"cho_factor", "eigh"}, solves
        assert {count for _, count in solves} == {1}
        assert after == 1

    def test_reports_without_the_handle_are_the_one_thread_reports(self, tmp_path, monkeypatch):
        # with the handle absent the helper does nothing, so the count the
        # reports are made at is set to 1 by hand around those runs
        weighted, host = _write_inputs(tmp_path)
        reports = []
        for absent in (False, True):
            out = tmp_path / ("absent" if absent else "present")
            out.mkdir()
            if absent:
                monkeypatch.setattr(blas, "_openblas", lambda: None)
            previous = SETTER(1) if absent else None
            try:
                codes = [main(argv) for argv in _commands(weighted, host, out).values()]
            finally:
                if absent:
                    SETTER(previous)
            assert codes[0] == 0 and codes[1] in (0, 1)
            reports.append([(out / name).read_bytes() for name in ("lp.json", "pipeline.json")])
        assert reports[0] == reports[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the core count")
@pytest.mark.parametrize("command", ["lp", "pipeline", "spectrum"])
def test_reports_do_not_depend_on_the_blas_thread_count(command, tmp_path):
    weighted, host = _write_inputs(tmp_path)
    # rr(12000,6) runs the Lanczos path on vectors of more than 10,000 entries
    lanczos = tmp_path / "rr12000.txt"
    lanczos.write_text(write_graph(_rr(12000, 6, 0)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        argv = {
            **_commands(weighted, host, out),
            "spectrum": ["spectrum", "--in", str(lanczos), "--out", str(out / "spectrum.json")],
        }[command]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("CFL_THREADS", None)
        proc = subprocess.run([sys.executable, "-m", "cfl.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode in (0, 1), proc.stderr
        reports.append((out / f"{command}.json").read_bytes())
    assert reports[0] == reports[1]
