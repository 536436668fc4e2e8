"""Canonical JSON, atomic writes, and the command-line entry points."""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog, milp
from scipy.sparse.linalg import ArpackNoConvergence

import cfl.cli as cli_mod
import cfl.cliques as cliques_mod
import cfl.factor_lp as factor_lp_mod
import cfl.pipeline as pipeline_mod
import cfl.spectral as spectral_mod
from cfl import (
    InputError,
    WeightedGraph,
    check_prop3,
    enumerate_cliques,
    gen_complete,
    gen_random_regular,
    parse_graph,
    regularity,
    second_eigenvalue,
    sparse_split,
    uniform_weights,
    write_graph,
    write_weighted_graph,
)
from cfl.cli import atomic_write, canonical_json, main


class TestCanonicalJson:
    def test_keys_are_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_rendering_is_12_significant_digits(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(2.0) == "2"
        assert canonical_json(1 / 3) == "0.333333333333"

    def test_scalars_and_containers(self):
        obj = {"x": [1, 2.5, None, True, "s"], "y": (0,)}
        assert canonical_json(obj) == '{"x":[1,2.5,null,true,"s"],"y":[0]}'

    def test_nan_and_inf_are_rejected(self):
        for bad in (float("nan"), float("inf"), {"a": float("-inf")}):
            with pytest.raises(InputError):
                canonical_json(bad)

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(InputError, match="key"):
            canonical_json({1: "a"})

    def test_numpy_scalars_unwrap(self):
        assert canonical_json(np.int64(3)) == "3"
        assert canonical_json(np.float64(0.5)) == "0.5"
        assert canonical_json(np.bool_(True)) == "true"

    def test_report_objects_serialize_via_to_dict(self, k6):
        text = canonical_json(second_eigenvalue(k6))
        payload = json.loads(text)
        assert payload["lambda"] == pytest.approx(1.0, abs=1e-8)

    def test_unserializable_objects_are_rejected(self):
        with pytest.raises(InputError, match="serialize"):
            canonical_json({"a": {1, 2}})

    def test_serialize_report_is_deterministic_bytes(self, k6):
        cert = second_eigenvalue(k6)
        assert canonical_json(cert) == canonical_json(cert)

    def test_output_parses_back_identically(self):
        obj = {"z": [1.25, "x"], "a": {"k": False, "j": None}}
        assert json.loads(canonical_json(obj)) == obj


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "report.json"
        atomic_write(str(target), "one\n")
        atomic_write(str(target), "two\n")
        assert target.read_text() == "two\n"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write(str(tmp_path / "a.json"), "x")
        assert os.listdir(tmp_path) == ["a.json"]


@pytest.fixture()
def k6_file(tmp_path, k6):
    path = tmp_path / "k6.txt"
    path.write_text(write_graph(k6))
    return str(path)


@pytest.fixture()
def petersen_file(tmp_path, petersen):
    path = tmp_path / "petersen.txt"
    path.write_text(write_graph(petersen))
    return str(path)


class TestGenCommand:
    def test_complete_graph_round_trips(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "--kind", "complete", "--n", "6", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "6 15"
        assert write_graph(parse_graph(text)) == text

    def test_paley(self, tmp_path):
        out = tmp_path / "p.txt"
        assert main(["gen", "--kind", "paley", "--q", "13", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "13 39"

    def test_circulant(self, tmp_path):
        out = tmp_path / "c.txt"
        code = main(
            ["gen", "--kind", "circulant", "--n", "8", "--connection-set", "1,3",
             "--out", str(out)]
        )
        assert code == 0
        assert parse_graph(out.read_text()).m == 16

    def test_random_regular_requires_seed(self, tmp_path, capsys):
        code = main(
            ["gen", "--kind", "random-regular", "--n", "10", "--d", "4",
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--kind", "circulant", "--n", "10"], ["--kind", "complete"]],
        ids=["circulant_without_connection_set", "complete_without_n"],
    )
    def test_missing_generator_parameter_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "g.txt"
        assert main(["gen", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "requires" in err
        assert not out.exists()

    def test_non_integer_connection_set_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        argv = ["gen", "--kind", "circulant", "--n", "10", "--connection-set", "1,x"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --connection-set takes comma-separated integers, got '1,x'\n"
        assert not out.exists()

    def test_out_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main(["gen", "--kind", "complete", "--n", "6", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.rglob(".cfl-tmp-*")) == []

    def test_random_regular_with_seed(self, tmp_path):
        out = tmp_path / "r.txt"
        code = main(
            ["gen", "--kind", "random-regular", "--n", "10", "--d", "4",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        g = parse_graph(out.read_text())
        info = regularity(g)
        assert g.n == 10 and info.is_regular and info.d == 4


class TestAnalysisCommands:
    def test_spectrum_stdout(self, k6_file, capsys):
        assert main(["spectrum", "--in", k6_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == pytest.approx(1.0, abs=1e-8)
        assert payload["method"] == "dense_eig"

    def test_spectrum_lanczos_method(self, k6_file, capsys, monkeypatch):
        monkeypatch.setattr(spectral_mod, "DENSE_LIMIT", 5)  # K_6 is above it
        assert main(["spectrum", "--in", k6_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == pytest.approx(1.0, abs=1e-9)
        assert payload["method"] == "lanczos"

    def test_spectrum_without_convergence_exits_3(self, k6_file, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectral_mod, "eigsh", stalled)
        monkeypatch.setattr(spectral_mod, "DENSE_LIMIT", 5)
        assert main(["spectrum", "--in", k6_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "converge" in err

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_spectrum_residual_above_tol_exits_3(self, method, tmp_path, capsys, monkeypatch):
        # both paths refuse a witness eigenpair whose A-residual (~4e-15 on
        # rr(30,10) seed 1) exceeds tol
        if method == "lanczos":
            monkeypatch.setattr(spectral_mod, "DENSE_LIMIT", 29)
        path = tmp_path / "rr.txt"
        path.write_text(write_graph(gen_random_regular(30, 10, 1)))
        assert main(["spectrum", "--in", str(path), "--tol", "1e-300"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "A-residual" in captured.err

    def test_spectrum_out_file_is_stable(self, k6_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["spectrum", "--in", k6_file, "--out", str(a)]) == 0
        assert main(["spectrum", "--in", k6_file, "--out", str(b)]) == 0
        assert capsys.readouterr().out == ""
        assert a.read_bytes() == b.read_bytes()

    def test_audit_mixing_clean_graph(self, k6_file, capsys):
        assert main(["audit-mixing", "--in", k6_file, "--samples", "500", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mixing"]["violated"] is False

    def test_audit_mixing_without_vertices_exits_2(self, tmp_path, capsys):
        path, out = tmp_path / "empty.txt", tmp_path / "out"
        path.write_text("0 0\n")
        code = main(["audit-mixing", "--in", str(path), "--samples", "10", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the mixing audit needs at least one vertex\n"
        assert not out.exists()

    def test_cliques_window(self, k6_file, capsys):
        assert main(["cliques", "--in", k6_file, "--t", "3", "--window", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 20
        assert payload["window"]["within"] is True

    def test_cliques_window_beyond_the_float_range_exits_2(self, k6_file, capsys):
        # 2^(31^2) is a float, 2^(32^2) is not; the report may hold no inf
        assert main(["cliques", "--in", k6_file, "--t", "3", "--window", "31"]) == 0
        window = json.loads(capsys.readouterr().out)["window"]
        center = 6**31 * (5 / 6) ** 465 / math.factorial(31)
        assert window == {"i": 31, "count": 0, "lower": pytest.approx(center / 2**961, rel=1e-11),
                          "upper": pytest.approx(center * 2**961, rel=1e-11), "within": True}
        for i in ("32", "40"):
            assert main(["cliques", "--in", k6_file, "--t", "3", "--window", i]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: the K_{i} window 2^(+-i^2) for i={i} leaves the float range\n"

    @pytest.mark.parametrize("command", [["lp", "--t", "3"], ["spectrum"]], ids=["lp", "spectrum"])
    @pytest.mark.parametrize("header", ["4294967296 0", "99999999999999999999 0"])
    def test_vertex_count_beyond_int32_exits_2(self, command, header, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(header + "\n")
        assert main([*command, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1: vertex count above 2147483648 in {header!r}\n"

    def test_cliques_span_failure_sets_exit_code(self, petersen_file, capsys):
        code = main(
            ["cliques", "--in", petersen_file, "--t", "3",
             "--span-trials", "2", "--seed", "1"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["span_audit"]["failures"] == 2

    def test_cliques_default_span_size_holds_a_clique(self, k6_file, capsys):
        # 0.11 n / t rounds up to 1 on K_6; the default is at least t
        code = main(["cliques", "--in", k6_file, "--t", "3", "--span-trials", "2", "--seed", "1"])
        assert code == 0
        audit = json.loads(capsys.readouterr().out)["span_audit"]
        assert (audit["size"], audit["failures"]) == (3, 0)

    def test_cliques_span_size_over_n_exits_2(self, k6_file, tmp_path, capsys):
        # the default size is at least t, which K_6 cannot hold at t = 7: the
        # message names t, the flag the user set, not the derived size
        out = tmp_path / "out"
        code = main(["cliques", "--in", k6_file, "--t", "7", "--span-trials", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: t must be at most n=6 for the span audit, got 7\n"
        assert not out.exists()

    def test_cliques_window_over_the_cap_exits_3(self, k6_file, capsys, monkeypatch):
        # the 15 edges of K_6 fit under the cap, the window's 20 triangles do not
        monkeypatch.setattr(cliques_mod, "ENUMERATION_CAP", 16)
        assert main(["cliques", "--in", k6_file, "--t", "2", "--window", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: clique enumeration exceeded 16: 20 K_3\n"

    def test_cliques_span_requires_seed(self, petersen_file, capsys):
        code = main(["cliques", "--in", petersen_file, "--t", "3", "--span-trials", "2"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_lp_reports_duality_gap(self, k6_file, capsys):
        assert main(["lp", "--in", k6_file, "--t", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] <= 2e-7
        assert payload["cert"]["has_factor"] is True

    def test_lp_weighted_input(self, tmp_path, k6, capsys):
        lines = ["6 15"] + [f"{u} {v} 0.5" for u, v in k6.edges]
        path = tmp_path / "w.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["lp", "--in", str(path), "--t", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["primal_objective"] == pytest.approx(2.0, abs=1e-7)

    def test_lp_prop3_requires_seed(self, k6_file, capsys):
        assert main(["lp", "--in", k6_file, "--t", "3", "--prop3"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_lp_prop3_and_slackness(self, k6_file, capsys):
        code = main(
            ["lp", "--in", k6_file, "--t", "3", "--prop3", "--seed", "5", "--slackness"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prop3"]["all_pass"] is True
        assert payload["slackness"]["all_pass"] is True

    def test_lp_prop3_reuses_the_commands_solves(self, k6_file, k6_unit, capsys, monkeypatch):
        # K_6 and the induced K_4 both have a factor, so neither the pair nor
        # the subset's t* solves an LP; the integral matching value solves
        # its one relaxation (0 <= x <= 1)
        cliques = enumerate_cliques(k6_unit.base, 3)
        primal, dual, cert = factor_lp_mod.certified_pair(k6_unit, cliques, 1e-7)
        bare = canonical_json(check_prop3(k6_unit, cliques, 1e-7, 5, primal, dual, cert))
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("bounds"))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "linprog", counting)
        code = main(["lp", "--in", k6_file, "--t", "3", "--prop3", "--seed", "5", "--slackness"])
        assert code == 0
        assert calls == [(0, 1)]
        payload = json.loads(capsys.readouterr().out)
        assert canonical_json(payload["prop3"]) == bare

    def test_lp_refutation_reuses_the_commands_primal(self, tmp_path, capsys, monkeypatch):
        # K_4 at w = 0.2 has no factor: the certificate takes t* from the
        # command's primal, so the one solve of the primal-dual pair is all
        lines = ["4 6"] + [f"{u} {v} 0.2" for u, v in gen_complete(4).edges]
        path = tmp_path / "k4.txt"
        path.write_text("\n".join(lines) + "\n")
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "linprog", counting)
        assert main(["lp", "--in", str(path), "--t", "3"]) == 0
        assert len(calls) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cert"]["has_factor"] is False
        assert payload["cert"]["t_star"] == pytest.approx(payload["primal_objective"], abs=1e-12)

    def test_lp_reports_no_perturbed_witness(self, tmp_path, capsys, monkeypatch):
        # Newton's factor of K_7 with one clique's weight raised by 1e-3: the
        # exact checks refuse it, so the command reports HiGHS's pair; with
        # those checks waved through, the certificate's bound t* <= |V|/t
        # exits 3
        path = tmp_path / "g.txt"
        path.write_text(write_weighted_graph(uniform_weights(gen_complete(7))))
        newton, calls = factor_lp_mod._max_entropy_factor, []

        def perturbed(*args):
            f = newton(*args)
            f[0] += 1e-3
            return f

        def counting(*args, **kwargs):
            calls.append(kwargs["A_ub"].shape[0])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "_max_entropy_factor", perturbed)
        monkeypatch.setattr(factor_lp_mod, "linprog", counting)
        assert main(["lp", "--in", str(path), "--t", "3"]) == 0
        assert calls == [35]
        payload = json.loads(capsys.readouterr().out)
        assert "not spread" in payload["cert"]["note"]
        assert all(abs(load - 1.0) <= 1e-9 for load in payload["cert"]["per_vertex_load"].values())
        monkeypatch.setattr(factor_lp_mod, "_is_factor", lambda *args: True)
        assert main(["lp", "--in", str(path), "--t", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: t_star 2.334333333333334 exceeds |V|/t")

    @pytest.mark.parametrize(
        "graph,weight_seed,flags,solves,milps,factors",
        [
            # both graphs have a factor, so Newton's witness gives the pair
            # with no LP; the command's certificate is one has_fractional_factor
            # call, and a traced run records it
            ((30, 15, 1), 0, [], [], [], 1),
            ((70, 35, 0), 1, [], [], [], 1),
            # the weighted rr(70,35) of the benchmark's audit workload: the
            # matching relaxation and one probe (x_j fixed at 1, over the
            # cliques still kept) per clique outside the 140-clique core
            # whose bound reaches the core's value; the probes refute all
            # three, so one MILP runs.  The subset's G[U] has a factor too,
            # so its t* solves no LP
            ((70, 35, 0), 1, ["--prop3", "--slackness", "--seed", "0"],
             [(0, 1), ("probe", 143), ("probe", 142), ("probe", 141)],
             [140], 2),
        ],
        ids=["plain", "audit_plain", "audit_prop3_slackness"],
    )
    def test_lp_solves_per_weighted_run(self, graph, weight_seed, flags, solves, milps, factors,
                                        tmp_path, capsys, monkeypatch):
        g = gen_random_regular(*graph)
        rng = np.random.default_rng(weight_seed)
        wg = WeightedGraph(g, {e: float(x) for e, x in zip(g.edges, rng.random(g.m))})
        path = tmp_path / "w.txt"
        path.write_text(write_weighted_graph(wg))
        calls, milp_cols = [], []

        def counting(c, **kwargs):
            bounds = kwargs["bounds"]
            calls.append(bounds if isinstance(bounds, tuple) else ("probe", len(c)))
            return linprog(c, **kwargs)

        def counting_milp(c, **kwargs):
            milp_cols.append(len(c))
            return milp(c, **kwargs)

        def recording(*args):
            certs.append(decide(*args))
            return certs[-1]

        decide, certs = factor_lp_mod.has_fractional_factor, []
        monkeypatch.setattr(factor_lp_mod, "linprog", counting)
        monkeypatch.setattr(factor_lp_mod, "milp", counting_milp)
        monkeypatch.setattr(factor_lp_mod, "has_fractional_factor", recording)
        assert main(["lp", "--in", str(path), "--t", "3", *flags]) == 0
        assert calls == solves
        assert milp_cols == milps
        # the command's certificate, then t*(G[U]) of --prop3
        assert len(certs) == factors and all(cert.has_factor for cert in certs)
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] <= 2e-7
        assert all(payload[part]["all_pass"] for part in ("prop3", "slackness") if part in payload)

    @pytest.mark.parametrize("scale", [2.0], ids=["doubled_f"])
    def test_lp_refuses_an_infeasible_read_off(self, scale, tmp_path, capsys, monkeypatch):
        # K_4 at w = 0.2 has no factor, so the pair comes from the covering
        # form, f read off its marginals (0.1 per triangle); doubled, it
        # loads every pair with 0.4
        path = tmp_path / "g.txt"
        path.write_text(write_weighted_graph(WeightedGraph(gen_complete(4), np.full(6, 0.2))))
        assert self._lp_with_read_off(path, scale, monkeypatch) == [4]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: LP pair infeasible")

    @pytest.mark.parametrize("scale", [0.0, 0.5], ids=["zeroed_f", "halved_f"])
    def test_lp_refuses_a_read_off_below_the_optimum(self, scale, tmp_path, capsys, monkeypatch):
        # a zeroed or halved f is feasible, and only the objective gap
        # (against t* = 0.4 on K_4 at w = 0.2) refuses it
        path = tmp_path / "g.txt"
        path.write_text(write_weighted_graph(WeightedGraph(gen_complete(4), np.full(6, 0.2))))
        assert self._lp_with_read_off(path, scale, monkeypatch) == [4]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: LP pair not optimal: objective gap")

    @staticmethod
    def _lp_with_read_off(path, scale, monkeypatch) -> list:
        """Run cfl lp with the read-off f scaled; expects exit 3, returns each LP's rows."""
        shapes = []

        def mutating(*args, **kwargs):
            res = linprog(*args, **kwargs)
            shapes.append(kwargs["A_ub"].shape[0])
            res.ineqlin.marginals *= scale
            return res

        monkeypatch.setattr(factor_lp_mod, "linprog", mutating)
        assert main(["lp", "--in", str(path), "--t", "3"]) == 3
        return shapes


# a forced pipeline run that would write a CSV table as well as --out
PIPELINE_CSV = ["pipeline", "--in", "{k6}", "--t", "3", "--seed", "0", "--force", "--csv", "{csv}"]


class TestSharedFlags:
    @pytest.fixture
    def no_input_read(self, monkeypatch):
        # a flag checked up front exits before any input file is read
        def unread(path):
            raise AssertionError(f"{path} read")

        monkeypatch.setattr(cli_mod, "_read_graph", unread)
        monkeypatch.setattr(cli_mod, "_read_maybe_weighted", unread)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "random-regular", "--n", "10", "--d", "4"],
            ["audit-mixing", "--in", "{k6}", "--samples", "10"],
            ["cliques", "--in", "{k6}", "--t", "3", "--span-trials", "2"],
            ["lp", "--in", "{k6}", "--t", "3", "--prop3"],
            ["pipeline", "--in", "{k6}", "--t", "3", "--force"],
        ],
        ids=["gen", "audit-mixing", "cliques", "lp", "pipeline"],
    )
    def test_negative_seed_exits_2(self, argv, k6_file, tmp_path, capsys, no_input_read):
        out = tmp_path / "out"
        argv = [a.format(k6=k6_file) for a in argv]
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_negative_seed_in_a_list_exits_2_before_any_run(self, k6_file, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli_mod, "run_end_to_end", lambda *args: runs.append(args))
        code = main(["pipeline", "--in", k6_file, "--t", "3", "--seeds", "0,-1", "--force"])
        assert code == 2
        assert runs == []
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["lp", "--in", "{k6}", "--t", "3", "--prop3", "--slackness"],
             "--seed is required for the prop3 subset check"),
            (["cliques", "--in", "{k6}", "--t", "3", "--span-trials", "2"],
             "--seed is required for the span audit"),
            (["audit-mixing", "--in", "{k6}", "--samples", "0", "--seed", "1"],
             "--samples must be at least 1, got 0"),
            (["cliques", "--in", "{k6}", "--t", "3", "--span-trials", "-2", "--seed", "1"],
             "--span-trials must be at least 1, got -2"),
            (["cliques", "--in", "{k6}", "--t", "3", "--span-trials", "0", "--seed", "1"],
             "--span-trials must be at least 1, got 0"),
            (["cliques", "--in", "{k6}", "--t", "3", "--window", "-1"],
             "--window must be at least 2, got -1"),
            (["cliques", "--in", "{k6}", "--t", "3", "--window", "1"],
             "--window must be at least 2, got 1"),
            ([*PIPELINE_CSV, "--ell", "0"], "--ell must be at least 1, got 0"),
            ([*PIPELINE_CSV, "--ell", "-2"], "--ell must be at least 1, got -2"),
            ([*PIPELINE_CSV, "--epsilon", "2"], "--epsilon must lie in (0,1), got 2.0"),
            ([*PIPELINE_CSV, "--epsilon", "0"], "--epsilon must lie in (0,1), got 0.0"),
            ([*PIPELINE_CSV, "--epsilon", "1"], "--epsilon must lie in (0,1), got 1.0"),
            ([*PIPELINE_CSV, "--epsilon", "nan"], "--epsilon must lie in (0,1), got nan"),
            # lambda's path, alpha and the span size follow from the input alone
            (["spectrum", "--in", "{k6}", "--method", "lanczos"],
             "unrecognized arguments: --method lanczos"),
            ([*PIPELINE_CSV, "--alpha", "-4"], "unrecognized arguments: --alpha -4"),
            ([*PIPELINE_CSV, "--alpha", "1.5"], "unrecognized arguments: --alpha 1.5"),
            ([*PIPELINE_CSV, "--alpha", "nan"], "unrecognized arguments: --alpha nan"),
            (["cliques", "--in", "{k6}", "--t", "3", "--span-trials", "2", "--span-size", "-3",
              "--seed", "0"],
             "unrecognized arguments: --span-size -3"),
            (["cliques", "--in", "{k6}", "--t", "3", "--span-trials", "2", "--span-size", "0",
              "--seed", "0"],
             "unrecognized arguments: --span-size 0"),
            (["cliques", "--in", "{k6}", "--t", "3", "--span-size", "5"],
             "unrecognized arguments: --span-size 5"),
            (["pipeline", "--in", "{k6}", "--t", "2", "--seed", "0", "--force"],
             "--t must be at least 3, got 2"),
            (["cliques", "--in", "{k6}", "--t", "1"], "--t must be at least 2, got 1"),
            (["lp", "--in", "{k6}", "--t", "1"], "--t must be at least 2, got 1"),
        ],
        ids=["lp-prop3", "cliques-span-trials", "audit-mixing-samples", "span-trials-negative",
             "span-trials-zero", "window-negative", "window-one", "ell-zero",
             "ell-negative", "epsilon-two", "epsilon-zero", "epsilon-one", "epsilon-nan",
             "spectrum-method", "alpha-negative", "alpha-over-one", "alpha-nan",
             "span-size-negative", "span-size-zero", "span-size-alone", "pipeline-t-two",
             "cliques-t-one", "lp-t-one"],
    )
    def test_flags_fail_before_any_work(self, argv, message, k6_file, tmp_path, capsys,
                                        monkeypatch, no_input_read):
        def unreached(*args, **kwargs):
            raise AssertionError("reached")

        for name in ("enumerate_cliques", "certified_pair", "second_eigenvalue", "run_end_to_end"):
            monkeypatch.setattr(cli_mod, name, unreached)
        out, table = tmp_path / "out", tmp_path / "x.csv"
        argv = [a.format(k6=k6_file, csv=table) for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = f"error: {message}\n"
        if message.startswith("unrecognized arguments: "):  # argparse's own refusal
            parser = cli_mod.build_parser()
            expected = f"{parser.format_usage()}{parser.prog}: {expected}"
        assert captured.err == expected
        assert not out.exists() and not table.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_cfl_threads_must_be_a_positive_integer(self, value, tmp_path, capsys, monkeypatch):
        # checked with the flags: the missing input is never opened
        monkeypatch.setenv("CFL_THREADS", value)
        out = tmp_path / "out"
        code = main(["pipeline", "--in", str(tmp_path / "missing.txt"), "--t", "3",
                     "--seeds", "0,1", "--force", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: CFL_THREADS must be a positive integer, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value,seeds", [("", ["--seeds", "0,1"]), ("abc", ["--seed", "0"])],
                             ids=["empty-seeds", "unread-seed"])
    def test_cfl_threads_empty_or_unread_runs(self, value, seeds, k6_file, capsys, monkeypatch):
        # an empty value is one thread, and a single --seed never reads it
        monkeypatch.setenv("CFL_THREADS", value)
        argv = ["pipeline", "--in", k6_file, "--t", "3", "--force", "--mode", "dense", "--ell", "2"]
        assert main([*argv, *seeds]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-7"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--in", "{k6}"],
            ["lp", "--in", "{k6}", "--t", "3"],
            ["lp", "--in", "{k6}", "--t", "3", "--prop3", "--seed", "0", "--slackness"],
            ["pipeline", "--in", "{k6}", "--t", "3", "--seed", "0", "--force"],
        ],
        ids=["spectrum", "lp", "lp-prop3-slackness", "pipeline"],
    )
    def test_tol_must_be_finite_and_positive(self, argv, tol, k6_file, capsys, no_input_read):
        argv = [a.format(k6=k6_file) for a in argv]
        assert main([*argv, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be finite and positive, got {float(tol)}\n"


class TestPipelineCommand:
    def test_hypothesis_gate_without_force(self, petersen_file, capsys):
        code = main(["pipeline", "--in", petersen_file, "--t", "3", "--seed", "0"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload
        assert payload["hypothesis"]["branch"] == "fails"

    def test_forced_run_reports_but_flags(self, petersen_file, capsys):
        code = main(
            ["pipeline", "--in", petersen_file, "--t", "3", "--seed", "0", "--force"]
        )
        assert code == 1  # hypothesis failure keeps the exit code nonzero
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["uncovered_count"] == 10
        assert payload["stage_audits"]["hypothesis_failed"] is True

    def test_enumeration_cap_applies_per_enumerated_graph(self, tmp_path, capsys, monkeypatch):
        # the sparse engine enumerates only its parts and G[uncovered], so a cap
        # below the host's triangle count but above every part's stops dense alone
        g = gen_random_regular(90, 45, 31)
        path = tmp_path / "rr90.txt"
        path.write_text(write_graph(g))
        cap, host = 1000, len(enumerate_cliques(g, 3))
        assert host > cap
        monkeypatch.setattr(cliques_mod, "ENUMERATION_CAP", cap)
        argv = ["pipeline", "--in", str(path), "--t", "3", "--seed", "0", "--force", "--ell", "3"]
        assert main([*argv, "--mode", "sparse"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["mode_effective"] == "sparse"
        parts = sparse_split(g, 3, payload["parameters"]["stage_seeds"]["split"])
        assert max(len(enumerate_cliques(p, 3)) for p in parts) <= cap
        assert main([*argv, "--mode", "dense"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: [stage:extraction] clique enumeration exceeded {cap}: {host} K_3\n"
        )

    @pytest.mark.parametrize("fault", ["overlap", "non_clique"])
    def test_a_wrong_cover_exits_3(self, fault, tmp_path, capsys, monkeypatch):
        # the final cover audit refuses a completion row that reuses a vertex
        # the matcher covered, or one that is not a triangle of G; on this
        # instance the matcher leaves 18 vertices to the completion
        g = gen_random_regular(30, 15, 0)
        path = tmp_path / "rr30.txt"
        path.write_text(write_graph(g))

        def faulty(host, t, uncovered, seed):
            if fault == "overlap":
                rows = enumerate_cliques(host, t).members
                return rows[~np.isin(rows, uncovered).all(axis=1)][:1]
            row = next(c for c in itertools.combinations(uncovered, t)
                       if not set(itertools.combinations(c, 2)) <= set(host.edges))
            return np.array([row], dtype=np.int32)

        monkeypatch.setattr(pipeline_mod, "greedy_completion", faulty)
        argv = ["pipeline", "--in", str(path), "--t", "3", "--mode", "dense", "--seed", "0", "--force"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [stage:cover] ")
        assert ("cover rows" if fault == "overlap" else "is not a K_3 of G") in captured.err

    def test_forced_complete_graph_covers_all(self, k6_file, capsys):
        code = main(
            ["pipeline", "--in", k6_file, "--t", "3", "--seed", "0", "--force",
             "--mode", "dense", "--ell", "2"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["uncovered_count"] == 0

    def test_multi_seed_csv(self, k6_file, tmp_path, capsys):
        csv_path = tmp_path / "cov.csv"
        code = main(
            ["pipeline", "--in", k6_file, "--t", "3", "--seeds", "0,1", "--force",
             "--mode", "dense", "--ell", "2", "--csv", str(csv_path)]
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "seed,ell_achieved,uncovered_count,runtime_ms"
        assert len(rows) == 3
        assert rows[1].startswith("0,2,") and rows[2].startswith("1,2,")

    def test_sparse_reports_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch):
        # with CFL_THREADS = 2 two seeds of --seeds run at once, in sparse
        # mode and in auto mode (which takes the dense engine here)
        path = tmp_path / "rr.txt"
        path.write_text(write_graph(gen_random_regular(90, 45, 31)))
        for mode in (["--mode", "sparse", "--ell", "2"], ["--mode", "auto"]):
            argv = ["pipeline", "--in", str(path), "--t", "3", "--seeds", "0,1,2,3", "--force", *mode]
            monkeypatch.delenv("CFL_THREADS", raising=False)
            assert main([*argv, "--out", str(tmp_path / "serial.json")]) == 1
            monkeypatch.setenv("CFL_THREADS", "2")
            assert main([*argv, "--out", str(tmp_path / "threaded.json")]) == 1
            serial = (tmp_path / "serial.json").read_bytes()
            reports = json.loads(serial)
            assert [r["parameters"]["seed"] for r in reports] == [0, 1, 2, 3]
            assert all(r["parameters"]["ell_achieved"] >= 2 for r in reports)
            assert (tmp_path / "threaded.json").read_bytes() == serial

    def test_seed_and_seeds_are_exclusive(self, k6_file, capsys):
        code = main(
            ["pipeline", "--in", k6_file, "--t", "3", "--seed", "0", "--seeds", "0,1"]
        )
        assert code == 2
        capsys.readouterr()

    def test_non_integer_seed_list_exits_2(self, k6_file, capsys):
        code = main(["pipeline", "--in", k6_file, "--t", "3", "--seeds", "1,x"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seeds takes comma-separated integers, got '1,x'\n"

    def test_empty_seed_list_exits_2(self, k6_file, tmp_path, capsys):
        # an empty list is not "no list": it would run one pipeline with seed null
        out = tmp_path / "r.json"
        argv = ["pipeline", "--in", k6_file, "--t", "3", "--seeds", "", "--force"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seeds takes comma-separated integers, got ''\n"
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["pipeline", "--in", str(tmp_path / "nope.txt"), "--t", "3", "--seed", "0"])
        assert code == 2
        capsys.readouterr()


class TestParserBehaviour:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "pipeline" in capsys.readouterr().out

    def test_unexpected_exception_is_one_line_exit_3(self, k6_file, capsys, monkeypatch):
        def broken(args):
            raise TypeError("unsupported operand\n  on two lines")

        monkeypatch.setattr(cli_mod, "_cmd_spectrum", broken)
        assert main(["spectrum", "--in", k6_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: TypeError: unsupported operand on two lines\n"


class TestSuiteCommand:
    def test_single_criterion_prints_table(self, capsys):
        assert main(["suite", "--only", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        assert "1/1 criteria passed" in out

    @pytest.mark.parametrize(
        "only,message",
        [
            ("1,z", "--only takes comma-separated integers, got '1,z'"),
            ("42", "--only: no criterion 42; criteria are 1-9"),
            ("", "--only takes comma-separated integers, got ''"),
        ],
    )
    def test_bad_criterion_list_exits_2(self, only, message, capsys):
        assert main(["suite", "--only", only]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# Runs each command line of argv[1] (a JSON list) through main in one
# interpreter and prints, after the import and after each command, its exit
# code and which of the two scipy solver packages are then loaded.
def _child_env() -> dict:
    """This environment, with the cfl package under test first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_newton_hessian_over_the_budget_exits_3(tmp_path):
    # every weight 1/75 on rr(300,150) is the mean pair load of a factor, so
    # nearly every pair binds: Newton's first step would hold 10,957 rows.
    # Under a 2 GB address space, set in the child only, the guard trips
    # before a MemoryError could
    import resource

    g = gen_random_regular(300, 150, 0)
    path = tmp_path / "w.txt"
    path.write_text(write_weighted_graph(WeightedGraph(g, np.full(g.m, 1 / 75))))
    limit = 2 * 1024**3
    proc = subprocess.run(
        [sys.executable, "-m", "cfl.cli", "lp", "--in", str(path), "--t", "3"],
        env=_child_env(), capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error: Newton's 10957-row Hessian needs 2829466776 bytes, "
                           f"over the {cliques_mod.ENUMERATION_BUDGET}-byte budget\n")


SOLVER_PROBE = """
import json, sys
from cfl.cli import main
SOLVERS = ("scipy.optimize", "scipy.sparse.linalg")
def loaded():
    return [name for name in SOLVERS if name in sys.modules]
seen = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    seen.append([main(argv), loaded()])
print(json.dumps(seen))
"""


def test_solvers_load_on_first_use(tmp_path):
    # a fresh interpreter: this one imported scipy.optimize with the tests
    paley, big, out = (str(tmp_path / name) for name in ("paley.txt", "rr.txt", "out.json"))
    commands = [
        ["gen", "--kind", "paley", "--q", "13", "--out", paley],
        ["spectrum", "--in", paley, "--out", out],
        ["cliques", "--in", paley, "--t", "3", "--out", out],
        ["pipeline", "--in", paley, "--t", "3", "--mode", "dense", "--force", "--seed", "0",
         "--out", out],
        ["gen", "--kind", "random-regular", "--n", "2002", "--d", "4", "--seed", "0", "--out", big],
        ["spectrum", "--in", big, "--out", out],  # above DENSE_LIMIT: Lanczos
        ["lp", "--in", paley, "--t", "3", "--out", out],
        ["lp", "--in", paley, "--t", "3", "--prop3", "--seed", "0", "--out", out],
    ]
    proc = subprocess.run([sys.executable, "-c", SOLVER_PROBE, json.dumps(commands)],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = zip(*json.loads(proc.stdout))
    assert codes == (None, 0, 0, 0, 1, 0, 0, 0, 0)  # 1: a forced run that fails the hypothesis
    # the import, gen, spectrum, cliques, dense pipeline, gen
    assert loaded[:6] == ([],) * 6
    assert loaded[6] == ["scipy.sparse.linalg"]  # Lanczos
    assert loaded[7] == ["scipy.sparse.linalg"]  # the LP pair, Newton's factor with no solve
    assert loaded[8] == ["scipy.optimize", "scipy.sparse.linalg"]  # the integral matching MILP
