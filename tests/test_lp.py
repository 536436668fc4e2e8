"""Fractional clique-matching LP: primal/dual, factor certificates, audits."""

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog, milp

import cfl.factor_lp as factor_lp_mod
from cfl import (
    InputError,
    NumericalError,
    ResourceError,
    WeightedGraph,
    check_prop3,
    complementary_slackness,
    corollary_ff_driver,
    enumerate_cliques,
    from_edge_list,
    gen_complete,
    gen_paley,
    gen_random_regular,
    has_fractional_factor,
    integral_matching_value,
    solve_dual,
    solve_primal,
    t_star,
    uniform_weights,
)
from cfl.cli import canonical_json
from cfl.factor_lp import DualSolution, PrimalSolution
from oracles import (
    edge_weights,
    exhaustive_integral_matching,
    max_entropy_fit,
    min_max_factor_value,
    oracle_t_star,
    pair_loads,
    slackness_by_loops,
    vertex_only_matching_value,
)


def _witness(cert) -> dict:
    """A certificate's support as clique tuple -> weight."""
    return dict(zip(map(tuple, cert.members.tolist()), cert.weights.tolist()))


def _weighted_complete(n, seed, low=0.2, high=1.0):
    g = gen_complete(n)
    rng = np.random.default_rng(seed)
    return WeightedGraph(g, {e: float(rng.uniform(low, high)) for e in g.edges})


class TestTStar:
    # frozen from an independent tableau-simplex solve of the same LP
    @pytest.mark.parametrize(
        "n,expected",
        [(4, 4 / 3), (5, 5 / 3), (6, 2.0), (7, 7 / 3)],
    )
    def test_unit_complete_graphs(self, n, expected):
        wg = uniform_weights(gen_complete(n))
        assert t_star(wg, 3) == pytest.approx(expected, abs=1e-7)

    def test_paley13(self, paley13):
        assert t_star(uniform_weights(paley13), 3) == pytest.approx(13 / 3, abs=1e-7)

    def test_triangle_free_graph_is_zero(self, petersen):
        assert t_star(uniform_weights(petersen), 3) == 0.0

    def test_k6_half_weights_still_two(self, k6):
        wg = uniform_weights(k6, 0.5)
        assert t_star(wg, 3) == pytest.approx(2.0, abs=1e-7)

    def test_k6_one_dead_edge_still_two(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 0.0
        assert t_star(WeightedGraph(k6, w), 3) == pytest.approx(2.0, abs=1e-7)

    def test_k4_as_its_own_clique(self):
        wg = uniform_weights(gen_complete(4))
        assert t_star(wg, 4) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_weights_match_simplex_oracle(self, seed):
        wg = _weighted_complete(5 + seed % 3, seed)
        assert t_star(wg, 3) == pytest.approx(oracle_t_star(wg, 3), abs=1e-6)

    def test_primal_and_dual_objectives_agree(self, k6_unit):
        cliques = enumerate_cliques(k6_unit.base, 3)
        p = solve_primal(k6_unit, cliques)
        d = solve_dual(k6_unit, cliques)
        assert abs(p.objective - d.objective) <= 2e-7

    def test_empty_clique_set_shortcuts(self, petersen):
        wg = uniform_weights(petersen)
        cliques = enumerate_cliques(petersen, 3)
        assert len(cliques) == 0
        assert solve_primal(wg, cliques).objective == 0.0
        assert solve_primal(wg, cliques).f.tolist() == []
        d = solve_dual(wg, cliques)
        assert d.objective == 0.0
        assert d.g.tolist() == [0.0] * 10 and d.h.tolist() == [0.0] * 15

    def test_nonpositive_tol_rejected(self, k6_unit):
        cliques = enumerate_cliques(k6_unit.base, 3)
        with pytest.raises(InputError):
            solve_primal(k6_unit, cliques, tol=0.0)
        with pytest.raises(InputError):
            solve_dual(k6_unit, cliques, tol=-1e-9)


class TestFactorCertificate:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_unit_complete_graphs_have_factors(self, n):
        cert = has_fractional_factor(uniform_weights(gen_complete(n)), 3)
        assert cert.has_factor is True
        assert cert.t_star == pytest.approx(n / 3, abs=1e-7)
        for load in cert.per_vertex_load:
            assert load == pytest.approx(1.0, abs=1e-6)

    def test_k6_witness_spreads_mass(self, k6_unit):
        # K_6 is triangle-transitive, so the maximum-entropy factor is uniform:
        # 20 triangles carrying total mass 2
        cert = has_fractional_factor(k6_unit, 3)
        assert max(cert.weights) == pytest.approx(0.1, abs=1e-6)

    def test_witness_load_identity(self, k6_unit):
        cert = has_fractional_factor(k6_unit, 3)
        loads = {v: 0.0 for v in range(6)}
        for tup, val in _witness(cert).items():
            for v in tup:
                loads[v] += val
        for v in range(6):
            assert loads[v] == pytest.approx(cert.per_vertex_load[v], abs=1e-9)
            assert loads[v] == pytest.approx(1.0, abs=1e-6)

    def test_dead_edge_excluded_from_witness(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 0.0
        cert = has_fractional_factor(WeightedGraph(k6, w), 3)
        assert cert.has_factor is True
        stray = sum(val for tup, val in _witness(cert).items() if 0 in tup and 1 in tup)
        assert stray <= 1e-6

    def test_half_weights_factor(self, k6):
        cert = has_fractional_factor(uniform_weights(k6, 0.5), 3)
        assert cert.has_factor is True
        assert cert.t_star == pytest.approx(2.0, abs=1e-7)

    def test_k4_single_clique_factor(self):
        cert = has_fractional_factor(uniform_weights(gen_complete(4)), 4)
        assert cert.has_factor is True
        assert _witness(cert) == {(0, 1, 2, 3): pytest.approx(1.0, abs=1e-7)}

    def test_triangle_free_graph_has_none(self, petersen):
        cert = has_fractional_factor(uniform_weights(petersen), 3)
        assert cert.has_factor is False
        assert cert.ids is None and cert.weights is None and cert.members is None
        assert cert.slack == pytest.approx(10 / 3, abs=1e-7)

    def test_thin_weights_cap_t_star_below_factor(self):
        wg = uniform_weights(gen_complete(4), 0.2)
        ts = t_star(wg, 3)
        assert ts == pytest.approx(oracle_t_star(wg, 3), abs=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Newton's refutation stays quiet
            cert = has_fractional_factor(wg, 3)
        assert cert.has_factor is False
        assert cert.t_star == pytest.approx(ts, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_path_reports_the_oracle_t_star(self, seed):
        wg = _weighted_complete(6 + seed % 2, 400 + seed, low=0.05, high=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = has_fractional_factor(wg, 3)
        assert cert.has_factor is False
        assert cert.t_star == pytest.approx(oracle_t_star(wg, 3), abs=1e-6)
        assert cert.slack == pytest.approx(wg.n / 3 - cert.t_star, abs=1e-12)
        assert cert.note == ""

    @pytest.mark.parametrize(
        "instance",
        [
            lambda: uniform_weights(gen_complete(6)),
            lambda: uniform_weights(gen_paley(13)),
            lambda: _weighted_complete(9, 500, low=0.3),
        ],
        ids=["k6", "paley13", "weighted_k9"],
    )
    def test_witness_reaches_the_min_max_optimum(self, instance):
        # on these three the uniform weighting is a factor with every pair
        # slack, so it is both the maximum-entropy and a min-max optimum
        wg = instance()
        cert = has_fractional_factor(wg, 3)
        assert cert.has_factor is True
        assert max(cert.weights) == pytest.approx(min_max_factor_value(wg, 3), abs=1e-9)
        assert min(cert.weights) == pytest.approx(max(cert.weights), abs=1e-9)
        assert sum(cert.weights.tolist()) == pytest.approx(cert.t_star, abs=1e-12)
        for load in cert.per_vertex_load:
            assert load == pytest.approx(1.0, abs=1e-9)
        residual, least_mu = max_entropy_fit(wg, 3, _witness(cert))
        assert residual <= 1e-8 and least_mu >= -1e-9

    @pytest.mark.parametrize(
        "wg,rows",
        [
            (uniform_weights(gen_complete(6)), []),
            # Newton refutes the factor, and the primal (n + m rows) gives t*
            (uniform_weights(gen_complete(4), 0.2), [10]),
            (_weighted_complete(9, 1, low=0.05), []),
        ],
        ids=["factor", "no_factor", "binding_pair_rows"],
    )
    def test_solves_per_certificate(self, wg, rows, monkeypatch):
        # one LP per entry, with that many inequality rows: none when Newton
        # scaling finds the factor, the primal alone when there is none
        shapes = []

        def recording(*args, **kwargs):
            shapes.append(kwargs["A_ub"].shape[0])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "linprog", recording)
        cert = has_fractional_factor(wg, 3)
        assert shapes == rows
        assert cert.has_factor is (not rows)

    def test_binding_pair_rows_enter_the_witness(self):
        # the low weights bind: some pair loads reach w, and mu > 0 there
        wg = _weighted_complete(9, 1, low=0.05)
        cert = has_fractional_factor(wg, 3)
        load, w = pair_loads(wg, _witness(cert)), edge_weights(wg)
        tight = [e for e in wg.base.edges if load[e] >= w[e] - 1e-9]
        assert tight
        assert all(load[e] <= w[e] + 1e-9 for e in wg.base.edges)
        residual, least_mu = max_entropy_fit(wg, 3, _witness(cert))
        assert residual <= 1e-8 and least_mu >= -1e-9
        # the fit fails once the tight pairs are left out of it
        assert max_entropy_fit(wg, 3, _witness(cert), tight_tol=-1.0)[0] > 1e-3

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([3, 4, 5, 6, 7, 8, 9, 20]),
        low=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_witness_matches_the_oracle_verdict(self, n, low, seed):
        # n = 20 is rr(20,10); low spreads the draws between binding pair
        # rows with no factor and slack ones with a factor
        g = gen_random_regular(20, 10, seed) if n == 20 else gen_complete(n)
        rng = np.random.default_rng(seed)
        wg = WeightedGraph(g, {e: float(rng.uniform(low, 1.0)) for e in g.edges})
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return linprog(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factor_lp_mod, "linprog", counting)
            cert = has_fractional_factor(wg, 3)
        ref = min_max_factor_value(wg, 3)
        assert cert.has_factor is (ref is not None)
        if ref is None:
            assert len(calls) == 1  # the primal gives t*
            return
        assert len(calls) == 0
        for load in cert.per_vertex_load:
            assert load == pytest.approx(1.0, abs=1e-9)
        load, w = pair_loads(wg, _witness(cert)), edge_weights(wg)
        assert all(load[e] <= w[e] + 1e-9 for e in g.edges)
        residual, least_mu = max_entropy_fit(wg, 3, _witness(cert))
        assert residual <= 1e-8 and least_mu >= -1e-9

    @pytest.mark.parametrize("steps", [factor_lp_mod.NEWTON_STEPS, 0], ids=["newton", "fallback"])
    def test_factor_only_on_a_face(self, steps, monkeypatch):
        # triangles 012 and 345 plus 234: vertex 0 lies in 012 alone, so
        # every factor puts 1 on 012 and 345 and 0 on 234, and no f > 0 is a
        # factor; with no Newton steps the primal optimum is the witness
        g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (2, 4)])
        monkeypatch.setattr(factor_lp_mod, "NEWTON_STEPS", steps)
        cert = has_fractional_factor(uniform_weights(g), 3)
        assert cert.has_factor is True
        f = _witness(cert)
        assert f.get((2, 3, 4), 0.0) <= factor_lp_mod.TOL_DEFAULT
        assert f[(0, 1, 2)] == pytest.approx(1.0, abs=1e-7)
        assert f[(3, 4, 5)] == pytest.approx(1.0, abs=1e-7)
        assert ("not spread" in cert.note) is (steps == 0)

    def test_witnesses_failing_the_exact_checks_are_refused(self, monkeypatch):
        # uniform 1/3 on K_4 has unit vertex loads but pair loads 2/3 > 0.2,
        # so the primal decides; a primal at t* = |V|/t whose loads are not
        # all 1 is no witness either
        monkeypatch.setattr(factor_lp_mod, "_max_entropy_factor", lambda *a: np.full(4, 1 / 3))
        thin = uniform_weights(gen_complete(4), 0.2)
        cert = has_fractional_factor(thin, 3)
        assert cert.has_factor is False
        assert cert.t_star == pytest.approx(oracle_t_star(thin, 3), abs=1e-6)
        monkeypatch.setattr(factor_lp_mod, "_max_entropy_factor", lambda *a: None)
        lopsided = PrimalSolution(f=np.array([1.0, 0.0, 0.0, 0.0]), objective=4 / 3)
        cert = has_fractional_factor(uniform_weights(gen_complete(4)), 3, primal=lopsided)
        assert cert.has_factor is False
        assert "infeasible" in cert.note

    def test_to_dict_keys_and_filtering(self, k6_unit):
        d = has_fractional_factor(k6_unit, 3).to_dict()
        assert set(d) == {"has_factor", "t_star", "slack", "per_vertex_load", "f", "note"}
        assert all(isinstance(k, str) for k in d["per_vertex_load"])
        for key, val in d["f"].items():
            assert len(key.split()) == 3
            assert val > factor_lp_mod.TOL_DEFAULT


class TestIntegralMatching:
    @pytest.mark.parametrize(
        "n,expected", [(6, 2.0), (7, 2.0), (4, 1.0), (5, 1.0)]
    )
    def test_unit_complete_graphs(self, n, expected):
        wg = uniform_weights(gen_complete(n))
        assert integral_matching_value(wg, 3) == pytest.approx(expected, abs=1e-9)

    def test_triangle_free_graph_is_zero(self, petersen):
        assert integral_matching_value(uniform_weights(petersen), 3) == 0.0

    def test_k6_half_weights(self, k6):
        assert integral_matching_value(uniform_weights(k6, 0.5), 3) == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_weights_match_exhaustive_oracle(self, seed):
        wg = _weighted_complete(5 + seed % 3, 100 + seed)
        got = integral_matching_value(wg, 3)
        assert got == pytest.approx(exhaustive_integral_matching(wg, 3), abs=1e-9)

    def test_budget_overflow_raises(self, k6_unit, monkeypatch):
        monkeypatch.setattr(factor_lp_mod, "MATCHING_BUDGET", 10)
        with pytest.raises(ResourceError, match="budget"):
            integral_matching_value(k6_unit, 3)

    def test_never_exceeds_fractional_optimum(self):
        for seed in range(4):
            wg = _weighted_complete(7, 200 + seed)
            assert integral_matching_value(wg, 3) <= t_star(wg, 3) + 1e-7

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        t=st.sampled_from([3, 4]),
        divisible=st.booleans(),
        p=st.floats(0.5, 1.0),
        ties=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_exhaustive_oracle_on_random_graphs(self, data, t, divisible, p, ties, seed):
        n = data.draw(st.sampled_from([n for n in range(t, 12) if (n % t == 0) == divisible]))
        rng = np.random.default_rng(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, pairs)
        draw = (lambda: rng.choice([0.25, 0.5, 1.0])) if ties else rng.random
        wg = WeightedGraph(g, {e: float(draw()) for e in g.edges})
        got = integral_matching_value(wg, t)
        assert got == pytest.approx(exhaustive_integral_matching(wg, t), abs=1e-9)

    @pytest.mark.parametrize("n,t,rows", [(6, 3, 6), (7, 3, 8), (8, 4, 8), (7, 4, 8)])
    def test_cardinality_row_only_when_t_does_not_divide_n(self, n, t, rows, monkeypatch):
        shapes = []

        def recording(*args, **kwargs):
            cons = kwargs["constraints"]
            shapes.append((cons.A.shape[0], cons.ub[-1]))
            return milp(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "milp", recording)
        integral_matching_value(uniform_weights(gen_complete(n)), t)
        assert shapes == [(rows, 1.0 if n % t == 0 else n // t)]

    @pytest.mark.parametrize("n", [20, 22])  # n = 2 and 1 mod 3
    def test_agrees_with_the_vertex_only_milp(self, n):
        g = gen_random_regular(n, 10, 7)
        rng = np.random.default_rng(n)
        wg = WeightedGraph(g, {e: float(rng.random()) for e in g.edges})
        got = integral_matching_value(wg, 3)
        assert got == pytest.approx(vertex_only_matching_value(wg, 3), abs=1e-9)

    def test_overlapping_solution_is_refused(self, k6_unit, monkeypatch):
        def overlapping(c, **kwargs):
            return OptimizeResult(status=0, x=np.ones(len(c)), fun=float(c.sum()), message="")

        monkeypatch.setattr(factor_lp_mod, "milp", overlapping)
        with pytest.raises(NumericalError, match="overlapping"):
            integral_matching_value(k6_unit, 3)


class TestDualityChecks:
    def test_k6_passes_all_four(self, k6_unit):
        rep = check_prop3(k6_unit, 3, seed=5)
        assert rep.all_pass is True
        assert rep.ii_equality_case is True  # t_star == 6/3 and factor confirmed
        assert rep.integral_value == pytest.approx(2.0, abs=1e-9)

    def test_paley13_passes(self, paley13):
        rep = check_prop3(uniform_weights(paley13), 3, seed=2)
        assert rep.all_pass is True
        assert rep.t_star == pytest.approx(13 / 3, abs=1e-7)

    def test_no_factor_instance_passes(self):
        # hypotheses (i)-(iv) hold whether or not a factor exists
        rep = check_prop3(uniform_weights(gen_complete(4), 0.2), 3, seed=9)
        assert rep.all_pass is True
        assert rep.ii_equality_case is False

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_weighted_instances_pass(self, seed):
        assert check_prop3(_weighted_complete(7, 300 + seed), 3, seed=seed).all_pass

    def test_positivity_cliff_is_monotone(self, paley13):
        rep = check_prop3(uniform_weights(paley13), 3, seed=4)
        sizes = [rep.v1_sizes[thr] for thr in sorted(rep.v1_sizes)]
        assert sizes == sorted(sizes, reverse=True)
        assert all(0 <= s <= 13 for s in sizes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restricted_dual_value_matches_a_loop(self, seed):
        wg = _weighted_complete(7, 300 + seed)
        rep = check_prop3(wg, 3, seed=seed)
        assert len(rep.iii_subset) >= 3
        assert rep.iii_restricted_value == pytest.approx(_restricted_by_loop(wg, rep), abs=1e-12)

    def test_restricted_dual_carries_the_subsets_pair_duals(self):
        # low weights make pair rows bind, so h > 0 on edges inside the subset
        wg = _weighted_complete(8, 5, low=0.05, high=0.4)
        rep = check_prop3(wg, 3, seed=1)
        d = solve_dual(wg, enumerate_cliques(wg.base, 3))
        h = dict(zip(wg.base.edges, d.h.tolist()))
        assert any(h[e] > 1e-9 for e in itertools.combinations(rep.iii_subset, 2))
        assert rep.iii_restricted_value == pytest.approx(_restricted_by_loop(wg, rep), abs=1e-12)

    @pytest.mark.parametrize(
        "wg", [uniform_weights(gen_complete(6)), _weighted_complete(7, 300)],
        ids=["primal_t_star_equality_case", "dual_t_star"],
    )
    def test_callers_solves_give_the_bare_report(self, wg, monkeypatch):
        bare = check_prop3(wg, 3, seed=1)
        cliques = enumerate_cliques(wg.base, 3)
        primal, dual = solve_primal(wg, cliques), solve_dual(wg, cliques)
        cert = has_fractional_factor(wg, 3, cliques=cliques)
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "linprog", counting)
        rep = check_prop3(wg, 3, seed=1, cliques=cliques, primal=primal, dual=dual, cert=cert)
        assert rep == bare
        assert len(calls) == 1  # t* of the induced subgraph only

    def test_subset_is_sorted_and_in_range(self, k6_unit):
        rep = check_prop3(k6_unit, 3, seed=7)
        assert list(rep.iii_subset) == sorted(set(rep.iii_subset))
        assert all(0 <= v < 6 for v in rep.iii_subset)

    def test_to_dict_round_trips_thresholds(self, k6_unit):
        d = check_prop3(k6_unit, 3, seed=5).to_dict()
        assert d["all_pass"] is True
        assert len(d["v1_sizes"]) == 4


def _restricted_by_loop(wg, rep) -> float:
    """sum of g over the report's subset U plus sum of h w over the edges inside U."""
    d = solve_dual(wg, enumerate_cliques(wg.base, 3))
    h, w = dict(zip(wg.base.edges, d.h.tolist())), edge_weights(wg)
    U = rep.iii_subset
    return sum(d.g[v] for v in U) + sum(h[e] * w[e] for e in itertools.combinations(U, 2))


class TestComplementarySlackness:
    def test_optimal_pair_passes(self, k6_unit):
        cliques = enumerate_cliques(k6_unit.base, 3)
        p = solve_primal(k6_unit, cliques)
        d = solve_dual(k6_unit, cliques)
        rep = complementary_slackness(p, d, k6_unit, cliques)
        assert rep.all_pass is True
        assert rep.worst_vertex_slack <= 1e-6
        assert rep.worst_clique_slack <= 1e-6

    def test_weighted_pair_passes(self):
        wg = _weighted_complete(7, 17)
        cliques = enumerate_cliques(wg.base, 3)
        p = solve_primal(wg, cliques)
        d = solve_dual(wg, cliques)
        assert complementary_slackness(p, d, wg, cliques).all_pass is True

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_loop_reference(self, seed):
        wg = _weighted_complete(7 + seed, 600 + seed)
        cliques = enumerate_cliques(wg.base, 3)
        p = solve_primal(wg, cliques)
        d = solve_dual(wg, cliques)
        rep = complementary_slackness(p, d, wg, cliques)
        rows = list(map(tuple, cliques.members.tolist()))
        f, g = dict(enumerate(p.f.tolist())), dict(enumerate(d.g.tolist()))
        ref = slackness_by_loops(f, g, dict(zip(wg.base.edges, d.h.tolist())), wg, rows, 1e-6)
        got = [
            (rep.worst_vertex_slack, rep.checked_vertices),
            (rep.worst_edge_slack, rep.checked_edges),
            (rep.worst_clique_slack, rep.checked_cliques),
        ]
        for (worst, count), (ref_worst, ref_count) in zip(got, ref):
            assert count == ref_count
            assert worst == pytest.approx(ref_worst, abs=1e-12)
        assert sum(count for _, count in ref) > 0

    def test_tampered_dual_rejected(self, k6_unit):
        cliques = enumerate_cliques(k6_unit.base, 3)
        p = solve_primal(k6_unit, cliques)
        d = solve_dual(k6_unit, cliques)
        g = d.g.copy()
        g[0] += 0.5
        bad = DualSolution(g=g, h=d.h, objective=d.objective + 0.5)
        with pytest.raises(InputError, match="gap"):
            complementary_slackness(p, bad, k6_unit, cliques)


class TestFactorDriver:
    def test_k60_hypotheses_and_factor(self):
        wg = uniform_weights(gen_complete(60))
        rep = corollary_ff_driver(wg, 3, alpha=1e-3, D=6, trials=5, seed=0)
        assert rep.rich_edge_count == 1770
        assert rep.hyp_family_target == 3
        assert rep.hyp_family_pass is True
        assert rep.hyp_span_size == 3
        assert rep.hyp_span_pass is True
        assert rep.hyp_propP_pass is True
        assert rep.cert.has_factor is True
        d = json.loads(canonical_json(rep))
        assert d["cert"]["has_factor"] is True

    def test_alpha_bound_enforced(self, k6_unit):
        with pytest.raises(InputError, match="alpha"):
            corollary_ff_driver(k6_unit, 3, alpha=0.02, D=3, trials=1, seed=0)

    def test_degree_parameter_window(self, k6_unit):
        with pytest.raises(InputError, match="D="):
            corollary_ff_driver(k6_unit, 3, alpha=1e-3, D=2, trials=1, seed=0)
        with pytest.raises(InputError, match="D="):
            corollary_ff_driver(k6_unit, 3, alpha=1e-3, D=4, trials=1, seed=0)
