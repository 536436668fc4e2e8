"""Fractional clique-matching LP: primal/dual, factor certificates, audits."""

import itertools
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
    enumerate_cliques,
    from_edge_list,
    gen_complete,
    gen_paley,
    gen_random_regular,
    has_fractional_factor,
    integral_matching_value,
    solve_dual,
    solve_lp,
    solve_primal,
    t_star,
    uniform_weights,
)
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


def _witness(cert, cliques) -> dict:
    """A certificate's support as clique tuple -> weight, rows read from its clique set."""
    return dict(zip(map(tuple, cliques.members[cert.ids].tolist()), cert.weights.tolist()))


def _cliques(wg, t):
    return enumerate_cliques(wg.base, t)


def _prop3(wg, t, seed, tol=factor_lp_mod.TOL_DEFAULT):
    """check_prop3 on the K_t of wg, with the pair solve_lp returns for them."""
    cliques = _cliques(wg, t)
    return check_prop3(wg, cliques, tol, seed, *solve_lp(wg, cliques, tol))


def _weighted_complete(n, seed, low=0.2, high=1.0):
    g = gen_complete(n)
    rng = np.random.default_rng(seed)
    return WeightedGraph(g, {e: float(rng.uniform(low, high)) for e in g.edges})


def _weighted_rr(seed, n=30):
    g = gen_random_regular(n, n // 2, 1)
    rng = np.random.default_rng(seed)
    return WeightedGraph(g, {e: float(x) for e, x in zip(g.edges, rng.random(g.m))})


class TestTStar:
    # frozen from an independent tableau-simplex solve of the same LP
    @pytest.mark.parametrize(
        "n,expected",
        [(4, 4 / 3), (5, 5 / 3), (6, 2.0), (7, 7 / 3)],
    )
    def test_unit_complete_graphs(self, n, expected):
        wg = uniform_weights(gen_complete(n))
        assert t_star(wg, _cliques(wg, 3)) == pytest.approx(expected, abs=1e-7)

    def test_paley13(self, paley13):
        wg = uniform_weights(paley13)
        assert t_star(wg, _cliques(wg, 3)) == pytest.approx(13 / 3, abs=1e-7)

    def test_triangle_free_graph_is_zero(self, petersen):
        wg = uniform_weights(petersen)
        assert t_star(wg, _cliques(wg, 3)) == 0.0

    def test_k6_half_weights_still_two(self, k6):
        wg = WeightedGraph(k6, np.full(k6.m, 0.5))
        assert t_star(wg, _cliques(wg, 3)) == pytest.approx(2.0, abs=1e-7)

    def test_k6_one_dead_edge_still_two(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 0.0
        wg = WeightedGraph(k6, w)
        assert t_star(wg, _cliques(wg, 3)) == pytest.approx(2.0, abs=1e-7)

    def test_k4_as_its_own_clique(self):
        wg = uniform_weights(gen_complete(4))
        assert t_star(wg, _cliques(wg, 4)) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_weights_match_simplex_oracle(self, seed):
        wg = _weighted_complete(5 + seed % 3, seed)
        assert t_star(wg, _cliques(wg, 3)) == pytest.approx(oracle_t_star(wg, 3), abs=1e-6)

    def test_primal_and_dual_objectives_agree(self, k6_unit):
        cliques = enumerate_cliques(k6_unit.base, 3)
        p, d = solve_lp(k6_unit, cliques)
        assert abs(p.objective - d.objective) <= 2e-7

    def test_empty_clique_set_shortcuts(self, petersen):
        wg = uniform_weights(petersen)
        cliques = enumerate_cliques(petersen, 3)
        assert len(cliques) == 0
        p, d = solve_lp(wg, cliques)
        assert p.objective == 0.0
        assert p.f.tolist() == []
        assert d.objective == 0.0
        assert d.g.tolist() == [0.0] * 10 and d.h.tolist() == [0.0] * 15

    def test_nonpositive_tol_rejected(self, k6_unit):
        cliques = enumerate_cliques(k6_unit.base, 3)
        with pytest.raises(InputError):
            solve_lp(k6_unit, cliques, tol=0.0)
        with pytest.raises(InputError):
            solve_lp(k6_unit, cliques, tol=-1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, k6_unit, tol):
        # a NaN passes every "tol <= 0" test, and inf accepts any load as 1
        cliques = enumerate_cliques(k6_unit.base, 3)
        for solve in (solve_lp, solve_primal, solve_dual):
            with pytest.raises(InputError, match="finite and positive"):
                solve(k6_unit, cliques, tol=tol)
        with pytest.raises(InputError, match="finite and positive"):
            has_fractional_factor(k6_unit, cliques, tol)


def _mutated_read_off(monkeypatch, mutate):
    """Patch linprog so that mutate(marginals) alters, in place, the side solve_lp reads off."""
    shapes = []

    def mutating(*args, **kwargs):
        res = linprog(*args, **kwargs)
        shapes.append(kwargs["A_ub"].shape)
        mutate(res.ineqlin.marginals)
        return res

    monkeypatch.setattr(factor_lp_mod, "linprog", mutating)
    return shapes


class TestSolveLp:
    @pytest.mark.parametrize(
        "wg,rows",
        [
            # the covering form, one row per clique, whether N is at most
            # n + m (K_6: 20 <= 6 + 15) or above it (K_7: 35 > 7 + 21)
            (uniform_weights(gen_complete(6)), 20),
            (uniform_weights(gen_complete(7)), 35),
            (_weighted_complete(9, 1, low=0.05), 84),
        ],
        ids=["few_cliques", "covering", "covering_binding_pairs"],
    )
    def test_one_solve_gives_a_checked_optimal_pair(self, wg, rows, monkeypatch):
        cliques = enumerate_cliques(wg.base, 3)
        shapes = []

        def recording(*args, **kwargs):
            shapes.append(kwargs["A_ub"].shape[0])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "linprog", recording)
        p, d = solve_lp(wg, cliques)
        assert shapes == [rows]
        assert p.objective == pytest.approx(oracle_t_star(wg, 3), abs=1e-6)
        assert abs(p.objective - d.objective) <= 2e-7
        assert p.objective == float(p.f.sum())
        assert d.objective == float(d.g.sum() + d.h @ wg.w)
        assert min(p.f.min(), d.g.min(), d.h.min(initial=0)) >= 0
        assert complementary_slackness(p, d, wg, cliques).all_pass is True

    def test_halves_are_the_pairs_sides(self):
        wg = _weighted_complete(7, 17)
        cliques = enumerate_cliques(wg.base, 3)
        p, d = solve_lp(wg, cliques)
        assert solve_primal(wg, cliques).f.tolist() == p.f.tolist()
        assert solve_dual(wg, cliques).h.tolist() == d.h.tolist()

    def test_doubled_primal_read_off_is_refused(self, monkeypatch):
        # f is read off the covering form's marginals; doubled, it loads
        # every vertex of K_7 with 2
        def double(marginals):
            marginals *= 2.0

        shapes = _mutated_read_off(monkeypatch, double)
        wg = uniform_weights(gen_complete(7))
        with pytest.raises(NumericalError, match="load excess"):
            solve_lp(wg, enumerate_cliques(wg.base, 3))
        assert shapes == [(35, 28)]

    def test_zeroed_pair_duals_are_refused(self, monkeypatch):
        # K_4 at w = 0.2 binds only its pair rows (t* = 0.4): with the
        # solved h zeroed no clique is covered
        shapes = []

        def zero_pairs(*args, **kwargs):
            res = linprog(*args, **kwargs)
            shapes.append(kwargs["A_ub"].shape)
            res.x[4:] = 0.0
            return res

        wg = WeightedGraph(gen_complete(4), np.full(6, 0.2))
        monkeypatch.setattr(factor_lp_mod, "linprog", zero_pairs)
        with pytest.raises(NumericalError, match="cover shortfall"):
            solve_lp(wg, enumerate_cliques(wg.base, 3))
        assert shapes == [(4, 10)]
        monkeypatch.setattr(factor_lp_mod, "linprog", linprog)
        _, d = solve_lp(wg, enumerate_cliques(wg.base, 3))
        assert d.g.max() <= 1e-9 and d.h.max() > 0.1

    @pytest.mark.parametrize("scale", [0.0, 0.5], ids=["zeroed", "halved"])
    def test_feasible_read_off_below_the_optimum_is_refused(self, scale, monkeypatch):
        # a zeroed or halved f is still feasible, so only the objective gap
        # (t* or t*/2 on K_7, against 2 tol) refuses it
        def shrink(marginals):
            marginals *= scale

        shapes = _mutated_read_off(monkeypatch, shrink)
        wg = uniform_weights(gen_complete(7))
        with pytest.raises(NumericalError, match="not optimal: objective gap"):
            solve_lp(wg, enumerate_cliques(wg.base, 3))
        assert shapes == [(35, 28)]

    def test_fallback_certificate_solves_the_smaller_form(self, monkeypatch):
        # K_9 has 84 triangles against 9 + 36 rows; with no Newton steps the
        # certificate's one LP is the covering form, and its read-off f is
        # the witness
        monkeypatch.setattr(factor_lp_mod, "NEWTON_STEPS", 0)
        shapes = _mutated_read_off(monkeypatch, lambda marginals: None)
        wg = uniform_weights(gen_complete(9))
        cert = has_fractional_factor(wg, _cliques(wg, 3))
        assert shapes == [(84, 45)]
        assert cert.has_factor is True and "not spread" in cert.note
        assert np.abs(cert.per_vertex_load - 1.0).max() <= 1e-9


class TestFactorCertificate:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_unit_complete_graphs_have_factors(self, n):
        wg = uniform_weights(gen_complete(n))
        cert = has_fractional_factor(wg, _cliques(wg, 3))
        assert cert.has_factor is True
        assert cert.t_star == pytest.approx(n / 3, abs=1e-7)
        for load in cert.per_vertex_load:
            assert load == pytest.approx(1.0, abs=1e-6)

    def test_k6_witness_spreads_mass(self, k6_unit):
        # K_6 is triangle-transitive, so the maximum-entropy factor is uniform:
        # 20 triangles carrying total mass 2
        cert = has_fractional_factor(k6_unit, _cliques(k6_unit, 3))
        assert max(cert.weights) == pytest.approx(0.1, abs=1e-6)

    def test_witness_load_identity(self, k6_unit):
        cliques = _cliques(k6_unit, 3)
        cert = has_fractional_factor(k6_unit, cliques)
        loads = {v: 0.0 for v in range(6)}
        for tup, val in _witness(cert, cliques).items():
            for v in tup:
                loads[v] += val
        for v in range(6):
            assert loads[v] == pytest.approx(cert.per_vertex_load[v], abs=1e-9)
            assert loads[v] == pytest.approx(1.0, abs=1e-6)

    def test_dead_edge_excluded_from_witness(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 0.0
        wg = WeightedGraph(k6, w)
        cliques = _cliques(wg, 3)
        cert = has_fractional_factor(wg, cliques)
        assert cert.has_factor is True
        stray = sum(val for tup, val in _witness(cert, cliques).items() if 0 in tup and 1 in tup)
        assert stray <= 1e-6

    def test_half_weights_factor(self, k6):
        wg = WeightedGraph(k6, np.full(k6.m, 0.5))
        cert = has_fractional_factor(wg, _cliques(wg, 3))
        assert cert.has_factor is True
        assert cert.t_star == pytest.approx(2.0, abs=1e-7)

    def test_k4_single_clique_factor(self):
        wg = uniform_weights(gen_complete(4))
        cliques = _cliques(wg, 4)
        cert = has_fractional_factor(wg, cliques)
        assert cert.has_factor is True
        assert _witness(cert, cliques) == {(0, 1, 2, 3): pytest.approx(1.0, abs=1e-7)}

    def test_triangle_free_graph_has_none(self, petersen):
        wg = uniform_weights(petersen)
        cliques = _cliques(wg, 3)
        cert = has_fractional_factor(wg, cliques)
        assert cert.has_factor is False
        assert cert.ids is None and cert.weights is None and cert.to_dict(cliques)["f"] is None
        assert cert.slack == pytest.approx(10 / 3, abs=1e-7)

    def test_thin_weights_cap_t_star_below_factor(self):
        wg = WeightedGraph(gen_complete(4), np.full(6, 0.2))
        ts = t_star(wg, _cliques(wg, 3))
        assert ts == pytest.approx(oracle_t_star(wg, 3), abs=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Newton's refutation stays quiet
            cert = has_fractional_factor(wg, _cliques(wg, 3))
        assert cert.has_factor is False
        assert cert.t_star == pytest.approx(ts, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_path_reports_the_oracle_t_star(self, seed):
        wg = _weighted_complete(6 + seed % 2, 400 + seed, low=0.05, high=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = has_fractional_factor(wg, _cliques(wg, 3))
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
        cliques = _cliques(wg, 3)
        cert = has_fractional_factor(wg, cliques)
        assert cert.has_factor is True
        assert max(cert.weights) == pytest.approx(min_max_factor_value(wg, 3), abs=1e-9)
        assert min(cert.weights) == pytest.approx(max(cert.weights), abs=1e-9)
        assert sum(cert.weights.tolist()) == pytest.approx(cert.t_star, abs=1e-12)
        for load in cert.per_vertex_load:
            assert load == pytest.approx(1.0, abs=1e-9)
        residual, least_mu = max_entropy_fit(wg, 3, _witness(cert, cliques))
        assert residual <= 1e-8 and least_mu >= -1e-9

    @pytest.mark.parametrize(
        "wg,rows",
        [
            (uniform_weights(gen_complete(6)), []),
            # Newton refutes the factor, and one LP (a row per clique) gives t*
            (WeightedGraph(gen_complete(4), np.full(6, 0.2)), [4]),
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
        cert = has_fractional_factor(wg, _cliques(wg, 3))
        assert shapes == rows
        assert cert.has_factor is (not rows)

    def test_binding_pair_rows_enter_the_witness(self):
        # the low weights bind: some pair loads reach w, and mu > 0 there
        wg = _weighted_complete(9, 1, low=0.05)
        cliques = _cliques(wg, 3)
        cert = has_fractional_factor(wg, cliques)
        load, w = pair_loads(wg, _witness(cert, cliques)), edge_weights(wg)
        tight = [e for e in wg.base.edges if load[e] >= w[e] - 1e-9]
        assert tight
        assert all(load[e] <= w[e] + 1e-9 for e in wg.base.edges)
        residual, least_mu = max_entropy_fit(wg, 3, _witness(cert, cliques))
        assert residual <= 1e-8 and least_mu >= -1e-9
        # the fit fails once the tight pairs are left out of it
        assert max_entropy_fit(wg, 3, _witness(cert, cliques), tight_tol=-1.0)[0] > 1e-3

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
            cliques = _cliques(wg, 3)
            cert = has_fractional_factor(wg, cliques)
        ref = min_max_factor_value(wg, 3)
        assert cert.has_factor is (ref is not None)
        if ref is None:
            assert len(calls) == 1  # the primal gives t*
            return
        assert len(calls) == 0
        for load in cert.per_vertex_load:
            assert load == pytest.approx(1.0, abs=1e-9)
        load, w = pair_loads(wg, _witness(cert, cliques)), edge_weights(wg)
        assert all(load[e] <= w[e] + 1e-9 for e in g.edges)
        residual, least_mu = max_entropy_fit(wg, 3, _witness(cert, cliques))
        assert residual <= 1e-8 and least_mu >= -1e-9

    @pytest.mark.parametrize("steps", [factor_lp_mod.NEWTON_STEPS, 0], ids=["newton", "fallback"])
    def test_factor_only_on_a_face(self, steps, monkeypatch):
        # triangles 012 and 345 plus 234: vertex 0 lies in 012 alone, so
        # every factor puts 1 on 012 and 345 and 0 on 234, and no f > 0 is a
        # factor; with no Newton steps the primal optimum is the witness
        g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3), (2, 4)])
        monkeypatch.setattr(factor_lp_mod, "NEWTON_STEPS", steps)
        wg = uniform_weights(g)
        cliques = _cliques(wg, 3)
        cert = has_fractional_factor(wg, cliques)
        assert cert.has_factor is True
        f = _witness(cert, cliques)
        assert f.get((2, 3, 4), 0.0) <= factor_lp_mod.TOL_DEFAULT
        assert f[(0, 1, 2)] == pytest.approx(1.0, abs=1e-7)
        assert f[(3, 4, 5)] == pytest.approx(1.0, abs=1e-7)
        assert ("not spread" in cert.note) is (steps == 0)

    def test_witnesses_failing_the_exact_checks_are_refused(self, monkeypatch):
        # uniform 1/3 on K_4 has unit vertex loads but pair loads 2/3 > 0.2,
        # so the primal decides; a primal at t* = |V|/t whose loads are not
        # all 1 is no witness either
        monkeypatch.setattr(factor_lp_mod, "_max_entropy_factor", lambda *a: np.full(4, 1 / 3))
        thin = WeightedGraph(gen_complete(4), np.full(6, 0.2))
        cert = has_fractional_factor(thin, _cliques(thin, 3))
        assert cert.has_factor is False
        assert cert.t_star == pytest.approx(oracle_t_star(thin, 3), abs=1e-6)
        monkeypatch.setattr(factor_lp_mod, "_max_entropy_factor", lambda *a: None)
        lopsided = PrimalSolution(f=np.array([1.0, 0.0, 0.0, 0.0]), objective=4 / 3)
        wg = uniform_weights(gen_complete(4))
        cert = has_fractional_factor(wg, _cliques(wg, 3), primal=lopsided)
        assert cert.has_factor is False
        assert "infeasible" in cert.note

    def test_to_dict_keys_and_filtering(self, k6_unit):
        cliques = _cliques(k6_unit, 3)
        d = has_fractional_factor(k6_unit, cliques).to_dict(cliques)
        assert set(d) == {"has_factor", "t_star", "slack", "per_vertex_load", "f", "note"}
        assert all(isinstance(k, str) for k in d["per_vertex_load"])
        for key, val in d["f"].items():
            assert len(key.split()) == 3
            assert val > factor_lp_mod.TOL_DEFAULT

    def test_certificate_holds_ids_and_weights_only(self):
        wg = _weighted_complete(7, 1, low=0.05)
        cert = has_fractional_factor(wg, _cliques(wg, 3))
        assert cert.has_factor is True
        arrays = [k for k, v in vars(cert).items() if isinstance(v, np.ndarray)]
        assert sorted(arrays) == ["ids", "per_vertex_load", "weights"]
        assert cert.ids.dtype == np.int32 and cert.weights.shape == cert.ids.shape

    @pytest.mark.parametrize("tol,kept", [(factor_lp_mod.TOL_DEFAULT, 35), (0.01, 29)])
    def test_to_dict_names_the_cliques_by_their_rows(self, tol, kept):
        # K_7's triangles in id order are the 3-combinations of range(7); the
        # kept counts are those the certificate gave when it carried its rows
        wg = _weighted_complete(7, 1, low=0.05)
        cliques = _cliques(wg, 3)
        cert = has_fractional_factor(wg, cliques)
        f = np.zeros(len(cliques))
        f[cert.ids] = cert.weights
        expected = {
            " ".join(map(str, c)): float(f[j])
            for j, c in enumerate(itertools.combinations(range(7), 3))
            if f[j] > tol
        }
        assert cert.to_dict(cliques, tol)["f"] == expected
        assert len(expected) == kept


class TestIntegralMatching:
    @pytest.mark.parametrize(
        "n,expected", [(6, 2.0), (7, 2.0), (4, 1.0), (5, 1.0)]
    )
    def test_unit_complete_graphs(self, n, expected):
        wg = uniform_weights(gen_complete(n))
        assert integral_matching_value(wg, _cliques(wg, 3)) == pytest.approx(expected, abs=1e-9)

    def test_triangle_free_graph_is_zero(self, petersen):
        wg = uniform_weights(petersen)
        assert integral_matching_value(wg, _cliques(wg, 3)) == 0.0

    def test_k6_half_weights(self, k6):
        wg = WeightedGraph(k6, np.full(k6.m, 0.5))
        assert integral_matching_value(wg, _cliques(wg, 3)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_weights_match_exhaustive_oracle(self, seed):
        wg = _weighted_complete(5 + seed % 3, 100 + seed)
        got = integral_matching_value(wg, _cliques(wg, 3))
        assert got == pytest.approx(exhaustive_integral_matching(wg, 3), abs=1e-9)

    def test_budget_overflow_raises(self, k6_unit, monkeypatch):
        monkeypatch.setattr(factor_lp_mod, "MATCHING_BUDGET", 10)
        with pytest.raises(ResourceError, match="budget"):
            integral_matching_value(k6_unit, _cliques(k6_unit, 3))

    def test_never_exceeds_fractional_optimum(self):
        for seed in range(4):
            wg = _weighted_complete(7, 200 + seed)
            assert integral_matching_value(wg, _cliques(wg, 3)) <= t_star(wg, _cliques(wg, 3)) + 1e-7

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
        got = integral_matching_value(wg, _cliques(wg, t))
        assert got == pytest.approx(exhaustive_integral_matching(wg, t), abs=1e-9)

    @pytest.mark.parametrize("n,t,rows", [(6, 3, 6), (7, 3, 8), (8, 4, 8), (7, 4, 8)])
    def test_cardinality_row_only_when_t_does_not_divide_n(self, n, t, rows, monkeypatch):
        shapes = []

        def recording(*args, **kwargs):
            cons = kwargs["constraints"]
            shapes.append((cons.A.shape[0], cons.ub[-1]))
            return milp(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "milp", recording)
        wg = uniform_weights(gen_complete(n))
        integral_matching_value(wg, _cliques(wg, t))
        assert shapes == [(rows, 1.0 if n % t == 0 else n // t)]

    @pytest.mark.parametrize("n", [20, 22])  # n = 2 and 1 mod 3
    def test_agrees_with_the_vertex_only_milp(self, n):
        g = gen_random_regular(n, 10, 7)
        rng = np.random.default_rng(n)
        wg = WeightedGraph(g, {e: float(rng.random()) for e in g.edges})
        got = integral_matching_value(wg, _cliques(wg, 3))
        assert got == pytest.approx(vertex_only_matching_value(wg, 3), abs=1e-9)

    def test_pruned_solves_match_the_vertex_only_milp(self, monkeypatch):
        # rr(30,15) carries 494 triangles; the MILP runs on a core and then on
        # the cliques whose bound reaches the core's value, not on all of them
        cols = []

        def recording(*args, **kwargs):
            cols.append(len(kwargs["c"]))
            return milp(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "milp", recording)
        pruned = 0
        for seed in range(6):
            wg = _weighted_rr(seed)
            cols.clear()
            got = integral_matching_value(wg, _cliques(wg, 3))
            assert got == pytest.approx(vertex_only_matching_value(wg, 3), abs=1e-9)
            pruned += cols[-1] < len(enumerate_cliques(wg.base, 3))
        assert pruned >= 1

    @pytest.mark.parametrize("seed,probes,milps", [(3, 129, [60, 79]), (7, 37, [60, 63])])
    def test_probe_survivors_reach_the_second_milp(self, seed, probes, milps, monkeypatch):
        # on rr(30,15) at these weight seeds some probe fails to refute its
        # clique: the second MILP runs, on the kept cliques less the refuted
        # ones, so on fewer columns than the first probe saw (189 and 97)
        probe_cols, milp_cols = [], []

        def recording_lp(c, **kwargs):
            if not isinstance(kwargs["bounds"], tuple):
                probe_cols.append(len(c))
            return linprog(c, **kwargs)

        def recording_milp(c, **kwargs):
            milp_cols.append(len(c))
            return milp(c, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "linprog", recording_lp)
        monkeypatch.setattr(factor_lp_mod, "milp", recording_milp)
        wg = _weighted_rr(seed)
        got = integral_matching_value(wg, _cliques(wg, 3))
        assert got == pytest.approx(vertex_only_matching_value(wg, 3), abs=1e-9)
        assert len(probe_cols) == probes and milp_cols == milps
        assert milp_cols[1] < probe_cols[0]

    @staticmethod
    def _k6_pendant(rng):
        # weighted K_6 plus vertex 6, which lies in no triangle, and 7 = 1 mod
        # 3 adds the cardinality row; every vertex-disjoint family is scored
        # by brute force: best overall and best_with[j] among those holding j
        g = from_edge_list(7, [*gen_complete(6).edges, (0, 6)])
        wg = WeightedGraph(g, {e: float(rng.random()) for e in g.edges})
        cliques = enumerate_cliques(g, 3)
        values, rows, upper = factor_lp_mod._matching_rows(wg, cliques)
        w = edge_weights(wg)
        best, best_with = 0.0, np.zeros(len(cliques))
        for size in (1, 2):
            for fam in itertools.combinations(range(len(cliques)), size):
                tups = [tuple(cliques.members[j].tolist()) for j in fam]
                if len({v for tup in tups for v in tup}) < 3 * size:
                    continue
                val = sum(min(w[e] for e in itertools.combinations(tup, 2)) for tup in tups)
                best = max(best, val)
                for j in fam:
                    best_with[j] = max(best_with[j], val)
        return values, rows, upper, best, best_with

    def test_clique_bounds_hold_for_any_duals(self):
        rng = np.random.default_rng(3)
        values, rows, upper, best, best_with = self._k6_pendant(rng)
        relaxed = linprog(-values, A_ub=rows, b_ub=upper, bounds=(0, 1), method="highs")
        pendant_negative = np.full(8, -1.0)
        pendant_negative[6] = 10.0  # y = 1 on every row but -10 on vertex 6
        duals = [relaxed.ineqlin.marginals, np.zeros(8), pendant_negative]
        duals += [rng.normal(0.0, 0.5, 8) for _ in range(20)]
        for marginals in duals:
            top, bound = factor_lp_mod._clique_bounds(values, rows, upper, marginals)
            assert top >= best - 1e-12
            assert np.all(bound >= best_with - 1e-12)
        top, _ = factor_lp_mod._clique_bounds(values, rows, upper, relaxed.ineqlin.marginals)
        assert top == pytest.approx(-relaxed.fun, abs=1e-9)

    def test_probe_bounds_hold_for_any_duals(self):
        # a probe fixes x_j = 1; whatever its marginals, bound[j] must stay at
        # or above the best family holding j, and with the probe's own it is
        # the probe's optimum, below the unfixed relaxation's where x_j < 1
        rng = np.random.default_rng(3)
        values, rows, upper, _, best_with = self._k6_pendant(rng)
        relaxed = linprog(-values, A_ub=rows, b_ub=upper, bounds=(0, 1), method="highs")
        tighter = 0
        for j in range(len(values)):
            fixed = np.column_stack([np.arange(len(values)) == j, np.ones(len(values))])
            probe = linprog(-values, A_ub=rows, b_ub=upper, bounds=fixed, method="highs")
            assert probe.status == 0 and probe.x[j] == 1.0
            duals = [probe.ineqlin.marginals, np.zeros(8)]
            duals += [rng.normal(0.0, 0.5, 8) for _ in range(20)]
            for marginals in duals:
                _, bound = factor_lp_mod._clique_bounds(values, rows, upper, marginals)
                assert bound[j] >= best_with[j] - 1e-12
            _, bound = factor_lp_mod._clique_bounds(values, rows, upper, probe.ineqlin.marginals)
            assert bound[j] == pytest.approx(-probe.fun, abs=1e-9)
            tighter += bound[j] < -relaxed.fun - 1e-9
        assert tighter >= 1

    @pytest.mark.parametrize(
        "scale,shift", [(0.5, 0.0), (2.0, 0.0), (1.0, 0.3)], ids=["halved", "doubled", "noisy"]
    )
    def test_any_duals_give_the_exact_value(self, scale, shift, monkeypatch):
        # the bounds hold for every y >= 0, so duals of a poor relaxation solve
        # cost time, never exactness; the noise pushes some rows' y below 0,
        # which must be clipped rather than trusted; the probes' marginals are
        # perturbed too (rr(30,15) at weight seeds 3 and 5 probes even with
        # exact duals)
        rng = np.random.default_rng(0)
        probes = []

        def inaccurate(*args, **kwargs):
            res = linprog(*args, **kwargs)
            probes.append(not isinstance(kwargs["bounds"], tuple))
            m = res.ineqlin.marginals
            res.ineqlin.marginals = scale * m + shift * rng.standard_normal(len(m))
            return res

        monkeypatch.setattr(factor_lp_mod, "linprog", inaccurate)
        for wg in [*(_weighted_rr(seed, n=22) for seed in range(4)), *map(_weighted_rr, (3, 5))]:
            got = integral_matching_value(wg, _cliques(wg, 3))
            assert got == pytest.approx(vertex_only_matching_value(wg, 3), abs=1e-9)
        assert sum(probes) > 0

    def test_failed_probe_raises(self, monkeypatch):
        # rr(30,15) at weight seed 5 probes 11 cliques; a probe that does not
        # solve refutes nothing, so it must raise rather than be read
        def failing_probes(c, **kwargs):
            res = linprog(c, **kwargs)
            if not isinstance(kwargs["bounds"], tuple):
                res.status, res.message = 4, "numerical difficulties"
            return res

        monkeypatch.setattr(factor_lp_mod, "linprog", failing_probes)
        wg = _weighted_rr(5)
        with pytest.raises(NumericalError, match="matching probe failed: numerical difficulties"):
            integral_matching_value(wg, _cliques(wg, 3))

    def test_overlapping_solution_is_refused(self, k6_unit, monkeypatch):
        # an overlapping family must raise before its value bounds anything:
        # K_6 at unit weights has flat bounds and one solve over all 20
        # cliques, the weighted rr(30,15) a core solve whose value would end
        # the search
        calls = []

        def overlapping(c, **kwargs):
            calls.append(len(c))
            return OptimizeResult(status=0, x=np.ones(len(c)), fun=float(c.sum()), message="")

        monkeypatch.setattr(factor_lp_mod, "milp", overlapping)
        for wg in (k6_unit, _weighted_rr(0)):
            with pytest.raises(NumericalError, match="overlapping"):
                integral_matching_value(wg, _cliques(wg, 3))
        assert calls[0] == 20
        assert len(calls) == 2 and calls[1] < len(enumerate_cliques(_weighted_rr(0).base, 3))


class TestInstanceFixesT:
    # the clique set is the instance: t is its t, and K_12's K_4 set has
    # t* = 12/4 = 3 with a factor, whatever t a caller might have in mind
    def test_k12_k4_set_certifies_a_factor_at_slack_zero(self):
        wg = uniform_weights(gen_complete(12))
        cert = has_fractional_factor(wg, _cliques(wg, 4))
        assert cert.has_factor is True
        assert cert.t_star == pytest.approx(3.0, abs=1e-7)
        assert abs(cert.slack) <= 1e-7

    def test_k12_k4_set_t_star_and_duality_checks(self):
        wg = uniform_weights(gen_complete(12))
        assert t_star(wg, _cliques(wg, 4)) == pytest.approx(3.0, abs=1e-7)
        rep = _prop3(wg, 4, 0)
        assert rep.all_pass is True
        assert rep.ii_bound == 3.0


class TestDualityChecks:
    def test_k6_passes_all_four(self, k6_unit):
        rep = _prop3(k6_unit, 3, 5)
        assert rep.all_pass is True
        assert rep.ii_equality_case is True  # t_star == 6/3 and factor confirmed
        assert rep.integral_value == pytest.approx(2.0, abs=1e-9)

    def test_paley13_passes(self, paley13):
        rep = _prop3(uniform_weights(paley13), 3, 2)
        assert rep.all_pass is True
        assert rep.t_star == pytest.approx(13 / 3, abs=1e-7)

    def test_no_factor_instance_passes(self):
        # hypotheses (i)-(iv) hold whether or not a factor exists
        rep = _prop3(WeightedGraph(gen_complete(4), np.full(6, 0.2)), 3, 9)
        assert rep.all_pass is True
        assert rep.ii_equality_case is False

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_weighted_instances_pass(self, seed):
        assert _prop3(_weighted_complete(7, 300 + seed), 3, seed).all_pass

    def test_positivity_cliff_is_monotone(self, paley13):
        rep = _prop3(uniform_weights(paley13), 3, 4)
        sizes = [rep.v1_sizes[thr] for thr in sorted(rep.v1_sizes)]
        assert sizes == sorted(sizes, reverse=True)
        assert all(0 <= s <= 13 for s in sizes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restricted_dual_value_matches_a_loop(self, seed):
        wg = _weighted_complete(7, 300 + seed)
        rep = _prop3(wg, 3, seed)
        assert len(rep.iii_subset) >= 3
        assert rep.iii_restricted_value == pytest.approx(_restricted_by_loop(wg, rep), abs=1e-12)

    def test_restricted_dual_carries_the_subsets_pair_duals(self):
        # low weights make pair rows bind, so h > 0 on edges inside the subset
        wg = _weighted_complete(8, 5, low=0.05, high=0.4)
        rep = _prop3(wg, 3, 1)
        _, d = solve_lp(wg, enumerate_cliques(wg.base, 3))
        h = dict(zip(wg.base.edges, d.h.tolist()))
        assert any(h[e] > 1e-9 for e in itertools.combinations(rep.iii_subset, 2))
        assert rep.iii_restricted_value == pytest.approx(_restricted_by_loop(wg, rep), abs=1e-12)

    # the ids name the form solve_lp solves: K_6 the packing form (the
    # primal), weighted K_7 the covering form (the dual), t* from the read-off f
    @pytest.mark.parametrize(
        "wg", [uniform_weights(gen_complete(6)), _weighted_complete(7, 300)],
        ids=["primal_t_star_equality_case", "dual_t_star"],
    )
    def test_callers_solves_give_the_bare_report(self, wg, monkeypatch):
        tol = factor_lp_mod.TOL_DEFAULT
        cliques = enumerate_cliques(wg.base, 3)
        primal, dual = solve_lp(wg, cliques, tol)
        bare = check_prop3(wg, cliques, tol, 1, primal, dual)
        cert = has_fractional_factor(wg, cliques, tol)
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("bounds"))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(factor_lp_mod, "linprog", counting)
        rep = check_prop3(wg, cliques, tol, 1, primal, dual, cert)
        assert rep == bare
        # t* of the induced subgraph, and the integral matching's relaxation
        assert calls == [(0, 1), (0, None)]

    def test_subset_is_sorted_and_in_range(self, k6_unit):
        rep = _prop3(k6_unit, 3, 7)
        assert list(rep.iii_subset) == sorted(set(rep.iii_subset))
        assert all(0 <= v < 6 for v in rep.iii_subset)

    def test_to_dict_round_trips_thresholds(self, k6_unit):
        d = _prop3(k6_unit, 3, 5).to_dict()
        assert d["all_pass"] is True
        assert len(d["v1_sizes"]) == 4


def _restricted_by_loop(wg, rep) -> float:
    """sum of g over the report's subset U plus sum of h w over the edges inside U."""
    _, d = solve_lp(wg, enumerate_cliques(wg.base, 3))
    h, w = dict(zip(wg.base.edges, d.h.tolist())), edge_weights(wg)
    U = rep.iii_subset
    return sum(d.g[v] for v in U) + sum(h[e] * w[e] for e in itertools.combinations(U, 2))


class TestComplementarySlackness:
    def test_optimal_pair_passes(self, k6_unit):
        cliques = enumerate_cliques(k6_unit.base, 3)
        p, d = solve_lp(k6_unit, cliques)
        rep = complementary_slackness(p, d, k6_unit, cliques)
        assert rep.all_pass is True
        assert rep.worst_vertex_slack <= 1e-6
        assert rep.worst_clique_slack <= 1e-6

    def test_weighted_pair_passes(self):
        wg = _weighted_complete(7, 17)
        cliques = enumerate_cliques(wg.base, 3)
        p, d = solve_lp(wg, cliques)
        assert complementary_slackness(p, d, wg, cliques).all_pass is True

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_loop_reference(self, seed):
        wg = _weighted_complete(7 + seed, 600 + seed)
        cliques = enumerate_cliques(wg.base, 3)
        p, d = solve_lp(wg, cliques)
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
        p, d = solve_lp(k6_unit, cliques)
        g = d.g.copy()
        g[0] += 0.5
        bad = DualSolution(g=g, h=d.h, objective=d.objective + 0.5)
        with pytest.raises(InputError, match="gap"):
            complementary_slackness(p, bad, k6_unit, cliques)
