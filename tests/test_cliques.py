"""Clique enumeration, density windows, and local family / span audits."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfl.cliques as cliques_mod
from cfl import (
    InputError,
    ResourceError,
    count_cliques_window,
    default_span_size,
    enumerate_cliques,
    from_edge_list,
    gen_complete,
    gen_random_regular,
    graph_difference,
    induced_subgraph,
    property_P_audit,
    span_clique_audit,
    vertex_family,
)
from oracles import brute_force_cliques


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,t,expected",
        [(6, 2, 15), (6, 3, 20), (6, 4, 15), (5, 2, 10), (4, 5, 0)],
    )
    def test_complete_graph_counts(self, n, t, expected):
        assert len(enumerate_cliques(gen_complete(n), t)) == expected

    def test_triangle_free_graph_has_no_triangles(self, petersen):
        assert len(enumerate_cliques(petersen, 3)) == 0

    def test_paley13_triangle_count(self, paley13):
        # frozen from exhaustive combination checking
        assert len(enumerate_cliques(paley13, 3)) == 26

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_matches_brute_force(self, rr_20_6, t):
        cs = enumerate_cliques(rr_20_6, t)
        assert set(_rows(cs)) == set(brute_force_cliques(rr_20_6, t))

    def test_tuples_sorted_and_lexicographic(self, paley13):
        cs = enumerate_cliques(paley13, 3)
        assert cs.members.shape == (26, 3) and cs.members.dtype == np.int32
        for tup in _rows(cs):
            assert list(tup) == sorted(tup)
            assert len(set(tup)) == 3
        assert _rows(cs) == sorted(_rows(cs))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 14),
        p=st.floats(0.0, 1.0),
        t=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_the_brute_force_list(self, n, p, t, seed):
        g = _gnp(n, p, seed)
        assert _rows(enumerate_cliques(g, t)) == sorted(brute_force_cliques(g, t))

    def test_two_cliques_are_the_edges(self, k6):
        cs = enumerate_cliques(k6, 2)
        assert set(_rows(cs)) == set(k6.edges)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_vertex_operator_inverts_membership(self, rr_20_6, t):
        cs = enumerate_cliques(rr_20_6, t)
        A = cs.A_vert.toarray()
        assert A.shape == (rr_20_6.n, len(cs))
        for v in range(rr_20_6.n):
            assert set(np.flatnonzero(A[v])) == {
                cid for cid, tup in enumerate(_rows(cs)) if v in tup
            }
        assert set(np.unique(A)) <= {0.0, 1.0}

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_pair_operator_inverts_membership(self, rr_20_6, t):
        cs = enumerate_cliques(rr_20_6, t)
        A = cs.A_pair.toarray()
        assert A.shape == (rr_20_6.m, len(cs))
        for row, (u, v) in enumerate(rr_20_6.edges):
            assert set(np.flatnonzero(A[row])) == {
                cid for cid, tup in enumerate(_rows(cs)) if u in tup and v in tup
            }
        assert set(np.unique(A)) <= {0.0, 1.0}

    def test_operators_of_an_empty_clique_set(self, petersen):
        cs = enumerate_cliques(petersen, 3)
        assert cs.A_vert.shape == (10, 0)
        assert cs.A_pair.shape == (15, 0)
        assert (cs.A_vert @ np.zeros(len(cs))).tolist() == [0.0] * 10

    def test_enumeration_leaves_no_cyclic_garbage(self, rr_20_6):
        # garbage in a reference cycle (the adjacency sets) outlives the call
        # until the cyclic collector runs, which inflates peak memory
        gc.collect()
        gc.disable()
        try:
            enumerate_cliques(rr_20_6, 3)
            span_clique_audit(rr_20_6, 3, 10, trials=2, seed=0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_t_below_two_rejected(self, k6):
        with pytest.raises(InputError):
            enumerate_cliques(k6, 1)

    def test_cap_raises_with_partial_count(self, k6, monkeypatch):
        monkeypatch.setattr(cliques_mod, "ENUMERATION_CAP", 5)
        with pytest.raises(ResourceError) as exc:
            enumerate_cliques(k6, 3)
        assert exc.value.partial == 6

    def test_candidate_budget_trips_under_the_cap(self, k6, monkeypatch):
        # K_6 has 20 wedges u < v < w, each a K_3 candidate costing
        # CANDIDATE_BYTES + 12 bytes; 20 triangles are far under the cap
        per = cliques_mod.CANDIDATE_BYTES + 12
        monkeypatch.setattr(cliques_mod, "ENUMERATION_BUDGET", 20 * per - 1)
        with pytest.raises(ResourceError, match="20 candidates") as exc:
            enumerate_cliques(k6, 3)
        assert exc.value.partial is None
        monkeypatch.setattr(cliques_mod, "ENUMERATION_BUDGET", 20 * per)
        assert len(enumerate_cliques(k6, 3)) == 20


def _rows(cs) -> list:
    return list(map(tuple, cs.members.tolist()))


def _gnp(n: int, p: float, seed: int):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, [e for e, x in zip(pairs, rng.random(len(pairs))) if x < p])


class TestDensityWindow:
    def test_k6_pair_window(self, k6):
        count, lower, upper, within = count_cliques_window(k6, None, range(6), 2)
        assert count == 15
        assert lower == pytest.approx(0.9375)
        assert upper == pytest.approx(240.0)
        assert within is True

    def test_triangle_free_graph_leaves_window(self, petersen):
        count, lower, _, within = count_cliques_window(petersen, None, range(10), 3)
        assert count == 0
        assert lower > 0
        assert within is False

    def test_dense_random_regular_pairs(self):
        g = gen_random_regular(100, 50, 2025)
        count, lower, upper, within = count_cliques_window(g, None, range(100), 2)
        assert count == len(g.edges) == 2500
        assert lower == pytest.approx(156.25)
        assert upper == pytest.approx(40000.0)
        assert within is True

    def test_subset_window_counts_induced_cliques(self, k6):
        count, _, _, within = count_cliques_window(k6, None, [0, 1, 2], 2)
        assert count == 3
        assert within is True

    def test_difference_graph_count_matches_brute_force(self, rr_20_6):
        gprime = from_edge_list(20, rr_20_6.edges[:10])
        U = list(range(12))
        count, _, _, _ = count_cliques_window(rr_20_6, gprime, U, 3)
        diff = graph_difference(rr_20_6, gprime)
        sub, _ = induced_subgraph(diff, U)
        assert count == len(brute_force_cliques(sub, 3))

    def test_window_shrinks_center_by_subset_size(self, k6):
        # |U|^i scaling: center for |U|=3 is (3/6)^2 of the full-window center
        _, lower_full, _, _ = count_cliques_window(k6, None, range(6), 2)
        _, lower_sub, _, _ = count_cliques_window(k6, None, [0, 1, 2], 2)
        assert lower_sub == pytest.approx(lower_full / 4)

    def test_small_i_rejected(self, k6):
        with pytest.raises(InputError):
            count_cliques_window(k6, None, range(6), 1)

    def test_irregular_host_rejected(self):
        path = from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match="regular"):
            count_cliques_window(path, None, range(3), 2)


class TestVertexFamily:
    def test_k6_family_pairwise_meets_only_at_center(self, k6):
        fam = vertex_family(k6, None, 0, 3, 2)
        assert len(fam.cliques) == 2
        for tup in fam.cliques:
            assert 0 in tup and len(tup) == 3
        a, b = map(set, fam.cliques)
        assert a & b == {0}

    def test_k6_family_saturates_at_neighborhood_capacity(self, k6):
        # N(0) is a K_5: at most floor(5/2) = 2 disjoint pairs exist
        fam = vertex_family(k6, None, 0, 3, 3)
        assert len(fam.cliques) == 2

    def test_zero_target_returns_empty(self, k6):
        assert vertex_family(k6, None, 0, 3, 0).cliques == ()

    def test_triangle_free_graph_has_no_members(self, petersen):
        assert vertex_family(petersen, None, 0, 3, 1).cliques == ()

    def test_removed_edges_steer_first_fit(self, k6):
        gprime = from_edge_list(6, [(1, 2)])
        fam = vertex_family(k6, gprime, 0, 3, 2)
        assert fam.cliques == ((0, 1, 3), (0, 2, 4))

    def test_small_t_rejected(self, k6):
        with pytest.raises(InputError):
            vertex_family(k6, None, 0, 2, 1)

    def test_vertex_out_of_range_rejected(self, k6):
        with pytest.raises(InputError):
            vertex_family(k6, None, 6, 3, 1)


class TestPropertyP:
    def test_k12_passes_with_small_demand(self):
        g = gen_complete(12)
        rep = property_P_audit(g, 3, 6, 4, trials=5, seed=1)
        assert rep.failures == 0
        assert rep.witness is None
        assert rep.to_dict()["witness"] is None

    def test_k12_fails_when_demand_exceeds_pool(self):
        # |U| = 6 with |U_0| = 2 leaves a 4-vertex pool outside U_0, so at
        # most 2 vertex-disjoint-outside-U_0 triangles exist; target is 4.
        g = gen_complete(12)
        rep = property_P_audit(g, 3, 6, 8, trials=5, seed=1)
        assert rep.failures == rep.trials == 5
        U, u0 = rep.witness
        assert len(U) == 6 and len(u0) == 2
        assert set(u0) <= set(U)
        d = rep.to_dict()
        assert d["witness"] == {"U": list(U), "U0": list(u0)}

    def test_oversized_hole_rejected(self, k6):
        with pytest.raises(InputError):
            property_P_audit(k6, 3, 7, 2, trials=1, seed=0)

    def test_zero_trials_rejected(self, k6):
        with pytest.raises(InputError):
            property_P_audit(k6, 3, 3, 2, trials=0, seed=0)


class TestSpanAudit:
    @pytest.mark.parametrize("n,t,expected", [(60, 3, 3), (12, 3, 1), (100, 3, 4)])
    def test_default_size(self, n, t, expected):
        assert default_span_size(n, t) == expected

    def test_complete_graph_never_fails(self):
        failures, witness = span_clique_audit(gen_complete(60), 3, 3, trials=10, seed=3)
        assert failures == 0
        assert witness is None

    def test_triangle_free_graph_always_fails(self, petersen):
        failures, witness = span_clique_audit(petersen, 3, 3, trials=8, seed=3)
        assert failures == 8
        assert witness is not None and len(witness) == 3
        sub, _ = induced_subgraph(petersen, witness)
        assert brute_force_cliques(sub, 3) == []

    def test_oversized_subset_rejected(self, k6):
        with pytest.raises(InputError):
            span_clique_audit(k6, 3, 7, trials=1, seed=0)

    def test_zero_trials_rejected(self, k6):
        with pytest.raises(InputError):
            span_clique_audit(k6, 3, 3, trials=0, seed=0)

    def test_size_scales_with_n_over_t(self):
        for n, t in [(30, 3), (200, 4), (1000, 5)]:
            assert default_span_size(n, t) == math.ceil(0.11 * n / t)
