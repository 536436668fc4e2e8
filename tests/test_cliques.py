"""Clique enumeration, density windows, and span audits."""

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
    edge_ids,
    from_edge_list,
    gen_complete,
    gen_random_regular,
    induced_subgraph,
    span_clique_audit,
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

    @pytest.mark.parametrize("t", [3, 4])
    def test_operators_share_one_read_only_ones_buffer(self, rr_20_6, t):
        cs = enumerate_cliques(rr_20_6, t)
        v, p = cs.A_vert.data, cs.A_pair.data
        assert np.shares_memory(v, p)
        assert (v.size, p.size) == (t * len(cs), math.comb(t, 2) * len(cs))
        for data in (v, p):
            assert not data.flags.writeable and data.dtype == np.float64
            assert np.all(data == 1.0)
            with pytest.raises(ValueError, match="read-only"):
                data[0] = 2.0

    def test_operators_of_an_empty_clique_set(self, petersen):
        cs = enumerate_cliques(petersen, 3)
        assert cs.A_vert.shape == (10, 0)
        assert cs.A_pair.shape == (15, 0)
        assert (cs.A_vert @ np.zeros(len(cs))).tolist() == [0.0] * 10
        assert cs.pair_ids.shape == (0, 3) and cs.pair_ids.dtype == np.int32
        assert cs.least_weight(np.ones(petersen.m)).shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.integers(3, 5),
        n=st.integers(1, 24),
        d=st.integers(0, 23),
        seed=st.integers(0, 2**16),
        complete=st.booleans(),
    )
    def test_pair_ids_are_the_searched_edge_ids(self, t, n, d, seed, complete):
        d = min(d, n - 1)
        g = gen_complete(n) if complete else gen_random_regular(n, d - (n * d) % 2, seed)
        cs = enumerate_cliques(g, t)
        pairs = np.stack(np.triu_indices(t, 1), axis=1)
        searched = edge_ids(g, cs.members.take(pairs, axis=1)).reshape(len(cs), len(pairs))
        assert cs.pair_ids.dtype == np.int32 and cs.pair_ids.shape == searched.shape
        assert np.array_equal(cs.pair_ids, searched)
        assert (np.diff(cs.pair_ids, axis=1) > 0).all()

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

    def test_cap_raises(self, k6, monkeypatch):
        monkeypatch.setattr(cliques_mod, "ENUMERATION_CAP", 5)
        with pytest.raises(ResourceError, match="exceeded 5: 20 K_3"):
            enumerate_cliques(k6, 3)

    def test_candidate_budget_trips_under_the_cap(self, k6, monkeypatch):
        # K_6 has 20 wedges u < v < w, each a K_3 candidate costing
        # CANDIDATE_BYTES + 8 * (3 members + 3 pair ids) bytes; 20
        # triangles are far under the cap
        per = cliques_mod.CANDIDATE_BYTES + 48
        monkeypatch.setattr(cliques_mod, "ENUMERATION_BUDGET", 20 * per - 1)
        with pytest.raises(ResourceError, match="20 candidates"):
            enumerate_cliques(k6, 3)
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
        count, lower, upper, within = count_cliques_window(k6, range(6), 2)
        assert count == 15
        assert lower == pytest.approx(0.9375)
        assert upper == pytest.approx(240.0)
        assert within is True

    def test_triangle_free_graph_leaves_window(self, petersen):
        count, lower, _, within = count_cliques_window(petersen, range(10), 3)
        assert count == 0
        assert lower > 0
        assert within is False

    def test_dense_random_regular_pairs(self):
        g = gen_random_regular(100, 50, 2025)
        count, lower, upper, within = count_cliques_window(g, range(100), 2)
        assert count == len(g.edges) == 2500
        assert lower == pytest.approx(156.25)
        assert upper == pytest.approx(40000.0)
        assert within is True

    def test_subset_window_counts_induced_cliques(self, k6):
        count, _, _, within = count_cliques_window(k6, [0, 1, 2], 2)
        assert count == 3
        assert within is True

    def test_subset_count_matches_brute_force(self, rr_20_6):
        U = list(range(12))
        count, _, _, _ = count_cliques_window(rr_20_6, U, 3)
        sub, _ = induced_subgraph(rr_20_6, U)
        assert count == len(brute_force_cliques(sub, 3))

    def test_window_shrinks_center_by_subset_size(self, k6):
        # |U|^i scaling: center for |U|=3 is (3/6)^2 of the full-window center
        _, lower_full, _, _ = count_cliques_window(k6, range(6), 2)
        _, lower_sub, _, _ = count_cliques_window(k6, [0, 1, 2], 2)
        assert lower_sub == pytest.approx(lower_full / 4)

    def test_small_i_rejected(self, k6):
        with pytest.raises(InputError):
            count_cliques_window(k6, range(6), 1)

    def test_irregular_host_rejected(self):
        path = from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError, match="regular"):
            count_cliques_window(path, range(3), 2)


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

    @pytest.mark.parametrize("size", [0, -3])
    def test_nonpositive_size_rejected(self, k6, size):
        with pytest.raises(InputError, match="size must be in"):
            span_clique_audit(k6, 3, size, trials=1, seed=0)

    def test_zero_trials_rejected(self, k6):
        with pytest.raises(InputError):
            span_clique_audit(k6, 3, 3, trials=0, seed=0)

    def test_size_scales_with_n_over_t(self):
        for n, t in [(30, 3), (200, 4), (1000, 5)]:
            assert default_span_size(n, t) == math.ceil(0.11 * n / t)
