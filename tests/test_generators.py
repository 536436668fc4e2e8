import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfl import generators
from cfl.errors import GenerationError, InputError
from cfl.generators import (
    GenSpec,
    build,
    gen_circulant,
    gen_complete,
    gen_paley,
    gen_random_regular,
)
from cfl.graphs import regularity
from oracles import random_regular_by_loops


class TestComplete:
    def test_k1(self):
        g = gen_complete(1)
        assert g.n == 1 and g.m == 0

    def test_k5(self):
        g = gen_complete(5)
        info = regularity(g)
        assert g.m == 10 and info.is_regular and info.d == 4

    def test_invalid(self):
        with pytest.raises(InputError):
            gen_complete(0)


class TestPaley:
    def test_paley_13(self):
        g = gen_paley(13)
        info = regularity(g)
        assert g.n == 13 and g.m == 39
        assert info.is_regular and info.d == 6

    def test_paley_5_is_pentagon(self):
        # residues mod 5 are {1, 4}, so the offsets are +-1: the 5-cycle
        g = gen_paley(5)
        assert g.edges == gen_circulant(5, (1,)).edges

    def test_rejects_3_mod_4(self):
        with pytest.raises(InputError):
            gen_paley(7)

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            gen_paley(9)

    def test_rejects_2(self):
        with pytest.raises(InputError):
            gen_paley(2)

    def test_self_complementary_edge_count(self):
        # Paley graphs have exactly half of all pairs as edges
        for q in (5, 13, 17):
            g = gen_paley(q)
            assert g.m == q * (q - 1) // 4


class TestCirculant:
    def test_cycle(self):
        g = gen_circulant(8, (1,))
        info = regularity(g)
        assert info.is_regular and info.d == 2 and g.m == 8

    def test_half_offset_matching(self):
        # offset n/2 pairs each vertex with its antipode exactly once
        g = gen_circulant(6, (3,))
        info = regularity(g)
        assert info.is_regular and info.d == 1 and g.m == 3

    def test_two_offsets(self):
        g = gen_circulant(9, (1, 2))
        info = regularity(g)
        assert info.is_regular and info.d == 4

    def test_offset_validation(self):
        with pytest.raises(InputError):
            gen_circulant(8, (0,))
        with pytest.raises(InputError):
            gen_circulant(8, (5,))

    def test_duplicate_offsets_collapse(self):
        assert gen_circulant(7, (2, 2)).edges == gen_circulant(7, (2,)).edges


class TestRandomRegular:
    @pytest.mark.parametrize("n,d", [(10, 3), (20, 6), (15, 4), (50, 7), (100, 50)])
    def test_regular(self, n, d):
        info = regularity(gen_random_regular(n, d, 7))
        assert info.is_regular and info.d == d

    def test_deterministic(self):
        a = gen_random_regular(30, 8, 42)
        b = gen_random_regular(30, 8, 42)
        assert a.edges == b.edges

    def test_seed_sensitivity(self):
        a = gen_random_regular(30, 8, 1)
        b = gen_random_regular(30, 8, 2)
        assert a.edges != b.edges

    def test_d_zero(self):
        g = gen_random_regular(5, 0, 0)
        assert g.m == 0

    def test_parity_rejected(self):
        with pytest.raises(InputError):
            gen_random_regular(5, 3, 0)

    def test_range_rejected(self):
        with pytest.raises(InputError):
            gen_random_regular(4, 4, 0)
        with pytest.raises(InputError):
            gen_random_regular(4, -1, 0)

    def test_dense_end(self):
        # d = n-1 forces the complete graph; the pairing must still finish
        g = gen_random_regular(8, 7, 3)
        assert g.edges == gen_complete(8).edges

    @pytest.mark.parametrize("n,d", [(40, 36), (60, 55), (70, 66), (79, 76)])
    def test_near_complete_degrees_finish(self, n, d):
        start = time.perf_counter()
        g = gen_random_regular(n, d, 5)
        assert time.perf_counter() - start < 1.0
        info = regularity(g)
        assert info.is_regular and info.d == d
        assert all(u < v for u, v in g.edges) and len(set(g.edges)) == g.m
        assert gen_random_regular(n, d, 5).edges == g.edges


class TestRandomRegularOracle:
    # the array passes must draw the graph the one-pair-at-a-time loop draws
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 2**63 - 1))
    def test_same_graph_as_the_loop(self, data, n, seed):
        d = data.draw(st.integers(0, n - 1).filter(lambda d: n * d % 2 == 0))
        assert np.array_equal(gen_random_regular(n, d, seed).edge_array,
                              random_regular_by_loops(n, d, seed).edge_array)

    @pytest.mark.parametrize(
        "n,d,seed",
        [(70, 35, 0), (160, 80, 31), (160, 81, 31), (1, 0, 0), (9, 0, 4)],
        ids=["3_restarts", "4_restarts", "complement", "d0_n1", "d0_n9"],
    )
    def test_same_graph_on_restarts_and_edge_cases(self, n, d, seed):
        g = gen_random_regular(n, d, seed)
        assert np.array_equal(g.edge_array, random_regular_by_loops(n, d, seed).edge_array)
        assert regularity(g).d == d

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_same_error_past_the_restart_limit(self, monkeypatch, restarts):
        # rr(70,35) seed 0 restarts 3 times, so 2 allowed restarts are too few
        monkeypatch.setattr(generators, "MAX_RESTARTS", restarts)
        with pytest.raises(GenerationError) as ours:
            gen_random_regular(70, 35, 0)
        with pytest.raises(GenerationError) as loops:
            random_regular_by_loops(70, 35, 0)
        assert str(ours.value) == str(loops.value)
        assert str(ours.value) == f"random_regular(n=70, d=35, seed=0) exceeded {restarts} restarts"
        monkeypatch.setattr(generators, "MAX_RESTARTS", 3)
        assert np.array_equal(gen_random_regular(70, 35, 0).edge_array,
                              random_regular_by_loops(70, 35, 0).edge_array)


class TestBuild:
    def test_dispatch(self):
        assert build(GenSpec(kind="complete", n=4)).m == 6
        assert build(GenSpec(kind="paley", q=5)).n == 5
        assert build(GenSpec(kind="circulant", n=6, connection_set=(1,))).m == 6
        assert regularity(build(GenSpec(kind="random_regular", n=10, d=4, seed=1))).d == 4

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(kind="complete", n=None),
            GenSpec(kind="paley", q=None),
            GenSpec(kind="circulant", n=10, connection_set=None),
            GenSpec(kind="random_regular", n=10, d=4, seed=None),
        ],
        ids=["complete", "paley", "circulant", "random_regular"],
    )
    def test_missing_field_rejected(self, spec):
        with pytest.raises(InputError, match="requires"):
            build(spec)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            build(GenSpec(kind="hypercube", n=8))
