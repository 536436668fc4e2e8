import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfl.cli import _read_maybe_weighted
from cfl.errors import InputError, ParseError
from cfl.generators import gen_complete, gen_random_regular
from cfl.graphs import (
    Graph,
    WeightedGraph,
    edge_ids,
    from_edge_list,
    induced_subgraph,
    induced_weighted,
    parse_graph,
    parse_weighted_graph,
    regularity,
    uniform_weights,
    write_graph,
    write_weighted_graph,
)


class TestGraphConstruction:
    def test_canonical_edges(self):
        g = from_edge_list(4, [(2, 1), (0, 3), (1, 2)])
        assert g.edges == ((0, 3), (1, 2))
        assert g.m == 2

    def test_has_edge_symmetric(self):
        g = from_edge_list(3, [(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_adjacency(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
        assert g.adj[1] == (0, 2, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(InputError):
            from_edge_list(3, [(-1, 2)])

    def test_empty_graph(self):
        g = from_edge_list(0, [])
        assert g.n == 0 and g.m == 0
        info = regularity(g)
        assert info.is_regular and info.d == 0

    @pytest.mark.parametrize("n,pairs", [(0, []), (4, [(2, 1), (0, 3), (1, 2)])])
    def test_edge_array_is_the_edges_read_only(self, n, pairs):
        g = from_edge_list(n, pairs)
        ends = g.edge_array
        assert ends.shape == (g.m, 2) and ends.dtype == np.int32
        assert list(map(tuple, ends.tolist())) == list(g.edges)
        assert g.edge_array is ends
        with pytest.raises(ValueError):
            ends[0:1] = 0

    def test_edge_ids_find_edges_and_reject_non_edges(self):
        g = from_edge_list(4, [(2, 1), (0, 3), (1, 2), (2, 3)])
        assert edge_ids(g, [(2, 3), (0, 3), (1, 2)]).tolist() == [2, 0, 1]
        assert edge_ids(g, np.zeros((0, 2), dtype=np.int32)).size == edge_ids(g, []).size == 0
        # (0, 6) and (3, -1) have the keys 0*4 + 6 and 3*4 - 1 of the edges (1, 2) and (2, 3)
        for pair in [(0, 1), (3, 2), (1, 1), (0, 6), (3, -1), (-1, 3)]:
            with pytest.raises(InputError):
                edge_ids(g, [pair])
        with pytest.raises(InputError):
            edge_ids(from_edge_list(3, []), [(0, 1)])


class TestRegularity:
    def test_complete(self):
        info = regularity(gen_complete(5))
        assert info.is_regular and info.d == 4
        assert info.min_deg == info.max_deg == 4

    def test_path_not_regular(self):
        info = regularity(from_edge_list(3, [(0, 1), (1, 2)]))
        assert not info.is_regular
        assert info.min_deg == 1 and info.max_deg == 2


class TestWeightedGraph:
    def test_requires_all_edges_weighted(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w.pop((0, 1))
        with pytest.raises(InputError):
            WeightedGraph(k6, w)
        with pytest.raises(InputError):  # an edge-order array one short
            WeightedGraph(k6, np.ones(k6.m - 1))

    def test_rejects_nonedge_weight(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 99)] = 1.0
        with pytest.raises(InputError):
            WeightedGraph(k6, w)

    def test_rejects_out_of_range_weight(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 1.5
        with pytest.raises(InputError):
            WeightedGraph(k6, w)
        w[(0, 1)] = -0.2
        with pytest.raises(InputError):
            WeightedGraph(k6, w)
        w[(0, 1)] = math.nan
        with pytest.raises(InputError):
            WeightedGraph(k6, w)
        with pytest.raises(InputError):
            WeightedGraph(k6, np.array([math.nan] + [1.0] * (k6.m - 1)))

    def test_slack_boundary_accepted(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 1.0 + 1e-13
        WeightedGraph(k6, w)  # within WEIGHT_SLACK

    def test_weights_are_a_read_only_copy_in_edge_order(self, k6):
        w = np.linspace(0.0, 1.0, k6.m)
        wg = WeightedGraph(k6, w)
        w[:] = 0.5  # the caller's array, changed after construction
        assert wg.w.tolist() == np.linspace(0.0, 1.0, k6.m).tolist()
        with pytest.raises(ValueError):
            wg.w[0] = 0.0
        mapping = dict(zip(reversed(k6.edges), reversed(wg.w.tolist())))
        assert WeightedGraph(k6, mapping).w.tolist() == wg.w.tolist()

    def test_uniform_weights(self, k6):
        wg = uniform_weights(k6)
        assert wg.w.tolist() == [1.0] * k6.m
        assert wg.n == 6


class TestDifferenceAndInduced:
    def test_induced_relabels(self, k6):
        sub, verts = induced_subgraph(k6, [5, 1, 3])
        assert verts == (1, 3, 5)
        assert sub.n == 3 and sub.m == 3  # triangle

    def test_induced_out_of_range(self, k6):
        with pytest.raises(InputError):
            induced_subgraph(k6, [0, 7])

    def test_induced_weighted_carries_weights(self, k6):
        w = {e: 0.25 for e in k6.edges}
        w[(1, 3)] = 0.75
        sub, verts = induced_weighted(WeightedGraph(k6, w), [1, 3, 4])
        assert verts == (1, 3, 4)
        assert sub.base.edges == ((0, 1), (0, 2), (1, 2))
        assert sub.w.tolist() == [0.75, 0.25, 0.25]  # (0, 1) is the relabeled (1, 3)


class TestTextFormat:
    def test_round_trip_bytes(self, petersen):
        text = write_graph(petersen)
        assert write_graph(parse_graph(text)) == text

    def test_round_trip_random(self):
        for seed in range(10):
            g = gen_random_regular(16, 5, seed) if seed % 2 else gen_random_regular(15, 4, seed)
            text = write_graph(g)
            assert write_graph(parse_graph(text)) == text

    def test_header(self, k6):
        lines = write_graph(k6).splitlines()
        assert lines[0] == "6 15"
        assert len(lines) == 16

    def test_parse_reports_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("nonsense header\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("3 1\n0 0\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("3 2\n0 1\n1 5\n")

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n0 1\n")

    def test_parse_rejects_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n")

    def test_parse_rejects_unordered_endpoints(self):
        with pytest.raises(ParseError):
            parse_graph("3 1\n1 0\n")

    def test_weighted_round_trip(self, k6):
        # numpy scalars as well as floats must be written as plain decimals
        for scalar in (float, np.float64):
            rng = np.random.default_rng(3)
            w = {e: scalar(rng.random()) for e in k6.edges}
            text = write_weighted_graph(WeightedGraph(k6, w))
            back = parse_weighted_graph(text)
            assert back.w.tolist() == [float(w[e]) for e in k6.edges]
            assert write_weighted_graph(back) == text

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 20), p=st.floats(0.0, 1.0))
    def test_round_trips_of_random_graphs(self, data, n, p):
        # G(n, p) with weights drawn from [0, 1]: both formats give the same
        # graph back, the weights bit for bit, and the CLI reader tells them apart
        g = _gnp(n, p, data.draw(st.integers(0, 2**32 - 1)))
        assert parse_graph(write_graph(g)) == g
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=g.m, max_size=g.m))
        wg = WeightedGraph(g, dict(zip(g.edges, weights)))
        back = parse_weighted_graph(write_weighted_graph(wg))
        assert back.base == g
        assert [x.hex() for x in back.w.tolist()] == [x.hex() for x in weights]
        with tempfile.TemporaryDirectory() as tmp:
            for text, want in ((write_graph(g), [1.0] * g.m), (write_weighted_graph(wg), weights)):
                # a leading blank line must not hide which format a file is
                for lead in ("", "\n"):
                    path = os.path.join(tmp, "g.txt")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(lead + text)
                    read = _read_maybe_weighted(path)
                    assert read.base == g
                    assert [x.hex() for x in read.w.tolist()] == [x.hex() for x in want]

    def test_weighted_parse_rejects_bad_weight(self):
        with pytest.raises(ParseError):
            parse_weighted_graph("2 1\n0 1 1.5\n")
        with pytest.raises(ParseError):
            parse_weighted_graph("2 1\n0 1 nan\n")

    def test_weighted_detects_missing_column(self):
        with pytest.raises(ParseError):
            parse_weighted_graph("2 1\n0 1\n")


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, [e for e, x in zip(pairs, rng.random(len(pairs))) if x < p])
