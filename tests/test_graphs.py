import math

import numpy as np
import pytest

from cfl.errors import InputError, ParseError
from cfl.generators import gen_complete, gen_random_regular
from cfl.graphs import (
    Graph,
    WeightedGraph,
    edge_key,
    from_edge_list,
    graph_difference,
    induced_subgraph,
    induced_weighted,
    parse_graph,
    parse_weighted_graph,
    regularity,
    rich_subgraph,
    uniform_weights,
    weighted_degree,
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
        assert g.degree(1) == 3
        assert g.degree(0) == 1

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

    def test_edge_key_orders(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)


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

    def test_slack_boundary_accepted(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 1.0 + 1e-13
        WeightedGraph(k6, w)  # within WEIGHT_SLACK

    def test_weighted_degree(self):
        wg = uniform_weights(gen_complete(4), 0.5)
        assert weighted_degree(wg, 0) == pytest.approx(1.5)
        with pytest.raises(InputError):
            weighted_degree(wg, 4)

    def test_uniform_weights(self, k6):
        wg = uniform_weights(k6)
        assert all(v == 1.0 for v in wg.w.values())
        assert wg.n == 6


class TestRichSubgraph:
    def test_threshold(self, k6):
        w = {e: 1.0 for e in k6.edges}
        w[(0, 1)] = 0.95
        w[(2, 3)] = 0.5
        wg = WeightedGraph(k6, w)
        h = rich_subgraph(wg, 0.1)  # keep w >= 0.9
        assert h.has_edge(0, 1) and not h.has_edge(2, 3)
        assert h.m == k6.m - 1
        h2 = rich_subgraph(wg, 0.01)
        assert not h2.has_edge(0, 1)

    def test_alpha_range(self, k6_unit):
        with pytest.raises(InputError):
            rich_subgraph(k6_unit, -0.1)
        with pytest.raises(InputError):
            rich_subgraph(k6_unit, 1.5)


class TestDifferenceAndInduced:
    def test_difference(self):
        k4 = gen_complete(4)
        matching = from_edge_list(4, [(0, 1), (2, 3)])
        diff = graph_difference(k4, matching)
        assert diff.m == 4
        assert not diff.has_edge(0, 1) and diff.has_edge(0, 2)

    def test_difference_size_mismatch(self):
        with pytest.raises(InputError):
            graph_difference(gen_complete(4), gen_complete(5))

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
        assert sub.w[(0, 1)] == 0.75  # relabeled (1,3)
        assert sub.w[(0, 2)] == 0.25


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
        rng = np.random.default_rng(3)
        w = {e: float(rng.random()) for e in k6.edges}
        text = write_weighted_graph(WeightedGraph(k6, w))
        back = parse_weighted_graph(text)
        assert back.w == w
        assert write_weighted_graph(back) == text

    def test_weighted_parse_rejects_bad_weight(self):
        with pytest.raises(ParseError):
            parse_weighted_graph("2 1\n0 1 1.5\n")
        with pytest.raises(ParseError):
            parse_weighted_graph("2 1\n0 1 nan\n")

    def test_weighted_detects_missing_column(self):
        with pytest.raises(ParseError):
            parse_weighted_graph("2 1\n0 1\n")
