import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfl.acceptance import petersen
from cfl.cli import _read_maybe_weighted
from cfl.errors import InputError, ParseError
from cfl.generators import gen_complete, gen_paley, gen_random_regular
from cfl.graphs import (
    Graph,
    RegularityInfo,
    WeightedGraph,
    complement,
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
from cfl.graphs import _BREAKS, _SPACES
from cfl.pipeline import sparse_split
from oracles import (
    complement_by_pairs,
    edges_by_sets,
    induced_by_dict,
    parse_by_lines,
    split_by_buckets,
)


class TestGraphConstruction:
    def test_canonical_edges(self):
        g = from_edge_list(4, [(2, 1), (0, 3), (1, 2)])
        assert g.edges == ((0, 3), (1, 2))
        assert g.m == 2

    def test_degrees_through_regularity(self):
        g = from_edge_list(3, [(1, 0)])
        assert g == from_edge_list(3, [(0, 1)])
        assert regularity(g) == RegularityInfo(False, None, 0, 1)
        g = from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
        assert regularity(g) == RegularityInfo(False, None, 1, 3)

    @pytest.mark.parametrize(
        "pairs,named",
        [
            ([(0, 1), (0, 1.5)], "(0, 1.5)"),
            ([(0, 1, 2)], "(0, 1, 2)"),
            ([(0, 1), (0, 1, 2)], "(0, 1, 2)"),
            ([(0, 1), (0, True)], "(0, True)"),
            ([(0, 1), (2,)], "(2,)"),
            ([0, 1], "0"),
            (np.array([[0.0, 1.0]]), "(0.0, 1.0)"),
            (np.array([[True, False]]), "(True, False)"),
            (np.array([[0, 1, 2]]), "(0, 1, 2)"),
        ],
    )
    def test_malformed_pairs_rejected(self, pairs, named):
        with pytest.raises(InputError, match=re.escape(f"edge {named} is not a pair")):
            from_edge_list(3, pairs)

    def test_numpy_input_gives_int_edges(self):
        g = from_edge_list(3, np.array([[2, 1], [0, 1]], dtype=np.int64))
        assert g.edges == ((0, 1), (1, 2))
        assert {type(x) for e in g.edges for x in e} == {int}

    def test_constructor_checks_the_invariant(self):
        assert Graph(3, np.array([[0, 1], [0, 2]])).edges == ((0, 1), (0, 2))
        for rows in ([[0, 2], [0, 1]], [[0, 1], [0, 1]], [[1, 0]], [[0, 3]], [[-1, 2]]):
            with pytest.raises(InputError, match="is not canonical for n=3"):
                Graph(3, np.array(rows))
        with pytest.raises(InputError):
            Graph(3, np.array([[0.0, 1.0]]))

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

    @pytest.mark.parametrize("labels,bad", [
        ([1.5, 2.7], "1.5"),
        ([True, 2], "True"),
        (np.array([1.0, 2.0]), "1.0"),
    ], ids=["floats", "bool", "float_array"])
    def test_induced_rejects_non_integer_labels(self, labels, bad):
        with pytest.raises(InputError, match=f"vertex label .*{re.escape(bad)}.* is not an integer"):
            induced_subgraph(gen_complete(4), labels)

    @pytest.mark.parametrize("labels", [
        [1, 2], [np.int64(1), np.int32(2)], np.array([2, 1], dtype=np.uint8), range(1, 3),
    ], ids=["ints", "numpy_scalars", "uint8_array", "range"])
    def test_induced_accepts_integer_labels(self, labels):
        sub, verts = induced_subgraph(gen_complete(4), labels)
        assert verts == (1, 2) and sub.edges == ((0, 1),)

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

    def test_character_tables_are_strs_own(self):
        # the reader places tokens on lines with these tables, so they must be
        # exactly what str.split() and str.splitlines() use, over all of Unicode
        chars = list(map(chr, range(0x110000)))
        assert _SPACES.tolist() == [ord(c) for c in chars if c.isspace()]
        assert _BREAKS.tolist() == [ord(c) for c in chars if len(f"a{c}b".splitlines()) == 2]

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("\n\n3 1\n\n0 0\n", 5, "edge (0,0) violates"),
            ("3 2\r\n0 1\r\n\r\n1 5\r\n", 4, "edge (1,5) violates"),
            ("3 2\r0 1\r1 x\r", 3, "malformed edge line '1 x'"),
            ("3 2\x0b0 1\u20281 2 7\n", 3, "expected 'u v', got '1 2 7'"),
            ("3 2\n0 1 \x1c 1 5\n", 3, "edge (1,5) violates"),
            ("3 2\n1 5\n0 1 2\n", 2, "edge (1,5) violates"),
            ("3 2\n0 1 2\n1 5\n", 2, "expected 'u v'"),
            ("3 2\n0 99999999999999999999\n1 2\n", 2, "malformed edge line"),
            ("3 2\n0 +1\n1_0 2\n", 3, "edge (10,2) violates"),
            ("3 x\n0 1\n", 1, "non-integer header field"),
            ("3\n0 1\n", 1, "expected 'n m' header"),
            ("3 -1\n", 1, "negative header value"),
            ("3 2\n\n0 1\n\n", 1, "header declares 2 edges, found 1 edge lines"),
            ("  \n\t\n", 1, "empty input"),
        ],
        ids=["blank-lines", "crlf", "cr", "vt-and-line-separator", "file-separator",
             "range-before-count", "count-before-range", "beyond-int64", "sign-and-underscore",
             "header-field", "header-count", "header-negative", "edge-line-count", "empty"],
    )
    def test_first_bad_line_and_check(self, text, line, message):
        # the first bad line in file order, whatever the line breaks, and on it
        # the first check it fails: count, then integers, then 0 <= u < v < n
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line_no == line and message in str(exc.value)
        with pytest.raises(ParseError) as ref:
            parse_by_lines(text, weighted=False)
        assert str(ref.value) == str(exc.value)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("2 2\n0 1 0.5\n0 1 1.5\n", 3, "weight 1.5 outside [0,1]"),
            ("3 2\n0 1 nan\n1 5 0.5\n", 2, "weight nan outside [0,1]"),
            ("3 2\n0 1 2.0\n1 x 0.5\n", 2, "weight 2.0 outside [0,1]"),
            ("3 2\n1 5 0.5\n0 1 2.0\n", 2, "edge (1,5) violates"),
            ("3 2\n0 1 0.5\n1 2 w\n", 3, "malformed edge line '1 2 w'"),
            ("3 2\n0 1 0x1\n1 2\n", 2, "malformed edge line"),
            ("3 2\n0 1 0.5\n0 1 0.25\n", 1, "duplicate edges: 2 declared, 1 distinct"),
        ],
        ids=["over-one", "nan-before-range", "weight-before-malformed", "range-before-weight",
             "malformed-weight",
             "hex-weight", "duplicate"],
    )
    def test_first_bad_weighted_line_and_check(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_weighted_graph(text)
        assert exc.value.line_no == line and message in str(exc.value)
        with pytest.raises(ParseError) as ref:
            parse_by_lines(text, weighted=True)
        assert str(ref.value) == str(exc.value)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        weighted=st.booleans(),
        n=st.integers(0, 6),
        m=st.integers(0, 6),
    )
    def test_matches_the_line_loop_reader(self, data, weighted, n, m):
        # random, mostly broken files: the same graph and weights as the
        # line-by-line reader, or the same ParseError, line and message
        cell = st.sampled_from(
            ["0", "1", "2", "3", "5", "-1", "+2", "1_0", "1.5", "0.5", "1", "x", "nan", "", "\u0663",
             "99999999999999999999", "1e-1", "inf"]
        )
        gap = st.sampled_from([" ", "  ", "\t", "\x0b", "\xa0", "\u3000"])
        end = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\u2028", "\x1c", "\n \n"])
        rows = data.draw(st.lists(st.lists(cell, min_size=1, max_size=4), max_size=7))
        head = data.draw(st.sampled_from([f"{n} {m}", f"{n} {len(rows)}", f"{n}", ""]))
        text = head + data.draw(end)
        for row in rows:
            text += data.draw(gap).join(row) + data.draw(end)
        try:
            want = parse_by_lines(text, weighted)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                (parse_weighted_graph if weighted else parse_graph)(text)
            assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
            return
        if weighted:
            got = parse_weighted_graph(text)
            assert got.base == want[0] and got.w.tolist() == want[1]
        else:
            assert parse_graph(text) == want[0]


class TestArrayRoutesMatchTupleRoutes:
    """The array constructors give the edges the old per-edge tuple routes gave."""

    GRAPHS = {
        "rr_20_6": lambda: gen_random_regular(20, 6, 101),
        "paley_13": lambda: gen_paley(13),
        "k8_minus_matching": lambda: from_edge_list(
            8, [e for e in gen_complete(8).edges if e not in {(0, 1), (2, 3), (4, 5), (6, 7)}]
        ),
        "petersen": petersen,
    }

    @pytest.mark.parametrize("seed", range(6))
    def test_from_edge_list(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # duplicates in both orientations, then shuffled
        pairs = np.vstack([pairs, pairs[: len(pairs) // 2, ::-1]])
        pairs = pairs[rng.permutation(len(pairs))]
        want = edges_by_sets(pairs.tolist())
        for given in (pairs, pairs.tolist(), [tuple(p) for p in pairs.tolist()]):
            g = from_edge_list(n, given)
            assert g.edges == want
            assert np.array_equal(g.edge_array, np.array(want, dtype=np.int32).reshape(-1, 2))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_induced_subgraph(self, name):
        g = self.GRAPHS[name]()
        rng = np.random.default_rng(5)
        subsets = [[], range(g.n)] + [rng.permutation(g.n)[: int(rng.integers(1, g.n))] for _ in range(4)]
        for U in subsets:
            sub, verts = induced_subgraph(g, U)
            edges, want = induced_by_dict(g, [int(u) for u in U])
            assert verts == want and sub.n == len(want)
            assert sub.edges == edges

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_split(self, name):
        g = self.GRAPHS[name]()
        for ell in (1, 3, 5):
            for seed in range(3):
                parts = sparse_split(g, ell, seed)
                assert [p.edges for p in parts] == split_by_buckets(g, ell, seed)
                assert all(p.n == g.n for p in parts)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_complement(self, name):
        g = self.GRAPHS[name]()
        assert complement(g).edges == complement_by_pairs(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_random_regular_is_the_complement(self, seed):
        # 2d > n: drawn as the complement of rr(20, 5) with the same seed
        g = gen_random_regular(20, 14, seed)
        assert g.edges == complement_by_pairs(gen_random_regular(20, 5, seed))
        assert regularity(g) == RegularityInfo(True, 14, 14, 14)


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, [e for e, x in zip(pairs, rng.random(len(pairs))) if x < p])
