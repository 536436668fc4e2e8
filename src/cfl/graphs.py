"""Simple undirected graphs and edge-weighted graphs.

Vertices are dense integers 0..n-1.  A graph's edge set is one read-only
(m, 2) int32 array: u < v in every row, and the rows in strictly increasing
key u*n + v.  Its row order is the index order of every per-edge array
(weights, pair loads, duals) and of edge_ids.  `edges` and `edge_keys` are
views derived from it.  Values are immutable; views are cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError, ParseError

# Absolute slack for threshold comparisons on weights (e.g. against 1 - alpha).
# Iterative subtraction in the dense pipeline accumulates rounding at this scale.
WEIGHT_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected simple graph on vertices 0..n-1; equal graphs have equal n and edge_array.

    edge_array is the canonical array of the module docstring, and this
    constructor is the one place that checks it: it takes any (m, 2) integer
    array, raises InputError on the first row that breaks 0 <= u < v < n or
    the increasing key order, and keeps a read-only int32 copy.
    """

    n: int
    edge_array: np.ndarray = field(repr=False)

    def __post_init__(self):
        ends = np.asarray(self.edge_array)
        if self.n < 0 or ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
            raise InputError(f"need n >= 0 and (m, 2) integer edges, got n={self.n}, {ends.shape}")
        bad = (ends[:, 0] < 0) | (ends[:, 0] >= ends[:, 1]) | (ends[:, 1] >= self.n)
        if not bad.any():  # keys order only rows within range
            object.__setattr__(self, "edge_array", ends.astype(np.int32))
            self.edge_array.flags.writeable = False
            bad[1:] = self.edge_keys[1:] <= self.edge_keys[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            raise InputError(f"edge row {i} {tuple(ends[i].tolist())} is not canonical for n={self.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple:
        """The rows of edge_array as (u, v) tuples of ints, for writers, messages and dict keys."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """u*n + v of each edge as int64: ascending, since the edges are canonical."""
        return self.edge_array[:, 0].astype(np.int64) * self.n + self.edge_array[:, 1]


def edge_ids(g: Graph, pairs) -> np.ndarray:
    """Index in g.edges of each (u, v) pair of an (..., 2) array, found by one
    binary search of u*n + v in g.edge_keys; a non-edge raises InputError."""
    p = np.asarray(pairs).reshape(-1, 2)
    q = p[:, 0].astype(np.int64) * g.n + p[:, 1]
    ids = np.searchsorted(g.edge_keys, q)
    # while 0 <= v < n, q decodes to (u, v), so a key match is exactly an edge
    found = np.take(g.edge_keys, ids, mode="clip") == q if g.m else False
    hit = (0 <= p[:, 1]) & (p[:, 1] < g.n) & found
    if not hit.all():
        raise InputError(f"{tuple(p[np.flatnonzero(~hit)[0]].tolist())} is not an edge")
    return ids


def _is_label(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and -(2**63) <= x < 2**63


def from_edge_list(n: int, pairs) -> Graph:
    """Build a Graph from a (k, 2) array-like of (u, v) pairs in any order,
    deduplicating undirected edges.

    Raises InputError, naming the first offending pair, on a pair that is not
    two integers (a float, a bool, a third entry), an out-of-range vertex or
    a self-loop.
    """
    rows = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    try:
        p = np.asarray(rows)
        ok = len(rows) == 0 or (p.ndim == 2 and p.shape[1] == 2 and p.dtype.kind in "iu")
    except ValueError:  # ragged pairs
        ok = False
    if ok and isinstance(rows, list):
        # numpy reads a bool among integers as 0 or 1, so look at the labels themselves
        ok = not {bool, np.bool_} & set(map(type, itertools.chain.from_iterable(rows)))
    if not ok:
        bad = next(r for r in rows if not (isinstance(r, (tuple, list, np.ndarray))
                                           and len(r) == 2 and all(map(_is_label, r))))
        bad = tuple(bad.tolist()) if isinstance(bad, np.ndarray) else bad
        raise InputError(f"edge {bad!r} is not a pair of integer vertices")
    p = p.astype(np.int64).reshape(-1, 2)
    out = ((p < 0) | (p >= n)).any(axis=1)
    bad = out | (p[:, 0] == p[:, 1])
    if bad.any():
        i = int(np.argmax(bad))
        u, v = p[i].tolist()
        raise InputError(f"vertex out of range in edge ({u},{v}) for n={n}" if out[i]
                         else f"self-loop at vertex {u}")
    keys = np.unique(p.min(axis=1) * n + p.max(axis=1))
    return Graph(n, np.column_stack(np.divmod(keys, n)))


def complement(g: Graph) -> Graph:
    """The graph on the same vertices whose edges are g's non-adjacent pairs."""
    u, v = np.triu_indices(g.n, 1)
    keys = np.setdiff1d(u * g.n + v, g.edge_keys, assume_unique=True)
    return Graph(g.n, np.column_stack(np.divmod(keys, g.n)))


@dataclass(frozen=True)
class RegularityInfo:
    is_regular: bool
    d: int | None
    min_deg: int
    max_deg: int


def regularity(g: Graph) -> RegularityInfo:
    """Report the common degree, or the min/max degrees when not regular."""
    degs = np.bincount(g.edge_array.ravel(), minlength=g.n)
    lo, hi = (int(degs.min()), int(degs.max())) if g.n else (0, 0)
    return RegularityInfo(lo == hi, lo if lo == hi else None, lo, hi)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """A Graph plus edge weights w: E -> [0,1].

    w is a read-only float64 array in the order of base.edges, given in that
    order or as an edge -> weight Mapping.  It is copied and checked once:
    no edge missing, no non-edge, no NaN, nothing beyond WEIGHT_SLACK of [0,1].
    """

    base: Graph
    w: np.ndarray

    def __post_init__(self):
        w, m = self.w, self.base.m
        if isinstance(w, Mapping):
            ids = edge_ids(self.base, list(w))
            if len(ids) < m:
                missing = np.setdiff1d(range(m), ids)[0]
                raise InputError(f"missing weight for edge {self.base.edges[missing]}")
            w = np.empty(m)
            w[ids] = list(self.w.values())
        w = np.array(w, dtype=np.float64)
        if w.shape != (m,):
            raise InputError(f"expected {m} edge weights, got shape {w.shape}")
        bad = np.flatnonzero(~((-WEIGHT_SLACK <= w) & (w <= 1 + WEIGHT_SLACK)))
        if bad.size:
            raise InputError(f"weight {w[bad[0]]} outside [0,1] on edge {self.base.edges[bad[0]]}")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.base.n


def uniform_weights(g: Graph) -> WeightedGraph:
    """Give every edge weight 1, the weighting both extraction engines start from."""
    return WeightedGraph(g, np.ones(g.m))


def induced_subgraph(g: Graph, U: Iterable[int]) -> tuple:
    """G[U] with vertices relabeled 0..|U|-1.

    Returns (subgraph, vertices) where vertices[i] is the original label of
    new vertex i (sorted ascending).  A label that is not an integer (a
    float, a bool) raises InputError naming it.
    """
    if not (isinstance(U, np.ndarray) and U.dtype.kind in "iu"):
        U = list(U)
        bad = [x for x in U if not _is_label(x)]
        if bad:
            raise InputError(f"vertex label {bad[0]!r} is not an integer")
    verts = np.unique(np.asarray(U, dtype=np.int64))
    outside = verts[(verts < 0) | (verts >= g.n)]
    if outside.size:
        raise InputError(f"vertex {outside[0]} not in graph")
    inside = np.zeros(g.n, dtype=bool)
    inside[verts] = True
    kept = g.edge_array[inside[g.edge_array].all(axis=1)]
    # relabelling by the sorted vertex list is monotone, so the rows stay canonical
    return Graph(len(verts), np.searchsorted(verts, kept)), tuple(verts.tolist())


def induced_weighted(wg: WeightedGraph, U: Iterable[int]) -> tuple:
    """(G[U], w restricted to E(G[U])), with the same relabeling as induced_subgraph."""
    sub, verts = induced_subgraph(wg.base, U)
    host = np.asarray(verts, dtype=np.int64)
    return WeightedGraph(sub, wg.w[edge_ids(wg.base, host[sub.edge_array])]), verts


# ---------------------------------------------------------------------------
# Text format: "n m" header, then one "u v" line per edge with 0 <= u < v < n.
# Weighted variant appends the weight: "u v w".
# ---------------------------------------------------------------------------


# Code points str.split() splits at, and those str.splitlines() ends a line at
_SPACES = np.array([9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160, 5760, *range(8192, 8203),
                    8232, 8233, 8239, 8287, 12288], np.uint32)
_BREAKS = np.array([10, 11, 12, 13, 28, 29, 30, 133, 8232, 8233], np.uint32)


def _token_lines(text: str) -> np.ndarray:
    """The line of each token of text.split(), numbered from 1 as in text.splitlines()."""
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    space, ends = np.isin(code, _SPACES), np.isin(code, _BREAKS)
    ends[1:] &= (code[:-1] != 13) | (code[1:] != 10)  # "\r\n" ends one line
    starts = np.flatnonzero(~space & np.r_[True, space[:-1]])
    return 1 + np.searchsorted(np.flatnonzero(ends), starts)  # line ends before each token


def _converts(cells: list) -> bool:
    """Whether one edge line's cells read as two int64 ends and, if weighted, a float."""
    try:
        np.array([int(c) for c in cells[:2]], dtype=np.int64), [float(c) for c in cells[2:]]
    except (ValueError, OverflowError):
        return False
    return True


def _parse(text: str, weighted: bool) -> tuple:
    """(graph, weights in edge order) of either text format; all ones for plain text.

    One array pass over the tokens of text.split(), each placed on its line
    by _token_lines.  A ParseError names the first bad line and the first
    check it fails: token count, integer ends and decimal weight,
    0 <= u < v < n, weight in [0,1].
    """
    tokens = text.split()
    if not tokens:
        raise ParseError(1, "empty input, expected 'n m' header")
    at = _token_lines(text)
    starts = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])  # each non-blank line's first token
    width = np.diff(starts, append=len(tokens))

    def line(no: int) -> str:
        return text.splitlines()[no - 1].strip()

    hdr_no = int(at[0])
    if width[0] != 2:
        raise ParseError(hdr_no, f"expected 'n m' header, got {line(hdr_no)!r}")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(hdr_no, f"non-integer header field in {line(hdr_no)!r}") from None
    if n < 0 or m < 0:
        raise ParseError(hdr_no, f"negative header value in {line(hdr_no)!r}")
    if len(starts) != m + 1:
        raise ParseError(hdr_no, f"header declares {m} edges, found {len(starts) - 1} edge lines")
    # each check sees only the edge rows before the first failure of the checks ahead of it
    k, form = (3, "u v w") if weighted else (2, "u v")
    wrong = np.flatnonzero(width[1:] != k)
    rows, fail = (int(wrong[0]), f"expected '{form}', got {{!r}}") if wrong.size else (m, None)
    cells = tokens[2 : 2 + k * rows]
    while True:
        try:
            ends = np.fromiter(map(int, cells[0::k] + cells[1::k]), np.int64, 2 * rows)
            x = np.fromiter(map(float, cells[2::k]), np.float64, rows) if weighted else np.ones(rows)
            break
        except (ValueError, OverflowError):
            rows = next(r for r in range(rows) if not _converts(cells[k * r : k * r + k]))
            fail, cells = "malformed edge line {!r}", cells[: k * rows]
    ends = ends.reshape(2, rows).T
    bad = np.flatnonzero(~((0 <= ends[:, 0]) & (ends[:, 0] < ends[:, 1]) & (ends[:, 1] < n)))
    if bad.size:
        rows, fail = int(bad[0]), "edge ({},{}) violates 0 <= u < v < n={}".format(*ends[bad[0]], n)
    bad = np.flatnonzero(~((0 <= x[:rows]) & (x[:rows] <= 1)))
    if bad.size:
        rows, fail = int(bad[0]), f"weight {float(x[bad[0]])} outside [0,1]"
    if fail is not None:  # the last two messages hold no field to fill
        no = int(at[starts[rows + 1]])
        raise ParseError(no, fail.format(line(no)))
    keys, order = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True)
    if len(keys) != m:
        raise ParseError(hdr_no, f"duplicate edges: {m} declared, {len(keys)} distinct")
    return Graph(n, ends[order]), x[order]


def parse_graph(text: str) -> Graph:
    """Parse the plain text format; malformed lines raise ParseError with line numbers."""
    return _parse(text, weighted=False)[0]


def write_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def parse_weighted_graph(text: str) -> WeightedGraph:
    """Parse the weighted variant ('u v w' lines, w a decimal in [0,1])."""
    return WeightedGraph(*_parse(text, weighted=True))


def write_weighted_graph(wg: WeightedGraph) -> str:
    out = [f"{wg.n} {wg.base.m}"]
    out.extend(f"{u} {v} {x!r}" for (u, v), x in zip(wg.base.edges, wg.w.tolist()))
    return "\n".join(out) + "\n"
