"""Simple undirected graphs and edge-weighted graphs.

Vertices are dense integers 0..n-1.  Edges are canonical (min, max) tuples
in lexicographic order, the index order of every per-edge array (weights,
pair loads, duals) and of edge_ids.  Values are immutable; views are cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, ParseError

# Absolute slack for threshold comparisons on weights (e.g. against 1 - alpha).
# Iterative subtraction in the dense pipeline accumulates rounding at this scale.
WEIGHT_SLACK = 1e-12


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices 0..n-1.

    Attributes
    ----------
    n : int
        Vertex count.
    edges : tuple of (int, int)
        Canonical (u, v) with u < v, sorted lexicographically.
    adj : tuple of tuple of int
        Per-vertex sorted neighbor lists, consistent with `edges`.
    """

    n: int
    edges: tuple = ()
    adj: tuple = ()
    edge_set: frozenset = field(default_factory=frozenset, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self.edge_set

    @cached_property
    def edge_array(self) -> np.ndarray:
        """`edges` as a read-only (m, 2) int32 array: row i is edge i."""
        flat = itertools.chain.from_iterable(self.edges)
        ends = np.fromiter(flat, dtype=np.int32, count=2 * self.m).reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """u*n + v of each edge as int64: ascending, since the edges are sorted."""
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


def from_edge_list(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from (u, v) pairs, deduplicating undirected edges.

    Raises InputError on out-of-range vertices or self-loops.
    """
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"vertex out of range in edge ({u},{v}) for n={n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(seen))
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    adj = tuple(tuple(sorted(a)) for a in nbr)
    return Graph(n=n, edges=edges, adj=adj, edge_set=frozenset(edges))


@dataclass(frozen=True)
class RegularityInfo:
    is_regular: bool
    d: int | None
    min_deg: int
    max_deg: int


def regularity(g: Graph) -> RegularityInfo:
    """Report the common degree, or the min/max degrees when not regular."""
    if g.n == 0:
        return RegularityInfo(True, 0, 0, 0)
    degs = [len(a) for a in g.adj]
    lo, hi = min(degs), max(degs)
    if lo == hi:
        return RegularityInfo(True, lo, lo, hi)
    return RegularityInfo(False, None, lo, hi)


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
        w, m, edges = self.w, self.base.m, self.base.edges
        if isinstance(w, Mapping):
            ids = edge_ids(self.base, list(w))
            if len(ids) < m:
                raise InputError(f"missing weight for edge {edges[np.setdiff1d(range(m), ids)[0]]}")
            w = np.empty(m)
            w[ids] = list(self.w.values())
        w = np.array(w, dtype=np.float64)
        if w.shape != (m,):
            raise InputError(f"expected {m} edge weights, got shape {w.shape}")
        bad = np.flatnonzero(~((-WEIGHT_SLACK <= w) & (w <= 1 + WEIGHT_SLACK)))
        if bad.size:
            raise InputError(f"weight {w[bad[0]]} outside [0,1] on edge {edges[bad[0]]}")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.base.n


def uniform_weights(g: Graph, value: float = 1.0) -> WeightedGraph:
    """Give every edge the same weight (w == 1 starts both extraction engines)."""
    return WeightedGraph(g, np.full(g.m, float(value)))


def induced_subgraph(g: Graph, U: Iterable[int]) -> tuple:
    """G[U] with vertices relabeled 0..|U|-1.

    Returns (subgraph, vertices) where vertices[i] is the original label of
    new vertex i (sorted ascending).
    """
    verts = sorted(set(U))
    for v in verts:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} not in graph")
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for (u, v) in g.edges if u in pos and v in pos]
    return from_edge_list(len(verts), edges), tuple(verts)


def induced_weighted(wg: WeightedGraph, U: Iterable[int]) -> tuple:
    """(G[U], w restricted to E(G[U])), with the same relabeling as induced_subgraph."""
    sub, verts = induced_subgraph(wg.base, U)
    host = np.asarray(verts, dtype=np.int64)
    return WeightedGraph(sub, wg.w[edge_ids(wg.base, host[sub.edge_array])]), verts


# ---------------------------------------------------------------------------
# Text format: "n m" header, then one "u v" line per edge with 0 <= u < v < n.
# Weighted variant appends the weight: "u v w".
# ---------------------------------------------------------------------------


def _parse_header(line: str, line_no: int) -> tuple:
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(line_no, f"expected 'n m' header, got {line!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(line_no, f"non-integer header field in {line!r}") from None
    if n < 0 or m < 0:
        raise ParseError(line_no, f"negative header value in {line!r}")
    return n, m


def _edge_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield i, line


def _parse(text: str, weighted: bool) -> tuple:
    """(graph, edge -> weight) of either text format; no weights for plain text."""
    lines = list(_edge_lines(text))
    if not lines:
        raise ParseError(1, "empty input, expected 'n m' header")
    (hdr_no, hdr), rest = lines[0], lines[1:]
    n, m = _parse_header(hdr, hdr_no)
    if len(rest) != m:
        raise ParseError(hdr_no, f"header declares {m} edges, found {len(rest)} edge lines")
    form = "u v w" if weighted else "u v"
    pairs, weights = [], {}
    for line_no, line in rest:
        parts = line.split()
        if len(parts) != 2 + weighted:
            raise ParseError(line_no, f"expected '{form}', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            x = float(parts[2]) if weighted else 1.0
        except ValueError:
            raise ParseError(line_no, f"malformed edge line {line!r}") from None
        if not (0 <= u < v < n):
            raise ParseError(line_no, f"edge ({u},{v}) violates 0 <= u < v < n={n}")
        if not (0 <= x <= 1):
            raise ParseError(line_no, f"weight {x} outside [0,1]")
        pairs.append((u, v))
        if weighted:
            weights[(u, v)] = x
    g = from_edge_list(n, pairs)
    if g.m != m:
        raise ParseError(hdr_no, f"duplicate edges: {m} declared, {g.m} distinct")
    return g, weights


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
