"""K_t enumeration, density-window counting, and the spanning-clique audit.

A clique set is an (N, t) int32 array with one clique per row, each row
strictly increasing and the rows in lexicographic order.  Enumeration is
ordered-vertex listing (Chiba & Nishizeki 1985) done one level at a time on
arrays: the 2-cliques are the sorted edge array, and each k-clique is
extended by the upper neighbours w of its last vertex, read from a CSR over
the edge list.  A candidate w survives when, for every earlier member a, the
key a*n + w is among the sorted edge keys.  Parents stay in order and upper
neighbours are ascending, so the rows come out lexicographic with no sort,
and a first-fit greedy over them is deterministic.

Each clique also carries the edge ids of its member pairs (pair_ids), taken
from the search rather than searched for again: a 2-clique's pair is its
edge, the pair (last, w) is the CSR position w was read from, and (a, w)
is the position the key search found for a.  The incidence operators and
least pair weights are read from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import InputError, ResourceError
from .graphs import Graph, induced_subgraph, regularity

ENUMERATION_CAP = 10**7
# Bytes one level of enumeration may allocate: what the cap allowed when a
# K_3 was a tuple of ~233 bytes at its peak.  At the peak of level k a
# candidate costs at most CANDIDATE_BYTES plus twice its row of k members
# and C(k,2) pair ids, 4 bytes each, since the parent's columns are gathered
# before the new row is stacked (peak over the level's start, measured with
# tracemalloc: 38 bytes at k = 3 on rr(160,80) and rr(300,150), 71 at k = 4
# on K_60, 102 at k = 5 on K_30 and 170 at k = 7 on K_20, against 64, 96,
# 136 and 240 charged).
ENUMERATION_BUDGET = 233 * 10**7
CANDIDATE_BYTES = 16


@dataclass(frozen=True, eq=False)
class CliqueSet:
    """K_t copies of a graph as one array, with its incidence operators.

    members is the (N, t) int32 array of the module docstring: all of the
    graph's K_t in enumeration order, or a sparse bundle's subset of them in
    the same order; a clique's id is its row.  pair_ids is the (N,
    C(t,2)) int32 array of the edge ids (rows of graph.edges) of each
    clique's member pairs, in np.triu_indices(t, 1) order, so each row rises.
    A_vert (n x N) and A_pair (m x N) are built from these on first use and
    kept, so every LP and load computation over the same clique set shares
    one copy: vertex loads of a clique weighting f are A_vert @ f, pair
    loads A_pair @ f.  Their index arrays are views of members and
    pair_ids, and their data is one read-only all-ones float64 buffer of
    N max(t, C(t,2)) entries that both share.
    """

    t: int
    members: np.ndarray = field(repr=False)
    graph: Graph = field(repr=False)  # the graph whose cliques these are
    pair_ids: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _ones(self) -> np.ndarray:
        """The read-only ones that both operators take as data."""
        ones = np.ones(len(self) * max(self.t, self.pair_ids.shape[1]))
        ones.flags.writeable = False
        return ones

    @cached_property
    def A_vert(self) -> sparse.csc_matrix:
        """Entry (v, j) is 1 iff vertex v lies in clique j."""
        return _incidence(self.members.ravel(), self.t, (self.graph.n, len(self)), self._ones)

    @cached_property
    def A_pair(self) -> sparse.csc_matrix:
        """Entry (e, j) is 1 iff both ends of edge e lie in clique j."""
        per = self.pair_ids.shape[1]
        return _incidence(self.pair_ids.ravel(), per, (self.graph.m, len(self)), self._ones)

    def least_weight(self, w: np.ndarray) -> np.ndarray:
        """Each clique's least pair weight under edge weights w (in edge order)."""
        return w[self.pair_ids].min(axis=1)


def _incidence(rows: np.ndarray, per: int, shape: tuple, ones: np.ndarray) -> sparse.csc_matrix:
    """0/1 matrix whose column j has its ones at rows[j*per : (j+1)*per].

    Its data is a view of ones.  Clique rows are increasing, so each
    column's rows come out sorted.
    """
    indptr = np.arange(shape[1] + 1) * per
    return sparse.csc_matrix((ones[: rows.size], rows, indptr), shape=shape)


def enumerate_cliques(g: Graph, t: int) -> CliqueSet:
    """Exact, duplicate-free K_t enumeration, level by level (module docstring).

    Before a level allocates, its exact candidate count is known: the sum,
    over the parents, of the upper degree of each parent's last vertex (for
    t = 3, the wedge count).  ResourceError is raised when those candidates
    would take more than ENUMERATION_BUDGET bytes, or when a level k >= 3
    keeps more than ENUMERATION_CAP cliques.  A K_3 costs 24 bytes as its
    rows of members and pair ids, 56 once both incidence operators are built
    (their index arrays are those rows, their data one shared ones buffer)
    and 64 at the peak of building them (measured with tracemalloc on
    rr(160,80) and rr(300,150)), so the cap of 10**7 cliques stays within
    ~0.64 GB.
    """
    if t < 2:
        raise InputError(f"t must be >= 2, got {t}")
    n = g.n
    ends, keys = g.edge_array, g.edge_keys
    # CSR of upper neighbours: edges are sorted, so row u is ends[start[u]:start[u+1], 1]
    start = np.searchsorted(ends[:, 0], np.arange(n + 1))
    upper = ends[:, 1]
    rows, ids = ends, np.arange(len(ends), dtype=np.int32)[:, None]  # a 2-clique's pair is its edge
    for k in range(3, t + 1):
        last = rows[:, -1]
        deg = start[last + 1] - start[last]
        total = int(deg.sum())
        if total * (CANDIDATE_BYTES + 8 * (k + math.comb(k, 2))) > ENUMERATION_BUDGET:
            raise ResourceError(
                f"K_{k} enumeration needs {total} candidates, over the "
                f"{ENUMERATION_BUDGET}-byte budget"
            )
        parent = np.repeat(np.arange(len(rows), dtype=np.int32), deg)
        # the j-th candidate of a parent is its last vertex's j-th upper neighbour,
        # at CSR position pos, which is the edge id of (last, w)
        pos = np.arange(total) + np.repeat(start[last] - np.cumsum(deg) + deg, deg)
        w, pos = upper[pos], pos.astype(np.int32)
        found = []  # edge id of (member a, w) for each earlier member a
        for a in range(k - 2):
            q = rows[parent, a].astype(np.int64) * n + w
            at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
            hit = np.flatnonzero(keys[at] == q)  # indices: much faster to gather by than a mask
            parent, w, pos = parent[hit], w[hit], pos[hit]
            found = [f[hit] for f in found] + [at[hit].astype(np.int32)]
        del q, at, hit  # the last search's arrays, before the new rows are built
        rows = np.column_stack([rows[parent], w])
        if len(rows) > ENUMERATION_CAP:
            raise ResourceError(
                f"clique enumeration exceeded {ENUMERATION_CAP}: {len(rows)} K_{k}"
            )
        # the parent's pairs, then (a, w) for every earlier a: put them in triu_indices(k, 1) order
        a_old, b_old = np.triu_indices(k - 1, 1)
        order = np.lexsort((np.r_[b_old, np.full(k - 1, k - 1)], np.r_[a_old, np.arange(k - 1)]))
        cols = [*ids[parent].T, *found, pos]
        ids = np.column_stack([cols[c] for c in order])
    return CliqueSet(t=t, members=rows, graph=g, pair_ids=ids)


def count_cliques_window(g: Graph, U, i: int):
    """Exact K_i count in g[U] against the 2^{+-i^2} density window.

    Returns (count, lower, upper, within).  The window is
    2^{+-i^2} (i!)^{-1} |U|^i (d/n)^{C(i,2)} for the host degree d; the caller
    is responsible for the hypotheses under which the window is guaranteed,
    this only evaluates it.
    """
    if i < 2:
        raise InputError(f"i must be >= 2, got {i}")
    info = regularity(g)
    if not info.is_regular:
        raise InputError("window bounds are stated for regular host graphs")
    d, n = info.d, g.n
    sub, _ = induced_subgraph(g, U)
    count = len(enumerate_cliques(sub, i))
    u_sz = sub.n
    if n == 0 or d == 0:
        center = 0.0
    else:
        center = (u_sz**i) * (d / n) ** math.comb(i, 2) / math.factorial(i)
    lower = center / (2 ** (i * i))
    upper = center * (2 ** (i * i))
    within = bool(lower <= count <= upper)
    return count, lower, upper, within


def default_span_size(n: int, t: int) -> int:
    """Size 0.11 n / t for the spanning audit, rounded up so the set can hold a K_t."""
    return math.ceil(0.11 * n / t)


def span_clique_audit(g: Graph, t: int, size: int, trials: int, seed: int):
    """Sample vertex subsets of the given size; failure = subset spans no K_t.

    Returns (failures, witness) with witness the first failing subset.
    """
    if not 1 <= size <= g.n:
        raise InputError(f"size must be in [1, n={g.n}], got {size}")
    if trials < 1:
        raise InputError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    failures = 0
    witness = None
    for _ in range(trials):
        subset = np.sort(rng.permutation(g.n)[:size])
        sub, _ = induced_subgraph(g, subset)
        if not len(enumerate_cliques(sub, t)):
            failures += 1
            if witness is None:
                witness = tuple(int(x) for x in subset)
    return failures, witness
