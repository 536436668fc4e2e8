"""K_t enumeration, density-window counting, and local clique-family audits.

A clique set is an (N, t) int32 array with one clique per row, each row
strictly increasing and the rows in lexicographic order.  Enumeration is
ordered-vertex listing (Chiba & Nishizeki 1985) done one level at a time on
arrays: the 2-cliques are the sorted edge array, and each k-clique is
extended by the upper neighbours w of its last vertex, read from a CSR over
the edge list.  A candidate w survives when, for every earlier member a, the
key a*n + w is among the sorted edge keys.  Parents stay in order and upper
neighbours are ascending, so the rows come out lexicographic with no sort;
every greedy construction below is first-fit over that order and therefore
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import InputError, ResourceError
from .graphs import Graph, edge_ids, graph_difference, induced_subgraph, regularity

ENUMERATION_CAP = 10**7
# Bytes one level of enumeration may allocate: what the cap allowed when a
# K_3 was a tuple of ~233 bytes at its peak.  At the peak of level k a
# candidate costs at most CANDIDATE_BYTES plus its 4k-byte row (measured
# 37 bytes at k = 3 on rr(160,80) and rr(300,150), 51 at k = 4 on K_60).
ENUMERATION_BUDGET = 233 * 10**7
CANDIDATE_BYTES = 40


@dataclass(frozen=True, eq=False)
class CliqueSet:
    """All K_t copies of a graph as one array, with its incidence operators.

    members is the (N, t) int32 array of the module docstring, in
    enumeration order; a clique's id is its row.  A_vert (n x N) and A_pair
    (m x N, rows in the order of graph.edges) are built from members on
    first use and kept, so every LP and load computation over the same
    clique set shares one copy: vertex loads of a clique weighting f are
    A_vert @ f, pair loads A_pair @ f.
    """

    t: int
    members: np.ndarray = field(repr=False)
    graph: Graph = field(repr=False)  # the graph whose cliques these are

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def A_vert(self) -> sparse.csc_matrix:
        """Entry (v, j) is 1 iff vertex v lies in clique j."""
        return _incidence(self.members.ravel(), self.t, (self.graph.n, len(self)))

    @cached_property
    def A_pair(self) -> sparse.csc_matrix:
        """Entry (e, j) is 1 iff both ends of edge e lie in clique j."""
        pairs = np.stack(np.triu_indices(self.t, 1), axis=1)  # member positions (a, b), a < b
        rows = edge_ids(self.graph, self.members.take(pairs, axis=1))
        return _incidence(rows, len(pairs), (self.graph.m, len(self)))

    def least_weight(self, w: np.ndarray) -> np.ndarray:
        """Each clique's least pair weight under edge weights w (in edge order)."""
        return np.minimum.reduceat(w[self.A_pair.indices], self.A_pair.indptr[:-1])


def _incidence(rows: np.ndarray, per: int, shape: tuple) -> sparse.csc_matrix:
    """0/1 matrix whose column j has its ones at rows[j*per : (j+1)*per].

    Clique rows are increasing, so each column's rows come out sorted.
    """
    indptr = np.arange(shape[1] + 1) * per
    return sparse.csc_matrix((np.ones(rows.size), rows, indptr), shape=shape)


def enumerate_cliques(g: Graph, t: int) -> CliqueSet:
    """Exact, duplicate-free K_t enumeration, level by level (module docstring).

    Before a level allocates, its exact candidate count is known: the sum,
    over the parents, of the upper degree of each parent's last vertex (for
    t = 3, the wedge count).  ResourceError is raised when those candidates
    would take more than ENUMERATION_BUDGET bytes, or when a level k >= 3
    keeps more than ENUMERATION_CAP cliques; past the cap on the last level
    it carries partial = ENUMERATION_CAP + 1, as a count that stops at the
    cap would.  A K_3 costs 12 bytes as a row, 80 once both incidence operators
    are built and 160 at the peak of building them (measured on rr(160,80)
    and rr(300,150)), so the cap of 10**7 cliques stays within ~1.6 GB.
    """
    if t < 2:
        raise InputError(f"t must be >= 2, got {t}")
    n = g.n
    ends, keys = g.edge_array, g.edge_keys
    # CSR of upper neighbours: edges are sorted, so row u is ends[start[u]:start[u+1], 1]
    start = np.searchsorted(ends[:, 0], np.arange(n + 1))
    upper = ends[:, 1]
    rows = ends
    for k in range(3, t + 1):
        last = rows[:, -1]
        deg = start[last + 1] - start[last]
        total = int(deg.sum())
        if total * (CANDIDATE_BYTES + 4 * k) > ENUMERATION_BUDGET:
            raise ResourceError(
                f"K_{k} enumeration needs {total} candidates, over the "
                f"{ENUMERATION_BUDGET}-byte budget"
            )
        parent = np.repeat(np.arange(len(rows)), deg)
        # the j-th candidate of a parent is its last vertex's j-th upper neighbour
        w = upper[np.arange(total) + np.repeat(start[last] - np.cumsum(deg) + deg, deg)]
        for a in range(k - 2):
            q = rows[parent, a].astype(np.int64) * n + w
            hit = keys[np.minimum(np.searchsorted(keys, q), len(keys) - 1)] == q
            parent, w = parent[hit], w[hit]
        rows = np.column_stack([rows[parent], w])
        if len(rows) > ENUMERATION_CAP:
            raise ResourceError(
                f"clique enumeration exceeded {ENUMERATION_CAP}: {len(rows)} K_{k}",
                partial=ENUMERATION_CAP + 1 if k == t else None,
            )
    return CliqueSet(t=t, members=rows, graph=g)


def count_cliques_window(g: Graph, gprime: Graph | None, U, i: int):
    """Exact K_i count in (g \\ gprime)[U] against the 2^{+-i^2} density window.

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
    diff = graph_difference(g, gprime) if gprime is not None else g
    sub, _ = induced_subgraph(diff, U)
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


@dataclass(frozen=True)
class VertexFamily:
    """K_t copies through v that pairwise intersect exactly in {v}."""

    v: int
    t: int
    cliques: tuple


def vertex_family(
    g: Graph, gprime: Graph | None, v: int, t: int, target: int
) -> VertexFamily:
    """Greedy family of K_t copies through v in g \\ gprime, overlapping only at v.

    Each member is v plus a K_{t-1} in the surviving neighborhood of v;
    first-fit over the lexicographic (t-1)-clique rows, skipping cliques
    that reuse a vertex.  Shortfall is data, not an error.
    """
    if t < 3:
        raise InputError(f"t must be >= 3, got {t}")
    if not (0 <= v < g.n):
        raise InputError(f"vertex {v} out of range")
    diff = graph_difference(g, gprime) if gprime is not None else g
    nbrs = list(diff.adj[v])
    sub, verts = induced_subgraph(diff, nbrs)
    found = []
    used: set = set()
    if target > 0:
        for row in enumerate_cliques(sub, t - 1).members.tolist():
            members = [verts[x] for x in row]
            if any(u in used for u in members):
                continue
            used.update(members)
            found.append(tuple(sorted(members + [v])))
            if len(found) >= target:
                break
    return VertexFamily(v=v, t=t, cliques=tuple(found))


@dataclass(frozen=True)
class PropertyPReport:
    t: int
    D: int
    Dprime: int
    n: int
    trials: int
    failures: int
    witness: tuple | None  # (U, U_0) of the first failing trial

    def to_dict(self) -> dict:
        w = self.witness
        return {**vars(self), "witness": None if w is None else {"U": list(w[0]), "U0": list(w[1])}}


def property_P_audit(
    g: Graph, t: int, D: int, Dprime: int, trials: int, seed: int
) -> PropertyPReport:
    """Randomized audit of property P(t, D, Dprime, n).

    Per trial: sample U with |U| = n - D and U_0 inside U with |U_0| = D/t
    (rounded down), then greedily collect cliques of g[U] that meet U_0 in
    exactly one vertex and pairwise intersect only inside U_0.  Failure means
    fewer than Dprime/(t-1) (rounded down) cliques were found.  A sampled
    audit, not a proof; the first failing (U, U_0) is kept as witness.
    """
    if D > g.n:
        raise InputError(f"D={D} exceeds n={g.n}")
    if trials < 1:
        raise InputError("trials must be >= 1")
    u0_size = D // t
    target = Dprime // (t - 1)
    rng = np.random.default_rng(seed)
    failures = 0
    witness = None
    for _ in range(trials):
        U = np.sort(rng.permutation(g.n)[: g.n - D])
        u0 = set(int(x) for x in rng.permutation(U)[:u0_size])
        sub, verts = induced_subgraph(g, U)
        found = 0
        used: set = set()
        if target > 0:
            for row in enumerate_cliques(sub, t).members.tolist():
                members = [verts[x] for x in row]
                inside = [u for u in members if u in u0]
                if len(inside) != 1:
                    continue
                outside = [u for u in members if u not in u0]
                if any(u in used for u in outside):
                    continue
                used.update(outside)
                found += 1
                if found >= target:
                    break
        if found < target:
            failures += 1
            if witness is None:
                witness = (tuple(int(x) for x in U), tuple(sorted(u0)))
    return PropertyPReport(
        t=t, D=D, Dprime=Dprime, n=g.n, trials=trials, failures=failures, witness=witness
    )


def default_span_size(n: int, t: int) -> int:
    """Size 0.11 n / t for the spanning audit, rounded up so the set can hold a K_t."""
    return math.ceil(0.11 * n / t)


def span_clique_audit(g: Graph, t: int, size: int, trials: int, seed: int):
    """Sample vertex subsets of the given size; failure = subset spans no K_t.

    Returns (failures, witness) with witness the first failing subset.
    """
    if size > g.n:
        raise InputError(f"size={size} exceeds n={g.n}")
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
