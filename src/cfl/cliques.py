"""K_t enumeration, density-window counting, and local clique-family audits.

Enumeration is ordered-vertex backtracking over sorted adjacency, so clique
tuples come out strictly increasing and in lexicographic order; every greedy
construction below is first-fit over that order and therefore deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import InputError, ResourceError
from .graphs import Graph, graph_difference, induced_subgraph, regularity

ENUMERATION_CAP = 10**7


def _clique_stream(g: Graph, t: int):
    """Yield strictly-increasing t-tuples inducing complete subgraphs, lexicographically."""
    if t == 1:
        for v in range(g.n):
            yield (v,)
        return
    adjsets = [set(a) for a in g.adj]
    for u in range(g.n):
        yield from _extend(adjsets, t, (u,), [x for x in g.adj[u] if x > u])


def _extend(adjsets: list, t: int, prefix: tuple, cand: list):
    # Not a closure: a nested generator calling itself forms a reference cycle
    # that keeps adjsets alive until the cyclic collector runs.
    if len(prefix) == t:
        yield prefix
        return
    need = t - len(prefix) - 1
    for i, v in enumerate(cand):
        rest = [u for u in cand[i + 1 :] if u in adjsets[v]]
        if len(rest) >= need:
            yield from _extend(adjsets, t, prefix + (v,), rest)


@dataclass(frozen=True)
class CliqueSet:
    """All K_t copies of a host graph, with its vertex and pair incidence operators.

    A_vert (n x N) and A_pair (m x N, rows in the host's edge order) are
    built on first use and kept, so every LP and load computation over the
    same clique set shares one copy: vertex loads of a clique weighting f
    are A_vert @ f, pair loads A_pair @ f.
    """

    t: int
    cliques: tuple  # strictly increasing t-tuples, lexicographic order
    n: int  # host vertex count
    edges: tuple = field(repr=False)  # host edges, the row order of A_pair

    def __len__(self) -> int:
        return len(self.cliques)

    def vector(self, f: dict) -> np.ndarray:
        """Length-N weight vector of a clique id -> weight map, for the operators."""
        x = np.zeros(len(self.cliques))
        x[list(f)] = list(f.values())
        return x

    def _members(self) -> np.ndarray:
        return np.asarray(self.cliques, dtype=np.int64).reshape(-1, self.t)

    @cached_property
    def A_vert(self) -> sparse.csc_matrix:
        """Entry (v, j) is 1 iff vertex v lies in clique j."""
        return _incidence(self._members().ravel(), self.t, (self.n, len(self.cliques)))

    @cached_property
    def A_pair(self) -> sparse.csc_matrix:
        """Entry (e, j) is 1 iff both ends of edge e lie in clique j."""
        mem, n = self._members(), self.n
        pairs = [(a, b) for a in range(self.t) for b in range(a + 1, self.t)]
        # u < v keyed as u*n + v sorts exactly like the lexicographic edge list
        keys = np.stack([mem[:, a] * n + mem[:, b] for a, b in pairs], axis=1).ravel()
        edge_keys = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2) @ np.array([n, 1])
        rows = np.searchsorted(edge_keys, keys)
        return _incidence(rows, len(pairs), (len(self.edges), len(self.cliques)))


def _incidence(rows: np.ndarray, per: int, shape: tuple) -> sparse.csc_matrix:
    """0/1 matrix whose column j has its ones at rows[j*per : (j+1)*per].

    Clique tuples are increasing, so each column's rows come out sorted.
    """
    indptr = np.arange(shape[1] + 1) * per
    return sparse.csc_matrix((np.ones(rows.size), rows, indptr), shape=shape)


def enumerate_cliques(g: Graph, t: int) -> CliqueSet:
    """Exact, duplicate-free K_t enumeration.

    Raises ResourceError carrying the partial count past ENUMERATION_CAP,
    which is set so the guard trips before memory runs out: a K_3 costs ~72
    bytes as a tuple, ~152 once both incidence operators are built and ~233
    at the peak of building them (measured on rr(160,80)), so 10**7 cliques
    stay within ~2.3 GB.
    """
    if t < 2:
        raise InputError(f"t must be >= 2, got {t}")
    cliques = []
    for tup in _clique_stream(g, t):
        cliques.append(tup)
        if len(cliques) > ENUMERATION_CAP:
            raise ResourceError(
                f"clique enumeration exceeded {ENUMERATION_CAP}", partial=len(cliques)
            )
    return CliqueSet(t=t, cliques=tuple(cliques), n=g.n, edges=g.edges)


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
    count = sum(1 for _ in _clique_stream(sub, i))
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
    first-fit over the lexicographic (t-1)-clique stream, skipping cliques
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
        for tup in _clique_stream(sub, t - 1):
            members = [verts[x] for x in tup]
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
        return {
            "t": self.t,
            "D": self.D,
            "Dprime": self.Dprime,
            "n": self.n,
            "trials": self.trials,
            "failures": self.failures,
            "witness": None
            if self.witness is None
            else {"U": list(self.witness[0]), "U0": list(self.witness[1])},
        }


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
            for tup in _clique_stream(sub, t):
                members = [verts[x] for x in tup]
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
        has = next(_clique_stream(sub, t), None) is not None
        if not has:
            failures += 1
            if witness is None:
                witness = tuple(int(x) for x in subset)
    return failures, witness
