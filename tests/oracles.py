"""Slow, independent reference implementations used to check the library.

Everything here takes the obviously-correct route: exhaustive search with
memoization, all-tuples enumeration, and a dense tableau simplex, sharing no
solver code with the scipy/HiGHS paths under test.  The exceptions check a
formulation rather than a solver, so each builds its own dense constraint
matrix and runs a scipy solver on it: min_max_factor_value decides whether
a fractional factor exists by the direct min-max LP, vertex_only_matching_value
keeps the integral matching MILP without the library's cardinality row, and
max_entropy_fit tests a witness against the optimality conditions of the
maximum-entropy factor by bounded least squares.  completion_cliques takes
the route the covering stage's completion used to take: it enumerates the
induced subgraph G[U] and relabels its cliques back to host labels, and
nibble_by_loops is the matcher as a loop over tuples, one activation at a
time.  edges_by_sets, induced_by_dict, split_by_buckets and
complement_by_pairs are the tuple routes the graph constructors used to
take, one edge at a time, and random_regular_by_loops is the pairing model
as a loop over stub tuples, one pair at a time.  edge_count_by_loops counts
e(A,B) for the mixing audit by walking the edge list, with no adjacency
matrix.  part_cliques_by_host is the route the sparse engine used to take to
each part's cliques: enumerate the host, then cut its rows by the split.
parse_by_lines is the edge-list reader as a loop over lines, one check after
another, and write_by_lines the writers as one f-string per edge tuple.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, lsq_linear, milp

from cfl import generators
from cfl.acceptance import brute_force_cliques, oracle_t_star, simplex_lp_value  # noqa: F401
from cfl.cliques import enumerate_cliques
from cfl.errors import GenerationError, InputError, ParseError
from cfl.graphs import Graph, WeightedGraph, complement, from_edge_list


def min_max_factor_value(wg: WeightedGraph, t: int) -> float | None:
    """min z s.t. vertex loads == 1, pair loads <= w, 0 <= f(T) <= z.

    The least max_T f(T) over fractional K_t-factors, or None when no factor
    exists.  One row per clique bounds it by z, on top of the vertex and
    pair rows.
    """
    cliques = brute_force_cliques(wg.base, t)
    edges = wg.base.edges
    N, n, m = len(cliques), wg.n, len(edges)
    a_vert = np.zeros((n, N + 1))
    a_pair = np.zeros((m, N + 1))
    for j, tup in enumerate(cliques):
        for u in tup:
            a_vert[u, j] = 1.0
        for u, v in itertools.combinations(tup, 2):
            a_pair[edges.index((u, v)), j] = 1.0
    cap = np.hstack([np.eye(N), -np.ones((N, 1))])
    c = np.zeros(N + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=np.vstack([a_pair, cap]),
        b_ub=np.concatenate([wg.w, np.zeros(N)]),
        A_eq=a_vert,
        b_eq=np.ones(n),
        bounds=(0, None),
        method="highs-ds",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(res.fun)


def edge_weights(wg: WeightedGraph) -> dict:
    """Edge -> weight, read off the edge-order weight array."""
    return dict(zip(wg.base.edges, wg.w.tolist()))


def pair_loads(wg: WeightedGraph, f: dict) -> dict:
    """Edge -> sum of f(T) over the cliques T (tuples) containing it."""
    load = {e: 0.0 for e in wg.base.edges}
    for tup, val in f.items():
        for e in itertools.combinations(tup, 2):
            load[e] += val
    return load


def max_entropy_fit(wg: WeightedGraph, t: int, f: dict, tight_tol: float = 1e-9) -> tuple:
    """(max residual, least mu) of log f fitted by phi and mu >= 0 over f's support.

    The maximum-entropy factor has log f(T) = sum_{v in T} phi(v) -
    sum_{uv in E(T)} mu(uv) with mu >= 0 and mu(uv) > 0 only on tight pairs
    (load >= w - tight_tol); the fit is that system, one row per clique with
    f(T) > 0, solved by bounded-variable least squares.  A witness of that
    form fits with residual at rounding level.
    """
    support = [tup for tup in brute_force_cliques(wg.base, t) if f.get(tup, 0.0) > 0]
    load, w = pair_loads(wg, f), edge_weights(wg)
    tight = {e: i for i, e in enumerate(e for e in wg.base.edges if load[e] >= w[e] - tight_tol)}
    A = np.zeros((len(support), wg.n + len(tight)))
    for row, tup in enumerate(support):
        A[row, list(tup)] = 1.0
        for e in itertools.combinations(tup, 2):
            if e in tight:
                A[row, wg.n + tight[e]] = -1.0
    b = np.log([f[tup] for tup in support])
    lower = np.concatenate([np.full(wg.n, -np.inf), np.zeros(len(tight))])
    fit = lsq_linear(A, b, bounds=(lower, np.inf), method="bvls", tol=1e-15)
    return float(np.max(np.abs(A @ fit.x - b))), float(np.min(fit.x[wg.n :], initial=0.0))


def vertex_only_matching_value(wg: WeightedGraph, t: int) -> float:
    """max sum_T value(T) x_T s.t. vertex loads <= 1, x binary, zero gap.

    The integral matching MILP with vertex rows only; value(T) is the least
    edge weight inside T.
    """
    cliques, w = brute_force_cliques(wg.base, t), edge_weights(wg)
    a_vert = np.zeros((wg.n, len(cliques)))
    values = np.zeros(len(cliques))
    for j, tup in enumerate(cliques):
        a_vert[list(tup), j] = 1.0
        values[j] = min(w[e] for e in itertools.combinations(tup, 2))
    res = milp(
        c=-values,
        constraints=LinearConstraint(a_vert, -np.inf, np.ones(wg.n)),
        integrality=np.ones(len(cliques)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return float(-res.fun)


def exhaustive_integral_matching(wg: WeightedGraph, t: int) -> float:
    """Exact t(G,w) by bitmask dynamic programming over vertex subsets.

    Only sensible for n <= ~14; each clique contributes its minimum edge
    weight and cliques must be vertex-disjoint.
    """
    cliques, w = brute_force_cliques(wg.base, t), edge_weights(wg)
    entries = []
    for tup in cliques:
        mask = 0
        for v in tup:
            mask |= 1 << v
        value = min(w[e] for e in itertools.combinations(tup, 2))
        entries.append((mask, value))

    @lru_cache(maxsize=None)
    def best(free: int) -> float:
        top = 0.0
        for mask, value in entries:
            if mask & free == mask:
                top = max(top, value + best(free & ~mask))
        return top

    return best((1 << wg.n) - 1)


def slackness_by_loops(f: dict, g: dict, h: dict, wg: WeightedGraph, cliques, thr: float):
    """(worst, count) per slackness family, summed clique by clique.

    Vertex loads against 1 where g > thr, pair loads against w where h > thr,
    dual covers against 1 where f > thr; f maps clique ids to weights.
    """
    vload = {v: 0.0 for v in range(wg.n)}
    pload = {e: 0.0 for e in wg.base.edges}
    for j, val in f.items():
        for u in cliques[j]:
            vload[u] += val
        for e in itertools.combinations(cliques[j], 2):
            pload[e] += val
    w = edge_weights(wg)
    vert = [abs(vload[v] - 1.0) for v in range(wg.n) if g[v] > thr]
    pair = [abs(pload[e] - w[e]) for e in wg.base.edges if h[e] > thr]
    cover = [
        abs(sum(g[u] for u in tup) + sum(h[e] for e in itertools.combinations(tup, 2)) - 1.0)
        for j, tup in enumerate(cliques)
        if f.get(j, 0.0) > thr
    ]
    return [(max(xs, default=0.0), len(xs)) for xs in (vert, pair, cover)]


def edges_by_sets(pairs) -> tuple:
    """The edges of a pair list: the sorted set of its (min, max) tuples."""
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in pairs}))


def induced_by_dict(g, U) -> tuple:
    """(edges, vertices) of G[U]: each edge of g with both ends in U, relabelled by a dict."""
    verts = sorted(set(U))
    pos = {v: i for i, v in enumerate(verts)}
    return edges_by_sets((pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos), tuple(verts)


def split_by_buckets(g, ell: int, seed: int) -> list:
    """The edges of each part of sparse_split: each edge appended to the bucket of its draw."""
    assign = np.random.default_rng(seed).integers(0, ell, size=g.m)
    buckets = [[] for _ in range(ell)]
    for e, i in zip(g.edges, assign.tolist()):
        buckets[i].append(e)
    return [tuple(b) for b in buckets]


def complement_by_pairs(g) -> tuple:
    """Every pair u < v, kept when a set of g's edges does not hold it."""
    edges = set(g.edges)
    return tuple((u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in edges)


def random_regular_by_loops(n: int, d: int, seed: int) -> Graph:
    """gen_random_regular as a loop over stub tuples, one pair at a time.

    A pair that is a self-loop or an edge already placed, in this pass or an
    earlier one, returns its stubs to the pool; a pass that places nothing
    restarts the pairing.  It reads generators.MAX_RESTARTS at call time.
    """
    if not (0 <= d < n):
        raise InputError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InputError(f"n*d must be even, got n={n}, d={d}")
    if 2 * d > n:
        return complement(random_regular_by_loops(n, n - 1 - d, seed))
    rng = np.random.default_rng(seed)
    restarts = 0
    while restarts <= generators.MAX_RESTARTS:
        edges = set()
        stubs = list(range(n)) * d
        stuck = False
        while stubs and not stuck:
            rng.shuffle(stubs)
            half = len(stubs) // 2
            leftover = []
            added = 0
            for u, v in zip(stubs[:half], stubs[half:]):
                if u == v or (u, v) in edges or (v, u) in edges:
                    leftover.append(u)
                    leftover.append(v)
                else:
                    edges.add((u, v) if u < v else (v, u))
                    added += 1
            if added == 0:
                stuck = True
            stubs = leftover
        if not stuck:
            return from_edge_list(n, list(edges))
        restarts += 1
    raise GenerationError(
        f"random_regular(n={n}, d={d}, seed={seed}) exceeded {generators.MAX_RESTARTS} restarts"
    )


def edge_count_by_loops(g, A, B) -> int:
    """e(A,B): ordered pairs (a, b) with a in A, b in B and ab an edge, one edge at a time."""
    A, B = set(A), set(B)
    return sum((u in A and v in B) + (v in A and u in B) for u, v in g.edges)


def part_cliques_by_host(g, t: int, ell: int, seed: int) -> tuple:
    """(host clique set, part of each host clique or -1): the host's cut by sparse_split's draw.

    A host clique lies in part i iff the split sends all of its pairs to i,
    which one gather of the edge assignment through pair_ids decides.
    """
    host = enumerate_cliques(g, t)
    pair_part = np.random.default_rng(seed).integers(0, ell, size=g.m)[host.pair_ids]
    home = np.where((pair_part == pair_part[:, :1]).all(axis=1), pair_part[:, 0], -1)
    return host, home


def parse_by_lines(text: str, weighted: bool) -> tuple:
    """(graph, weights) of the text format, read line by line; a bad line raises ParseError."""
    lines = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
    if not lines:
        raise ParseError(1, "empty input, expected 'n m' header")
    (hdr_no, hdr), rest = lines[0], lines[1:]
    parts = hdr.split()
    if len(parts) != 2:
        raise ParseError(hdr_no, f"expected 'n m' header, got {hdr!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(hdr_no, f"non-integer header field in {hdr!r}") from None
    if n < 0 or m < 0:
        raise ParseError(hdr_no, f"negative header value in {hdr!r}")
    if n > 2**31:
        raise ParseError(hdr_no, f"vertex count above {2**31} in {hdr!r}")
    if len(rest) != m:
        raise ParseError(hdr_no, f"header declares {m} edges, found {len(rest)} edge lines")
    form = "u v w" if weighted else "u v"
    pairs, weights = [], []
    for line_no, line in rest:
        parts = line.split()
        if len(parts) != 2 + weighted:
            raise ParseError(line_no, f"expected '{form}', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            x = float(parts[2]) if weighted else 1.0
            np.int64(u), np.int64(v)  # ends beyond int64 are malformed
        except (ValueError, OverflowError):
            raise ParseError(line_no, f"malformed edge line {line!r}") from None
        if not (0 <= u < v < n):
            raise ParseError(line_no, f"edge ({u},{v}) violates 0 <= u < v < n={n}")
        if not (0 <= x <= 1):
            raise ParseError(line_no, f"weight {x} outside [0,1]")
        pairs.append((u, v))
        weights.append(x)
    if len(set(pairs)) != m:
        raise ParseError(hdr_no, f"duplicate edges: {m} declared, {len(set(pairs))} distinct")
    order = sorted(range(m), key=pairs.__getitem__)
    ends = np.array([pairs[i] for i in order], dtype=np.int64).reshape(-1, 2)
    return Graph(n, ends), [weights[i] for i in order]


def write_by_lines(g, weights=None) -> str:
    """The text format of g, one line per edge; with weights, each weight's repr appended."""
    if weights is None:
        lines = [f"{u} {v}" for u, v in g.edges]
    else:
        lines = [f"{u} {v} {x!r}" for (u, v), x in zip(g.edges, weights)]
    return "\n".join([f"{g.n} {g.m}", *lines]) + "\n"


def completion_cliques(g, t: int, U) -> np.ndarray:
    """The K_t copies of G[U] in host labels: enumerate G[U], relabel its rows."""
    edges, verts = induced_by_dict(g, U)
    sub = from_edge_list(len(verts), list(edges))
    return np.asarray(verts, dtype=np.int32)[enumerate_cliques(sub, t).members]


def completion_greedy(g, t: int, U, seed: int) -> list:
    """Random-order greedy over completion_cliques(g, t, U): the picks, in pick order."""
    rows = completion_cliques(g, t, U)
    taken, used = [], set()
    for row in rows[np.random.default_rng(seed).permutation(len(rows))].tolist():
        if used.isdisjoint(row):
            taken.append(row)
            used.update(row)
    return taken


def nibble_by_loops(hyperedges: list, n: int, mode: str, epsilon: float, seed: int) -> tuple:
    """The matched tuples, sorted, of the nibble (or greedy) matcher run tuple by tuple.

    Draws from the generator in the library's order: one uniform per alive
    hyperedge per round, then one permutation for the closing greedy sweep.
    """
    rng = np.random.default_rng(seed)
    covered = [False] * n
    matched = []
    alive = list(hyperedges)

    def free(e):
        return not any(covered[v] for v in e)

    if mode == "nibble" and alive:
        for _ in range(max(1, 10 * math.ceil(math.log(n)) if n > 1 else 1)):
            alive = [e for e in alive if free(e)]
            if not alive:
                break
            delta = max(Counter(v for e in alive for v in e).values())
            draws = rng.random(len(alive)) < min(1.0, epsilon / delta)
            active = [e for e, on in zip(alive, draws) if on]
            use = Counter(v for e in active for v in e)
            for e in active:
                if all(use[v] == 1 for v in e):
                    matched.append(e)
                    for v in e:
                        covered[v] = True
    alive = [e for e in alive if free(e)]
    for i in rng.permutation(len(alive)).tolist():
        if free(alive[i]):
            matched.append(alive[i])
            for v in alive[i]:
                covered[v] = True
    return tuple(sorted(matched))
