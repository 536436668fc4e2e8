"""Clique-factor extraction pipelines and the randomized covering stage.

Two extraction engines produce bundles of fractional K_t-factors with
aggregate pair load at most 1: each round of the dense engine certifies a
factor of the current weights by max-entropy Newton, with one LP as the
fallback, and decrements the edge weights by the pair loads just used, and
the sparse engine partitions the edge set uniformly at random and solves each
part at unit weights.  A bundle is then sampled into a random t-uniform
hypergraph H_f (clique T survives with probability f(T) = sum_i f_i(T)),
matched by a greedy or nibble matcher, and topped up by a greedy completion
pass on whatever the matcher left uncovered.  A bundle carries the clique set
its factors index, whose rows H_f and the matchings are: the host's, or in
sparse mode only the parts' (the host is never enumerated there).  The
completion enumerates G[uncovered] on its own.

All randomness flows from a single seed through numpy SeedSequence spawning,
so identical (graph, config) runs produce identical reports.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .cliques import CliqueSet, enumerate_cliques
from .errors import InputError, InvariantError, NumericalError, ResourceError
from .factor_lp import TOL_DEFAULT, has_fractional_factor
from .graphs import (
    WEIGHT_SLACK,
    Graph,
    WeightedGraph,
    edge_ids,
    induced_subgraph,
    regularity,
    uniform_weights,
)
from .spectral import beta_exponent, hypothesis_check, second_eigenvalue


@dataclass(frozen=True, eq=False)
class FactorBundle:
    """A list of fractional factors extracted from one host graph.

    cliques is the host clique set the factors index: all of the host's K_t,
    or in sparse mode the parts' cliques in host order, pair_ids in host edge
    ids.  factors[i] is an (ids, weights) pair of arrays: ascending row ids of
    cliques.members and the factor's weights on them, zero weights left out.
    per_edge_load[e] is the factors' summed load on edge e (length m, in the
    order of g.edges), and audits["max_per_edge_load"] its maximum.  ell is
    the achieved count, which may fall short of the request; audits carry
    the per-iteration or per-part diagnostics.
    """

    factors: tuple
    ell: int
    mode: str  # dense | sparse
    cliques: CliqueSet
    per_edge_load: np.ndarray
    audits: dict = field(default_factory=dict)


def default_alpha(n: int, d: int, t: int) -> float:
    """Richness threshold (d/(4n))^{t-2} / (20t) used by the dense engine."""
    return (d / (4 * n)) ** (t - 2) / (20 * t)


def default_ell(n: int, t: int) -> int:
    """max(2, floor(n^beta)); the exponent only exceeds 1 far past desk scale."""
    return max(2, int(n ** beta_exponent(t)))


def dense_extract(g: Graph, t: int, ell: int, tol: float = TOL_DEFAULT) -> FactorBundle:
    """Iterative weight-update extraction on a d-regular host, over all its K_t.

    Starts from w == 1; each round certifies a fractional factor of the
    current weights, subtracts its pair loads from the weights, and clamps to
    [0,1].  Two identities are enforced per round: weights stay >= -10 tol
    before clamping, and every weighted degree drops by exactly t-1 within
    10 tol (each unit of vertex load spends t-1 halfedge weight).  Stops with
    a partial bundle when no factor exists at the current weights.  Each
    round counts its rich edges, w >= 1 - default_alpha(n, d, t).
    """
    if t < 3:
        raise InputError(f"t must be >= 3, got {t}")
    if ell < 1:
        raise InputError(f"ell must be >= 1, got {ell}")
    info = regularity(g)
    if not info.is_regular:
        raise InputError("dense extraction requires a regular host graph")
    alpha = default_alpha(g.n, info.d, t) if g.n else 0.0
    cliques = enumerate_cliques(g, t)
    ends = g.edge_array
    w = np.ones(g.m)
    load = np.zeros(g.m)
    factors = []
    iterations = []
    note = ""
    for i in range(ell):
        rich = int(np.count_nonzero(w >= 1 - alpha - WEIGHT_SLACK))
        cert = has_fractional_factor(WeightedGraph(g, w), cliques, tol)
        if not cert.has_factor:
            note = f"no fractional factor at iteration {i}; t_star = {cert.t_star:.9g}"
            iterations.append(
                {"iteration": i, "t_star": cert.t_star, "rich_edges": rich, "extracted": False}
            )
            break
        f = np.zeros(len(cliques))
        f[cert.ids] = cert.weights
        dec = cliques.A_pair @ f
        # an edge's decrement lowers the weighted degree of both of its ends
        drop = np.bincount(ends.ravel(), weights=np.repeat(dec, 2), minlength=g.n)
        residual = float(np.max(np.abs(drop - (t - 1)))) if g.n else 0.0
        if residual > 10 * tol:
            raise InvariantError(
                f"iteration {i}: weighted degree drop deviates from t-1 by {residual:.3e}"
            )
        nw = w - dec
        bad = np.flatnonzero(nw < -10 * tol)
        if bad.size:
            raise InvariantError(
                f"iteration {i}: weight of edge {g.edges[bad[0]]} driven to "
                f"{nw[bad[0]]:.3e} < -10 tol"
            )
        clamped = int(np.count_nonzero(nw < -tol))
        min_pre = float(np.min(nw, initial=0.0))
        w = np.clip(nw, 0.0, 1.0)
        load += dec
        factors.append((cert.ids, cert.weights))
        iterations.append(
            {
                "iteration": i,
                "t_star": cert.t_star,
                "rich_edges": rich,
                "extracted": True,
                "degree_residual": residual,
                "clamp_violations": clamped,
                "min_weight_pre_clamp": min_pre,
                "support": len(cert.ids),
            }
        )
    audits = {
        "requested": ell,
        "achieved": len(factors),
        "alpha": alpha,
        "iterations": iterations,
        "note": note,
        "max_per_edge_load": float(np.max(load, initial=0.0)),
    }
    return FactorBundle(
        factors=tuple(factors),
        ell=len(factors),
        mode="dense",
        cliques=cliques,
        per_edge_load=load,
        audits=audits,
    )


def _split(g: Graph, ell: int, seed: int) -> tuple:
    """(part of each edge in edge order, the parts): edges assigned i.i.d. uniform."""
    if ell < 1:
        raise InputError(f"ell must be >= 1, got {ell}")
    if ell == 1:
        return np.zeros(g.m, dtype=np.int64), [g]
    assign = np.random.default_rng(seed).integers(0, ell, size=g.m)
    # a masked subsequence of a canonical edge array is canonical
    return assign, [Graph(g.n, g.edge_array[assign == i]) for i in range(ell)]


def sparse_split(g: Graph, ell: int, seed: int) -> list:
    """Partition E(g) into ell spanning subgraphs, edges assigned i.i.d. uniform."""
    return _split(g, ell, seed)[1]


def sparse_extract(g: Graph, t: int, ell: int, seed: int, tol: float = TOL_DEFAULT) -> FactorBundle:
    """Random-split extraction: unit weights, alpha = 0, one certificate per part.

    Parts are edge-disjoint, so each clique lies in at most one part, gets
    positive weight in at most one factor, and aggregate pair loads never
    exceed 1.  Each part enumerates its own cliques; the host is never
    enumerated.  The bundle's clique set merges the parts' rows into host
    (lexicographic) order, part edge ids mapped to host ids; the merge keeps
    each part's order, so ascending part ids map to ascending bundle ids.
    Parts without a fractional factor are reported, not fatal.  A part with
    a vertex in none of its cliques is refuted without a certificate: that
    vertex has load 0 under every weighting.
    """
    if t < 3:
        raise InputError(f"t must be >= 3, got {t}")
    assign, parts = _split(g, ell, seed)

    solved = []  # (clique set, certificate or None) of each part
    for part in parts:
        cs = enumerate_cliques(part, t)
        covered = np.bincount(cs.members.ravel(), minlength=g.n).all()
        solved.append((cs, has_fractional_factor(uniform_weights(part), cs, tol) if covered else None))
    members = np.concatenate([cs.members for cs, _ in solved])
    # part i's edges are the host edges assigned to it, in host order
    host_ids = [np.flatnonzero(assign == i).astype(np.int32) for i in range(ell)]
    pair_ids = np.concatenate([host_ids[i][cs.pair_ids] for i, (cs, _) in enumerate(solved)])
    order = np.lexsort(members.T[::-1])
    rank = np.argsort(order)  # row of the concatenated parts -> bundle id
    cliques = CliqueSet(t, members[order], g, pair_ids[order])

    total = np.zeros(len(cliques))
    factors = []
    failed = []
    offset = 0
    for i, (cs, cert) in enumerate(solved):
        if cert is not None and cert.has_factor:
            ids = rank[offset + cert.ids]
            factors.append((ids, cert.weights))
            total[ids] += cert.weights
        else:
            failed.append(i)
        offset += len(cs)
    load = cliques.A_pair @ total
    audits = {
        "requested": ell,
        "achieved": len(factors),
        "failed_parts": failed,
        "split_sizes": [p.m for p in parts],
        "max_per_edge_load": float(np.max(load, initial=0.0)),
    }
    return FactorBundle(
        factors=tuple(factors),
        ell=len(factors),
        mode="sparse",
        cliques=cliques,
        per_edge_load=load,
        audits=audits,
    )


@dataclass(frozen=True, eq=False)
class RandomHypergraph:
    """Sampled t-uniform hypergraph on the host's vertex set.

    hyperedges holds the surviving cliques as rows of the bundle's clique
    set's members (host labels), in ascending clique id.  candidates and
    inclusion_prob are aligned arrays: the ascending ids, in the bundle's
    set, of the cliques with f(T) > 0 and their probabilities min(f(T), 1).
    """

    t: int
    vertices: int
    hyperedges: np.ndarray
    candidates: np.ndarray
    inclusion_prob: np.ndarray


def build_Hf(bundle: FactorBundle, seed: int, tol: float = TOL_DEFAULT) -> RandomHypergraph:
    """Include each clique T of bundle.cliques independently with probability min(f(T), 1).

    f(T) sums the bundle's factors; values beyond 1 + 10 tol indicate a
    corrupted bundle and raise, values in (1, 1+10 tol] are solver noise and
    clamp to 1.  Candidates, the cliques with f(T) > 0, take one uniform draw
    each, in ascending clique id, so a fixed seed yields a fixed hypergraph;
    both clique sets are in host order, so either engine's draws follow it.
    """
    cliques = bundle.cliques
    f = np.zeros(len(cliques))
    for ids, weights in bundle.factors:
        f[ids] += weights
    over = np.flatnonzero(f > 1 + 10 * tol)
    if over.size:
        j = over[0]
        raise InvariantError(
            f"aggregate f({tuple(cliques.members[j].tolist())}) = {f[j]:.9g} exceeds 1 + 10 tol"
        )
    candidates = np.flatnonzero(f > 0)
    p = np.minimum(f[candidates], 1.0)
    kept = candidates[np.random.default_rng(seed).random(candidates.size) < p]
    return RandomHypergraph(
        t=cliques.t,
        vertices=cliques.graph.n,
        hyperedges=cliques.members[kept],
        candidates=candidates,
        inclusion_prob=p,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Degree and codegree bands for H_f.

    Degrees are compared against ell +/- (k/2) sqrt(ell ln ell) with
    k = 8 / sqrt(beta); codegrees against 1 + 3 ln n.  At small ell the
    degree band is far wider than ell itself, so emptiness is flagged
    separately rather than relying on the band to catch it.  Where the audit
    does not apply, the bands and statistics keep their zero defaults.
    """

    applicable: bool
    ell: int
    codegree_bound: float
    empty: bool
    band_low: float = 0.0
    band_high: float = 0.0
    degrees_outside: int = 0
    min_degree: int = 0
    max_degree: int = 0
    mean_degree: float = 0.0
    max_codegree: int = 0
    codegrees_outside: int = 0


def hf_degrees(hf: RandomHypergraph) -> np.ndarray:
    return np.bincount(hf.hyperedges.ravel(), minlength=hf.vertices)


def hf_codegrees(hf: RandomHypergraph) -> np.ndarray:
    """Codegree of each vertex pair some hyperedge holds, in ascending pair key u*n + v."""
    u, v = np.triu_indices(hf.t, 1)
    rows = hf.hyperedges.astype(np.int64)
    return np.unique(rows[:, u] * hf.vertices + rows[:, v], return_counts=True)[1]


def concentration_audit(hf: RandomHypergraph, ell: int) -> ConcentrationReport:
    """Audit H_f against the ell-regular-in-expectation degree band and the
    1 + 3 ln n codegree ceiling, n = hf.vertices.  Not applicable below
    ell = 2 (ln ell = 0)."""
    n = hf.vertices
    bound = 1 + 3 * math.log(n) if n else 0.0
    if ell < 2:
        return ConcentrationReport(False, ell, bound, empty=len(hf.hyperedges) == 0)
    k = 8.0 / math.sqrt(beta_exponent(hf.t))
    half = (k / 2) * math.sqrt(ell * math.log(ell))
    lo, hi = ell - half, ell + half
    deg = hf_degrees(hf)
    outside = int(np.sum((deg < lo) | (deg > hi)))
    codeg = hf_codegrees(hf)
    max_co = int(codeg.max(initial=0))
    co_outside = int(np.count_nonzero(codeg > bound))
    return ConcentrationReport(
        applicable=True,
        ell=ell,
        band_low=lo,
        band_high=hi,
        degrees_outside=outside,
        min_degree=int(deg.min()) if n else 0,
        max_degree=int(deg.max()) if n else 0,
        mean_degree=float(deg.mean()) if n else 0.0,
        codegree_bound=bound,
        max_codegree=max_co,
        codegrees_outside=co_outside,
        empty=len(hf.hyperedges) == 0,
    )


@dataclass(frozen=True)
class MatchingResult:
    matched: tuple  # disjoint t-tuples
    uncovered: tuple  # sorted vertex labels
    uncovered_count: int


def _uncovered_rows(rows: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """The rows none of whose members is covered, in their order."""
    return rows[~covered[rows].any(axis=1)]


def _greedy_pass(rows: np.ndarray, order: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Rows greedy takes visiting rows[order]: no member covered or in an earlier pick."""
    free = (~covered).tolist()
    taken = []
    for e in rows[order].tolist():
        if all(free[v] for v in e):
            taken.append(e)
            for v in e:
                free[v] = False
    return np.array(taken, dtype=np.int32).reshape(-1, rows.shape[1])


def _result(n: int, rows: np.ndarray) -> MatchingResult:
    rows = rows[np.lexsort(rows.T[::-1])]
    uncovered = tuple(np.flatnonzero(np.bincount(rows.ravel(), minlength=n) == 0).tolist())
    return MatchingResult(tuple(map(tuple, rows.tolist())), uncovered, len(uncovered))


def nibble_matching(
    hf: RandomHypergraph, mode: str, epsilon: float, seed: int
) -> MatchingResult:
    """Near-perfect matching in H_f by random-order greedy or nibble rounds.

    Nibble rounds activate each surviving hyperedge with probability
    epsilon / Delta (Delta = current max vertex degree); activations that
    clash with another activation are discarded wholesale, the rest join the
    matching (they are pairwise disjoint, so one bincount decides them all).
    Capped at 10 ceil(ln n) rounds, then a greedy pass sweeps the survivors,
    so the result is always maximal.
    """
    if not (0 < epsilon < 1):
        raise InputError(f"epsilon must lie in (0,1), got {epsilon}")
    if mode not in ("greedy", "nibble"):
        raise InputError(f"unknown matching mode {mode!r}")
    n = hf.vertices
    rng = np.random.default_rng(seed)
    covered = np.zeros(n, dtype=bool)
    picks = []
    alive = hf.hyperedges
    if mode == "nibble" and len(alive):
        cap = 10 * math.ceil(math.log(n)) if n > 1 else 1
        for _ in range(max(1, cap)):
            alive = _uncovered_rows(alive, covered)
            if not len(alive):
                break
            delta = int(np.bincount(alive.ravel()).max())
            p = min(1.0, epsilon / delta)
            active = alive[rng.random(len(alive)) < p]
            use = np.bincount(active.ravel(), minlength=n)
            won = active[(use[active] == 1).all(axis=1)]
            picks.append(won)
            covered[won.ravel()] = True
    alive = _uncovered_rows(alive, covered)
    picks.append(_greedy_pass(alive, rng.permutation(len(alive)), covered))
    return _result(n, np.concatenate(picks))


def greedy_completion(g: Graph, t: int, uncovered, seed: int) -> np.ndarray:
    """Greedily pack the K_t copies of G[uncovered] into the uncovered set, random order.

    G[uncovered] is enumerated on its own, so the work scales with the
    leftover, not the host; relabelling is monotone, so its rows, in host
    labels, are the host's cliques inside uncovered, in host order.  One
    randomized greedy pass over them is maximal: any clique disjoint from
    the picks would itself have been picked.  Returns the added rows, in
    pick order.
    """
    sub, verts = induced_subgraph(g, uncovered)
    rows = enumerate_cliques(sub, t).members
    order = np.random.default_rng(seed).permutation(len(rows))
    return np.asarray(verts, dtype=np.int32)[_greedy_pass(rows, order, np.zeros(sub.n, bool))]


def _check_cover(g: Graph, rows: np.ndarray) -> None:
    """InvariantError unless every (ascending) row is a K_t of g and no vertex
    lies in two rows: one binary search of g.edge_keys, one bincount."""
    u, v = np.triu_indices(rows.shape[1], 1)
    try:
        edge_ids(g, np.stack([rows[:, u], rows[:, v]], axis=-1))
    except InputError as exc:
        raise InvariantError(f"a cover row is not a K_{rows.shape[1]} of G: {exc}") from None
    use = np.bincount(rows.ravel(), minlength=g.n)
    if use.max(initial=0) > 1:
        raise InvariantError(f"vertex {int(np.argmax(use))} lies in {use.max()} cover rows")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for run_end_to_end; seed is mandatory, everything else defaulted.
    alpha (default_alpha) and lambda's path are not knobs: the input decides them."""

    seed: int
    mode: str = "auto"  # auto | dense | sparse
    ell: int | None = None
    epsilon: float = 0.1
    matcher: str = "nibble"  # nibble | greedy
    tol: float = TOL_DEFAULT
    force: bool = False
    completion: bool = True


@dataclass(frozen=True)
class PipelineReport:
    parameters: dict
    stage_audits: dict
    result: MatchingResult
    uncovered_fraction: float


class HypothesisRejected(InputError):
    """Raised without force when the eigenvalue hypothesis fails."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage name prefixed to the message."""
    try:
        yield
    except (InputError, NumericalError, InvariantError, ResourceError) as exc:
        raise type(exc)(f"[stage:{name}] {exc}") from exc


def run_end_to_end(g: Graph, t: int, config: PipelineConfig) -> PipelineReport:
    """Spectral certificate -> branch choice -> extraction -> H_f -> matching.

    The eigenvalue hypothesis lambda <= c d^{t-1}/n^{t-2} fails on every
    desk-scale instance; with config.force the run proceeds and the failure
    is flagged in the audits, without it HypothesisRejected carries the
    hypothesis report.  A final greedy completion packs cliques of
    G[uncovered] after the hypergraph matcher, since the matcher's leftover
    guarantee is asymptotic; the pre-completion count stays in the audits.
    A final cover that _check_cover refuses raises InvariantError.
    """
    if config.mode not in ("auto", "dense", "sparse"):
        raise InputError(f"unknown mode {config.mode!r}")
    if not isinstance(config.seed, (int, np.integer)) or config.seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {config.seed!r}")
    if not 0 < config.tol < np.inf:
        raise InputError(f"tol must be finite and positive, got {config.tol}")
    info = regularity(g)
    if not info.is_regular:
        raise InputError("pipeline requires a regular input graph")
    with _stage("spectral"):
        cert = second_eigenvalue(g, tol=min(1e-8, config.tol))
        hyp = hypothesis_check(cert, t)
    if hyp.branch == "fails" and not config.force:
        raise HypothesisRejected(
            "eigenvalue hypothesis fails "
            f"(lambda = {cert.lam:.6g} > bound {hyp.lambda_bound:.6g}); "
            "pass force to run anyway",
            report=hyp,
        )
    # "both" and "dense_branch" imply dense_degree_ok, "sparse_branch" its negation
    if config.mode == "auto":
        mode = "dense" if hyp.dense_degree_ok else "sparse"
    else:
        mode = config.mode
    ell = config.ell if config.ell is not None else default_ell(g.n, t)

    ss = np.random.SeedSequence(config.seed)
    s_split, s_hf, s_match, s_complete = (int(x) for x in ss.generate_state(4))

    with _stage("extraction"):
        if mode == "dense":
            bundle = dense_extract(g, t, ell, config.tol)
        else:
            bundle = sparse_extract(g, t, ell, s_split, config.tol)
    with _stage("hf"):
        hf = build_Hf(bundle, s_hf, config.tol)
        conc = concentration_audit(hf, bundle.ell)
    with _stage("matching"):
        pre = nibble_matching(hf, config.matcher, config.epsilon, s_match)

    result = pre
    completion_added = 0
    if config.completion and pre.uncovered_count >= t:
        with _stage("completion"):
            added = greedy_completion(g, t, pre.uncovered, s_complete)
        completion_added = len(added)
        result = _result(g.n, np.vstack([np.array(pre.matched, np.int32).reshape(-1, t), added]))
    with _stage("cover"):
        _check_cover(g, np.array(result.matched, np.int32).reshape(-1, t))

    bound = g.n ** (1 - 1 / (8 * t**4)) if g.n else 0.0
    parameters = {
        "n": g.n,
        "d": info.d,
        "t": t,
        "lambda": cert.lam,
        "ell_requested": ell,
        "ell_achieved": bundle.ell,
        "seed": config.seed,
        "stage_seeds": {
            "split": s_split,
            "hf": s_hf,
            "match": s_match,
            "complete": s_complete,
        },
        "mode_requested": config.mode,
        "mode_effective": mode,
        "alpha": bundle.audits.get("alpha"),
        "epsilon": config.epsilon,
        "matcher": config.matcher,
        "tol": config.tol,
        "force": config.force,
    }
    stage_audits = {
        "spectral": cert,
        "hypothesis": hyp,
        "hypothesis_failed": hyp.branch == "fails",
        "extraction": bundle.audits,
        "hf": {
            "hyperedges": len(hf.hyperedges),
            "candidates": len(hf.candidates),
            "max_inclusion_prob": float(hf.inclusion_prob.max(initial=0.0)),
            "concentration": conc,
        },
        "matching": {
            "matcher": config.matcher,
            "hf_matched": len(pre.matched),
            "hf_uncovered_count": pre.uncovered_count,
        },
        "completion": {
            "enabled": config.completion,
            "added": completion_added,
        },
        "leftover_bound": {
            "value": bound,
            "vacuous": bound >= g.n - t,
            "note": "asymptotic leftover bound, recorded for context only",
        },
    }
    return PipelineReport(
        parameters=parameters,
        stage_audits=stage_audits,
        result=result,
        uncovered_fraction=result.uncovered_count / g.n if g.n else 0.0,
    )
