"""Fractional K_t-matching LP, its dual, and fractional-factor certification.

The primal maximizes sum f(T) over clique weights f >= 0 subject to vertex
loads <= 1 and pair loads <= w(uv); the dual minimizes sum g(v) + sum
h(uv) w(uv) subject to sum_{v in T} g(v) + sum_{uv in E(T)} h(uv) >= 1 per
clique.  Both share the optimum t*(G,w).  One HiGHS solve of the covering
form (deterministic for a fixed instance; 2-15x faster than the packing form
on LPs above 10 ms, on both sides of N = n + m) yields both sides, f read
off its row marginals.  The pair is a checked certificate: both sides
feasible within tol, and both objectives, summed from the vectors, within
2 tol of each other.  Edge-length terms such as h.w, the Newton line search's
slopes, the matching bound's y.upper and a matching family's value are
sums, not numpy dot products:
numpy's OpenBLAS splits a dot product of more than 10,000 entries over its
threads, so its bits would follow the thread count.  HiGHS
(scipy.optimize) is imported on the first LP or MILP solve, not with cfl.

A fractional factor is a weighting whose vertex loads are all exactly 1.
The certificate's witness is the factor of maximum entropy -sum f log f,
which is unique and weights every clique some factor can use (a basic
solution used 86 of the 14,705 triangles of rr(90,45); at ell = 2 it left
the H_f matcher no more vertices uncovered, so spread is not claimed to
help there).  It has the form f(T) = exp(sum_{v in T} phi(v) -
sum_{uv in E(T)} mu(uv)), mu >= 0, where (phi, mu) minimizes the smooth
convex dual D = sum_T f(T) - sum_v phi(v) + sum_uv w(uv) mu(uv).  Damped
Newton on D is matrix scaling (Sinkhorn) on the clique hypergraph; pair
multipliers enter as a projected-Newton active set.  Any factor f' gives
D >= sum (f' - f' log f') >= |V|/t, so an iterate with D < |V|/t refutes a
factor.  A witness is accepted only after the exact checks: vertex loads
within tol of 1, pair loads at most w + tol, f >= 0.  When Newton reaches
none within NEWTON_STEPS steps, one LP solve decides: t* < |V|/t - tol
refutes a factor, and otherwise the primal optimum, whose loads must then
all be 1, is the witness, a basic solution rather than a spread one.

A certified factor is an LP optimum, so certified_pair solves no LP for
it.  Every clique loads t vertices, each by at most 1, so t sum f <= |V|:
t* <= |V|/t (Prop 3 (ii)).  The dual g = 1/t on every vertex, h = 0 covers
every clique exactly once and is worth |V|/t, and a factor f, all of whose
loads are 1, is worth sum f = |V|/t.  The pair (f, g, h) is put through the
load, cover and 2 tol gap checks a HiGHS pair gets, and a failed check
raises NumericalError.  Only when Newton reaches no factor does the one
covering solve run, and its pair serves both the certificate and the
caller.  `cfl lp` takes its pair from certified_pair, and t_star reads t*
off the same certificate.

The integral matching value t(G,w), which Prop 3 (i) bounds by t*, is an
exact zero-gap MILP over binary x_T with the vertex rows A_vert x <= 1.  When
t does not divide |V| it also carries the cardinality row
sum_T x_T <= floor(|V|/t), valid because vertex-disjoint t-sets number at
most floor(|V|/t): the vertex rows alone let the relaxation pack |V|/t
cliques, and this one rounding (Chvatal-Gomory; Edmonds' odd-set
inequality when t = 2) removes most of the gap branch-and-bound would close.
The MILP runs only on cliques that can still be optimal: reduced-cost
fixing (Crowder, Johnson & Padberg 1983) on a core problem (Balas & Zemel
1980).  For any y >= 0 on the rows R x <= u, let d = value - R^T y.  A
vertex-disjoint family x has value.x = y.(R x) + d.x <= y.u + sum_{T in x}
d_T, so no family is worth more than top = y.u + sum max(d, 0), and none
that holds T more than bound_T = top + min(d_T, 0).  That is weak duality
and needs nothing of y but y >= 0: the LP relaxation's duals, clipped at 0,
decide how many cliques are pruned, never the value.  A clique whose bound
is below a family already found cannot improve on it; the margin 1e-9 (1 +
|value|) that keeps it is far tighter than HiGHS's own 1e-6 absolute MIP
gap.  At unit weights the bounds are flat (every bound is top) and nothing
can be pruned, so the MILP then runs on all cliques at once.

Cliques that the bounds keep but the core lacks are probed before any second
MILP (Savelsbergh 1994): the relaxation over the kept cliques alone, with
x_j fixed at 1, gives new duals y and so, by the same inequality, a new
bound_j.  Restricting to the kept set K is sound because every family worth
at least best - margin already lies in K (a family holding T is worth at
most bound_T); for such a family holding j, any y >= 0 gives value <= y.u +
d_j + sum_{T in K, T != j} max(d_T, 0), which is bound_j over K.  A clique
whose probe bound falls below best - margin is dropped from K, which keeps
the argument valid for later probes; the second MILP runs only when some
probed clique survives, and then on what is left of K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import blas
from .cliques import CliqueSet, enumerate_cliques
from .errors import InputError, NumericalError, ResourceError
from .graphs import WeightedGraph, edge_ids, induced_weighted

TOL_DEFAULT = 1e-7
MATCHING_BUDGET = 10**4
# Newton scaling: step cap, stopping accuracy (or tol if finer), Armijo
# fraction, halvings per step, cap on log f (a factor has f <= 1), ridge
# floor, and the relative decrease below which D's rounding hides Armijo's
NEWTON_STEPS = 60
NEWTON_TOL = 1e-10
ARMIJO = 1e-4
HALVINGS = 40
LOG_CAP = 50.0
RIDGE_FLOOR = 1e-12
ROUNDING = 1e-12


# linprog and milp stay attributes of this module, looked up at each call,
# so that a caller can wrap or replace them.
def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def milp(*args, **kwargs):
    """scipy.optimize.milp, imported on the first call."""
    from scipy.optimize import milp as highs_milp

    return highs_milp(*args, **kwargs)


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """An optimal clique weighting: f[j] is the weight of clique j (length N,
    the column order of the clique set's operators), clipped at 0."""

    f: np.ndarray
    objective: float


@dataclass(frozen=True, eq=False)
class DualSolution:
    """An optimal dual: g[v] per vertex (length n) and h[e] per edge (length
    m, in the order of the graph's edges, the row order of A_pair)."""

    g: np.ndarray
    h: np.ndarray
    objective: float


@dataclass(frozen=True, eq=False)
class FactorCert:
    """Verdict of the fractional-factor test.

    has_factor implies the witness f passed the exact checks: f >= 0, every
    per_vertex_load within tol of 1, every pair load at most w + tol.  It is
    the maximum-entropy factor, unless the note says it is the primal
    optimum, a basic solution that is not spread.  Its support is carried
    as two arrays: ids are the ascending int32 clique ids (rows of the
    certified clique set) with f > 0, and weights their f.  The cliques'
    vertex rows stay in the clique set, where to_dict reads them.
    per_vertex_load[v] is the load on vertex v (length n), of the witness
    or, without a factor, of the primal optimum.  slack = |V|/t - t_star.
    """

    has_factor: bool
    t_star: float
    slack: float
    per_vertex_load: np.ndarray
    ids: np.ndarray | None = None
    weights: np.ndarray | None = None
    note: str = ""

    def to_dict(self, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> dict:
        """Vertex loads keyed by str(v); the witness's cliques above tol as "a b c" -> f.

        cliques is the clique set this certificate was solved on.
        """
        f = None
        if self.ids is not None:
            keep = self.weights > tol
            rows = cliques.members[self.ids[keep]]
            line = " ".join(["%d"] * rows.shape[1]) + "\n"
            keys = (line * len(rows) % tuple(rows.ravel().tolist())).splitlines()
            f = dict(zip(keys, self.weights[keep].tolist()))
        loads = self.per_vertex_load.tolist()
        return {
            "has_factor": self.has_factor,
            "t_star": self.t_star,
            "slack": self.slack,
            "per_vertex_load": dict(zip(map(str, range(len(loads))), loads)),
            "f": f,
            "note": self.note,
        }


def _instance(wg: WeightedGraph, cliques: CliqueSet):
    """Vertex incidence, pair incidence and pair capacities w, in edge order."""
    if cliques.graph != wg.base:
        raise InputError("clique set was enumerated on a different graph")
    return cliques.A_vert, cliques.A_pair, wg.w


def solve_lp(
    wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT
) -> tuple[PrimalSolution, DualSolution]:
    """An optimal primal-dual pair of the K_t-matching LP from one solve.

    The covering form (min sum g + h.w, A^T (g, h) >= 1) is solved, and f is
    its row marginals, negated and clipped at 0.  Objectives are sum f and
    sum g + h.w.  A pair with a vertex load above 1, a pair load above w or
    a clique cover below 1, beyond tol, or whose objectives differ by more
    than 2 tol, raises NumericalError: it is then not a certified optimum.
    """
    caps = _checked_instance(wg, cliques, tol)
    n, N = wg.n, len(cliques)
    if N == 0:
        return PrimalSolution(np.zeros(0), 0.0), DualSolution(np.zeros(n), np.zeros(wg.base.m), 0.0)
    A = sparse.vstack([cliques.A_vert, cliques.A_pair], format="csc")
    res = linprog(np.concatenate([np.ones(n), caps]), A_ub=-A.T, b_ub=-np.ones(N),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise NumericalError(f"LP solve failed: {res.message}")
    y, f = np.maximum(res.x, 0.0), np.maximum(-res.ineqlin.marginals, 0.0)
    return _checked_pair(cliques, caps, f, y[:n], y[n:], tol)


def _checked_pair(
    cliques: CliqueSet, caps: np.ndarray, f: np.ndarray, g: np.ndarray, h: np.ndarray, tol: float
) -> tuple[PrimalSolution, DualSolution]:
    """(f, (g, h)) as a pair, once it passes the checks that make it a certified optimum.

    A vertex load above 1, a pair load above w or a clique cover below 1,
    beyond tol, or objectives sum f and sum g + h.w more than 2 tol apart,
    raise NumericalError.
    """
    excess = max((cliques.A_vert @ f - 1.0).max(initial=-np.inf),
                 (cliques.A_pair @ f - caps).max(initial=-np.inf))
    shortfall = 1.0 - (cliques.A_vert.T @ g + cliques.A_pair.T @ h).min(initial=np.inf)
    if not max(excess, shortfall) <= tol:
        raise NumericalError(
            f"LP pair infeasible: load excess {excess:.3e}, cover shortfall {shortfall:.3e}"
        )
    p = PrimalSolution(f, float(f.sum()))
    d = DualSolution(g, h, float(g.sum() + (h * caps).sum()))
    if not abs(p.objective - d.objective) <= 2 * tol:
        raise NumericalError(f"LP pair not optimal: objective gap {abs(p.objective - d.objective):.3e}")
    return p, d


def solve_primal(wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> PrimalSolution:
    """The primal half of solve_lp."""
    return solve_lp(wg, cliques, tol)[0]


def solve_dual(wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> DualSolution:
    """The dual half of solve_lp."""
    return solve_lp(wg, cliques, tol)[1]


def t_star(wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> float:
    """Optimum of the fractional K_t-matching LP, t = cliques.t, read off
    certified_pair's certificate.  When Newton finds a factor f it is sum f,
    with no LP: Prop 3 (ii) bounds t* by |V|/t, which g = 1/t attains, so f
    is optimal.  Otherwise it is the primal objective of one checked HiGHS
    solve.  Guaranteed <= |V|/t + tol."""
    return certified_pair(wg, cliques, tol)[2].t_star


def _within_bound(val: float, n: int, t: int, tol: float) -> float:
    """val, once checked against the bound t* <= |V|/t that every matching obeys."""
    if val > n / t + tol:
        raise NumericalError(f"t_star {val} exceeds |V|/t = {n / t}")
    return val


def _matching_rows(wg: WeightedGraph, cliques: CliqueSet):
    """Clique values (least pair weight), rows and row bounds of the matching MILP.

    The rows are A_vert, plus the cardinality row sum_T x_T <= floor(n/t)
    when t does not divide n (see the module docstring): it cuts off no
    vertex-disjoint family, only fractional packings of up to n/t cliques.
    When t divides n the row is the vertex rows summed and divided by t, so
    it is left out.
    """
    a_vert, _, caps = _instance(wg, cliques)
    rows, upper = a_vert, np.ones(wg.n)
    if wg.n % cliques.t:
        rows = sparse.vstack([a_vert, np.ones((1, len(cliques)))], format="csc")
        upper = np.append(upper, wg.n // cliques.t)
    return cliques.least_weight(caps), rows, upper


def _clique_bounds(values, rows, upper, marginals) -> tuple:
    """(top, bound): no family is worth more than top, none holding clique j more than bound[j].

    marginals are the relaxation's row marginals (<= 0 for these rows of a
    minimization); y = max(-marginals, 0) keeps the bounds valid whatever
    the solve returned (see the module docstring).
    """
    y = np.maximum(-marginals, 0.0)
    d = values - rows.T @ y
    top = (y * upper).sum() + np.maximum(d, 0.0).sum()
    return top, top + np.minimum(d, 0.0)


def integral_matching_value(wg: WeightedGraph, cliques: CliqueSet) -> float:
    """Exact max of sum_T min-edge-weight over vertex-disjoint clique families.

    Branch-and-bound (HiGHS MILP, zero gap) within the MATCHING_BUDGET clique
    budget; larger instances get a ResourceError suggesting a greedy bound.
    The MILP runs only where an optimum can lie (the module docstring has
    the bounds).  One LP relaxation (0 <= x <= 1) gives top and bound_j; a
    MILP on a core, the relaxation's support and the 2n cliques of largest
    bound, gives an incumbent best; unless best >= top - margin, the kept
    cliques, those with bound_j >= best - margin, hold every optimal family.
    Each kept clique j outside the core is probed: the relaxation over the
    kept cliques with x_j fixed at 1 bounds every family holding j, and j is
    dropped when that bound is below best - margin.  A second MILP runs on
    what is kept only if some probed clique survives.  margin = 1e-9 (1 +
    |best|) covers the rounding of the bounds.  When even an optimal
    incumbent would keep more than half the cliques (flat bounds, as at
    unit weights, where every bound is top) one MILP runs on all N.

    The value returned is witnessed: each solve's x is rounded to a 0/1
    family over all N cliques and checked vertex-disjoint before its value
    is used, and the value is that family's clique values summed; a
    rounded family that overlaps raises NumericalError.
    """
    N = len(cliques)
    if N == 0:
        return 0.0
    if N > MATCHING_BUDGET:
        raise ResourceError(
            f"{N} cliques exceed the exact-matching budget {MATCHING_BUDGET}; "
            "use a greedy lower bound instead"
        )
    from scipy.optimize import Bounds, LinearConstraint

    values, rows, upper = _matching_rows(wg, cliques)

    def family(cols: np.ndarray) -> np.ndarray:
        res = milp(
            c=-values[cols],
            constraints=LinearConstraint(rows[:, cols], -np.inf, upper),
            integrality=np.ones(len(cols)),
            bounds=Bounds(0, 1),
            options={"mip_rel_gap": 0.0},
        )
        if res.status != 0:
            raise NumericalError(f"exact matching solve failed: {res.message}")
        x = np.zeros(N)
        x[cols] = np.rint(res.x)
        if np.any(cliques.A_vert @ x > 1):
            raise NumericalError("exact matching solve returned overlapping cliques")
        return x

    lp = linprog(-values, A_ub=rows, b_ub=upper, bounds=(0, 1), method="highs")
    if lp.status != 0:
        raise NumericalError(f"matching relaxation failed: {lp.message}")
    top, bound = _clique_bounds(values, rows, upper, lp.ineqlin.marginals)
    if np.count_nonzero(bound >= top - 1e-9 * (1 + abs(top))) > N / 2:
        return float((values * family(np.arange(N))).sum())
    core = lp.x > 0
    core[np.argsort(-bound, kind="stable")[: 2 * wg.n]] = True
    x = family(np.flatnonzero(core))
    best = (values * x).sum()
    margin = 1e-9 * (1 + abs(best))
    if best < top - margin:
        keep = bound >= best - margin
        for j in np.flatnonzero(keep & ~core):
            cols = np.flatnonzero(keep)
            at_j, sub = cols == j, rows[:, cols]
            probe = linprog(-values[cols], A_ub=sub, b_ub=upper,
                            bounds=np.column_stack([at_j, np.ones(len(cols))]), method="highs")
            if probe.status != 0:
                raise NumericalError(f"matching probe failed: {probe.message}")
            _, probe_bound = _clique_bounds(values[cols], sub, upper, probe.ineqlin.marginals)
            keep[j] = probe_bound[at_j][0] >= best - margin
        if np.any(keep & ~core):
            x = family(np.flatnonzero(keep))
    return float((values * x).sum())


def has_fractional_factor(
    wg: WeightedGraph,
    cliques: CliqueSet,
    tol: float = TOL_DEFAULT,
    primal: PrimalSolution | None = None,
) -> FactorCert:
    """Decide whether a fractional K_t-factor, t = cliques.t, exists and, if so, return one.

    The witness is the maximum-entropy factor (see the module docstring).
    When Newton reaches none, the primal optimum decides; a caller holding
    the primal of (wg, cliques, tol) passes it in.  With a factor t_star = sum f;
    without, the loads are an optimal fractional matching's, and the note
    marks a t_star within tol of |V|/t with an infeasible unit-load programme.
    """
    caps = _checked_instance(wg, cliques, tol)
    fvec = _newton_witness(cliques, caps, tol)
    if fvec is not None:
        return _factor_cert(wg, cliques, fvec, tol)
    if primal is None:
        primal = solve_lp(wg, cliques, tol)[0]
    return _primal_cert(wg, cliques, caps, primal, tol)


def certified_pair(
    wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT
) -> tuple[PrimalSolution, DualSolution, FactorCert]:
    """An optimal primal-dual pair of the K_t-matching LP and the factor
    certificate, from at most one LP solve.

    When Newton's maximum-entropy witness f passes the exact checks, the
    pair is (f, g = 1/t, h = 0), with no LP: every clique is covered exactly
    once by g, and sum g = |V|/t, so the pair is optimal by Prop 3 (ii).
    It goes through solve_lp's load, cover and 2 tol gap checks, and
    NumericalError is raised if one fails.  Otherwise one HiGHS solve gives
    both the pair and the certificate has_fractional_factor would read off
    its primal.
    """
    caps = _checked_instance(wg, cliques, tol)
    fvec = _newton_witness(cliques, caps, tol)
    if fvec is not None:
        p, d = _checked_pair(cliques, caps, fvec, np.full(wg.n, 1.0 / cliques.t),
                             np.zeros(len(caps)), tol)
        return p, d, _factor_cert(wg, cliques, fvec, tol)
    p, d = solve_lp(wg, cliques, tol)
    return p, d, _primal_cert(wg, cliques, caps, p, tol)


def _checked_instance(wg: WeightedGraph, cliques: CliqueSet, tol: float) -> np.ndarray:
    """The pair capacities w, once tol and the clique set's graph are checked."""
    if not 0 < tol < np.inf:
        raise InputError(f"tol must be finite and positive, got {tol}")
    return _instance(wg, cliques)[2]


def _newton_witness(cliques: CliqueSet, caps: np.ndarray, tol: float) -> np.ndarray | None:
    """The maximum-entropy factor once it passes the exact checks, else None;
    with no vertex, the empty factor."""
    if cliques.graph.n == 0:
        return np.zeros(0)
    fvec = _max_entropy_factor(cliques, caps, tol)
    return fvec if fvec is not None and _is_factor(cliques, caps, fvec, tol) else None


def _factor_cert(
    wg: WeightedGraph, cliques: CliqueSet, fvec: np.ndarray, tol: float, note: str = ""
) -> FactorCert:
    """The certificate of a factor fvec that passed the exact checks: t_star = sum f."""
    n, t = wg.n, cliques.t
    ts = _within_bound(float(fvec.sum()), n, t, tol)
    return FactorCert(True, ts, n / t - ts, cliques.A_vert @ fvec, **_support(fvec), note=note)


def _primal_cert(
    wg: WeightedGraph, cliques: CliqueSet, caps: np.ndarray, primal: PrimalSolution, tol: float
) -> FactorCert:
    """The verdict of an LP optimum, once Newton reached no factor: t* < |V|/t - tol
    refutes one, and otherwise the primal is the witness if its loads are all 1."""
    n, t = wg.n, cliques.t
    ts = _within_bound(primal.objective, n, t, tol)
    if ts < n / t - tol:
        return FactorCert(False, ts, n / t - ts, cliques.A_vert @ primal.f)
    if not _is_factor(cliques, caps, primal.f, tol):
        note = "t_star within tol of |V|/t but the unit-load programme is infeasible"
        return FactorCert(False, ts, n / t - ts, cliques.A_vert @ primal.f, note=note)
    note = "primal optimum: Newton scaling reached no factor, so the witness is not spread"
    return _factor_cert(wg, cliques, primal.f, tol, note)


def _support(fvec: np.ndarray) -> dict:
    ids = np.flatnonzero(fvec > 0).astype(np.int32)
    return {"ids": ids, "weights": fvec[ids]}


def _is_factor(cliques: CliqueSet, caps: np.ndarray, fvec: np.ndarray, tol: float) -> bool:
    """f >= 0, every vertex load within tol of 1, every pair load <= w + tol."""
    return bool(
        np.all(fvec >= 0)
        and np.all(np.abs(cliques.A_vert @ fvec - 1.0) <= tol)
        and np.all(cliques.A_pair @ fvec <= caps + tol)
    )


def _max_entropy_factor(cliques: CliqueSet, caps: np.ndarray, tol: float) -> np.ndarray | None:
    """The maximum-entropy factor by damped Newton on D, or None if not reached.

    Starts from uniform f (phi = log(n/(tN))/t, mu = 0) on the cliques with
    no pair of capacity <= 0.  A pair row is active while its load exceeds
    0 < w < 1 or mu > 0 (w >= 1 never binds: a pair load is at most a
    vertex load).  The Hessian's vertex block is diag(vertex loads) with
    the pair loads off the diagonal.  Stops when every check holds to within
    min(tol, NEWTON_TOL) and every pair with mu > 0 is that close to tight.
    """
    n, N = cliques.A_vert.shape
    V, P = cliques.A_vert, cliques.A_pair
    # a clique is dead only through a pair of capacity <= 0
    live = cliques.least_weight(caps) > 0 if (caps <= 0).any() else np.ones(N, dtype=bool)
    V, P = (V, P) if live.all() else (V[:, live], P[:, live])
    if not live.any() or np.bincount(V.indices, minlength=n).min() == 0:
        return None  # a vertex in no live clique has load 0
    Vt, Pt, P_rows = V.T.tocsr(), P.T.tocsr(), None
    u, v = cliques.graph.edge_array.T
    i, target, t, binds = np.arange(n), min(tol, NEWTON_TOL), cliques.t, (0 < caps) & (caps < 1)
    phi, mu = np.full(n, np.log(n / (t * V.shape[1])) / t), np.zeros(len(caps))
    active = np.zeros(len(caps), dtype=bool)
    f = np.exp(Vt @ phi)
    dual = f.sum() - phi.sum()
    for _ in range(NEWTON_STEPS):
        vload, pload = V @ f, P @ f
        excess = pload - caps
        worst_pair = max(excess[binds].max(initial=0), np.abs(excess[mu > 0]).max(initial=0))
        if max(np.abs(vload - 1.0).max(), worst_pair) <= target:
            out = np.zeros(N)
            out[live] = f
            return out
        active = (active & ((mu > 0) | (excess >= 0))) | (binds & (excess > 0))
        S = np.flatnonzero(active)
        grad = np.concatenate([vload - 1.0, -excess[S]])
        H = np.zeros((n + S.size, n + S.size))
        H[u, v] = H[v, u] = pload
        H[i, i] = vload
        if S.size:
            P_rows = P.tocsr() if P_rows is None else P_rows
            PSf = P_rows[S] @ sparse.diags(f)
            H[n:, :n] = -(PSf @ Vt).toarray()
            H[:n, n:] = H[n:, :n].T
            H[n:, n:] = (PSf @ P_rows[S].T).toarray()
        # Levenberg-Marquardt ridge r = min(g, g^2), g = |grad|_inf: H is
        # singular where active rows are dependent (all pairs at a vertex),
        # and the ridge bounds the step there while vanishing with grad
        g = float(np.abs(grad).max())
        H[np.diag_indices_from(H)] += max(g * min(g, 1.0), RIDGE_FLOOR * H.diagonal().max())
        blas.one_thread()
        try:
            step = -cho_solve(cho_factor(H, check_finite=False), grad, check_finite=False)
        except LinAlgError:
            return None
        for halving in range(HALVINGS):
            alpha = 0.5**halving
            new_phi, new_mu = phi + alpha * step[:n], mu.copy()
            new_mu[S] = np.maximum(mu[S] + alpha * step[n:], 0.0)
            z = Vt @ new_phi - Pt @ new_mu
            if not z.max() <= LOG_CAP:  # also catches nan
                continue
            new_f = np.exp(z)
            new_dual = new_f.sum() - new_phi.sum() + (caps * new_mu).sum()
            moved = (grad * np.concatenate([new_phi - phi, new_mu[S] - mu[S]])).sum()
            if (new_dual <= dual + ARMIJO * moved
                    or -(grad * step).sum() <= ROUNDING * (1 + abs(dual))):
                break
        else:
            return None
        phi, mu, f, dual = new_phi, new_mu, new_f, new_dual
        if dual < n / t - tol:
            return None
    return None


@dataclass(frozen=True)
class Prop3Report:
    """All four duality checks on one instance, with the numbers behind them."""

    t_star: float
    integral_value: float
    i_pass: bool
    ii_bound: float
    ii_pass: bool
    ii_equality_case: bool  # t_star == |V|/t within tol and factor confirmed
    iii_subset: tuple
    iii_restricted_value: float
    iii_induced_t_star: float
    iii_feasible: bool
    iii_pass: bool
    v1_sizes: dict  # threshold -> |V_1|, the positivity cliff swept
    iv_threshold: float
    iv_pass: bool
    all_pass: bool

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "iii_subset": list(self.iii_subset),
            "v1_sizes": {f"{thr:.0e}": sz for thr, sz in sorted(self.v1_sizes.items())},
        }


def check_prop3(
    wg: WeightedGraph,
    cliques: CliqueSet,
    tol: float,
    seed: int,
    primal: PrimalSolution,
    dual: DualSolution,
    cert: FactorCert | None = None,
) -> Prop3Report:
    """Verify the four duality facts tying t*, t(G,w), |V|/t and the dual together.

    (i) t* >= exact integral matching value; (ii) t* <= |V|/t, and equality
    certifies a fractional factor; (iii) the dual restricted to a random
    subset U stays feasible for G[U] and upper-bounds t*(G[U],w);
    (iv) t* >= |V_1|/t for V_1 = {v : g(v) > 10 tol}, with |V_1| also
    reported for a sweep of thresholds since the positivity cliff is
    tolerance-dependent in floating point.

    t = cliques.t, and (primal, dual) is a checked optimal pair of (wg,
    cliques, tol), the one solve_lp or certified_pair returns; t* is its
    primal objective.  A caller holding the factor certificate passes it in;
    otherwise it is solved here when needed.  t*(G[U],w) is t_star's, which
    solves no LP when G[U] has a factor.
    """
    n, t = wg.n, cliques.t
    ts = _within_bound(primal.objective, n, t, tol)
    integral = integral_matching_value(wg, cliques)
    i_pass = ts >= integral - tol
    ii_bound = n / t
    ii_pass = ts <= ii_bound + tol
    ii_equality_case = False
    if abs(ts - ii_bound) <= tol:
        if cert is None:
            cert = has_fractional_factor(wg, cliques, tol, primal)
        ii_equality_case = bool(cert.has_factor)
        ii_pass = ii_pass and ii_equality_case

    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, n + 1)) if n else 0
    subset = tuple(int(x) for x in np.sort(rng.permutation(n)[:size]))
    sub_wg, verts = induced_weighted(wg, subset)
    sub_cliques = enumerate_cliques(sub_wg.base, t)
    host = np.asarray(verts, dtype=np.int64)
    g_sub, h_sub = dual.g[host], dual.h[edge_ids(wg.base, host[sub_wg.base.edge_array])]
    a_vert, a_pair, caps = _instance(sub_wg, sub_cliques)
    restricted_value = g_sub.sum() + (h_sub * caps).sum()
    feasible = bool(np.all(a_vert.T @ g_sub + a_pair.T @ h_sub >= 1 - tol))
    induced_ts = t_star(sub_wg, sub_cliques, tol)
    iii_pass = feasible and restricted_value >= induced_ts - tol

    thresholds = (tol, 10 * tol, 100 * tol, 1e-3)
    v1_sizes = {thr: int(np.count_nonzero(dual.g > thr)) for thr in thresholds}
    iv_threshold = 10 * tol
    iv_pass = ts >= v1_sizes[iv_threshold] / t - tol

    return Prop3Report(
        t_star=ts,
        integral_value=integral,
        i_pass=bool(i_pass),
        ii_bound=ii_bound,
        ii_pass=bool(ii_pass),
        ii_equality_case=ii_equality_case,
        iii_subset=subset,
        iii_restricted_value=float(restricted_value),
        iii_induced_t_star=induced_ts,
        iii_feasible=feasible,
        iii_pass=bool(iii_pass),
        v1_sizes=v1_sizes,
        iv_threshold=iv_threshold,
        iv_pass=bool(iv_pass),
        all_pass=bool(i_pass and ii_pass and iii_pass and iv_pass),
    )


@dataclass(frozen=True)
class SlacknessReport:
    worst_vertex_slack: float
    worst_edge_slack: float
    worst_clique_slack: float
    checked_vertices: int
    checked_edges: int
    checked_cliques: int
    all_pass: bool


def complementary_slackness(
    p: PrimalSolution,
    d: DualSolution,
    wg: WeightedGraph,
    cliques: CliqueSet,
    tol: float = TOL_DEFAULT,
) -> SlacknessReport:
    """Check the three slackness families on a certified-optimal pair.

    g(v) > 10 tol forces vertex load 1; h(uv) > 10 tol forces pair load
    w(uv); f(T) > 10 tol forces a tight dual cover.  Refuses pairs whose
    objectives differ by more than 2 tol, since slackness only holds at
    optimality.
    """
    if abs(p.objective - d.objective) > 2 * tol:
        raise InputError(
            f"objective gap {abs(p.objective - d.objective):.3e} exceeds 2*tol; "
            "solutions are not certified optimal"
        )
    thr = 10 * tol
    a_vert, a_pair, caps = _instance(wg, cliques)
    worst_v, n_v = _worst(d.g > thr, a_vert @ p.f - 1.0)
    worst_e, n_e = _worst(d.h > thr, a_pair @ p.f - caps)
    worst_t, n_t = _worst(p.f > thr, a_vert.T @ d.g + a_pair.T @ d.h - 1.0)
    ok = worst_v <= thr and worst_e <= thr and worst_t <= thr
    return SlacknessReport(
        worst_vertex_slack=float(worst_v),
        worst_edge_slack=float(worst_e),
        worst_clique_slack=float(worst_t),
        checked_vertices=n_v,
        checked_edges=n_e,
        checked_cliques=n_t,
        all_pass=bool(ok),
    )


def _worst(mask: np.ndarray, deviation: np.ndarray) -> tuple:
    """Largest |deviation| where mask holds, and how many entries it holds at."""
    return float(np.max(np.abs(deviation[mask]), initial=0.0)), int(np.count_nonzero(mask))
