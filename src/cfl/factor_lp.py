"""Fractional K_t-matching LP, its dual, and fractional-factor certification.

The primal maximizes sum f(T) over clique weights f >= 0 subject to vertex
loads <= 1 and pair loads <= w(uv); the dual minimizes sum g(v) + sum
h(uv) w(uv) subject to sum_{v in T} g(v) + sum_{uv in E(T)} h(uv) >= 1 per
clique.  Both share the optimum t*(G,w).  Solves go through HiGHS, which is
deterministic for a fixed instance; whichever of the two forms has fewer
variables is used when only the optimum value is needed.

A fractional factor is a weighting whose vertex loads are all exactly 1.
Certification picks, among the factors, one minimizing max_T f(T).  The
spread objective matters: a plain basic solution concentrates on few
cliques, which both starves later extraction rounds of pair capacity and
degrades the sampled hypergraph downstream.  That min-max problem is
linear-fractional; the Charnes-Cooper substitution y = f / max f,
s = 1 / max f makes it one LP over the incidence operators of the clique set,
with a row per vertex and per edge and none per clique:

    max s  s.t.  A_vert y = s 1,  A_pair y <= s w,  0 <= y <= 1,  s >= 0.

Its optimum s* is 1 / min max_T f(T) when a factor exists and 0 when none
does, and the factor is f = y / s*.  The pair rows are generated lazily
(Kelley's cutting planes): the LP is solved on the vertex rows alone, and
only the pair rows its solution violates are added before the next solve.
A row with w(uv) >= 1 never enters, since A_pair[uv] y <= A_vert[u] y = s
already, and at the min-max optimum of a dense host almost every pair row
is slack, so one solve on n rows usually settles it.

The integral matching value t(G,w), which Prop 3 (i) bounds by t*, is an
exact zero-gap MILP over binary x_T with the vertex rows A_vert x <= 1.  When
t does not divide |V| it also carries the cardinality row
sum_T x_T <= floor(|V|/t), valid because vertex-disjoint t-sets number at
most floor(|V|/t): the vertex rows alone let the relaxation pack |V|/t
cliques, and this one rounding (Chvatal-Gomory; Edmonds' odd-set
inequality when t = 2) removes most of the gap branch-and-bound would close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .cliques import CliqueSet, enumerate_cliques
from .errors import InputError, NumericalError, ResourceError
from .graphs import WeightedGraph, induced_weighted

TOL_DEFAULT = 1e-7
# HiGHS's default primal feasibility tolerance, in the factor LP's y-scale
PAIR_ROW_TOL = 1e-7
MATCHING_BUDGET = 10**4


@dataclass(frozen=True)
class PrimalSolution:
    f: dict  # clique id -> weight, zeros kept implicit
    objective: float


@dataclass(frozen=True)
class DualSolution:
    g: dict  # vertex -> value
    h: dict  # edge -> value
    objective: float


@dataclass(frozen=True)
class FactorCert:
    """Verdict of the fractional-factor test.

    has_factor implies every per_vertex_load is within tol of 1 and f (keyed
    by clique tuple) realizes those loads.  slack = |V|/t - t_star.
    """

    has_factor: bool
    t_star: float
    slack: float
    per_vertex_load: dict
    f: dict | None = None
    note: str = ""

    def to_dict(self, tol: float = TOL_DEFAULT) -> dict:
        return {
            "has_factor": self.has_factor,
            "t_star": self.t_star,
            "slack": self.slack,
            "per_vertex_load": {str(v): x for v, x in sorted(self.per_vertex_load.items())},
            "f": None
            if self.f is None
            else {
                " ".join(map(str, tup)): val
                for tup, val in sorted(self.f.items())
                if val > tol
            },
            "note": self.note,
        }


def _instance(wg: WeightedGraph, cliques: CliqueSet):
    """Vertex incidence, pair incidence and pair capacities w, in edge order."""
    if cliques.n != wg.n or cliques.edges != wg.base.edges:
        raise InputError("clique set was enumerated on a different graph")
    return cliques.A_vert, cliques.A_pair, np.array([wg.w[e] for e in wg.base.edges])


def solve_primal(wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> PrimalSolution:
    """Maximize sum f(T) subject to vertex loads <= 1, pair loads <= w."""
    if tol <= 0:
        raise InputError("tol must be positive")
    N = len(cliques.cliques)
    if N == 0:
        return PrimalSolution(f={}, objective=0.0)
    a_vert, a_pair, caps = _instance(wg, cliques)
    A = sparse.vstack([a_vert, a_pair], format="csc")
    b = np.concatenate([np.ones(wg.n), caps])
    res = linprog(-np.ones(N), A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise NumericalError(f"primal solve failed: {res.message}")
    f = {j: float(x) for j, x in enumerate(res.x) if x > 0.0}
    return PrimalSolution(f=f, objective=float(-res.fun))


def solve_dual(wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> DualSolution:
    """Minimize sum g + sum h*w subject to per-clique covers >= 1, g,h >= 0."""
    if tol <= 0:
        raise InputError("tol must be positive")
    n = wg.n
    edges = wg.base.edges
    N = len(cliques.cliques)
    if N == 0:
        return DualSolution(
            g={v: 0.0 for v in range(n)}, h={e: 0.0 for e in edges}, objective=0.0
        )
    a_vert, a_pair, caps = _instance(wg, cliques)
    # dual variables: g (n entries) then h (m entries); constraints transpose
    A = sparse.hstack([a_vert.T, a_pair.T], format="csc")
    c = np.concatenate([np.ones(n), caps])
    res = linprog(c, A_ub=-A, b_ub=-np.ones(N), bounds=(0, None), method="highs")
    if res.status != 0:
        raise NumericalError(f"dual solve failed: {res.message}")
    g = {v: float(res.x[v]) for v in range(n)}
    h = {e: float(res.x[n + i]) for i, e in enumerate(edges)}
    return DualSolution(g=g, h=h, objective=float(res.fun))


def t_star(
    wg: WeightedGraph, t: int, tol: float = TOL_DEFAULT, cliques: CliqueSet | None = None
) -> float:
    """Optimum of the fractional K_t-matching LP.

    Value only: solves whichever of primal/dual has fewer variables (they
    agree by strong duality).  Guaranteed <= |V|/t + tol.
    """
    if cliques is None:
        cliques = enumerate_cliques(wg.base, t)
    N = len(cliques.cliques)
    if N == 0:
        return 0.0
    if N <= wg.n + wg.base.m:
        val = solve_primal(wg, cliques, tol).objective
    else:
        val = solve_dual(wg, cliques, tol).objective
    return _within_bound(val, wg.n, t, tol)


def _within_bound(val: float, n: int, t: int, tol: float) -> float:
    """val, once checked against the bound t* <= |V|/t that every matching obeys."""
    if val > n / t + tol:
        raise NumericalError(f"t_star {val} exceeds |V|/t = {n / t}")
    return val


def integral_matching_value(
    wg: WeightedGraph, t: int, cliques: CliqueSet | None = None
) -> float:
    """Exact max of sum_T min-edge-weight over vertex-disjoint clique families.

    Branch-and-bound (HiGHS MILP, zero gap) within the MATCHING_BUDGET clique
    budget; larger instances get a ResourceError suggesting a greedy bound.
    Besides the vertex rows A_vert x <= 1 the MILP carries the cardinality
    row sum_T x_T <= floor(n/t) when t does not divide n (see the module
    docstring): it cuts off no vertex-disjoint family, only fractional
    packings of up to n/t cliques.  When t divides n the row is the vertex
    rows summed and divided by t, so it is left out.

    The value returned is witnessed: the solver's x is rounded to a 0/1
    family, checked vertex-disjoint, and its clique values summed; a rounded
    family that overlaps raises NumericalError.
    """
    if cliques is None:
        cliques = enumerate_cliques(wg.base, t)
    N = len(cliques.cliques)
    if N == 0:
        return 0.0
    if N > MATCHING_BUDGET:
        raise ResourceError(
            f"{N} cliques exceed the exact-matching budget {MATCHING_BUDGET}; "
            "use a greedy lower bound instead",
            partial=None,
        )
    a_vert, a_pair, caps = _instance(wg, cliques)
    # each clique's value is the least capacity over its column of A_pair
    values = np.minimum.reduceat(caps[a_pair.indices], a_pair.indptr[:-1])
    rows, upper = a_vert, np.ones(wg.n)
    if wg.n % cliques.t:
        rows = sparse.vstack([a_vert, np.ones((1, N))], format="csc")
        upper = np.append(upper, wg.n // cliques.t)
    res = milp(
        c=-values,
        constraints=LinearConstraint(rows, -np.inf, upper),
        integrality=np.ones(N),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise NumericalError(f"exact matching solve failed: {res.message}")
    x = np.rint(res.x)
    if np.any(a_vert @ x > 1):
        raise NumericalError("exact matching solve returned overlapping cliques")
    return float(values @ x)


def _vertex_loads(cliques: CliqueSet, fvec: np.ndarray) -> dict:
    return dict(enumerate((cliques.A_vert @ fvec).tolist()))


def has_fractional_factor(
    wg: WeightedGraph, t: int, tol: float = TOL_DEFAULT, cliques: CliqueSet | None = None
) -> FactorCert:
    """Decide whether a fractional K_t-factor exists and, if so, return one.

    One homogenized LP (see the module docstring), solved on the vertex rows
    plus whichever pair rows turn out to bind, gives both the verdict and
    the witness f, whose vertex loads are 1 and whose max_T f(T) is least.
    With a factor, t_star = sum f: a primal-feasible value, equal to |V|/t up
    to rounding since every clique spreads its weight over t unit loads.
    Without one, a single primal solve gives t_star and the per-vertex loads
    of an optimal fractional matching; the note marks a t_star within tol of
    |V|/t whose unit-load programme is infeasible all the same.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if cliques is None:
        cliques = enumerate_cliques(wg.base, t)
    n = wg.n
    if n == 0:
        return FactorCert(True, 0.0, 0.0, {}, f={})
    fvec = _min_max_factor(wg, cliques)
    if fvec is not None:
        ts = _within_bound(float(fvec.sum()), n, t, tol)
        f = {cliques.cliques[j]: float(fvec[j]) for j in np.flatnonzero(fvec > 0)}
        return FactorCert(True, ts, n / t - ts, _vertex_loads(cliques, fvec), f=f)
    sol = solve_primal(wg, cliques, tol)
    ts = _within_bound(sol.objective, n, t, tol)
    note = ""
    if ts >= n / t - tol:
        note = "t_star within tol of |V|/t but the unit-load programme is infeasible"
    loads = _vertex_loads(cliques, cliques.vector(sol.f))
    return FactorCert(False, ts, n / t - ts, loads, f=None, note=note)


def _min_max_factor(wg: WeightedGraph, cliques: CliqueSet) -> np.ndarray | None:
    """The factor minimizing max_T f(T), or None when no factor exists.

    Solves max s s.t. A_vert y = s 1, A_pair y <= s w, 0 <= y <= 1, s >= 0
    by row generation: the first solve carries the vertex rows only, and
    each later one adds every pair row the last solution violates by more
    than PAIR_ROW_TOL, until none is violated.  Every round solves a
    relaxation of the full LP, so its s* bounds the full one from above; the
    last round's solution is feasible for the full LP, hence optimal for it.
    Rows with w(uv) >= 1 never enter, being implied by the vertex rows:
    A_pair[uv] y <= A_vert[u] y = s.  Each round adds a row, so there are at
    most m + 1 solves.

    A factor has f(T) <= 1 for every T, because f(T) is part of a vertex load
    that equals 1; so y = f, s = 1 is feasible and s* >= 1 whenever a factor
    exists.  Any s > 0 makes y / s a factor, so without one s* = 0, and a
    relaxation with s* <= 1/2 already proves that.  The threshold 1/2 sits
    between the two cases, far from solver tolerance on either side.  Each
    round tries interior point first (fast on this degenerate objective at
    scale), simplex as fallback.
    """
    N = len(cliques.cliques)
    if N == 0:
        return None
    a_vert, a_pair, caps = _instance(wg, cliques)
    n = a_vert.shape[0]
    # variables: y_0..y_{N-1}, s; a pair row reads A_pair[uv] y - w(uv) s <= 0
    A_eq = sparse.hstack([a_vert, sparse.csc_matrix(-np.ones((n, 1)))], format="csc")
    pair_rows = sparse.hstack([a_pair, sparse.csc_matrix(-caps[:, None])], format="csr")
    c = np.zeros(N + 1)
    c[-1] = -1.0
    bounds = np.column_stack([np.zeros(N + 1), np.append(np.ones(N), np.inf)])
    active = np.zeros(len(caps), dtype=bool)
    while True:
        A_ub = pair_rows[active]
        for method in ("highs-ipm", "highs"):
            res = linprog(
                c,
                A_ub=A_ub,
                b_ub=np.zeros(A_ub.shape[0]),
                A_eq=A_eq,
                b_eq=np.zeros(n),
                bounds=bounds,
                method=method,
            )
            if res.status == 0:
                break
        else:
            raise NumericalError(f"factor solve failed: {res.message}")
        x = np.clip(res.x, 0.0, None)
        if x[-1] <= 0.5:
            return None
        violated = ~active & (pair_rows @ x > PAIR_ROW_TOL)
        if not violated.any():
            return x[:N] / x[-1]
        active |= violated


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
            "t_star": self.t_star,
            "integral_value": self.integral_value,
            "i_pass": self.i_pass,
            "ii_bound": self.ii_bound,
            "ii_pass": self.ii_pass,
            "ii_equality_case": self.ii_equality_case,
            "iii_subset": list(self.iii_subset),
            "iii_restricted_value": self.iii_restricted_value,
            "iii_induced_t_star": self.iii_induced_t_star,
            "iii_feasible": self.iii_feasible,
            "iii_pass": self.iii_pass,
            "v1_sizes": {f"{thr:.0e}": sz for thr, sz in sorted(self.v1_sizes.items())},
            "iv_threshold": self.iv_threshold,
            "iv_pass": self.iv_pass,
            "all_pass": self.all_pass,
        }


def check_prop3(
    wg: WeightedGraph,
    t: int,
    tol: float = TOL_DEFAULT,
    seed: int = 0,
    cliques: CliqueSet | None = None,
    primal: PrimalSolution | None = None,
    dual: DualSolution | None = None,
    cert: FactorCert | None = None,
) -> Prop3Report:
    """Verify the four duality facts tying t*, t(G,w), |V|/t and the dual together.

    (i) t* >= exact integral matching value; (ii) t* <= |V|/t, and equality
    certifies a fractional factor; (iii) the dual restricted to a random
    subset U stays feasible for G[U] and upper-bounds t*(G[U],w);
    (iv) t* >= |V_1|/t for V_1 = {v : g(v) > 10 tol}, with |V_1| also
    reported for a sweep of thresholds since the positivity cliff is
    tolerance-dependent in floating point.

    A caller that already holds the clique set, the primal and dual
    solutions or the factor certificate of (wg, t, tol) passes them in;
    whatever is missing is solved here.  t* is the objective t_star would
    take: the primal's when it has no more variables than the dual.
    """
    if cliques is None:
        cliques = enumerate_cliques(wg.base, t)
    n = wg.n
    N = len(cliques.cliques)
    if dual is None:
        dual = solve_dual(wg, cliques, tol)
    if N == 0:
        ts = 0.0
    elif N <= n + wg.base.m:
        if primal is None:
            primal = solve_primal(wg, cliques, tol)
        ts = _within_bound(primal.objective, n, t, tol)
    else:
        ts = _within_bound(dual.objective, n, t, tol)
    integral = integral_matching_value(wg, t, cliques)
    i_pass = ts >= integral - tol
    ii_bound = n / t
    ii_pass = ts <= ii_bound + tol
    ii_equality_case = False
    if abs(ts - ii_bound) <= tol:
        if cert is None:
            cert = has_fractional_factor(wg, t, tol, cliques)
        ii_equality_case = bool(cert.has_factor)
        ii_pass = ii_pass and ii_equality_case

    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, n + 1)) if n else 0
    subset = tuple(int(x) for x in np.sort(rng.permutation(n)[:size]))
    sub_wg, verts = induced_weighted(wg, subset)
    sub_cliques = enumerate_cliques(sub_wg.base, t)
    g_sub = np.array([dual.g[v] for v in verts])
    h_sub = np.array([dual.h[(verts[a], verts[b])] for (a, b) in sub_wg.base.edges])
    a_vert, a_pair, caps = _instance(sub_wg, sub_cliques)
    restricted_value = g_sub.sum() + h_sub @ caps
    feasible = bool(np.all(a_vert.T @ g_sub + a_pair.T @ h_sub >= 1 - tol))
    induced_ts = t_star(sub_wg, t, tol, sub_cliques)
    iii_pass = feasible and restricted_value >= induced_ts - tol

    thresholds = (tol, 10 * tol, 100 * tol, 1e-3)
    v1_sizes = {thr: sum(1 for v in range(n) if dual.g[v] > thr) for thr in thresholds}
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

    def to_dict(self) -> dict:
        return {
            "worst_vertex_slack": self.worst_vertex_slack,
            "worst_edge_slack": self.worst_edge_slack,
            "worst_clique_slack": self.worst_clique_slack,
            "checked_vertices": self.checked_vertices,
            "checked_edges": self.checked_edges,
            "checked_cliques": self.checked_cliques,
            "all_pass": self.all_pass,
        }


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
    fvec = cliques.vector(p.f)
    g = np.array([d.g[v] for v in range(wg.n)])
    h = np.array([d.h[e] for e in wg.base.edges])
    worst_v, n_v = _worst(g > thr, a_vert @ fvec - 1.0)
    worst_e, n_e = _worst(h > thr, a_pair @ fvec - caps)
    worst_t, n_t = _worst(fvec > thr, a_vert.T @ g + a_pair.T @ h - 1.0)
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


@dataclass(frozen=True)
class DriverReport:
    """Factor driver report: hypothesis audits next to the LP verdict.

    The hypotheses are sufficient, not necessary, so hyp_* can fail while the
    factor exists; reporting both sides makes that visible.
    """

    alpha: float
    D: int
    rich_edge_count: int
    hyp_family_pass: bool
    hyp_family_worst_vertex: int
    hyp_family_target: int
    hyp_span_pass: bool
    hyp_span_failures: int
    hyp_span_size: int
    hyp_propP_pass: bool
    hyp_propP_failures: int
    cert: FactorCert

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "D": self.D,
            "rich_edge_count": self.rich_edge_count,
            "hyp_family_pass": self.hyp_family_pass,
            "hyp_family_worst_vertex": self.hyp_family_worst_vertex,
            "hyp_family_target": self.hyp_family_target,
            "hyp_span_pass": self.hyp_span_pass,
            "hyp_span_failures": self.hyp_span_failures,
            "hyp_span_size": self.hyp_span_size,
            "hyp_propP_pass": self.hyp_propP_pass,
            "hyp_propP_failures": self.hyp_propP_failures,
            "cert": self.cert.to_dict(),
        }


def corollary_ff_driver(
    wg: WeightedGraph,
    t: int,
    alpha: float,
    D: int,
    tol: float = TOL_DEFAULT,
    trials: int = 20,
    seed: int = 0,
) -> DriverReport:
    """Audit the rich-subgraph hypotheses, then test the factor regardless.

    H is the spanning subgraph of alpha-rich edges.  Hypotheses: (i) every
    vertex carries a family of >= D/(t-1) rich K_t copies overlapping only at
    the vertex; (ii) every ceil(0.11 n/t) vertices span a K_t in H;
    (iii) H has property P(t, D, 0.2n, n), sampled.
    """
    from .cliques import default_span_size, property_P_audit, span_clique_audit, vertex_family

    from .graphs import rich_subgraph

    if not (alpha < 1 / (7 * t * t)):
        raise InputError(f"alpha must be < 1/(7 t^2) = {1 / (7 * t * t):.6f}, got {alpha}")
    if not (3 <= D <= wg.n / 2):
        raise InputError(f"need 3 <= D <= n/2, got D={D}, n={wg.n}")
    H = rich_subgraph(wg, alpha)
    family_target = D // (t - 1)
    worst_vertex = -1
    family_pass = True
    for v in range(wg.n):
        fam = vertex_family(H, None, v, t, family_target)
        if len(fam.cliques) < family_target:
            family_pass = False
            worst_vertex = v
            break
    span_size = default_span_size(wg.n, t)
    span_failures, _ = span_clique_audit(H, t, span_size, trials, seed)
    propP = property_P_audit(H, t, D, int(0.2 * wg.n), trials, seed + 1)
    cert = has_fractional_factor(wg, t, tol)
    return DriverReport(
        alpha=alpha,
        D=D,
        rich_edge_count=H.m,
        hyp_family_pass=family_pass,
        hyp_family_worst_vertex=worst_vertex,
        hyp_family_target=family_target,
        hyp_span_pass=span_failures == 0,
        hyp_span_failures=span_failures,
        hyp_span_size=span_size,
        hyp_propP_pass=propP.failures == 0,
        hyp_propP_failures=propP.failures,
        cert=cert,
    )
