"""Fractional K_t-matching LP, its dual, and fractional-factor certification.

The primal maximizes sum f(T) over clique weights f >= 0 subject to vertex
loads <= 1 and pair loads <= w(uv); the dual minimizes sum g(v) + sum
h(uv) w(uv) subject to sum_{v in T} g(v) + sum_{uv in E(T)} h(uv) >= 1 per
clique.  Both share the optimum t*(G,w).  Solves go through HiGHS, which is
deterministic for a fixed instance; whichever of the two forms has fewer
variables is used when only the optimum value is needed.

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
none within NEWTON_STEPS steps, one primal solve decides: t* < |V|/t - tol
refutes a factor, and otherwise the primal optimum, whose loads must then
all be 1, is the witness, a basic solution rather than a spread one.

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
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

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
    as arrays: ids are the ascending clique ids (rows of the certified
    clique set) with f > 0, weights their f and members their vertex rows.
    per_vertex_load[v] is the load on vertex v (length n), of the witness or,
    without a factor, of the primal optimum.  slack = |V|/t - t_star.
    """

    has_factor: bool
    t_star: float
    slack: float
    per_vertex_load: np.ndarray
    ids: np.ndarray | None = None
    weights: np.ndarray | None = None
    members: np.ndarray | None = None
    note: str = ""

    def to_dict(self, tol: float = TOL_DEFAULT) -> dict:
        """Vertex loads keyed by str(v); the witness's cliques above tol as "a b c" -> f."""
        f = None
        if self.ids is not None:
            keep = self.weights > tol
            rows = (" ".join(map(str, row)) for row in self.members[keep].tolist())
            f = dict(zip(rows, self.weights[keep].tolist()))
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


def solve_primal(wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> PrimalSolution:
    """Maximize sum f(T) subject to vertex loads <= 1, pair loads <= w."""
    if tol <= 0:
        raise InputError("tol must be positive")
    N = len(cliques)
    if N == 0:
        return PrimalSolution(f=np.zeros(0), objective=0.0)
    a_vert, a_pair, caps = _instance(wg, cliques)
    A = sparse.vstack([a_vert, a_pair], format="csc")
    b = np.concatenate([np.ones(wg.n), caps])
    res = linprog(-np.ones(N), A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise NumericalError(f"primal solve failed: {res.message}")
    return PrimalSolution(f=np.maximum(res.x, 0.0), objective=float(-res.fun))


def solve_dual(wg: WeightedGraph, cliques: CliqueSet, tol: float = TOL_DEFAULT) -> DualSolution:
    """Minimize sum g + sum h*w subject to per-clique covers >= 1, g,h >= 0."""
    if tol <= 0:
        raise InputError("tol must be positive")
    n = wg.n
    if len(cliques) == 0:
        return DualSolution(g=np.zeros(n), h=np.zeros(wg.base.m), objective=0.0)
    a_vert, a_pair, caps = _instance(wg, cliques)
    # dual variables: g (n entries) then h (m entries); constraints transpose
    A = sparse.hstack([a_vert.T, a_pair.T], format="csc")
    c = np.concatenate([np.ones(n), caps])
    res = linprog(c, A_ub=-A, b_ub=-np.ones(len(cliques)), bounds=(0, None), method="highs")
    if res.status != 0:
        raise NumericalError(f"dual solve failed: {res.message}")
    return DualSolution(g=res.x[:n], h=res.x[n:], objective=float(res.fun))


def t_star(
    wg: WeightedGraph, t: int, tol: float = TOL_DEFAULT, cliques: CliqueSet | None = None
) -> float:
    """Optimum of the fractional K_t-matching LP.

    Value only: solves whichever of primal/dual has fewer variables (they
    agree by strong duality).  Guaranteed <= |V|/t + tol.
    """
    if cliques is None:
        cliques = enumerate_cliques(wg.base, t)
    N = len(cliques)
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
    N = len(cliques)
    if N == 0:
        return 0.0
    if N > MATCHING_BUDGET:
        raise ResourceError(
            f"{N} cliques exceed the exact-matching budget {MATCHING_BUDGET}; "
            "use a greedy lower bound instead",
            partial=None,
        )
    a_vert, _, caps = _instance(wg, cliques)
    values = cliques.least_weight(caps)
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


def has_fractional_factor(
    wg: WeightedGraph,
    t: int,
    tol: float = TOL_DEFAULT,
    cliques: CliqueSet | None = None,
    primal: PrimalSolution | None = None,
) -> FactorCert:
    """Decide whether a fractional K_t-factor exists and, if so, return one.

    The witness is the maximum-entropy factor (see the module docstring).
    When Newton reaches none, the primal optimum decides; a caller holding
    the primal of (wg, t, tol) passes it in.  With a factor t_star = sum f;
    without, the loads are an optimal fractional matching's, and the note
    marks a t_star within tol of |V|/t with an infeasible unit-load programme.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if cliques is None:
        cliques = enumerate_cliques(wg.base, t)
    n = wg.n
    if n == 0:
        return FactorCert(True, 0.0, 0.0, np.zeros(0), **_support(cliques, np.zeros(0)))
    caps = _instance(wg, cliques)[2]
    fvec, note = _max_entropy_factor(cliques, caps, tol), ""
    if fvec is None or not _is_factor(cliques, caps, fvec, tol):
        if primal is None:
            primal = solve_primal(wg, cliques, tol)
        ts = _within_bound(primal.objective, n, t, tol)
        fvec = primal.f
        if ts < n / t - tol or not _is_factor(cliques, caps, fvec, tol):
            if ts >= n / t - tol:
                note = "t_star within tol of |V|/t but the unit-load programme is infeasible"
            return FactorCert(False, ts, n / t - ts, cliques.A_vert @ fvec, note=note)
        note = "primal optimum: Newton scaling reached no factor, so the witness is not spread"
    ts = _within_bound(float(fvec.sum()), n, t, tol)
    loads = cliques.A_vert @ fvec
    return FactorCert(True, ts, n / t - ts, loads, **_support(cliques, fvec), note=note)


def _support(cliques: CliqueSet, fvec: np.ndarray) -> dict:
    ids = np.flatnonzero(fvec > 0)
    return {"ids": ids, "weights": fvec[ids], "members": cliques.members[ids]}


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
    live = cliques.least_weight(caps) > 0
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
            new_dual = new_f.sum() - new_phi.sum() + caps @ new_mu
            moved = grad @ np.concatenate([new_phi - phi, new_mu[S] - mu[S]])
            if new_dual <= dual + ARMIJO * moved or -(grad @ step) <= ROUNDING * (1 + abs(dual)):
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
    N = len(cliques)
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
            cert = has_fractional_factor(wg, t, tol, cliques, primal=primal)
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
    restricted_value = g_sub.sum() + h_sub @ caps
    feasible = bool(np.all(a_vert.T @ g_sub + a_pair.T @ h_sub >= 1 - tol))
    induced_ts = t_star(sub_wg, t, tol, sub_cliques)
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
