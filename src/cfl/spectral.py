"""Second adjacency eigenvalue, expander-mixing audits, and hypothesis thresholds.

lambda here always means max_{i>=2} |mu_i| for the adjacency spectrum
mu_1 >= ... >= mu_n of a d-regular graph (mu_1 = d).  Every path works from
one sparse CSR adjacency.  Up to DENSE_LIMIT vertices it is densified for the
full symmetric eigendecomposition, the reference path: scipy.linalg.eigh's
divide-and-conquer driver, with the witness residual taken against the CSR
matrix.  Above it, implicitly restarted Lanczos (ARPACK, via eigsh) finds
both ends of the spectrum of A - (d/n) J, and each end is certified by its
residual against A.  The mixing audit counts edges between sampled subsets
with the same matrix.

Dense linear algebra here, as everywhere in cfl, goes through scipy's LAPACK,
never numpy's: numpy and scipy each load their own multithreaded OpenBLAS,
and a numpy LAPACK call leaves that pool's workers spinning against scipy's,
which slows the Cholesky factorisations of factor_lp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import InputError, NumericalError
from .graphs import Graph, regularity

DENSE_LIMIT = 2000
# Strict EML inequality is relaxed by this much; covers the degenerate
# |A| = 0 bound 0 < 0 and float noise in the counted side.
EML_SLACK = 1e-9


@dataclass(frozen=True)
class SpectralCert:
    """Certified second eigenvalue of a d-regular graph.

    mu2 and mu_n witness both ends of the spectrum (ties in |.| are resolved
    by reporting the max, which is the only quantity any statement consumes).
    On the lanczos path an end whose residual exceeds tol is None; residual
    is that of the eigenpair attaining lambda.  lambda_equals_d flags
    disconnected or bipartite inputs; it is not an error.
    """

    n: int
    d: int
    lam: float
    method: str  # {dense_eig, lanczos}
    residual: float
    mu2: float | None
    mu_n: float | None
    lambda_equals_d: bool
    tol: float

    def to_dict(self) -> dict:
        out = dict(vars(self))
        out["lambda"] = out.pop("lam")
        return out


@dataclass(frozen=True)
class MixingAuditReport:
    samples: int
    max_violation: float
    violated: bool
    worst_a_size: int
    worst_b_size: int


def adjacency_matrix(g: Graph) -> sparse.csr_matrix:
    """The symmetric 0/1 adjacency matrix in CSR form, one entry per edge end."""
    u, v = g.edge_array.T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return sparse.csr_matrix((np.ones(2 * g.m), (rows, cols)), shape=(g.n, g.n))


def _require_regular(g: Graph) -> int:
    info = regularity(g)
    if not info.is_regular:
        raise InputError(
            f"graph is not regular (degrees {info.min_deg}..{info.max_deg}); "
            "lambda-based statements assume regularity"
        )
    return info.d


def second_eigenvalue(g: Graph, tol: float = 1e-8, method: str | None = None) -> SpectralCert:
    """lambda = max_{i>=2} |mu_i|, with an eigenpair residual certificate.

    method defaults to dense_eig for n <= DENSE_LIMIT, lanczos above.
    """
    if not 0 < tol < np.inf:
        raise InputError(f"tol must be finite and positive, got {tol}")
    d = _require_regular(g)
    if method is None:
        method = "dense_eig" if g.n <= DENSE_LIMIT else "lanczos"
    if method not in ("dense_eig", "lanczos"):
        raise InputError(f"unknown method {method!r}")
    if g.n <= 1 or d == 0:
        return SpectralCert(g.n, d, 0.0, method, 0.0, 0.0, 0.0, d == 0 and g.n > 1, tol)
    a = adjacency_matrix(g)
    if method == "dense_eig":
        lam, residual, mu2, mun = _dense_lambda(a, d)
    else:
        lam, residual, mu2, mun = _lanczos_lambda(a, d, tol)
    return SpectralCert(
        n=g.n,
        d=d,
        lam=lam,
        method=method,
        residual=residual,
        mu2=mu2,
        mu_n=mun,
        lambda_equals_d=bool(lam >= d - 1e-9),
        tol=tol,
    )


def _dense_lambda(a: sparse.csr_matrix, d: int):
    """lambda from the full eigendecomposition of the densified adjacency a.

    The witness eigenpair's residual is taken against a itself, in CSR form.
    """
    vals, vecs = linalg.eigh(a.toarray(), driver="evd")  # ascending
    # drop one copy of the Perron value d (largest); the rest is the lambda pool
    mu_sorted_desc = vals[::-1]
    mu2 = float(mu_sorted_desc[1])
    mun = float(mu_sorted_desc[-1])
    pool = np.abs(mu_sorted_desc[1:])
    k = int(np.argmax(pool))
    lam = float(pool[k])
    # witness eigenpair: mu_sorted_desc[1:][k] sits at vals[len(vals)-2-k]
    j = len(vals) - 2 - k
    v = vecs[:, j]
    residual = float(linalg.norm(a @ v - vals[j] * v))
    return lam, residual, mu2, mun


def _lanczos_lambda(a: sparse.csr_matrix, d: int, tol: float):
    """Both ends of the spectrum of B = A - (d/n) J by implicitly restarted Lanczos.

    B keeps mu_2..mu_n and sends the Perron vector to 0, so its two ends are
    the candidates for lambda.  Each end theta is witnessed by its residual
    ||A u - theta u|| against A itself: an end whose Ritz vector is the
    Perron vector (theta ~ 0, as on K_n where every mu_i < 0 for i >= 2) has
    residual ~d, is reported as None and takes no part in lambda.
    """
    n = a.shape[0]
    if n < 3:
        raise InputError(f"the lanczos method needs at least 3 vertices, got {n}")
    ones = np.ones(n) / math.sqrt(n)
    b = LinearOperator((n, n), matvec=lambda x: a @ x - d * (ones @ x) * ones, dtype=float)
    rng = np.random.default_rng(0xC0FFEE)  # fixed internal seed: deterministic path
    v0 = rng.standard_normal(n)
    v0 -= (ones @ v0) * ones
    try:
        vals, vecs = eigsh(b, k=2, which="BE", tol=0, v0=v0)  # ascending: low end, high end
    except ArpackNoConvergence as exc:
        raise NumericalError(f"Lanczos did not converge: {exc}") from exc
    ends = []
    for theta, u in zip(vals.tolist(), vecs.T):
        residual = float(linalg.norm(a @ u - theta * u))
        ends.append((theta, residual) if residual <= tol else None)
    witnessed = [e for e in ends if e is not None]
    if not witnessed:
        raise NumericalError(f"no end of the spectrum has an A-residual within {tol}")
    theta, residual = max(witnessed, key=lambda e: abs(e[0]))
    mun, mu2 = (None if e is None else e[0] for e in ends)
    return abs(theta), residual, mu2, mun


def mixing_audit(g: Graph, cert: SpectralCert, num_samples: int, seed: int) -> MixingAuditReport:
    """Sample subset pairs and check |e(A,B) - (d/n)|A||B|| < lambda sqrt(|A||B|).

    e(A,B) = 1_A^T A 1_B counts ordered pairs (a, b) with ab an edge, so an
    edge with both ends in both A and B counts twice.  Subset sizes are
    uniform on [1, n]; subsets uniform given the size.  The strict inequality
    is relaxed by EML_SLACK; max_violation is the raw maximum of
    |e - expected| - lambda*sqrt(|A||B|) over the samples.
    """
    if cert.n != g.n:
        raise InputError("certificate does not match graph")
    if num_samples < 1:
        raise InputError("num_samples must be >= 1")
    n, d, lam = g.n, cert.d, cert.lam
    rng = np.random.default_rng(seed)
    a = adjacency_matrix(g)
    worst = -math.inf
    worst_sizes = (0, 0)
    batch = 512
    done = 0
    while done < num_samples:
        k = min(batch, num_samples - done)
        sa = rng.integers(1, n + 1, size=k)
        sb = rng.integers(1, n + 1, size=k)
        ia = np.zeros((k, n))
        ib = np.zeros((k, n))
        for i in range(k):
            ia[i, rng.permutation(n)[: sa[i]]] = 1.0
            ib[i, rng.permutation(n)[: sb[i]]] = 1.0
        counts = np.einsum("ij,ji->i", ia, a @ ib.T)
        excess = np.abs(counts - (d / n) * sa * sb) - lam * np.sqrt(sa * sb)
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst = float(excess[j])
            worst_sizes = (int(sa[j]), int(sb[j]))
        done += k
    return MixingAuditReport(
        samples=num_samples,
        max_violation=worst,
        violated=bool(worst > EML_SLACK),
        worst_a_size=worst_sizes[0],
        worst_b_size=worst_sizes[1],
    )


def lambda_floor_check(cert: SpectralCert, tol: float = 1e-9):
    """lambda >= sqrt(d/2) whenever d <= n/2; None when not applicable."""
    if cert.d > cert.n / 2:
        return None
    return bool(cert.lam >= math.sqrt(cert.d / 2) - tol)


@dataclass(frozen=True)
class HypothesisReport:
    """Evaluation of the eigenvalue condition and the two degree thresholds.

    branch is one of {dense_branch, sparse_branch, both, fails}; the lambda
    condition lambda <= c d^{t-1}/n^{t-2} enters every branch.  The floor
    d >= n^{1-1/(2t-3)} / 2^{1/(2t-3)} is reported alongside but does not
    gate anything.
    """

    t: int
    c: float
    lambda_bound: float
    lambda_ok: bool
    beta: float
    delta: float
    dense_degree_threshold: float
    dense_degree_ok: bool
    sparse_degree_threshold: float
    sparse_degree_ok: bool
    branch: str
    degree_floor: float
    degree_floor_ok: bool


def eigenvalue_constant(t: int) -> float:
    """c = 1/(50 t 4^{t-2}); t=3 gives 1/600."""
    return 1.0 / (50 * t * 4 ** (t - 2))


def beta_exponent(t: int) -> float:
    return 1.0 / ((4 * t * t + 1) * (2 * t - 3))


def delta_exponent(t: int) -> float:
    return (4 * t * t) / ((4 * t * t + 1) * (2 * t - 3))


def hypothesis_check(cert: SpectralCert, t: int) -> HypothesisReport:
    """Classify which branch's hypotheses hold for (n, d, lambda) at this t."""
    if t < 3:
        raise InputError(f"t must be >= 3, got {t}")
    n, d, lam = cert.n, cert.d, cert.lam
    c = eigenvalue_constant(t)
    beta = beta_exponent(t)
    delta = delta_exponent(t)
    lambda_bound = c * d ** (t - 1) / n ** (t - 2) if n > 0 else 0.0
    lambda_ok = lam <= lambda_bound
    dense_thr = n ** (1 - 1 / (2 * t - 3) + beta)
    sparse_thr = n ** (1 - delta)
    dense_ok = d >= dense_thr
    sparse_ok = d <= sparse_thr
    if lambda_ok and dense_ok and sparse_ok:
        branch = "both"
    elif lambda_ok and dense_ok:
        branch = "dense_branch"
    elif lambda_ok and sparse_ok:
        branch = "sparse_branch"
    else:
        branch = "fails"
    # floor from the proof: lambda >= sqrt(d/2) and lambda <= d^{t-1}/n^{t-2}
    # force d^{2t-3} >= n^{2t-4}/2
    floor = n ** (1 - 1 / (2 * t - 3)) / 2 ** (1 / (2 * t - 3))
    return HypothesisReport(
        t=t,
        c=c,
        lambda_bound=lambda_bound,
        lambda_ok=bool(lambda_ok),
        beta=beta,
        delta=delta,
        dense_degree_threshold=float(dense_thr),
        dense_degree_ok=bool(dense_ok),
        sparse_degree_threshold=float(sparse_thr),
        sparse_degree_ok=bool(sparse_ok),
        branch=branch,
        degree_floor=float(floor),
        degree_floor_ok=bool(d >= floor),
    )
