"""Second adjacency eigenvalue, expander-mixing audits, and hypothesis thresholds.

lambda here always means max_{i>=2} |mu_i| for the adjacency spectrum
mu_1 >= ... >= mu_n of a d-regular graph (mu_1 = d).  Every path works from
one sparse CSR adjacency.  Up to DENSE_LIMIT vertices it is densified for the
full symmetric eigendecomposition, the reference path: scipy.linalg.eigh's
divide-and-conquer driver, with the witness residual taken against the CSR
matrix.  Above it, implicitly restarted Lanczos (ARPACK, via eigsh) finds
both ends of the spectrum of A - (d/n) J, and each end is certified by its
residual against A.  ARPACK (scipy.sparse.linalg) is imported on the first
Lanczos solve, not with cfl.  The mixing audit draws its subsets in batches,
as the bool columns of an n x k array: column j holds the vertices whose
53-bit key (a random byte, refined by 45 more bits only on a tie) falls
below a 53-bit threshold Q_j, with empty columns drawn again.  Edges between
the subsets of a pair are counted in int16 by the integer adjacency.

Dense linear algebra here, as everywhere in cfl, goes through scipy's LAPACK,
never numpy's, on one OpenBLAS thread: second_eigenvalue calls blas.one_thread
right before either solve, and the count stays at 1 after it.  The
Lanczos path sums where it would take a dot product, which numpy's OpenBLAS
splits over its threads above 10,000 entries.  So lambda's bits do not follow
the core count.  The dense eigh takes 0.051 s at n = 600 and 1.41 s at
n = 2000 on a 2-core box, against 0.042 and 0.87 s on two threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse

from . import blas
from .errors import InputError, NumericalError
from .graphs import Graph, regularity

DENSE_LIMIT = 2000
# Strict EML inequality is relaxed by this much; covers the degenerate
# |A| = 0 bound 0 < 0 and float noise in the counted side.
EML_SLACK = 1e-9
# Entries per n x k indicator array in a mixing-audit batch.  The two arrays
# of a batch are bool, one byte an entry.  Drawing B's holds A's array, B's
# bytes, B's array and its tie mask, so a batch peaks near
# 4 * MIXING_BATCH_ENTRIES bytes (16.4 MiB traced at n = 8192).  The counts
# take B's indicators and their neighbour counts as int16 (int32 when
# d > 32767), MIXING_BLOCK_ENTRIES entries at a time, 1 MiB each in int16;
# 0.25 to 1 MiB made the audit on rr(2100,20) fastest.
MIXING_BATCH_ENTRIES = 2**22
MIXING_BLOCK_ENTRIES = MIXING_BATCH_ENTRIES // 8


# eigsh stays an attribute of this module, looked up at each call, so that a
# caller can wrap or replace it.
def eigsh(*args, **kwargs):
    """scipy.sparse.linalg.eigsh, imported on the first call."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh

    return arpack_eigsh(*args, **kwargs)


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


def adjacency_matrix(g: Graph, dtype: type = np.float64) -> sparse.csr_matrix:
    """The symmetric 0/1 adjacency matrix in CSR form, one entry per edge end."""
    u, v = g.edge_array.T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return sparse.csr_matrix((np.ones(2 * g.m, dtype), (rows, cols)), shape=(g.n, g.n))


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
    blas.one_thread()
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
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

    n = a.shape[0]
    if n < 3:
        raise InputError(f"the lanczos method needs at least 3 vertices, got {n}")
    root = math.sqrt(n)
    ones = np.ones(n) / root
    # x.sum() / root is ones @ x without numpy's BLAS, whose dot product
    # splits long vectors over its threads and so sums them in another order
    b = LinearOperator((n, n), matvec=lambda x: a @ x - d * (x.sum() / root) * ones, dtype=float)
    rng = np.random.default_rng(0xC0FFEE)  # fixed internal seed: deterministic path
    v0 = rng.standard_normal(n)
    v0 -= (v0.sum() / root) * ones
    # a spectrum with many repeated values (rr(n,2): a union of cycles) can
    # stall ARPACK's default Krylov space; one retry takes a larger one
    for ncv in (None, min(n, 40)):
        try:
            vals, vecs = eigsh(b, k=2, which="BE", tol=0, v0=v0, ncv=ncv)  # ascending: low, high
            break
        except ArpackNoConvergence as exc:
            stalled = exc
    else:
        raise NumericalError(f"Lanczos did not converge: {stalled}") from stalled
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


def _mixing_batch_width(n: int) -> int:
    """Subset pairs per mixing-audit batch: at most 512, within the entry budget."""
    return max(1, min(512, MIXING_BATCH_ENTRIES // n))


def _draw_subsets(rng: np.random.Generator, n: int, k: int):
    """k random non-empty subsets of range(n), n >= 1, as bool columns.

    Column j is {i : key_ij < Q_j} for one threshold Q_j and n keys, all
    uniform 53-bit integers: key_ij / 2^53 < q_j = Q_j / 2^53 on the 2^-53
    grid of uniforms.  Given q_j its size is Binomial(n, q_j), so
    P(size = s) = C(n,s) * integral_0^1 q^s (1-q)^(n-s) dq = 1/(n+1) for every
    s in 0..n, and since the keys are exchangeable the subset is uniform given
    its size.  An empty column (probability 1/(n+1)) is drawn again, which
    makes the size uniform on [1, n].  The grid is the only approximation:
    P(key < Q) is q exactly and the integral becomes a 2^53-point sum within
    2^-52 of it.  The keys' low 45 bits are drawn only where the top byte
    ties Q_j's, which leaves every comparison that of whole keys.
    Returns the (n, k) array and its column sums, the subset sizes (int64).
    """
    ind = _threshold_columns(rng, n, k)
    sizes = ind.sum(axis=0)
    empty = np.flatnonzero(sizes == 0)
    while empty.size:
        cols = _threshold_columns(rng, n, empty.size)
        ind[:, empty] = cols
        sizes[empty] = cols.sum(axis=0)
        empty = empty[sizes[empty] == 0]
    return ind, sizes


def _threshold_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """The (n, k) bool array key_ij < Q_j for uniform 53-bit keys and thresholds.

    After the k thresholds come the keys' top bytes B_ij, in row order, eight
    to a raw 64-bit word read little-endian (a bounded uint8 draw is ~3x
    slower).  B_ij alone decides unless it ties Q_j's top byte (1 in 256):
    only the ties draw the key's low 45 bits, in row order, to compare.
    """
    q = rng.integers(2**53, size=k, dtype=np.uint64)
    top = (q >> np.uint64(45)).astype(np.uint8)
    words = rng.integers(2**64, size=-(-n * k // 8), dtype=np.uint64).astype("<u8", copy=False)
    keys = words.view(np.uint8)[: n * k].reshape(n, k)
    ind = keys < top
    ties = np.flatnonzero(keys == top)  # row order; np.nonzero is slower
    low = q[ties % k] & np.uint64(2**45 - 1)
    ind.reshape(-1)[ties] = rng.integers(2**45, size=ties.size, dtype=np.uint64) < low
    return ind


def _count_dtype(d: int) -> type:
    """The integer type of the counts' products: a count of neighbours is <= d."""
    return np.int16 if d <= np.iinfo(np.int16).max else np.int32


def _pair_counts(a: sparse.csr_matrix, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """e(A_j, B_j) = 1_{A_j}^T A 1_{B_j} for every column j of the indicator arrays.

    a is the integer adjacency in _count_dtype(d).  It multiplies B's
    indicators a column chunk of MIXING_BLOCK_ENTRIES entries at a time, in
    its own type, which holds each vertex's count of neighbours in B_j.  A's
    indicators mask those counts, and each column sums in int64.
    """
    cols = max(1, MIXING_BLOCK_ENTRIES // a.shape[0])
    return np.concatenate([
        (ia[:, j : j + cols] * (a @ ib[:, j : j + cols].astype(a.dtype))).sum(0, dtype=np.int64)
        for j in range(0, ib.shape[1], cols)
    ])


def mixing_audit(g: Graph, cert: SpectralCert, num_samples: int, seed: int) -> MixingAuditReport:
    """Sample subset pairs and check |e(A,B) - (d/n)|A||B|| < lambda sqrt(|A||B|).

    e(A,B) = 1_A^T A 1_B counts ordered pairs (a, b) with ab an edge, so an
    edge with both ends in both A and B counts twice.  A and B are drawn
    independently by _draw_subsets: sizes uniform on [1, n], subsets uniform
    given the size.  They are drawn and counted _mixing_batch_width(n) pairs
    at a time, A's batch before B's, from one generator seeded by seed.  The
    strict inequality is relaxed by EML_SLACK; max_violation is the raw
    maximum of |e - expected| - lambda*sqrt(|A||B|) over the samples.
    """
    if (cert.n, cert.d) != (g.n, regularity(g).d):
        raise InputError("certificate does not match graph")
    if num_samples < 1:
        raise InputError("num_samples must be >= 1")
    if g.n == 0:
        raise InputError("the mixing audit needs at least one vertex")
    n, d, lam = g.n, cert.d, cert.lam
    rng = np.random.default_rng(seed)
    a = adjacency_matrix(g, _count_dtype(d))
    worst = -math.inf
    worst_sizes = (0, 0)
    width = _mixing_batch_width(n)
    for start in range(0, num_samples, width):
        k = min(width, num_samples - start)
        ia, sa = _draw_subsets(rng, n, k)
        ib, sb = _draw_subsets(rng, n, k)
        counts = _pair_counts(a, ia, ib)
        del ia, ib  # so that the next batch's draws do not sit beside them
        excess = np.abs(counts - (d / n) * sa * sb) - lam * np.sqrt(sa * sb)
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst = float(excess[j])
            worst_sizes = (int(sa[j]), int(sb[j]))
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
