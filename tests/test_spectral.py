import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.sparse.linalg import ArpackNoConvergence

import cfl.spectral as spectral_mod
from cfl.errors import GenerationError, InputError, NumericalError
from cfl.generators import gen_circulant, gen_complete, gen_paley, gen_random_regular
from cfl.acceptance import petersen
from cfl.graphs import from_edge_list
from cfl.spectral import (
    SpectralCert,
    adjacency_matrix,
    beta_exponent,
    delta_exponent,
    eigenvalue_constant,
    hypothesis_check,
    lambda_floor_check,
    mixing_audit,
    second_eigenvalue,
)
from oracles import edge_count_by_loops


def lanczos_cert(monkeypatch, g, **kwargs):
    """second_eigenvalue of g on the Lanczos path: g.n just above a patched DENSE_LIMIT."""
    with monkeypatch.context() as m:
        m.setattr(spectral_mod, "DENSE_LIMIT", g.n - 1)
        return second_eigenvalue(g, **kwargs)


class TestSecondEigenvalue:
    def test_complete(self, k6):
        cert = second_eigenvalue(k6)
        assert cert.lam == pytest.approx(1.0, abs=1e-8)
        assert cert.d == 5 and cert.method == "dense_eig"
        assert not cert.lambda_equals_d

    def test_petersen(self, petersen):
        assert second_eigenvalue(petersen).lam == pytest.approx(2.0, abs=1e-8)

    def test_paley_13(self, paley13):
        expected = (1 + math.sqrt(13)) / 2
        assert second_eigenvalue(paley13).lam == pytest.approx(expected, abs=1e-8)

    def test_pentagon_golden_ratio(self):
        g = gen_circulant(5, (1,))
        expected = (1 + math.sqrt(5)) / 2
        assert second_eigenvalue(g).lam == pytest.approx(expected, abs=1e-8)

    def test_bipartite_flags_lambda_equals_d(self):
        # even cycles are bipartite: -d is an eigenvalue, lambda = d
        cert = second_eigenvalue(gen_circulant(8, (1,)))
        assert cert.lam == pytest.approx(2.0, abs=1e-8)
        assert cert.lambda_equals_d

    def test_disconnected_flags_lambda_equals_d(self):
        two_triangles = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cert = second_eigenvalue(two_triangles)
        assert cert.lam == pytest.approx(2.0, abs=1e-8)
        assert cert.lambda_equals_d

    @pytest.mark.parametrize("maker", [
        lambda: gen_complete(12),
        lambda: gen_paley(13),
        lambda: gen_random_regular(24, 6, 9),
        lambda: gen_circulant(10, (1, 3)),
    ])
    def test_lanczos_matches_dense(self, maker, monkeypatch):
        g = maker()
        dense = second_eigenvalue(g)
        cert = lanczos_cert(monkeypatch, g, tol=1e-10)
        assert dense.method == "dense_eig"
        assert cert.lam == pytest.approx(dense.lam, abs=1e-9)
        assert cert.method == "lanczos"
        assert cert.residual <= 1e-10

    def test_lanczos_bipartite(self, monkeypatch):
        cert = lanczos_cert(monkeypatch, gen_circulant(12, (1,)))
        assert cert.lam == pytest.approx(2.0, abs=1e-9)
        assert cert.mu_n == pytest.approx(-2.0, abs=1e-9)
        assert cert.lambda_equals_d

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 40), d=st.integers(1, 12), seed=st.integers(0, 2**16))
    # unions of cycles on which ARPACK's default Krylov space does not converge
    @example(n=36, d=2, seed=1082)
    @example(n=38, d=2, seed=684)
    @example(n=40, d=2, seed=2439)
    def test_lanczos_agrees_with_dense_on_random_regular(self, n, d, seed):
        assume(d < n and n * d % 2 == 0)
        try:
            g = gen_random_regular(n, d, seed)
        except GenerationError:
            assume(False)
        dense = second_eigenvalue(g)
        # Hypothesis takes no function-scoped fixture, so no patched limit
        lam, residual, mu2, mu_n = spectral_mod._lanczos_lambda(adjacency_matrix(g), d, 1e-8)
        assert abs(lam - dense.lam) <= 1e-9
        assert residual <= 1e-8
        assert mu2 is not None or mu_n is not None
        if mu2 is not None:
            assert abs(mu2 - dense.mu2) <= 1e-9
        if mu_n is not None:
            assert abs(mu_n - dense.mu_n) <= 1e-9

    def test_lanczos_never_reports_the_perron_vector(self, monkeypatch):
        # every mu_i of K_12 below the top is -1; the high end of A - (d/n) J
        # is the Perron vector's 0, which A itself does not witness
        cert = lanczos_cert(monkeypatch, gen_complete(12))
        assert cert.mu2 is None or cert.mu2 == pytest.approx(-1.0, abs=1e-9)
        assert cert.mu_n == pytest.approx(-1.0, abs=1e-9)
        assert cert.lam == pytest.approx(1.0, abs=1e-9)

    def test_lanczos_disconnected(self, monkeypatch):
        two_triangles = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cert = lanczos_cert(monkeypatch, two_triangles)
        assert cert.lam == pytest.approx(2.0, abs=1e-9)
        assert cert.mu2 == pytest.approx(2.0, abs=1e-9)
        assert cert.lambda_equals_d

    def test_near_tie_above_the_dense_limit(self):
        # mu_2 = 8.65401 and mu_n = -8.65537 nearly tie on this instance
        g = gen_random_regular(2100, 20, 1)
        cert = second_eigenvalue(g)
        assert cert.method == "lanczos"
        assert abs(cert.lam - 8.655368056078542) <= 1e-9  # numpy eigvalsh
        assert cert.residual <= 1e-12
        assert cert.mu2 == pytest.approx(8.65401, abs=1e-5)
        assert cert.mu_n == pytest.approx(-cert.lam, abs=1e-12)

    def test_the_path_switches_above_the_dense_limit(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "DENSE_LIMIT", 12)
        assert second_eigenvalue(gen_complete(12)).method == "dense_eig"
        assert second_eigenvalue(gen_paley(13)).method == "lanczos"

    def test_no_convergence_is_a_numerical_error(self, monkeypatch):
        # after one retry with a larger Krylov space
        spaces = []

        def stalled(*args, ncv=None, **kwargs):
            spaces.append(ncv)
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectral_mod, "eigsh", stalled)
        with pytest.raises(NumericalError, match="converge"):
            lanczos_cert(monkeypatch, gen_paley(13))
        assert spaces == [None, 13]

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InputError, match="tol must be finite and positive"):
            second_eigenvalue(gen_paley(13), tol=tol)

    def test_unwitnessed_ends_are_a_numerical_error(self, monkeypatch):
        with pytest.raises(NumericalError, match="A-residual"):
            lanczos_cert(monkeypatch, gen_paley(13), tol=1e-300)

    @pytest.mark.parametrize("n,d,seed,lam", [
        (90, 45, 31, 9.715920568206226),
        (160, 80, 31, 12.556088824273703),
    ])
    def test_dense_lambda_is_frozen(self, n, d, seed, lam):
        # the dense path's lambda for the benchmark instances, bit for bit
        assert second_eigenvalue(gen_random_regular(n, d, seed)).lam == lam

    @pytest.mark.parametrize("g", [
        gen_complete(7),
        gen_circulant(5, [1]),
        petersen(),
        gen_paley(13),
        gen_random_regular(160, 80, 31),
    ], ids=["K_7", "C_5", "petersen", "paley13", "rr_160_80"])
    def test_dense_path_matches_numpy_eigvalsh(self, g):
        lam, residual, mu2, mun = spectral_mod._dense_lambda(adjacency_matrix(g), 1e-8)
        vals = np.linalg.eigvalsh(adjacency_matrix(g).toarray())  # ascending oracle
        assert abs(mu2 - vals[-2]) <= 1e-10 and abs(mun - vals[0]) <= 1e-10
        assert abs(lam - np.abs(vals[:-1]).max()) <= 1e-10
        assert residual <= 1e-8  # second_eigenvalue's default tol

    def test_residual_witness(self, paley13):
        cert = second_eigenvalue(paley13)
        assert cert.residual < 1e-10
        assert cert.mu2 == pytest.approx((-1 + math.sqrt(13)) / 2, abs=1e-8)
        assert cert.mu_n == pytest.approx(-(1 + math.sqrt(13)) / 2, abs=1e-8)

    def test_requires_regular(self):
        with pytest.raises(InputError):
            second_eigenvalue(from_edge_list(3, [(0, 1)]))

    def test_single_vertex(self):
        cert = second_eigenvalue(from_edge_list(1, []))
        assert cert.lam == 0.0

    def test_to_dict_uses_lambda_key(self, k6):
        d = second_eigenvalue(k6).to_dict()
        assert "lambda" in d and d["n"] == 6


class TestAdjacency:
    @pytest.mark.parametrize("g", [
        from_edge_list(1, []),
        from_edge_list(5, [(0, 3), (1, 2), (3, 4)]),
        gen_random_regular(24, 6, 9),
    ], ids=["single_vertex", "path_pieces", "rr_24_6"])
    def test_csr_matches_a_loop(self, g):
        ref = np.zeros((g.n, g.n))
        for u, v in g.edges:
            ref[u, v] = ref[v, u] = 1.0
        a = adjacency_matrix(g)
        assert a.format == "csr" and a.nnz == 2 * g.m
        assert np.array_equal(a.toarray(), ref)


class TestMixing:
    def test_true_lambda_never_violates(self, paley13, petersen, k6):
        for g in (paley13, petersen, k6):
            cert = second_eigenvalue(g)
            report = mixing_audit(g, cert, 2000, seed=11)
            assert not report.violated
            assert report.samples == 2000
            assert report.max_violation <= 1e-9

    def test_understated_lambda_is_caught(self, rr_20_6):
        cert = second_eigenvalue(rr_20_6)
        fake = SpectralCert(
            n=cert.n,
            d=cert.d,
            lam=0.01,
            method=cert.method,
            residual=cert.residual,
            mu2=cert.mu2,
            mu_n=cert.mu_n,
            lambda_equals_d=cert.lambda_equals_d,
            tol=cert.tol,
        )
        report = mixing_audit(rr_20_6, fake, 2000, seed=1)
        assert report.violated
        assert report.max_violation > 0
        assert 1 <= report.worst_a_size <= 20

    @pytest.mark.parametrize("name,lam,expected", [
        ("paley13", None, (-1.7643140992704587, False, 1, 1)),
        ("paley13", 0.3, (3.03846153846154, True, 5, 5)),
        ("petersen", None, (-1.300000000000001, False, 1, 1)),
        ("petersen", 0.3, (1.751471862576143, True, 2, 4)),
    ])
    def test_reports_are_frozen(self, request, name, lam, expected):
        # frozen values: the sampled subsets and the exact integer counts must
        # reproduce them bit for bit, and the edge-loop oracle over the same
        # subsets must derive them again
        g = request.getfixturevalue(name)
        cert = second_eigenvalue(g)
        if lam is not None:
            cert = dataclasses.replace(cert, lam=lam)
        report = mixing_audit(g, cert, 2000, seed=11)
        assert report.samples == 2000
        got = (report.max_violation, report.violated, report.worst_a_size, report.worst_b_size)
        assert got == expected
        worst, sizes = _audit_by_oracle(g, cert, 2000, seed=11)
        assert (worst, worst > spectral_mod.EML_SLACK, *sizes) == expected

    def test_deterministic(self, paley13):
        cert = second_eigenvalue(paley13)
        a = mixing_audit(paley13, cert, 500, seed=3)
        b = mixing_audit(paley13, cert, 500, seed=3)
        assert a == b

    def test_deterministic_across_batches(self, paley13):
        # 2 * width + 1 samples: two full batches and a one-pair batch
        cert = dataclasses.replace(second_eigenvalue(paley13), lam=0.3)
        samples = 2 * spectral_mod._mixing_batch_width(paley13.n) + 1
        a = mixing_audit(paley13, cert, samples, seed=8)
        b = mixing_audit(paley13, cert, samples, seed=8)
        assert a == b and a.samples == samples
        worst, sizes = _audit_by_oracle(paley13, cert, samples, seed=8)
        assert (a.max_violation, a.worst_a_size, a.worst_b_size) == (worst, *sizes)

    @pytest.mark.parametrize("name", ["petersen", "paley13", "rr_20_6", "k6"])
    def test_counts_match_the_edge_loop_oracle(self, request, name):
        g = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        ia, sa = spectral_mod._draw_subsets(rng, g.n, 300)
        ib, sb = spectral_mod._draw_subsets(rng, g.n, 300)
        a = adjacency_matrix(g, spectral_mod._count_dtype(second_eigenvalue(g).d))
        counts = spectral_mod._pair_counts(a, ia, ib)
        expected = [
            edge_count_by_loops(g, np.flatnonzero(ia[:, j]), np.flatnonzero(ib[:, j]))
            for j in range(300)
        ]
        assert counts.dtype == np.int64 and counts.tolist() == expected
        for ind, sizes in ((ia, sa), (ib, sb)):
            assert ind.shape == (g.n, 300) and ind.dtype == np.bool_
            assert set(np.unique(ind).tolist()) <= {0.0, 1.0}
            assert sizes.tolist() == np.count_nonzero(ind, axis=0).tolist()

    def test_counts_above_an_int8_range_match_the_oracle(self):
        # K_130: each vertex has 129 neighbours, so a count in int8 would wrap
        g = gen_complete(130)
        a = adjacency_matrix(g, spectral_mod._count_dtype(129))
        assert a.dtype == np.int16
        ia, _ = spectral_mod._draw_subsets(np.random.default_rng(2), g.n, 6)
        ib, _ = spectral_mod._draw_subsets(np.random.default_rng(3), g.n, 6)
        ib[:, 3:] = True  # B = V: e(A, V) = 129 |A|
        counts = spectral_mod._pair_counts(a, ia, ib)
        expected = [
            edge_count_by_loops(g, np.flatnonzero(ia[:, j]), np.flatnonzero(ib[:, j]))
            for j in range(6)
        ]
        assert counts.tolist() == expected
        assert max(expected) > 127

    @pytest.mark.parametrize("d,dtype", [
        (0, np.int16), (20, np.int16), (32767, np.int16), (32768, np.int32), (2**31 - 1, np.int32),
    ])
    def test_count_dtype_holds_every_count(self, d, dtype):
        assert spectral_mod._count_dtype(d) is dtype
        assert np.iinfo(dtype).max >= d

    def test_certificate_of_another_degree_is_refused(self):
        g4, g6 = gen_random_regular(20, 4, 0), gen_random_regular(20, 6, 0)
        with pytest.raises(InputError, match="certificate does not match graph"):
            mixing_audit(g4, second_eigenvalue(g6), 100, seed=0)
        with pytest.raises(InputError, match="certificate does not match graph"):
            mixing_audit(g4, second_eigenvalue(gen_random_regular(22, 4, 0)), 100, seed=0)
        assert not mixing_audit(g4, second_eigenvalue(g4), 100, seed=0).violated

    def test_sizes_are_uniform(self):
        n, k = 7, 70000
        _, sizes = spectral_mod._draw_subsets(np.random.default_rng(0), n, k)
        observed = np.bincount(sizes.astype(int), minlength=n + 1)
        assert observed[0] == 0
        assert stats.chisquare(observed[1:]).pvalue > 1e-3

    def test_each_size_includes_every_vertex_at_rate_s_over_n(self):
        n, k = 7, 70000
        ind, sizes = spectral_mod._draw_subsets(np.random.default_rng(1), n, k)
        for s in range(1, n + 1):
            cols = ind[:, sizes == s]
            freq = cols.mean(axis=1)
            sigma = math.sqrt((s / n) * (1 - s / n) / cols.shape[1])
            assert np.all(np.abs(freq - s / n) <= 5 * sigma + 1e-12), (s, freq)

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_columns_are_drawn_again(self, n):
        k, seed = 2000, 4
        # the first pass of the same draw leaves empty columns (probability 1/(n+1) each) ...
        first = _columns_from_components(np.random.default_rng(seed), n, k)
        assert np.count_nonzero(first.sum(axis=0) == 0) > 0
        # ... and the draw returns none
        ind, sizes = spectral_mod._draw_subsets(np.random.default_rng(seed), n, k)
        assert sizes.min() >= 1
        assert np.count_nonzero(ind, axis=0).tolist() == sizes.tolist()
        assert set(sizes.tolist()) == set(range(1, n + 1))

    def test_empty_graph_is_an_input_error(self):
        g = from_edge_list(0, [])
        with pytest.raises(InputError, match="at least one vertex"):
            mixing_audit(g, second_eigenvalue(g), 10, seed=0)

    def test_single_vertex_never_violates(self):
        g = from_edge_list(1, [])
        report = mixing_audit(g, second_eigenvalue(g), 50, seed=0)
        assert not report.violated
        assert (report.worst_a_size, report.worst_b_size) == (1, 1)

    def test_memory_is_bounded_per_batch(self):
        # n = 40,000 gives 104 pairs a batch, where 512 would put 164 MB in
        # each n x k float64 array; each array is within the entry budget
        n = 40000
        g = gen_circulant(n, [1, 2])
        cert = SpectralCert(
            n=n, d=4, lam=4.0, method="lanczos", residual=0.0,
            mu2=None, mu_n=None, lambda_equals_d=False, tol=1e-8,
        )
        width = spectral_mod._mixing_batch_width(n)
        assert n * width <= spectral_mod.MIXING_BATCH_ENTRIES
        budget = 8 * spectral_mod.MIXING_BATCH_ENTRIES
        tracemalloc.start()
        try:
            report = mixing_audit(g, cert, width + 1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.violated
        assert peak <= 4 * budget, peak / budget

    def test_audit_holds_no_float64_batch(self):
        # the benchmark's rr(2100,20): a batch of 512 pairs is two n x k bool
        # arrays (1.1 MB each); one n x k float64 array alone is 8.6 MB
        g = gen_random_regular(2100, 20, 1)
        cert = second_eigenvalue(g)
        tracemalloc.start()
        try:
            report = mixing_audit(g, cert, 2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.violated
        assert peak < 8 * 2**20, peak / 2**20

    @pytest.mark.parametrize("n,k", [(1000, 512), (7, 3), (300000, 1)])
    def test_columns_are_whole_keys_below_their_thresholds(self, n, k):
        ind = spectral_mod._threshold_columns(np.random.default_rng(11), n, k)
        expected = _columns_from_components(np.random.default_rng(11), n, k)
        assert ind.dtype == np.bool_ and np.array_equal(ind, expected)

    @pytest.mark.parametrize("n,k", [(40, 5), (7, 3)])
    def test_low_bits_decide_every_tie(self, n, k):
        rng = _TiedBytes(3)
        ind = spectral_mod._threshold_columns(rng, n, k)
        # every entry ties, so each one drew its 45 low bits, in row order
        assert rng.low.size == n * k
        expected = rng.low.reshape(n, k) < (rng.q & np.uint64(2**45 - 1))
        assert np.array_equal(ind, expected)
        assert 0 < np.count_nonzero(ind) < n * k


def _columns_from_components(rng, n, k):
    """_threshold_columns rebuilt from its draws: Q, then n*k key bytes, then the tied low bits.

    Each entry is the whole 53-bit key (byte << 45 | low bits) against Q_j;
    an untied entry's low bits are 0, which cannot change its comparison.
    """
    q = rng.integers(2**53, size=k, dtype=np.uint64)
    words = rng.integers(2**64, size=-(-n * k // 8), dtype=np.uint64)
    raw = b"".join(int(w).to_bytes(8, "little") for w in words)[: n * k]
    key = np.frombuffer(raw, dtype=np.uint8).reshape(n, k).astype(np.uint64) << np.uint64(45)
    ties = np.argwhere((key >> np.uint64(45)) == (q >> np.uint64(45)))  # row order
    key[ties[:, 0], ties[:, 1]] |= rng.integers(2**45, size=len(ties), dtype=np.uint64)
    return key < q


class _TiedBytes:
    """A generator whose key bytes each equal their column's top threshold byte.

    It draws Q and the low bits from a real generator and keeps both.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, high, size, dtype):
        if high == 2**64:
            tied = np.tile((self.q >> np.uint64(45)).astype(np.uint8), -(-size * 8 // len(self.q)))
            return np.frombuffer(tied[: size * 8].tobytes(), dtype="<u8")
        out = self.rng.integers(high, size=size, dtype=dtype)
        if high == 2**53:
            self.q = out
        else:
            self.low = out
        return out


def _audit_by_oracle(g, cert, samples, seed):
    """The audit's worst excess and its sizes, over the library's subsets but counted by loops."""
    rng = np.random.default_rng(seed)
    width = spectral_mod._mixing_batch_width(g.n)
    worst, worst_sizes = -math.inf, None
    for start in range(0, samples, width):
        k = min(width, samples - start)
        ia, _ = spectral_mod._draw_subsets(rng, g.n, k)
        ib, _ = spectral_mod._draw_subsets(rng, g.n, k)
        for j in range(k):
            A, B = np.flatnonzero(ia[:, j]).tolist(), np.flatnonzero(ib[:, j]).tolist()
            e = edge_count_by_loops(g, A, B)
            sa, sb = float(len(A)), float(len(B))
            excess = abs(e - (cert.d / g.n) * sa * sb) - cert.lam * math.sqrt(sa * sb)
            if excess > worst:
                worst, worst_sizes = excess, (len(A), len(B))
    return worst, worst_sizes


class TestFloorAndHypotheses:
    def test_floor_applicable(self, paley13):
        assert lambda_floor_check(second_eigenvalue(paley13)) is True

    def test_floor_not_applicable_for_dense(self, k6):
        assert lambda_floor_check(second_eigenvalue(k6)) is None

    def test_floor_fails_on_fabricated_cert(self):
        fake = SpectralCert(
            n=100, d=30, lam=1.0, method="dense_eig", residual=0.0,
            mu2=None, mu_n=None, lambda_equals_d=False, tol=1e-8,
        )
        assert lambda_floor_check(fake) is False

    def test_constants(self):
        assert eigenvalue_constant(3) == pytest.approx(1 / 600)
        assert beta_exponent(3) == pytest.approx(1 / 111)
        assert delta_exponent(3) == pytest.approx(36 / 111)
        # the two degree thresholds coincide: 1/(2t-3) - beta = delta
        for t in (3, 4, 5):
            assert 1 / (2 * t - 3) - beta_exponent(t) == pytest.approx(delta_exponent(t))

    def _cert(self, n, d, lam):
        return SpectralCert(
            n=n, d=d, lam=lam, method="dense_eig", residual=0.0,
            mu2=None, mu_n=None, lambda_equals_d=False, tol=1e-8,
        )

    def test_dense_branch(self):
        # n=10^6, d=10^5: lambda bound ~16.7, degree threshold ~11324
        rep = hypothesis_check(self._cert(10**6, 10**5, 1.0), 3)
        assert rep.lambda_ok and rep.dense_degree_ok and not rep.sparse_degree_ok
        assert rep.branch == "dense_branch"

    def test_sparse_branch(self):
        rep = hypothesis_check(self._cert(10**6, 5000, 0.01), 3)
        assert rep.lambda_ok and rep.sparse_degree_ok and not rep.dense_degree_ok
        assert rep.branch == "sparse_branch"

    def test_fails_at_desk_scale(self, k6):
        rep = hypothesis_check(second_eigenvalue(k6), 3)
        assert rep.branch == "fails"
        assert not rep.lambda_ok

    def test_degree_floor_value(self):
        rep = hypothesis_check(self._cert(1000, 100, 1.0), 3)
        assert rep.degree_floor == pytest.approx(1000 ** (2 / 3) / 2 ** (1 / 3))
        assert rep.degree_floor == pytest.approx(79.37, abs=0.01)

    def test_t_validation(self, k6):
        with pytest.raises(InputError):
            hypothesis_check(second_eigenvalue(k6), 2)
