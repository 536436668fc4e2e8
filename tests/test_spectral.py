import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
    def test_lanczos_matches_dense(self, maker):
        g = maker()
        dense = second_eigenvalue(g, method="dense_eig")
        cert = second_eigenvalue(g, method="lanczos", tol=1e-10)
        assert cert.lam == pytest.approx(dense.lam, abs=1e-9)
        assert cert.method == "lanczos"
        assert cert.residual <= 1e-10

    def test_lanczos_bipartite(self):
        cert = second_eigenvalue(gen_circulant(12, (1,)), method="lanczos")
        assert cert.lam == pytest.approx(2.0, abs=1e-9)
        assert cert.mu_n == pytest.approx(-2.0, abs=1e-9)
        assert cert.lambda_equals_d

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 40), d=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_lanczos_agrees_with_dense_on_random_regular(self, n, d, seed):
        assume(d < n and n * d % 2 == 0)
        try:
            g = gen_random_regular(n, d, seed)
        except GenerationError:
            assume(False)
        dense = second_eigenvalue(g, method="dense_eig")
        cert = second_eigenvalue(g, method="lanczos")
        assert abs(cert.lam - dense.lam) <= 1e-9
        assert cert.residual <= cert.tol
        assert cert.mu2 is not None or cert.mu_n is not None
        if cert.mu2 is not None:
            assert abs(cert.mu2 - dense.mu2) <= 1e-9
        if cert.mu_n is not None:
            assert abs(cert.mu_n - dense.mu_n) <= 1e-9

    def test_lanczos_never_reports_the_perron_vector(self):
        # every mu_i of K_12 below the top is -1; the high end of A - (d/n) J
        # is the Perron vector's 0, which A itself does not witness
        cert = second_eigenvalue(gen_complete(12), method="lanczos")
        assert cert.mu2 is None or cert.mu2 == pytest.approx(-1.0, abs=1e-9)
        assert cert.mu_n == pytest.approx(-1.0, abs=1e-9)
        assert cert.lam == pytest.approx(1.0, abs=1e-9)

    def test_lanczos_disconnected(self):
        two_triangles = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cert = second_eigenvalue(two_triangles, method="lanczos")
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

    def test_lanczos_needs_three_vertices(self):
        with pytest.raises(InputError, match="3 vertices"):
            second_eigenvalue(gen_complete(2), method="lanczos")

    def test_no_convergence_is_a_numerical_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectral_mod, "eigsh", stalled)
        with pytest.raises(NumericalError, match="converge"):
            second_eigenvalue(gen_paley(13), method="lanczos")

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InputError, match="tol must be finite and positive"):
            second_eigenvalue(gen_paley(13), tol=tol)

    def test_unwitnessed_ends_are_a_numerical_error(self):
        with pytest.raises(NumericalError, match="A-residual"):
            second_eigenvalue(gen_paley(13), method="lanczos", tol=1e-300)

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
        d = int(g.m * 2 // g.n)
        lam, residual, mu2, mun = spectral_mod._dense_lambda(adjacency_matrix(g), d)
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
        ("paley13", 0.3, (2.6711624058622587, True, 6, 7)),
        ("petersen", None, (-1.300000000000001, False, 1, 1)),
        ("petersen", 0.3, (2.1272077938642138, True, 3, 6)),
    ])
    def test_reports_are_frozen(self, request, name, lam, expected):
        # frozen values: the sampled subsets and the exact integer counts must
        # reproduce them bit for bit
        g = request.getfixturevalue(name)
        cert = second_eigenvalue(g)
        if lam is not None:
            cert = dataclasses.replace(cert, lam=lam)
        report = mixing_audit(g, cert, 2000, seed=11)
        assert report.samples == 2000
        got = (report.max_violation, report.violated, report.worst_a_size, report.worst_b_size)
        assert got == expected

    def test_deterministic(self, paley13):
        cert = second_eigenvalue(paley13)
        a = mixing_audit(paley13, cert, 500, seed=3)
        b = mixing_audit(paley13, cert, 500, seed=3)
        assert a == b


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
