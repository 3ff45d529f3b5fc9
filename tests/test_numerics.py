"""Numerics utilities against independent oracles.

The exponential integral is checked against adaptive quadrature of its
defining integral, the matrix square root against a squaring oracle, and
the generalized eigenvector against random probing plus a finite-difference
stationarity check. The pencil eigenvalues are checked against
``scipy.linalg.eigh``, which the library itself does not use.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from slnrbeam.numerics import (
    bisect,
    check_hermitian,
    exp_integral_e1,
    exp_scaled_e1,
    hermitian_eig,
    hermitian_sqrt,
    largest_generalized_eigvec,
    pencil_diagonalize,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


def ridged_kron_stack(rng, q=4, n_users=5):
    """Pencils shaped like the max-min subproblems': random PSD C_l and
    A_l = kron(G_l, I_Q) + ridge with rank-1 G_l, the ridge sized as
    ``qcqp.power_ridge_size`` sizes it (1e-10 of A_l's trace scale)."""
    n = 2 * q
    c = np.stack([random_psd(rng, n) / n for _ in range(n_users)])
    a = np.empty_like(c)
    for ell in range(n_users):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a[ell] = np.kron(np.outer(x, x.conj()), np.eye(q))
        a[ell] += 1e-10 * np.real(np.trace(a[ell])) / n * np.eye(n)
    return c, a


def congruence_residual(t, m, d):
    """max |T^H M T - D| relative to the largest entry of |T|^H |M| |T|, the
    magnitude the product's own floating-point terms carry."""
    scale = np.max(np.abs(t).T @ np.abs(m) @ np.abs(t))
    return float(np.max(np.abs(t.conj().T @ m @ t - d)) / scale)


def e1_quadrature(x):
    """Oracle: exp(x) E1(x) = int_0^inf exp(-x t) / (1 + t) dt, by quadrature."""
    val, err = scipy.integrate.quad(
        lambda t: np.exp(-x * t) / (1.0 + t), 0.0, np.inf, epsrel=1e-13, limit=500
    )
    return val * np.exp(-x)


class TestHermitianEig:
    def test_identity(self):
        lam, vec = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(lam, np.ones(3))
        np.testing.assert_allclose(vec @ vec.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_descending(self):
        lam, vec = hermitian_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(lam, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(vec), np.eye(2), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        mat = random_hermitian(rng, 6)
        lam, vec = hermitian_eig(mat)
        rebuilt = (vec * lam) @ vec.conj().T
        assert np.linalg.norm(rebuilt - mat) <= 1e-9 * np.linalg.norm(mat)
        assert np.all(np.diff(lam) <= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_squaring_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            mat = random_psd(rng, n)
            root = hermitian_sqrt(mat)
            assert np.linalg.norm(root @ root - mat) <= 1e-8 * np.linalg.norm(mat)
            check_hermitian(root)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            hermitian_sqrt(np.diag([1.0, -0.5]))

    def test_clips_roundoff_negatives(self):
        mat = np.diag([1.0, -1e-12])
        root = hermitian_sqrt(mat)
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12)


class TestExpIntegral:
    def test_reference_point_one(self):
        # Oracle value frozen from adaptive quadrature of the definition.
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552026, rel=1e-12)

    def test_reference_point_ten(self):
        assert exp_integral_e1(10.0) == pytest.approx(4.156968929685324e-06, rel=1e-11)

    def test_monotone_decreasing(self):
        assert exp_integral_e1(2.0) < exp_integral_e1(1.0)

    def test_quadrature_on_log_grid(self):
        for x in np.logspace(-3, np.log10(50.0), 40):
            want = e1_quadrature(x)
            got = exp_scaled_e1(x) * np.exp(-x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_scaled_form_large_argument(self):
        # exp(x) E1(x) ~ 1/x for large x; the unscaled path would overflow.
        val = exp_scaled_e1(1e4)
        assert 0.9 / 1e4 < val < 1.0 / 1e4

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral_e1(0.0)
        with pytest.raises(ValueError):
            exp_integral_e1(-1.0)


class TestBisect:
    def test_linear_root(self):
        assert bisect(lambda m: m - 3.0, 0.0, 10.0, tol=1e-12) == pytest.approx(3.0, abs=1e-9)

    def test_algebraic_root(self):
        got = bisect(lambda m: 1.0 / (1.0 + m) ** 2 - 0.25, 0.0, 10.0, tol=1e-12)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_bracket_failure(self):
        with pytest.raises(ValueError, match="bracket failure"):
            bisect(lambda m: m + 1.0, 0.0, 1.0, tol=1e-8)

    def test_iteration_bound(self):
        calls = {"n": 0}

        def g(m):
            calls["n"] += 1
            return m - np.pi

        lo, hi, tol = 0.0, 8.0, 1e-10
        bisect(g, lo, hi, tol=tol)
        bound = int(np.ceil(np.log2((hi - lo) / tol))) + 2
        # two bracket evaluations plus one per bisection step
        assert calls["n"] - 2 <= bound


class TestGeneralizedEigvec:
    def test_identity_metric(self):
        w = largest_generalized_eigvec(np.eye(3), np.diag([1.0, 5.0, 2.0]))
        np.testing.assert_allclose(np.abs(w), [0.0, 1.0, 0.0], atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        b = random_psd(rng, 4)
        w1 = largest_generalized_eigvec(np.eye(4), b)
        w2 = largest_generalized_eigvec(2.0 * np.eye(4), b)
        assert abs(abs(np.vdot(w1, w2)) - 1.0) < 1e-10

    def quotient(self, w, a, b):
        return np.real(w.conj() @ b @ w) / np.real(w.conj() @ a @ w)

    def test_random_probe_oracle(self):
        rng = np.random.default_rng(4)
        a = random_psd(rng, 5) + 0.5 * np.eye(5)
        b = random_psd(rng, 5)
        w = largest_generalized_eigvec(a, b)
        best = self.quotient(w, a, b)
        for _ in range(1000):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            z /= np.linalg.norm(z)
            assert self.quotient(z, a, b) <= best * (1.0 + 1e-8)

    def test_stationarity_finite_difference(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 4) + 0.5 * np.eye(4)
        b = random_psd(rng, 4)
        w = largest_generalized_eigvec(a, b)
        val = self.quotient(w, a, b)
        h = 1e-6
        grad_norm_sq = 0.0
        for i in range(4):
            for delta in (h, 1j * h):
                up, dn = w.copy(), w.copy()
                up[i] += delta
                dn[i] -= delta
                grad_norm_sq += ((self.quotient(up, a, b) - self.quotient(dn, a, b)) / (2 * h)) ** 2
        assert np.sqrt(grad_norm_sq) <= 1e-6 * max(1.0, abs(val))

    def test_rejects_singular_metric(self):
        with pytest.raises(ValueError):
            largest_generalized_eigvec(np.diag([1.0, 0.0]), np.eye(2))

    def test_rejects_non_hermitian_in_stack(self):
        b = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="Hermitian"):
            largest_generalized_eigvec(np.stack([np.eye(2)] * 2), b)

    def test_stack_matches_scipy_and_single_calls(self):
        rng = np.random.default_rng(11)
        b, a = ridged_kron_stack(rng, q=3, n_users=4)
        w = largest_generalized_eigvec(a, b)
        for ell in range(a.shape[0]):
            assert np.array_equal(w[ell], largest_generalized_eigvec(a[ell], b[ell]))
            assert np.linalg.norm(w[ell]) == pytest.approx(1.0, abs=1e-12)
            pivot = w[ell][np.argmax(np.abs(w[ell]))]
            assert abs(pivot.imag) <= 1e-15 * pivot.real
            # the quotient itself cancels catastrophically along the ridge
            # directions, so the direction is compared instead
            ref = scipy.linalg.eigh(b[ell], a[ell])[1][:, -1]
            assert abs(np.vdot(ref, w[ell])) / np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-9)


class TestPencil:
    def test_simultaneous_diagonalization(self):
        rng = np.random.default_rng(6)
        c = random_psd(rng, 5)
        a = random_psd(rng, 5) + 0.5 * np.eye(5)
        w, t = pencil_diagonalize(c, a)
        np.testing.assert_allclose(t.conj().T @ a @ t, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(t.conj().T @ c @ t, np.diag(w), atol=1e-9)
        assert np.all(w >= 0)

    def test_ridged_kron_stack(self):
        # The ridge leaves each metric with condition number about 1e10, so
        # T has columns of norm up to 1e5 and the check is scaled to them.
        rng = np.random.default_rng(7)
        c, a = ridged_kron_stack(rng)
        w, t = pencil_diagonalize(c, a)
        assert w.shape == c.shape[:2] and t.shape == c.shape
        assert np.all(w >= 0)
        for ell in range(c.shape[0]):
            assert congruence_residual(t[ell], a[ell], np.eye(c.shape[1])) <= 1e-9
            assert congruence_residual(t[ell], c[ell], np.diag(w[ell])) <= 1e-9
            ref = scipy.linalg.eigh(c[ell], a[ell], eigvals_only=True)
            np.testing.assert_allclose(w[ell], ref, rtol=0, atol=1e-9 * ref.max())

    def test_stack_matches_single_calls_bitwise(self):
        rng = np.random.default_rng(8)
        c, a = ridged_kron_stack(rng, q=3, n_users=4)
        w, t = pencil_diagonalize(c, a)
        for ell in range(c.shape[0]):
            w_one, t_one = pencil_diagonalize(c[ell], a[ell])
            assert np.array_equal(w[ell], w_one)
            assert np.array_equal(t[ell], t_one)

    def test_clips_roundoff_negatives(self):
        # C with a null space: eigenvalues that land below zero by round-off
        # come back as exact zeros.
        rng = np.random.default_rng(9)
        g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        w, _ = pencil_diagonalize(g @ g.conj().T, random_psd(rng, 6) + np.eye(6))
        assert np.all(w >= 0.0)
        assert np.count_nonzero(w > 1e-9 * w.max()) == 2

    def test_rejects_indefinite_metric_in_stack(self):
        rng = np.random.default_rng(10)
        c, a = ridged_kron_stack(rng, q=2, n_users=3)
        a[1] = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="positive definite"):
            pencil_diagonalize(c, a)
