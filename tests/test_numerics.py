"""Numerics utilities against independent oracles.

The exponential integral is checked against adaptive quadrature of its
defining integral, the matrix square root against a squaring oracle, and
the generalized eigenvector against random probing plus a finite-difference
stationarity check, both on one shared metric and stacked low-rank roots.
The pencil eigenvalues, on general pencils whitened by their metric, and the
stacked generalized eigenvectors are checked against ``scipy.linalg.eigh``,
which the library itself does not use.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from slnrbeam.numerics import (
    bisect,
    check_hermitian,
    exp_scaled_e1,
    hermitian_sqrt,
    largest_generalized_eigvec,
    pencil_diagonalize,
)


def random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


def random_roots(rng, n, ranks):
    """Stacked (L, n, max rank) roots, user l's random and of rank ranks[l],
    padded with zero columns."""
    s = np.zeros((len(ranks), n, max(ranks)), dtype=complex)
    for ell, rank in enumerate(ranks):
        s[ell, :, :rank] = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return s


def ridged_kron_stack(rng, q=4, n_users=5):
    """Random PSD C_l with ill-conditioned metrics A_l = kron(G_l, I_Q) +
    ridge, rank-1 G_l and a ridge of 1e-10 of A_l's trace scale: the power
    metrics of a nearly collinear fixed side."""
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


class TestHermitianSqrt:
    def test_identity(self):
        for n in (3, 4):
            np.testing.assert_allclose(hermitian_sqrt(np.eye(n)), np.eye(n), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        mat = random_psd(rng, 6)
        root = hermitian_sqrt(mat)
        assert np.linalg.norm(root @ root - mat) <= 1e-9 * np.linalg.norm(mat)
        check_hermitian(root)
        assert np.linalg.eigvalsh(root).min() >= -1e-9 * np.linalg.norm(root, 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

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


def exp_integral_e1(x):
    """E1(x) = exp(-x) * (exp(x) E1(x))."""
    return float(np.exp(-x) * exp_scaled_e1(x))


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
    # One shared metric A (n, n) and per-user roots S_l (n, r_l), or a stack
    # of them: row l maximizes w^H S_l S_l^H w / w^H A w.

    def quotient(self, w, a, s):
        return np.real(w.conj() @ s @ s.conj().T @ w) / np.real(w.conj() @ a @ w)

    def test_identity_metric(self):
        w = largest_generalized_eigvec(np.eye(3), np.diag(np.sqrt([1.0, 5.0, 2.0]))[None])
        np.testing.assert_allclose(np.abs(w[0]), [0.0, 1.0, 0.0], atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        s = random_roots(rng, 4, [2])
        w1 = largest_generalized_eigvec(np.eye(4), s)
        for a, root in ((2.0 * np.eye(4), s), (np.eye(4), 3.0 * s)):
            assert abs(abs(np.vdot(w1, largest_generalized_eigvec(a, root))) - 1.0) < 1e-10

    def test_random_probe_oracle(self):
        rng = np.random.default_rng(4)
        a = random_psd(rng, 5) + 0.5 * np.eye(5)
        s = random_roots(rng, 5, [3])
        w = largest_generalized_eigvec(a, s)[0]
        best = self.quotient(w, a, s[0])
        for _ in range(1000):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            z /= np.linalg.norm(z)
            assert self.quotient(z, a, s[0]) <= best * (1.0 + 1e-8)

    def test_stationarity_finite_difference(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 4) + 0.5 * np.eye(4)
        s = random_roots(rng, 4, [4])[0]
        w = largest_generalized_eigvec(a, s[None])[0]
        val = self.quotient(w, a, s)
        h = 1e-6
        grad_norm_sq = 0.0
        for i in range(4):
            for delta in (h, 1j * h):
                up, dn = w.copy(), w.copy()
                up[i] += delta
                dn[i] -= delta
                grad_norm_sq += ((self.quotient(up, a, s) - self.quotient(dn, a, s)) / (2 * h)) ** 2
        assert np.sqrt(grad_norm_sq) <= 1e-6 * max(1.0, abs(val))

    def test_phase_pivot_stable_under_round_off_ties(self):
        # Two roots a round-off apart, whose entries tie in magnitude within a
        # few ulps; the phase pivot must not follow which entry wins the tie.
        eps = 4e-16
        w1 = largest_generalized_eigvec(np.eye(2), np.array([[[1.0 + eps], [1j]]]))
        w2 = largest_generalized_eigvec(np.eye(2), np.array([[[1.0], [1j * (1.0 + eps)]]]))
        assert np.abs(w1 - w2).max() <= 1e-12
        assert abs(w1[0, 0].imag) <= 1e-15 * w1[0, 0].real

    def test_rejects_singular_metric(self):
        with pytest.raises(ValueError, match="positive definite"):
            largest_generalized_eigvec(np.diag([1.0, 0.0]), np.eye(2)[None])
        with pytest.raises(ValueError, match="positive definite"):
            largest_generalized_eigvec(np.diag([1.0, -1.0]), np.eye(2)[None])

    def test_stack_matches_scipy_and_single_calls(self):
        # Unpadded roots of ranks 1-3, passed one at a time by a generator,
        # and a metric shaped like the baseline's: their sum plus a small
        # loading. The same roots padded to one (L, n, 3) stack give the same
        # directions up to phase.
        rng = np.random.default_rng(11)
        n, ranks = 9, [1, 3, 2, 3]
        s = random_roots(rng, n, ranks)
        unpadded = [s[ell, :, :rank] for ell, rank in enumerate(ranks)]
        total = np.einsum("lnr,lmr->nm", s, s.conj())
        a = total + 1e-10 * np.real(np.trace(total)) / n * np.eye(n)
        w = largest_generalized_eigvec(a, (root for root in unpadded))
        padded = largest_generalized_eigvec(a, s)
        assert w.shape == padded.shape == (len(ranks), n)
        for ell, root in enumerate(unpadded):
            alone = largest_generalized_eigvec(a, [root])[0]
            assert np.array_equal(w[ell], alone)
            assert abs(np.vdot(padded[ell], w[ell])) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(w[ell]) == pytest.approx(1.0, abs=1e-12)
            pivot = w[ell][np.argmax(np.abs(w[ell]))]
            assert abs(pivot.imag) <= 1e-15 * pivot.real
            lam, vec = scipy.linalg.eigh(root @ root.conj().T, a)
            ref = vec[:, -1]
            assert abs(np.vdot(ref, w[ell])) / np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-9)
            assert self.quotient(w[ell], a, root) == pytest.approx(lam[-1], rel=1e-9)


class TestPencil:
    def test_simultaneous_diagonalization(self):
        rng = np.random.default_rng(6)
        c = random_psd(rng, 5)
        w, t = pencil_diagonalize(c)
        np.testing.assert_allclose(t.conj().T @ t, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(t.conj().T @ c @ t, np.diag(w), atol=1e-9)
        assert np.all(w >= 0) and np.all(np.diff(w) >= 0)

    def test_ridged_kron_stack(self):
        # A general pencil (C, A) with A = K K^H is the pencil (C', I) of the
        # whitened C' = K^-1 C K^-H, with T = K^-H T'. The metrics' condition
        # number is about 1e10, so T has columns of norm up to 1e5 and the
        # check is scaled to them.
        rng = np.random.default_rng(7)
        c, a = ridged_kron_stack(rng)
        inv_h = np.linalg.inv(np.linalg.cholesky(a)).conj().swapaxes(-1, -2)
        w, t_white = pencil_diagonalize(inv_h.conj().swapaxes(-1, -2) @ c @ inv_h)
        t = inv_h @ t_white
        assert w.shape == c.shape[:2] and t.shape == c.shape
        assert np.all(w >= 0)
        for ell in range(c.shape[0]):
            assert congruence_residual(t[ell], a[ell], np.eye(c.shape[1])) <= 1e-9
            assert congruence_residual(t[ell], c[ell], np.diag(w[ell])) <= 1e-9
            ref = scipy.linalg.eigh(c[ell], a[ell], eigvals_only=True)
            np.testing.assert_allclose(w[ell], ref, rtol=0, atol=1e-9 * ref.max())

    def test_stack_matches_single_calls_bitwise(self):
        rng = np.random.default_rng(8)
        c, _ = ridged_kron_stack(rng, q=3, n_users=4)
        w, t = pencil_diagonalize(c)
        for ell in range(c.shape[0]):
            w_one, t_one = pencil_diagonalize(c[ell])
            assert np.array_equal(w[ell], w_one)
            assert np.array_equal(t[ell], t_one)

    def test_clips_roundoff_negatives(self):
        # C with a null space: eigenvalues that land below zero by round-off
        # come back as exact zeros.
        rng = np.random.default_rng(9)
        g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        w, _ = pencil_diagonalize(g @ g.conj().T)
        assert np.all(w >= 0.0)
        assert np.count_nonzero(w > 1e-9 * w.max()) == 2
