"""References shared by the test modules, independent of the library's paths.

The library keeps only the Q x Q Kronecker factors; these helpers rebuild the
Q^2 x Q^2 second moments (``dense_r``, ``dense_r_tilde``), the column-major
``vec`` of one matrix, one user's transmit matrix (``full_beamformer``), the
total power summed user by user (``total_power``), the dense mixing operator
of one side's update (``psi_matrix``) and the per-user SLNR the tests
compare against, the per-realization SINR of one channel draw, the
eigenvalue expansion of the ergodic rate, and a chi-space evaluator of the three quadratic bounds of
:mod:`slnrbeam.surrogates`; ``operators_at`` builds one half-iteration's
operators at given (2, L, M, Q) factors, as the designs' driver does, and
``whiten`` maps quadratics with a general power metric onto the identity
metric the solvers take, under which ``power_of`` is the power.
``rates_of`` and ``slnrs_of`` run the metrics readers on a power Gram built
for the occasion. ``columns`` and ``free_rows`` read one side of the
factor array as a user's (Q, M) column matrix and as every user's stacked
(L, QM) free vectors.
"""

import numpy as np

from slnrbeam.beamformer import beamformer_matrix
from slnrbeam.metrics import _signal_and_leakage, ergodic_rate_closed, power_gram, slnr_vec
from slnrbeam.numerics import exp_scaled_e1
from slnrbeam.surrogates import half_iteration_operators


def vec(mat):
    """Column-major vectorization (stack columns)."""
    return np.asarray(mat).reshape(-1, order="F")


def columns(factors, side, ell):
    """User ``ell``'s M vectors on ``side`` as a (Q, M) column matrix."""
    return factors[side, ell].T


def free_rows(factors, side):
    """Every user's M vectors on ``side`` stacked in one (L, QM) row each."""
    return factors[side].reshape(factors.shape[1], -1)


def full_beamformer(factors, ell):
    """The rank-<=M transmit matrix V_ell = sum_m v_e[m] v_a[m].T."""
    return columns(factors, 1, ell) @ columns(factors, 0, ell).T


def total_power(factors):
    """Transmit power: the sum over users of ||V_ell||_F^2."""
    return sum(
        float(np.linalg.norm(full_beamformer(factors, ell)) ** 2) for ell in range(factors.shape[1])
    )


def psi_matrix(side, factors, ell):
    """Mixing operator for updating ``side`` with the other side fixed.

    The Q^2 x QM matrix ``Psi = [u_1 ... u_M] kron I_Q`` of the fixed side's
    vectors u_m satisfies, for any free-side stacked v,

        Psi @ v = vec(sum_m v[m] u_m.T)      (column-major vec),

    so vec(H^T).T @ Psi @ v_a and vec(H).T @ Psi @ v_e both equal the
    transmit bilinear form sum_m v_e[m].T H v_a[m]. The designs never form
    it (they use its Kronecker structure); it is the dense reference for
    those identities.
    """
    fixed = columns(factors, 1 - side, ell)
    return np.kron(fixed, np.eye(fixed.shape[0]))


def dense_r(stats):
    """vec(H) second moments path_gain_l * kron(R_h,l, R_v,l^T) as an (L, Q^2, Q^2) stack."""
    return np.stack(
        [g * np.kron(r_h, r_v.T) for g, r_h, r_v in zip(stats.path_gain, stats.R_h, stats.R_v)]
    )


def dense_r_tilde(stats):
    """vec(H^T) second moments path_gain_l * kron(R_v,l^T, R_h,l) as an (L, Q^2, Q^2) stack."""
    return np.stack(
        [g * np.kron(r_v.T, r_h) for g, r_v, r_h in zip(stats.path_gain, stats.R_v, stats.R_h)]
    )


def whiten(b, c_stack, a_stack):
    """Quadratic terms in whitened coordinates u_l = K_l^H v_l, A_l = K_l K_l^H.

    For Hermitian PD power matrices A_l, v^H A_l v = ||u||^2 and the linear
    and curvature terms become b_l K_l^-H and K_l^-1 C_l K_l^-H, so a problem
    under a general power metric is the returned (b, C) under the identity.
    """
    inv = np.linalg.inv(np.linalg.cholesky(a_stack))
    inv_h = inv.conj().swapaxes(-1, -2)
    c_white = inv @ c_stack @ inv_h
    return (b[:, None, :] @ inv_h)[:, 0], 0.5 * (c_white + c_white.conj().swapaxes(-1, -2))


def power_of(v):
    """sum_l ||v_l||^2 of stacked free vectors (L, n), user by user."""
    return sum(float(np.real(np.vdot(row, row))) for row in v)


def rates_of(w_mat, stats, sigma):
    """The rate oracle at the (Q^2, L) beamformers ``w_mat``."""
    return ergodic_rate_closed(power_gram(w_mat, stats), sigma)


def slnrs_of(w_mat, stats, sigma):
    """Every user's covariance-form SLNR at the (Q^2, L) beamformers ``w_mat``."""
    return slnr_vec(power_gram(w_mat, stats), sigma)


def operators_at(side, factors, stats, sigma):
    """``half_iteration_operators`` at ``factors``, its expected powers evaluated first."""
    w_mat = beamformer_matrix(factors)
    signal, leakage, _ = _signal_and_leakage(power_gram(w_mat, stats), sigma)
    return half_iteration_operators(side, factors, stats, signal, leakage, sigma)


def user_slnr(factors, stats, ell, sigma):
    """Covariance-form SLNR of user ``ell`` under outer-product beamformer
    factors, w^H R_ell w / (sum_{k != ell} w^H R_k w + sigma) on the dense
    second moments, with w the vec of the user's transmit matrix."""
    w = vec(full_beamformer(factors, ell))
    power = np.real(np.einsum("x,kxy,y->k", w.conj(), dense_r(stats), w))
    return float(power[ell] / (power.sum() - power[ell] + sigma))


def transmit_bilinear(factors, h_mat, user):
    """sum_m v_e[m].T H v_a[m] for one channel realization H."""
    v_e = columns(factors, 1, user)
    v_a = columns(factors, 0, user)
    return complex(np.sum((v_e.T @ h_mat) * v_a.T))


def instantaneous_sinr(factors, channels, ell, sigma):
    """SINR of user ``ell`` at one realization per user, ``channels`` (L, Q, Q).

    Only user ``ell``'s entry matters: every transmission reaches them
    through their own channel.
    """
    h_mat = np.asarray(channels)[ell]
    gains = np.array([transmit_bilinear(factors, h_mat, lp) for lp in range(factors.shape[1])])
    powers = np.abs(gains) ** 2
    return float(powers[ell] / (powers.sum() - powers[ell] + sigma))


def _expected_log_gain(eigs, sigma):
    """E[ln(sigma + ||u||^2)] - ln(sigma) for u ~ CN(0, diag(eigs)), distinct
    positive ``eigs``:

        sum_m exp(sigma/mu_m) E1(sigma/mu_m) / prod_{l != m} (1 - mu_l/mu_m).
    """
    mu = np.asarray(eigs, dtype=float)
    ratio = 1.0 - mu[None, :] / mu[:, None]  # row m: 1 - mu_l / mu_m
    np.fill_diagonal(ratio, 1.0)
    scaled = np.array([exp_scaled_e1(sigma / m) for m in mu])
    return float(scaled @ (1.0 / np.prod(ratio, axis=1)))


def expansion_rate(w_mat, stats, ell, sigma, min_gap=1e-4):
    """User ``ell``'s ergodic rate E[ln(1 + SINR)] in nats by the eigenvalue
    expansion, applied to the dense Gram W^H R_ell W and to its
    interference-only minor.

    The expansion's weights blow up as eigenvalues coalesce, so it asserts
    that every pair of nonzero eigenvalues (above 1e-12 of the largest) is
    at least ``min_gap`` apart relative to the larger of the two.
    """
    gram = w_mat.conj().T @ dense_r(stats)[ell] @ w_mat
    keep = [j for j in range(w_mat.shape[1]) if j != ell]
    total = 0.0
    for mat, sign in ((gram, 1.0), (gram[np.ix_(keep, keep)], -1.0)):
        lam = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        lam = lam[lam > 1e-12 * lam.max()] if lam.size and lam.max() > 0 else lam[:0]
        assert np.all(np.diff(lam) >= min_gap * lam[1:]), f"clustered spectrum {lam}"
        total += sign * _expected_log_gain(lam, sigma)
    return total


def chi_expansion(chi_bars, x_bars):
    """The bound formulas' inputs (s, x_bar, cross) at chi-space expansion points.

    ``chi_bars`` is (L, n) and ``x_bars`` (L,): s_l = ||chi_bar_l||^2 and
    cross_l = chi_bar_l^H.
    """
    chi_bars = np.atleast_2d(chi_bars)
    s = np.sum(np.abs(chi_bars) ** 2, axis=-1)
    return s, np.atleast_1d(np.asarray(x_bars, dtype=float)), chi_bars.conj()


def chi_minorant(a, b, c, chi, x):
    """a + 2 Re{b chi} - c (||chi||^2 + x) per user, broadcast over leading axes.

    The value of a ratio or log bound (``a``, ``b``, ``c`` from the formula)
    at chi-space points ``chi`` (..., n) and ``x`` (...).
    """
    chi = np.asarray(chi)
    cross = 2.0 * np.real(np.sum(b * chi, axis=-1))
    return a + cross - c * (np.sum(np.abs(chi) ** 2, axis=-1) + x)


def chi_softmin_majorant(constant, b, scale, smoothing, chis, xs):
    """The smoothed-minimum bound at points ``chis`` (..., L, n), ``xs`` (..., L):
    constant - sum_l (2 Re{b_l chi_l} - c_l (||chi_l||^2 + c x_l))."""
    return constant - np.sum(chi_minorant(0.0, b, scale, chis, smoothing * np.asarray(xs)), axis=-1)


def softmin_target(chis, xs, c):
    """ln(sum_l (1 + ||chi_l||^2 / (c x_l))^-1) at points (..., L, n), (..., L)."""
    ratio = np.sum(np.abs(chis) ** 2, axis=-1) / (c * np.asarray(xs))
    return np.log(np.sum(1.0 / (1.0 + ratio), axis=-1))
