"""References shared by the test modules, independent of the library's paths.

The library keeps only the Q x Q Kronecker factors; these helpers rebuild the
Q^2 x Q^2 second moments and the per-user SLNR the tests compare against, the
per-realization SINR of one channel draw, the eigenvalue expansion of the
ergodic rate, and a chi-space evaluator of the three quadratic bounds of
:mod:`slnrbeam.surrogates`.
"""

import numpy as np

from slnrbeam.beamformer import beamformer_matrix
from slnrbeam.metrics import slnr_vec
from slnrbeam.numerics import exp_scaled_e1


def dense_r_tilde(stats):
    """vec(H^T) second moments path_gain_l * kron(R_v,l^T, R_h,l) as an (L, Q^2, Q^2) stack."""
    return np.stack(
        [g * np.kron(r_v.T, r_h) for g, r_v, r_h in zip(stats.path_gain, stats.R_v, stats.R_h)]
    )


def user_slnr(bf, stats, ell, sigma):
    """Covariance-form SLNR of user ``ell`` under an outer-product beamformer set."""
    return float(slnr_vec(beamformer_matrix(bf), stats, sigma)[ell])


def transmit_bilinear(bf, h_mat, user):
    """sum_m v_e[m].T H v_a[m] for one channel realization H."""
    v_e = bf.columns("elevation", user)
    v_a = bf.columns("azimuth", user)
    return complex(np.sum((v_e.T @ h_mat) * v_a.T))


def instantaneous_sinr(bf, channels, ell, sigma):
    """SINR of user ``ell`` at one realization per user, ``channels`` (L, Q, Q).

    Only user ``ell``'s entry matters: every transmission reaches them
    through their own channel.
    """
    h_mat = np.asarray(channels)[ell]
    gains = np.array([transmit_bilinear(bf, h_mat, lp) for lp in range(bf.L)])
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
    gram = w_mat.conj().T @ stats.covariance()[ell] @ w_mat
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
