"""Quadratic bounds driving the iterative beamforming algorithms.

Three elementary inequalities are implemented in an abstract form, each a
function of a complex vector ``chi`` and a positive scalar ``x`` expanded
around a point (chi_bar, x_bar):

  * a concave-quadratic minorant of ln(1 + ||chi||^2 / x),
  * a concave-quadratic minorant of the plain ratio ||chi||^2 / x,
  * a convex-quadratic majorant of ln(sum_l (1 + ||chi_l||^2/(c x_l))^-1).

All three touch their target at the expansion point and dominate (or are
dominated) everywhere else on the domain. Substituting chi = B v, where B
maps a user's free-side beamformer vector through the fixed-side mixing
operator and a covariance square root, turns each bound into coefficients
(a, b, C) of a quadratic in v, which the per-iteration subproblems consume:
the SLNR max-min step uses the ratio minorant, the geometric-mean step the
log minorant, and the soft max-min step the smoothed-minimum majorant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamformer import BeamformerSet, beamformer_matrix
from .channel import ChannelStatistics
from .metrics import _signal_and_leakage


class DegenerateUserError(ValueError):
    """A user's expected signal power vanished at the expansion point."""


@dataclass
class SurrogateCoefficients:
    """Quadratic bound a +/- 2 Re{b v} -/+ v^H C v in a user's vector v.

    ``sense='minorant'`` evaluates a + 2 Re{b v} - v^H C v (a lower bound of
    the target), ``sense='majorant'`` evaluates a - 2 Re{b v} + v^H C v.
    """

    a: float
    b: np.ndarray
    C: np.ndarray
    sense: str = "minorant"

    def evaluate(self, v: np.ndarray) -> float:
        lin = 2.0 * float(np.real(self.b @ v))
        quad = float(np.real(v.conj() @ (self.C @ v)))
        if self.sense == "minorant":
            return self.a + lin - quad
        return self.a - lin + quad


def log_quadratic_minorant(chi_bar: np.ndarray, x_bar: float) -> tuple[float, float]:
    """Constants (alpha, psi) of the minorant of ln(1 + ||chi||^2 / x).

    The bound is alpha + 2 Re{chi_bar^H chi} / x_bar - psi (||chi||^2 + x)
    with alpha = ln(1 + g) - g and psi = g / (x_bar (1 + g)) for
    g = ||chi_bar||^2 / x_bar; psi > 0 whenever chi_bar != 0.
    """
    if not x_bar > 0:
        raise ValueError(f"x_bar must be positive, got {x_bar}")
    s = float(np.real(np.vdot(chi_bar, chi_bar)))
    alpha = float(np.log1p(s / x_bar) - s / x_bar)
    psi = s / (x_bar * (s + x_bar))
    return alpha, float(psi)


def evaluate_log_minorant(
    chi_bar: np.ndarray, x_bar: float, chi: np.ndarray, x: float
) -> float:
    """The log minorant evaluated at an arbitrary point (chi, x)."""
    alpha, psi = log_quadratic_minorant(chi_bar, x_bar)
    cross = 2.0 * float(np.real(np.vdot(chi_bar, chi))) / x_bar
    return alpha + cross - psi * (float(np.real(np.vdot(chi, chi))) + x)


@dataclass
class RatioBound:
    """Minorant coefficients of ||chi||^2 / x around an expansion point.

    Evaluates a + 2 Re{b chi} - c (||chi||^2 + x); tight at the expansion
    point and below the ratio everywhere on x > 0.
    """

    a: float
    b: np.ndarray
    c: float

    def evaluate(self, chi: np.ndarray, x: float) -> float:
        cross = 2.0 * float(np.real(self.b @ chi))
        return self.a + cross - self.c * (float(np.real(np.vdot(chi, chi))) + x)


def ratio_quadratic_minorant(chi_bar: np.ndarray, x_bar: float) -> RatioBound:
    """Concave-quadratic minorant of the ratio ||chi||^2 / x.

    Obtained by linearizing 1/(1 - t) at t = ||chi||^2/(x + ||chi||^2); the
    coefficients are (-s^2/x_bar^2, (x_bar + s)/x_bar^2 * chi_bar^H, s/x_bar^2)
    with s = ||chi_bar||^2.
    """
    if not x_bar > 0:
        raise ValueError(f"x_bar must be positive, got {x_bar}")
    s = float(np.real(np.vdot(chi_bar, chi_bar)))
    return RatioBound(
        a=-(s**2) / x_bar**2,
        b=(x_bar + s) / x_bar**2 * np.conj(chi_bar),
        c=s / x_bar**2,
    )


@dataclass
class SoftMinBound:
    """Majorant of ln(sum_l (1 + ||chi_l||^2/(c x_l))^-1) around a point.

    Evaluates constant - sum_l 2 Re{b_l chi_l} + sum_l c_l (||chi_l||^2 + c x_l).
    """

    constant: float
    b: list[np.ndarray]
    c: list[float]
    smoothing: float

    def evaluate(self, chis, xs) -> float:
        val = self.constant
        for chi, x, b_l, c_l in zip(chis, xs, self.b, self.c):
            val -= 2.0 * float(np.real(b_l @ chi))
            val += c_l * (float(np.real(np.vdot(chi, chi))) + self.smoothing * x)
        return val


def softmin_majorant(chi_bars, x_bars, c: float) -> SoftMinBound:
    """Convex-quadratic majorant of the smoothed minimum.

    The target ln(sum_l (1 + ||chi_l||^2/(c x_l))^-1) is majorized by
    linearizing the outer log at the expansion point and minorizing each
    inner ratio ||chi_l||^2 / (||chi_l||^2 + c x_l).
    """
    if not c > 0:
        raise ValueError(f"smoothing coefficient must be positive, got {c}")
    x_bars = [float(x) for x in x_bars]
    if any(x <= 0 for x in x_bars):
        raise ValueError("all x_bar values must be positive")
    sig = [float(np.real(np.vdot(ch, ch))) for ch in chi_bars]
    denom = [c * x + s for x, s in zip(x_bars, sig)]
    s_bar = sum(c * x / d for x, d in zip(x_bars, denom))  # sum (1 + g/c)^-1
    b = [np.conj(ch) / (s_bar * d) for ch, d in zip(chi_bars, denom)]
    coef = [s / (s_bar * d**2) for s, d in zip(sig, denom)]
    constant = float(np.log(s_bar)) + sum(
        s / (s_bar * d) for s, d in zip(sig, denom)
    )
    return SoftMinBound(constant=constant, b=b, c=coef, smoothing=c)


@dataclass
class HalfIterationOperators:
    """Cached per-user quantities for updating one beamformer side.

    For the side being updated, ``own_quad[l]`` is Psi_l^H R_l Psi_l and
    ``sum_quad[l]`` is Psi_l^H (sum_l' R_l') Psi_l, where Psi_l mixes the
    free vector through the fixed side and R is the matching second-moment
    matrix (R_tilde for azimuth updates, R for elevation updates).
    ``signal[l]`` and ``leakage[l]`` are the expected own-signal power and
    summed leakage power at the current iterate.
    """

    side: str
    v_bar: np.ndarray
    own_quad: np.ndarray
    sum_quad: np.ndarray
    signal: np.ndarray
    leakage: np.ndarray
    sigma: float

    @property
    def x_bar(self) -> np.ndarray:
        return self.leakage + self.sigma

    def slnr(self) -> np.ndarray:
        return self.signal / self.x_bar


def half_iteration_operators(
    side: str, bf: BeamformerSet, stats: ChannelStatistics, sigma: float
) -> HalfIterationOperators:
    """Assemble the quadratic operators of one alternating half-iteration.

    With Psi_l = F_l kron I_Q for the fixed side's (Q, M) vectors F_l, the
    mixed-product identity (F kron I)^H (A kron B) (F kron I) = (F^H A F) kron B
    gives every operator from the Q x Q factors:

        azimuth:   Psi_l^H R_tilde_k Psi_l = g_k (F_l^H R_v,k^T F_l) kron R_h,k,
        elevation: Psi_l^H R_k Psi_l       = g_k (F_l^H R_h,k F_l) kron R_v,k^T.

    The M x M factors are symmetrized, so every operator is Hermitian bit
    for bit.
    """
    if side == "azimuth":
        free, fixed, outer, inner = bf.v_a, bf.v_e, stats.R_v.swapaxes(-1, -2), stats.R_h
    else:
        free, fixed, outer, inner = bf.v_e, bf.v_a, stats.R_h, stats.R_v.swapaxes(-1, -2)
    n_users, q, m = bf.L, bf.Q, bf.M
    f = fixed.reshape(n_users, m, q).swapaxes(-1, -2)  # F_l as (L, Q, M)
    # gram[l, k] = g_k F_l^H outer_k F_l, shape (L, L, M, M)
    gram = f.conj().swapaxes(-1, -2)[:, None] @ outer[None] @ f[:, None]
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    gram *= stats.path_gain[None, :, None, None]
    # Kronecker blocks are laid out (L, M, Q, M, Q), then flattened to QM x QM.
    own = gram[np.arange(n_users), np.arange(n_users)]
    own_quad = (own[:, :, None, :, None] * inner[:, None, :, None, :]).reshape(
        n_users, q * m, q * m
    )
    summed = gram.transpose(0, 2, 3, 1).reshape(n_users, m * m, n_users) @ inner.reshape(
        n_users, q * q
    )
    sum_quad = (
        summed.reshape(n_users, m, m, q, q).transpose(0, 1, 3, 2, 4).reshape(n_users, q * m, q * m)
    )
    signal, leakage = _signal_and_leakage(beamformer_matrix(bf), stats)
    return HalfIterationOperators(
        side=side,
        v_bar=free.copy(),
        own_quad=own_quad,
        sum_quad=sum_quad,
        signal=signal,
        leakage=leakage,
        sigma=sigma,
    )


def _require_signal(ops: HalfIterationOperators, ell: int) -> None:
    if ops.signal[ell] <= 0.0:
        raise DegenerateUserError(
            f"user {ell} has zero expected signal power at the expansion point"
        )


def slnr_minorant_coeffs(
    side: str,
    bf: BeamformerSet,
    stats: ChannelStatistics,
    ell: int,
    sigma: float,
    ops: HalfIterationOperators | None = None,
) -> SurrogateCoefficients:
    """Concave-quadratic minorant of user ``ell``'s SLNR in its free vector.

    Built from the ratio minorant at the current iterate: tight there, below
    the SLNR everywhere on the feasible set.
    """
    if ops is None:
        ops = half_iteration_operators(side, bf, stats, sigma)
    _require_signal(ops, ell)
    s = ops.signal[ell]
    x = ops.x_bar[ell]
    v = ops.v_bar[ell]
    c_coef = s / x**2
    b = (x + s) / x**2 * (v.conj() @ ops.own_quad[ell])
    a = -(s**2) / x**2 - sigma * c_coef
    return SurrogateCoefficients(a=a, b=b, C=c_coef * ops.sum_quad[ell], sense="minorant")


def gm_minorant_coeffs(
    side: str,
    bf: BeamformerSet,
    stats: ChannelStatistics,
    ell: int,
    sigma: float,
    weight: float = 1.0,
    ops: HalfIterationOperators | None = None,
) -> SurrogateCoefficients:
    """Concave-quadratic minorant of weight * ln(1 + SLNR_ell).

    Built from the log minorant at the current iterate; the positive weight
    scales all three coefficients.
    """
    if weight <= 0:
        raise ValueError(f"weight must be positive, got {weight}")
    if ops is None:
        ops = half_iteration_operators(side, bf, stats, sigma)
    _require_signal(ops, ell)
    s = ops.signal[ell]
    x = ops.x_bar[ell]
    v = ops.v_bar[ell]
    alpha = float(np.log1p(s / x) - s / x)
    psi_coef = s / (x * (s + x))
    b = (v.conj() @ ops.own_quad[ell]) / x
    a = alpha - sigma * psi_coef
    return SurrogateCoefficients(
        a=weight * a,
        b=weight * b,
        C=(weight * psi_coef) * ops.sum_quad[ell],
        sense="minorant",
    )


def soft_majorant_coeffs(
    side: str,
    bf: BeamformerSet,
    stats: ChannelStatistics,
    c: float,
    sigma: float,
    ops: HalfIterationOperators | None = None,
) -> tuple[float, list[SurrogateCoefficients]]:
    """Majorant of the smoothed-minimum objective, per-user coefficients.

    Returns ``(constant, coeffs)`` where the majorant value at free vectors
    v_1..v_L is constant + sum_l coeffs[l].evaluate(v_l) with per-user sense
    'majorant' and zero per-user constants. ``coeffs[l].C`` combines the
    user's own quadratic with the smoothing-scaled leakage quadratic.
    """
    if not c > 0:
        raise ValueError(f"smoothing coefficient must be positive, got {c}")
    if ops is None:
        ops = half_iteration_operators(side, bf, stats, sigma)
    n_users = ops.signal.shape[0]
    for ell in range(n_users):
        _require_signal(ops, ell)
    sig = ops.signal
    x = ops.x_bar
    denom = c * x + sig
    s_bar = float(np.sum(c * x / denom))
    constant = float(np.log(s_bar)) + float(
        np.sum(sig / denom + sig * c * sigma / denom**2) / s_bar
    )
    coeffs = []
    for ell in range(n_users):
        v = ops.v_bar[ell]
        b = (v.conj() @ ops.own_quad[ell]) / (s_bar * denom[ell])
        c_l = sig[ell] / (s_bar * denom[ell] ** 2)
        quad = c_l * ((1.0 - c) * ops.own_quad[ell] + c * ops.sum_quad[ell])
        coeffs.append(SurrogateCoefficients(a=0.0, b=b, C=quad, sense="majorant"))
    return constant, coeffs
