"""Quadratic bounds driving the iterative beamforming algorithms.

Three elementary inequalities, each written once and stacked over users.
User l's complex vector chi_l and positive scalar x_l are expanded around
(chi_bar_l, x_bar_l); the formulas take s_l = ||chi_bar_l||^2, x_bar_l and
the row cross_l = chi_bar_l^H:

  * ``ratio_bound``: ||chi||^2 / x >= a + 2 Re{b chi} - c (||chi||^2 + x),
  * ``log_bound``: ln(1 + ||chi||^2 / x) >= a + 2 Re{b chi} - c (||chi||^2 + x),
  * ``smoothed_min_bound``: ln(sum_l (1 + ||chi_l||^2 / (c x_l))^-1)
    <= constant - sum_l (2 Re{b_l chi_l} - c_l (||chi_l||^2 + c x_l)).

Each touches its target at the expansion point and stays on one side of it
everywhere on x > 0. The designs substitute chi_l = B_l v_l, where B_l maps
user l's free-side beamformer vector through the fixed-side mixing operator
and a covariance square root, and x_l = leakage_l + sigma. With the
operators of ``half_iteration_operators``, ||chi_l||^2 = v_l^H own_l v_l,
chi_bar_l^H chi_l = v_bar_l^H own_l v_l and ||chi_l||^2 + x_l =
v_l^H sum_l v_l + sigma, so cross_l = v_bar_l^H own_l turns each bound into
one stacked :class:`~slnrbeam.qcqp.Quadratics`, concave quadratics
a_l + 2 Re{b_l v_l} - v_l^H C_l v_l in the free vectors v: the SLNR max-min
step uses the ratio bound, the geometric-mean step the log bound, and the
soft max-min step the smoothed-minimum bound. The last is an upper bound of
an objective to minimize; its builder returns the negated per-user terms,
so that every update maximizes its quadratics.

The operators carry the expansion point's expected signal and leakage
powers, which the caller hands in: the designs' driver reads them off the
diagonals of the iterate's power Gram (:func:`slnrbeam.metrics.power_gram`)
when it evaluates the iterate. The three coefficient builders read the
operators only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics
from .qcqp import Quadratics


class DegenerateUserError(ValueError):
    """A user's expected signal power vanished at the expansion point."""


def _check_expansion(x: np.ndarray) -> None:
    if not np.all(x > 0):
        raise ValueError(f"x_bar must be positive, got {x}")


def ratio_bound(
    s: np.ndarray, x: np.ndarray, cross: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minorant (a, b, c) of the ratio ||chi||^2 / x, stacked over users.

    Linearizing 1/(1 - t) at t = ||chi||^2 / (x + ||chi||^2) gives
    a = -s^2/x_bar^2, b = (x_bar + s)/x_bar^2 cross and c = s/x_bar^2.
    """
    _check_expansion(x)
    return -(s**2) / x**2, ((x + s) / x**2)[:, None] * cross, s / x**2


def log_bound(
    s: np.ndarray, x: np.ndarray, cross: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minorant (a, b, c) of ln(1 + ||chi||^2 / x), stacked over users.

    With g = s / x_bar: a = ln(1 + g) - g, b = cross / x_bar and
    c = g / (x_bar (1 + g)), positive whenever chi_bar != 0.
    """
    _check_expansion(x)
    g = s / x
    return np.log1p(g) - g, cross / x[:, None], s / (x * (s + x))


def smoothed_min_bound(
    s: np.ndarray, x: np.ndarray, cross: np.ndarray, c: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Majorant (constant, b, c_l) of ln(sum_l (1 + ||chi_l||^2 / (c x_l))^-1).

    Linearizes the outer log at the expansion point and minorizes each
    inner ratio ||chi_l||^2 / (||chi_l||^2 + c x_l). With d_l = c x_bar_l + s_l
    and s_bar = sum_l c x_bar_l / d_l: b_l = cross_l / (s_bar d_l),
    c_l = s_l / (s_bar d_l^2), constant = ln s_bar + sum_l s_l / (s_bar d_l).
    """
    if not c > 0:
        raise ValueError(f"smoothing coefficient must be positive, got {c}")
    _check_expansion(x)
    denom = c * x + s
    s_bar = float(np.sum(c * x / denom))
    constant = float(np.log(s_bar)) + float(np.sum(s / (s_bar * denom)))
    return constant, cross / (s_bar * denom)[:, None], s / (s_bar * denom**2)


@dataclass
class HalfIterationOperators:
    """Cached per-user quantities for updating one beamformer side.

    For the side being updated, ``own_quad[l]`` is Psi_l^H R_l Psi_l and
    ``sum_quad[l]`` is Psi_l^H (sum_l' R_l') Psi_l, where Psi_l mixes the
    free vector through the fixed side and R is the matching second-moment
    matrix (R_tilde for azimuth updates, R for elevation updates).
    ``v_bar`` holds every user's free vector at the current iterate as an
    (L, QM) row; ``signal[l]`` and ``leakage[l]`` are the expected
    own-signal power and summed leakage power there.
    """

    v_bar: np.ndarray
    own_quad: np.ndarray
    sum_quad: np.ndarray
    signal: np.ndarray
    leakage: np.ndarray
    sigma: float

    @property
    def x_bar(self) -> np.ndarray:
        return self.leakage + self.sigma


def half_iteration_operators(
    side: int,
    factors: np.ndarray,
    stats: ChannelStatistics,
    signal: np.ndarray,
    leakage: np.ndarray,
    sigma: float,
) -> HalfIterationOperators:
    """Assemble the quadratic operators of one alternating half-iteration.

    ``side`` indexes the free side of the (2, L, M, Q) ``factors``
    (:mod:`slnrbeam.beamformer`); ``signal`` and ``leakage`` are every
    user's expected powers at ``factors``, read by the caller from the
    iterate's power Gram (:func:`~slnrbeam.metrics._signal_and_leakage`) and
    kept as the expansion point.

    With Psi_l = F_l kron I_Q for the fixed side's (Q, M) vectors F_l, the
    mixed-product identity (F kron I)^H (A kron B) (F kron I) = (F^H A F) kron B
    gives every operator from the Q x Q factors:

        azimuth:   Psi_l^H R_tilde_k Psi_l = g_k (F_l^H R_v,k^T F_l) kron R_h,k,
        elevation: Psi_l^H R_k Psi_l       = g_k (F_l^H R_h,k F_l) kron R_v,k^T.

    The inner factor is ``(R_h, R_v^T)[side]`` and the outer one the other.
    The M x M factors are symmetrized, so every operator is Hermitian bit
    for bit.
    """
    pair = (stats.R_h, stats.R_v.swapaxes(-1, -2))
    inner, outer = pair[side], pair[1 - side]
    n_users, m, q = factors.shape[1:]
    f = factors[1 - side].swapaxes(-1, -2)  # F_l as (L, Q, M)
    # gram[l, k] = g_k F_l^H outer_k F_l, shape (L, L, M, M)
    gram = f.conj().swapaxes(-1, -2)[:, None] @ outer[None] @ f[:, None]
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    gram *= stats.path_gain[None, :, None, None]
    # Kronecker blocks are laid out (L, M, Q, M, Q), then flattened to QM x QM.
    own = gram[np.arange(n_users), np.arange(n_users)]
    shape = (n_users, q * m, q * m)
    own_quad = (own[:, :, None, :, None] * inner[:, None, :, None, :]).reshape(shape)
    summed = gram.transpose(0, 2, 3, 1).reshape(n_users, m * m, n_users)
    summed = summed @ inner.reshape(n_users, q * q)
    sum_quad = summed.reshape(n_users, m, m, q, q).transpose(0, 1, 3, 2, 4).reshape(shape)
    v_bar = factors[side].reshape(n_users, q * m).copy()
    return HalfIterationOperators(v_bar, own_quad, sum_quad, signal, leakage, sigma)


def _expansion(ops: HalfIterationOperators) -> np.ndarray:
    """Every user's row v_bar^H own at the operators' expansion point.

    Raises :class:`DegenerateUserError` naming the first user whose expected
    signal power vanished: every bound is uninformative there.
    """
    dead = np.flatnonzero(ops.signal <= 0.0)
    if dead.size:
        raise DegenerateUserError(
            f"user {dead[0]} has zero expected signal power at the expansion point"
        )
    return (ops.v_bar.conj()[:, None, :] @ ops.own_quad)[:, 0]


def slnr_minorant_coeffs(ops: HalfIterationOperators) -> Quadratics:
    """Concave-quadratic minorants of every user's SLNR in its free vector.

    The ratio bound at the operators' iterate: tight there, below the SLNR
    everywhere on the feasible set.
    """
    a, b, c = ratio_bound(ops.signal, ops.x_bar, _expansion(ops))
    return Quadratics(a - ops.sigma * c, b, c[:, None, None] * ops.sum_quad)


def gm_minorant_coeffs(ops: HalfIterationOperators) -> Quadratics:
    """Concave-quadratic minorants of every user's ln(1 + SLNR).

    The log bound at the operators' iterate; the design's user weights enter
    in :func:`~slnrbeam.qcqp.closed_form_update`.
    """
    a, b, c = log_bound(ops.signal, ops.x_bar, _expansion(ops))
    return Quadratics(a - ops.sigma * c, b, c[:, None, None] * ops.sum_quad)


def soft_majorant_coeffs(ops: HalfIterationOperators, c: float) -> tuple[float, Quadratics]:
    """Majorant of the smoothed-minimum objective, stacked over users.

    Returns ``(constant, quads)``: the majorant at free vectors v is
    constant - quads.values(v).sum(), the per-user quadratics having zero
    constants, so minimizing the majorant maximizes their sum.
    ``quads.C[l]`` combines the user's own quadratic with the
    smoothing-scaled leakage quadratic,
    ||chi_l||^2 + c x_l = v_l^H ((1 - c) own_l + c sum_l) v_l + c sigma.
    """
    constant, b, scale = smoothed_min_bound(ops.signal, ops.x_bar, _expansion(ops), c)
    quad = scale[:, None, None] * ((1.0 - c) * ops.own_quad + c * ops.sum_quad)
    quads = Quadratics(np.zeros_like(scale), b, quad)
    return constant + c * ops.sigma * float(np.sum(scale)), quads
