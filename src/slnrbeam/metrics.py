"""SLNR, ergodic rates, and fairness statistics.

Ergodic rates are natural-log rates (nats per channel use); the Mbit/s
conversion divides by ln 2 and scales by the bandwidth. User k receives
u = (h_k^T w_j)_j, a circular Gaussian vector with Gram covariance
S_k = W^H R_k W (entry (i, j) is w_i^H R_k w_j), and its SINR is
|u_k|^2 / (sum_{j != k} |u_j|^2 + sigma). Since E exp(-s ||u||^2) =
det(I + s S)^-1, Hamdi's integral (IEEE Trans. Commun. 2010) gives the
exact ergodic rate

    E[ln(1 + SINR_k)] = int_0^inf (det(I + s S_int)^-1 - det(I + s S)^-1)
                                  exp(-s sigma) / s ds,

with S_int the interference-only Gram (S_k without row and column k). Only
the eigenvalues of S_k and S_int enter, and repeated or zero eigenvalues
need no special case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, vec_batch, sample_channels

# Quadrature in t = ln(s): the integrand is analytic in the strip
# |Im t| < pi/2, so the trapezoid rule's error falls like exp(-pi^2 / h),
# about 1e-17 at this step; halving it moves no rate by more than 1e-13.
RATE_STEP = 0.25
# Below s = RATE_HEAD / (largest trace + sigma) the integrand is at most
# s * signal, so the cut-off head weighs at most RATE_HEAD nats.
RATE_HEAD = 1e-17
# Above s = RATE_TAIL / sigma the factor exp(-s sigma) leaves a tail of at
# most E1(RATE_TAIL) < 1e-19 nats.
RATE_TAIL = 40.0


def _covariance_images(w_mat: np.ndarray, stats: ChannelStatistics) -> np.ndarray:
    """The vectors R_k w_j for every channel user k and every column w_j.

    ``w_mat`` is (Q^2, n) with column-major vectorized beamformers. Works on
    the Kronecker factors only: with V_j = unvec(w_j),
    unvec(R_k w_j) = g_k R_v,k^T V_j R_h,k^T, whose transpose
    R_h,k V_j^T R_v,k reshapes row-major into R_k w_j. Returns (L, n, Q^2);
    every expected power w_i^H R_k w_j is a contraction of it with w_mat.
    """
    q = stats.Q
    n = w_mat.shape[1]
    images = stats.R_h[:, None] @ w_mat.T.reshape(n, q, q) @ stats.R_v[:, None]
    return stats.path_gain[:, None, None] * images.reshape(-1, n, q * q)


def _signal_and_leakage(
    w_mat: np.ndarray, stats: ChannelStatistics
) -> tuple[np.ndarray, np.ndarray]:
    """Every user's expected signal power w_l^H R_l w_l and leakage
    sum_{k != l} w_l^H R_k w_l."""
    power = np.real(np.einsum("klx,xl->kl", _covariance_images(w_mat, stats), w_mat.conj()))
    own = np.eye(power.shape[0], dtype=bool)
    return np.diag(power), np.maximum(np.where(own, 0.0, power).sum(axis=0), 0.0)


def slnr_vec(w_mat: np.ndarray, stats: ChannelStatistics, sigma: float) -> np.ndarray:
    """Covariance-form SLNRs of all users for vectorized beamformers.

    ``w_mat`` is (Q^2, L) with column ell the column-major vec of user ell's
    transmit matrix. Entry ell is the expected signal power over the
    expected leakage toward the other users plus noise.
    """
    signal, leakage = _signal_and_leakage(w_mat, stats)
    return signal / (leakage + sigma)


def ergodic_rate_closed(w_mat: np.ndarray, stats: ChannelStatistics, sigma: float) -> np.ndarray:
    """Every user's exact ergodic rate E[ln(1 + SINR)], in nats, as an (L,) array.

    Evaluates Hamdi's integral (module docstring) for all users on one grid
    s = exp(t), t spaced RATE_STEP apart from ln(RATE_HEAD / (largest trace
    + sigma)) up to ln(RATE_TAIL / sigma). The integrand vanishes at both
    ends, so the trapezoid rule is the step times the plain sum over nodes.
    """
    n = w_mat.shape[1]
    gram = _covariance_images(w_mat, stats) @ w_mat.conj()  # [k, j, i] = w_i^H R_k w_j
    # S_k with row and column k zeroed has the interference-only minor's
    # spectrum plus one zero. One stacked eigensolve serves both, so a user
    # whose row is already zero gets bit-identical spectra and a rate of 0.
    others = ~np.eye(n, dtype=bool)
    interference = gram * (others[:, :, None] & others[:, None, :])
    lam = np.clip(np.linalg.eigvalsh(np.concatenate([gram, interference])), 0.0, None)
    t_hi = np.log(RATE_TAIL / sigma)
    t_lo = np.log(RATE_HEAD / (lam[:n].sum(axis=1).max() + sigma))
    s = np.exp(t_hi - RATE_STEP * np.arange(int(np.ceil((t_hi - t_lo) / RATE_STEP)) + 1))
    inverse_det = np.exp(-np.log1p(s[:, None, None] * lam).sum(axis=-1))  # det(I + s S)^-1
    return RATE_STEP * (np.exp(-sigma * s) @ (inverse_det[:, n:] - inverse_det[:, :n]))


def ergodic_rate_mc(
    w_mat: np.ndarray,
    stats: ChannelStatistics,
    ell: int,
    sigma: float,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 100_000,
) -> tuple[float, float]:
    """Monte Carlo ergodic rate of user ``ell`` with its standard error.

    Averages ln(1 + SINR) over iid draws of user ``ell``'s channel.
    """
    if n_samples < 1_000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        h = sample_channels(stats, ell, n, rng)
        gains = vec_batch(h) @ w_mat  # (n, L); entry j is h^T w_j
        powers = np.abs(gains) ** 2
        desired = powers[:, ell]
        interference = powers.sum(axis=1) - desired
        vals = np.log1p(desired / (interference + sigma))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += n
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    return mean, float(np.sqrt(var / n_samples))


def jain_index(values: np.ndarray) -> float:
    """Jain's fairness index (sum x)^2 / (L * sum x^2); 1 means uniform."""
    x = np.asarray(values, dtype=float)
    if x.size == 0 or np.all(x == 0.0):
        raise ValueError("Jain's index needs at least one positive value")
    if np.any(x < 0.0):
        raise ValueError("Jain's index expects nonnegative values")
    return float(x.sum() ** 2 / (x.size * (x**2).sum()))


def min_max_ratio(values: np.ndarray) -> float:
    """min/max of a nonempty collection with positive maximum."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("min/max ratio of an empty collection")
    top = float(x.max())
    if top <= 0.0:
        raise ValueError("min/max ratio requires a positive maximum")
    return float(x.min()) / top


def nats_to_mbps(rate_nats, bandwidth_hz: float):
    """Convert nats per channel use (a number or an array) to Mbit/s at one
    symbol per Hz."""
    if np.any(np.asarray(rate_nats) < 0):
        raise ValueError(f"rate must be nonnegative, got {rate_nats}")
    return rate_nats / np.log(2.0) * bandwidth_hz / 1e6


@dataclass
class RateReport:
    """Per-user SLNR and ergodic rates plus fairness aggregates."""

    slnr: np.ndarray
    rate_nats: np.ndarray
    rate_mbps: np.ndarray
    min_rate_mbps: float
    max_rate_mbps: float
    min_max_ratio: float
    jain: float


def rate_report(
    w_mat: np.ndarray,
    stats: ChannelStatistics,
    sigma: float,
    bandwidth_hz: float,
) -> RateReport:
    """Evaluate every user's SLNR and closed-form ergodic rate."""
    nats = np.maximum(ergodic_rate_closed(w_mat, stats, sigma), 0.0)
    mbps = nats_to_mbps(nats, bandwidth_hz)
    return RateReport(
        slnr=slnr_vec(w_mat, stats, sigma),
        rate_nats=nats,
        rate_mbps=mbps,
        min_rate_mbps=float(mbps.min()),
        max_rate_mbps=float(mbps.max()),
        min_max_ratio=min_max_ratio(mbps),
        jain=jain_index(mbps),
    )
