"""SLNR, ergodic rates, and fairness statistics.

Ergodic rates are natural-log rates (nats per channel use); the Mbit/s
conversion divides by ln 2 and scales by the bandwidth. The closed-form
ergodic rate uses the classic eigenvalue expansion of E[ln(sigma + ||u||^2)]
for a circular Gaussian vector u: with distinct positive eigenvalues mu_m of
the covariance of u,

    E[ln(sigma + ||u||^2)] - ln(sigma)
        = sum_m exp(sigma/mu_m) E1(sigma/mu_m) / prod_{l != m} (1 - mu_l/mu_m).

Applying this twice, once with the full signal-plus-interference covariance
S and once with the interference-only covariance (S with the user's row and
column removed), gives the expected log of the SINR ratio.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, vec_batch, sample_channels

logger = logging.getLogger(__name__)

# Eigenvalues below this fraction of the largest count as zero (rank cut).
RANK_REL_TOL = 1e-12
# Pairwise eigenvalue gaps below this fraction of the largest trigger the
# Monte Carlo fallback; the expansion weights blow up near coalescence.
DISTINCT_REL_TOL = 1e-6
# Fallback Monte Carlo settings (fixed internal seed for reproducibility).
FALLBACK_MC_SAMPLES = 100_000
FALLBACK_MC_SEED = 73_000_001


def _covariance_images(
    w_mat: np.ndarray, stats: ChannelStatistics, users=slice(None)
) -> np.ndarray:
    """The vectors R_k w_j for channel users ``users`` and every column w_j.

    ``w_mat`` is (Q^2, n) with column-major vectorized beamformers. Works on
    the Kronecker factors only: with V_j = unvec(w_j),
    unvec(R_k w_j) = g_k R_v,k^T V_j R_h,k^T, whose transpose
    R_h,k V_j^T R_v,k reshapes row-major into R_k w_j. Returns (K, n, Q^2);
    every expected power w_i^H R_k w_j is a contraction of it with w_mat.
    """
    q = stats.Q
    n = w_mat.shape[1]
    images = stats.R_h[users, None] @ w_mat.T.reshape(n, q, q) @ stats.R_v[users, None]
    return stats.path_gain[users, None, None] * images.reshape(-1, n, q * q)


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


def _distinct_positive_eigs(mat: np.ndarray) -> np.ndarray:
    """Nonzero eigenvalues of a Hermitian PSD matrix, or None if clustered.

    Clustering is judged pairwise: two eigenvalues coalesce when their gap
    is below DISTINCT_REL_TOL times the larger of the pair (the expansion
    weights depend on eigenvalue ratios, not absolute spacings).
    """
    if mat.shape[0] == 0:
        return np.array([])
    lam = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    top = float(lam[-1]) if lam.size else 0.0
    if top <= 0.0:
        return np.array([])
    keep = np.sort(lam[lam > RANK_REL_TOL * top])
    if keep.size > 1 and np.any(np.diff(keep) < DISTINCT_REL_TOL * keep[1:]):
        return None
    return keep


def _expected_log_noise_plus_quad(eigs: np.ndarray, sigma: float) -> float:
    """E[ln(sigma + ||u||^2)] - ln(sigma) for u ~ CN(0, diag-equivalent)."""
    from .numerics import exp_scaled_e1

    if eigs.size == 0:
        return 0.0
    mu = np.asarray(eigs, dtype=float)
    ratio = 1.0 - mu[None, :] / mu[:, None]  # row m: 1 - mu_l / mu_m
    np.fill_diagonal(ratio, 1.0)
    weights = 1.0 / np.prod(ratio, axis=1)
    scaled = np.array([exp_scaled_e1(sigma / m) for m in mu])
    return float(weights @ scaled)


def ergodic_rate_closed(
    w_mat: np.ndarray,
    stats: ChannelStatistics,
    ell: int,
    sigma: float,
    mc_rng: np.random.Generator | None = None,
) -> float:
    """Closed-form ergodic rate E[ln(1 + SINR)] of user ``ell``, in nats.

    Requires the nonzero eigenvalues of the signal-plus-interference and
    interference-only Gram matrices to be well separated; near coalescence
    it falls back to a fixed-seed Monte Carlo estimate (the expansion is
    numerically singular there).
    """
    s_mat = (_covariance_images(w_mat, stats, slice(ell, ell + 1))[0] @ w_mat.conj()).T
    keep = [i for i in range(w_mat.shape[1]) if i != ell]
    s_int = s_mat[np.ix_(keep, keep)]
    eig_full = _distinct_positive_eigs(s_mat)
    eig_int = _distinct_positive_eigs(s_int)
    if eig_full is None or eig_int is None:
        logger.warning(
            "clustered eigenvalues for user %d; falling back to Monte Carlo", ell
        )
        rng = mc_rng if mc_rng is not None else np.random.default_rng(FALLBACK_MC_SEED)
        rate, _ = ergodic_rate_mc(w_mat, stats, ell, sigma, FALLBACK_MC_SAMPLES, rng)
        return rate
    return _expected_log_noise_plus_quad(eig_full, sigma) - _expected_log_noise_plus_quad(
        eig_int, sigma
    )


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


def nats_to_mbps(rate_nats: float, bandwidth_hz: float) -> float:
    """Convert nats per channel use to Mbit/s at one symbol per Hz."""
    if rate_nats < 0:
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
    n_users = w_mat.shape[1]
    slnrs = slnr_vec(w_mat, stats, sigma)
    nats = np.array(
        [max(ergodic_rate_closed(w_mat, stats, ell, sigma), 0.0) for ell in range(n_users)]
    )
    mbps = np.array([nats_to_mbps(r, bandwidth_hz) for r in nats])
    return RateReport(
        slnr=slnrs,
        rate_nats=nats,
        rate_mbps=mbps,
        min_rate_mbps=float(mbps.min()),
        max_rate_mbps=float(mbps.max()),
        min_max_ratio=min_max_ratio(mbps),
        jain=jain_index(mbps),
    )
