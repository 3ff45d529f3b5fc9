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

Every expected power is an entry of the power Gram [k, j, i] =
w_i^H R_k w_j, which stacks every S_k (transposed), built once per matrix by
``power_gram``, the only function here that reads the channel statistics
apart from the Monte Carlo check ``ergodic_rate_mc``, which samples
channels from them. Its readers take the Gram alone: ``slnr_vec`` (through
``_signal_and_leakage``) reads its diagonals [k, l, l], and
``ergodic_rate_closed`` the spectra of every S_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, vec_batch, sample_channels

# Quadrature in u on the double-exponential map t = ln(s) = u - exp(c - u),
# c = -ln(largest trace + sigma): t follows u where s (trace + sigma) > 1,
# and the head below, where the integrand is about s * signal, falls off
# doubly exponentially in u within a few nodes. Halving the step moves no
# rate by more than 1e-13.
RATE_STEP = 0.25
# The grid's left end is u = c - RATE_LEFT, where s (trace + sigma) =
# exp(-RATE_LEFT - e^RATE_LEFT) < 1e-25 bounds the cut-off head in nats;
# two units further left change no rate's bits.
RATE_LEFT = 4.0
# Above s = RATE_TAIL / sigma the factor exp(-s sigma) leaves a tail of at
# most E1(RATE_TAIL) < 1e-19 nats.
RATE_TAIL = 40.0


def power_gram(w_mat: np.ndarray, stats: ChannelStatistics) -> np.ndarray:
    """The (L, n, n) power Gram [k, j, i] = w_i^H R_k w_j of the (Q^2, n) ``w_mat``.

    ``w_mat`` holds column-major vectorized beamformers. Works on the
    Kronecker factors only: with V_j = unvec(w_j),
    unvec(R_k w_j) = g_k R_v,k^T V_j R_h,k^T, whose transpose
    R_h,k V_j^T R_v,k reshapes row-major into the image R_k w_j / g_k. Per
    user, R_h,k multiplies the (Q, nQ) row [V_1^T ... V_n^T] and R_v,k the
    (nQ, Q) stack of the resulting blocks, two products in all. All images
    contract with conj(W) in one product, and the path gains scale the
    result. Slice k is channel user k's Gram S_k^T.
    """
    q, n = stats.Q, w_mat.shape[1]
    v_row = w_mat.T.reshape(n, q, q).swapaxes(0, 1).reshape(q, n * q)  # [V_1^T ... V_n^T]
    left = (stats.R_h @ v_row).reshape(-1, q, n, q).swapaxes(1, 2)  # R_h,k V_j^T
    images = left.reshape(-1, n * q, q) @ stats.R_v
    gram = images.reshape(-1, q * q) @ w_mat.conj()
    return stats.path_gain[:, None, None] * gram.reshape(-1, n, n)


def _signal_and_leakage(gram: np.ndarray, sigma: float) -> tuple[np.ndarray, ...]:
    """Every user's expected signal power w_l^H R_l w_l, leakage
    sum_{k != l} w_l^H R_k w_l and SLNR, the signal over the leakage plus
    ``sigma``, from the diagonals of the ``power_gram`` ``gram``."""
    power = np.real(np.diagonal(gram, axis1=1, axis2=2))  # [k, l] = w_l^H R_k w_l
    signal = np.diag(power)
    leakage = np.maximum(np.where(np.eye(len(power), dtype=bool), 0.0, power).sum(axis=0), 0.0)
    return signal, leakage, signal / (leakage + sigma)


def slnr_vec(gram: np.ndarray, sigma: float) -> np.ndarray:
    """Covariance-form SLNRs of all users from the ``power_gram`` of their
    (Q^2, L) beamformers: entry ell is user ell's expected signal power over
    its expected leakage toward the other users plus noise."""
    return _signal_and_leakage(gram, sigma)[2]


def ergodic_rate_closed(gram: np.ndarray, sigma: float) -> np.ndarray:
    """Every user's exact ergodic rate E[ln(1 + SINR)], in nats, as an (L,) array.

    Evaluates Hamdi's integral (module docstring) for all users on one
    double-exponential grid s = exp(u - exp(c - u)), c = -ln(largest trace
    + sigma), u spaced RATE_STEP apart from ln(RATE_TAIL / sigma) down to
    c - RATE_LEFT. The integrand vanishes at both ends, so the trapezoid
    rule is the step times the sum over nodes, each weighted by
    dt/du = 1 + exp(c - u).
    ``gram`` is the ``power_gram`` of a (Q^2, L) beamformer matrix. With
    a = ln det(I + s S_int) <= b = ln det(I + s S), the integrand's
    exp(-a) - exp(-b) is taken as exp(-a) (-expm1(a - b)), exact to
    round-off even when both determinants are close to 1 (low SNR). Rates
    are clipped at 0: a user with next to no signal would otherwise read a
    round-off negative.
    """
    n = gram.shape[1]
    # S_k with row and column k zeroed has the interference-only minor's
    # spectrum plus one zero. One stacked eigensolve serves both, so a user
    # whose row is already zero gets bit-identical spectra and a rate of 0.
    others = ~np.eye(n, dtype=bool)
    interference = gram * (others[:, :, None] & others[:, None, :])
    lam = np.clip(np.linalg.eigvalsh(np.concatenate([gram, interference])), 0.0, None)
    c = -np.log(lam[:n].sum(axis=1).max() + sigma)
    u_hi = np.log(RATE_TAIL / sigma)
    u = u_hi - RATE_STEP * np.arange(int(np.ceil((u_hi - c + RATE_LEFT) / RATE_STEP)) + 1)
    head = np.exp(c - u)
    s = np.exp(u - head)
    log_det = np.log1p(s[:, None, None] * lam).sum(axis=-1)  # ln det(I + s S)
    b, a = log_det[:, :n], log_det[:, n:]
    rates = RATE_STEP * (((1.0 + head) * np.exp(-sigma * s)) @ (np.exp(-a) * -np.expm1(a - b)))
    return np.maximum(rates, 0.0)


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


def fairness_cells(rate_mbps: np.ndarray) -> dict[str, float]:
    """The fairness aggregates of per-user rates in Mbit/s, keyed by their
    ``RateReport`` field (and results-file column) names."""
    return {
        "min_rate_mbps": float(rate_mbps.min()),
        "max_rate_mbps": float(rate_mbps.max()),
        "min_max_ratio": min_max_ratio(rate_mbps),
        "jain": jain_index(rate_mbps),
    }


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
    w_mat: np.ndarray, stats: ChannelStatistics, sigma: float, bandwidth_hz: float
) -> RateReport:
    """Every user's SLNR and closed-form ergodic rate, from one Gram build."""
    gram = power_gram(w_mat, stats)
    nats = ergodic_rate_closed(gram, sigma)
    mbps = nats_to_mbps(nats, bandwidth_hz)
    return RateReport(slnr_vec(gram, sigma), nats, mbps, **fairness_cells(mbps))
