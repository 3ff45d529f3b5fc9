"""User geometry, correlation models, and Kronecker channel statistics.

The base station carries a Q x Q uniform rectangular array at 10 m height and
serves L single-antenna users dropped uniformly over a disk-shaped cell (with
a small exclusion radius around the mast so path gains stay bounded). Each
user's downlink channel matrix is separably correlated,

    H = sqrt(path_gain) * sqrt(R_v) @ H_iid @ sqrt(R_h),

with a vertical correlation matrix R_v set by the elevation angle and spread,
and a horizontal correlation matrix R_h set by both angles and spreads. The
second-moment matrices of the two vectorization orders are Kronecker
products of these factors,

    R       = path_gain * kron(R_h, R_v.T)   for vec(H)-transpose statistics,
    R_tilde = path_gain * kron(R_v.T, R_h)   for vec(H^T)-transpose statistics,

i.e. E[conj(vec(H)) vec(H)^T] = R and E[conj(vec(H^T)) vec(H^T)^T] = R_tilde,
with column-major vectorization everywhere. Only the Q x Q factors are
stored; every expected power is computed from them through the
mixed-product identity kron(A, B) vec(X) = vec(B X A^T).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import hermitian_sqrt

# Users closer than this to the mast are re-drawn implicitly by sampling the
# annulus [INNER_RADIUS, cell_radius] area-uniformly.
INNER_RADIUS = 10.0

NOISE_DENSITY_DBM_PER_HZ = -174.0


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_power_watt(bandwidth_hz: float, density_dbm_per_hz: float = NOISE_DENSITY_DBM_PER_HZ) -> float:
    """Thermal noise power over a bandwidth, from a dBm/Hz density."""
    return dbm_to_watt(density_dbm_per_hz) * bandwidth_hz


class ScenarioError(ValueError):
    """A Scenario field out of its range: ``field`` names it, ``rule`` says what it must be."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name} must be {rule}, got {value}")
        self.field, self.rule = name, rule


@dataclass(frozen=True)
class Scenario:
    """All physical and algorithmic parameters of one experiment.

    ``P`` and ``sigma`` are linear watts. ``sigma`` defaults to thermal noise
    at -174 dBm/Hz over ``bandwidth``. Angular spreads are radians.
    """

    Q: int
    L: int
    M: int = 1
    P: float = dbm_to_watt(24.0)
    sigma: float | None = None
    bandwidth: float = 10e6
    cell_radius: float = 200.0
    bs_height: float = 10.0
    ue_height: float = 1.5
    sigma_sf: float = 7.8
    sigma_alpha: float = float(np.deg2rad(5.0))
    sigma_beta: float = float(np.deg2rad(5.0))
    seed: int = 0

    def __post_init__(self):
        if self.sigma is None:
            object.__setattr__(self, "sigma", noise_power_watt(self.bandwidth))
        for name, ok, rule in (
            ("Q", self.Q >= 1, ">= 1"),
            ("L", self.L >= 1, ">= 1"),
            ("M", 1 <= self.M <= self.Q, f"between 1 and Q = {self.Q}"),
            ("P", self.P > 0, "positive"),
            ("bandwidth", self.bandwidth > 0, "positive"),
            ("sigma", self.sigma > 0, "positive"),
            ("cell_radius", self.cell_radius > INNER_RADIUS, f"above {INNER_RADIUS:g} m"),
            ("sigma_sf", self.sigma_sf >= 0, ">= 0"),
            ("sigma_alpha", self.sigma_alpha >= 0, ">= 0"),
            ("sigma_beta", self.sigma_beta >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ScenarioError(name, rule, getattr(self, name))


@dataclass(frozen=True)
class UserGeometry:
    """Placement-derived quantities for one user.

    ``distance`` is the horizontal (planar) distance to the mast,
    ``path_gain`` the linear large-scale gain including shadow fading.
    """

    distance: float
    azimuth_angle: float
    elevation_angle: float
    shadow_db: float
    path_gain: float


def pathloss_db(d: float, shadow_db: float = 0.0) -> float:
    """Path loss 28.8 + 35.3 log10(d) plus shadow fading, in dB, for d > 0."""
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    return 28.8 + 35.3 * np.log10(d) + shadow_db


def place_users(scenario: Scenario, rng: np.random.Generator) -> list[UserGeometry]:
    """Drop L users area-uniformly over the annulus [10 m, cell_radius].

    Angles come from the 3-D relative position of the user antenna (height
    ``ue_height``) with respect to the mast top (height ``bs_height``): the
    azimuth is the planar bearing, the elevation is the depression angle
    atan(height difference / horizontal distance). One shadow-fading draw
    per user, N(0, sigma_sf^2) dB.
    """
    r_sq = rng.uniform(INNER_RADIUS**2, scenario.cell_radius**2, scenario.L)
    dist = np.sqrt(r_sq)
    azim = rng.uniform(0.0, 2.0 * np.pi, scenario.L)
    shadow = rng.normal(0.0, scenario.sigma_sf, scenario.L)
    drop = scenario.bs_height - scenario.ue_height
    users = []
    for ell in range(scenario.L):
        elev = float(np.arctan2(drop, dist[ell]))
        gain = 10.0 ** (-pathloss_db(float(dist[ell]), float(shadow[ell])) / 10.0)
        users.append(
            UserGeometry(
                distance=float(dist[ell]),
                azimuth_angle=float(azim[ell]),
                elevation_angle=elev,
                shadow_db=float(shadow[ell]),
                path_gain=gain,
            )
        )
    return users


def vertical_correlation(beta: float, sigma_beta: float, Q: int) -> np.ndarray:
    """Vertical (elevation-domain) antenna correlation matrix.

    Entry (m, p) is exp(j*pi*(p-m)*cos(beta)) damped by a Gaussian factor
    exp(-0.5*(sigma_beta*pi*(p-m)*sin(beta))^2). Unit diagonal, Hermitian
    Toeplitz, entries bounded by one in magnitude.
    """
    k = np.arange(Q)
    diff = k[None, :] - k[:, None]  # p - m
    phase = np.exp(1j * np.pi * diff * np.cos(beta))
    damp = np.exp(-0.5 * (sigma_beta * np.pi * diff * np.sin(beta)) ** 2)
    return phase * damp


def horizontal_correlation(
    alpha: float, beta: float, sigma_alpha: float, sigma_beta: float, Q: int
) -> np.ndarray:
    """Horizontal (azimuth-domain) antenna correlation matrix.

    With g1 = pi*(q-n)*sin(beta), g2 = sigma_beta*pi*(q-n)*cos(beta) and
    g3 = g2^2 * sigma_alpha^2 * sin(alpha)^2 + 1, entry (n, q) is

        g3^(-1/2) * exp(-g2^2 cos(alpha)^2 / (2 g3))
                  * exp(j g1 cos(alpha) / g3)
                  * exp(-(g1 sigma_alpha sin(alpha))^2 / (2 g3)).

    The diagonal (q = n) forces g1 = g2 = 0 and g3 = 1, hence unit entries.
    """
    k = np.arange(Q)
    diff = k[None, :] - k[:, None]  # q - n
    g1 = np.pi * diff * np.sin(beta)
    g2 = sigma_beta * np.pi * diff * np.cos(beta)
    g3 = g2**2 * sigma_alpha**2 * np.sin(alpha) ** 2 + 1.0
    mag = (
        g3**-0.5
        * np.exp(-(g2**2) * np.cos(alpha) ** 2 / (2.0 * g3))
        * np.exp(-((g1 * sigma_alpha * np.sin(alpha)) ** 2) / (2.0 * g3))
    )
    return mag * np.exp(1j * g1 * np.cos(alpha) / g3)


@dataclass
class ChannelStatistics:
    """Per-user Kronecker channel statistics.

    Arrays are stacked over the user index: ``path_gain`` is (L,) and the
    correlation factors ``R_v``/``R_h`` are (L, Q, Q), the statistics' only
    representation: nothing derived from them is stored, and
    :func:`sample_channels` takes the factor roots on demand.
    """

    Q: int
    path_gain: np.ndarray
    R_v: np.ndarray
    R_h: np.ndarray
    geometry: list[UserGeometry] = field(default_factory=list)

    @property
    def L(self) -> int:
        return self.path_gain.shape[0]


def build_statistics(scenario: Scenario) -> ChannelStatistics:
    """Place the users and assemble their correlation factors.

    Users are placed with a generator seeded from ``scenario.seed`` (stream
    0), so repeated calls are identical.
    """
    geometry = place_users(scenario, np.random.default_rng([scenario.seed, 0]))
    Q = scenario.Q
    r_v = np.stack(
        [vertical_correlation(g.elevation_angle, scenario.sigma_beta, Q) for g in geometry]
    )
    r_h = np.stack(
        [
            horizontal_correlation(
                g.azimuth_angle, g.elevation_angle, scenario.sigma_alpha, scenario.sigma_beta, Q
            )
            for g in geometry
        ]
    )
    return ChannelStatistics(
        Q=Q,
        path_gain=np.array([g.path_gain for g in geometry]),
        R_v=r_v,
        R_h=r_h,
        geometry=geometry,
    )


def sample_channels(
    stats: ChannelStatistics, ell: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` iid channel realizations for user ``ell`` as an (n, Q, Q) array.

    The factor roots are taken on demand; they also give the roots of the
    Kronecker products, sqrt(kron(A, B)) = kron(sqrt(A), sqrt(B)) for PSD
    factors.
    """
    Q = stats.Q
    h_iid = (rng.standard_normal((n, Q, Q)) + 1j * rng.standard_normal((n, Q, Q))) / np.sqrt(2.0)
    root = np.sqrt(stats.path_gain[ell])
    return root * (hermitian_sqrt(stats.R_v[ell]) @ h_iid @ hermitian_sqrt(stats.R_h[ell]))


def vec_batch(mats: np.ndarray) -> np.ndarray:
    """Column-major vectorization of an (n, Q, Q) batch, giving (n, Q*Q)."""
    n = mats.shape[0]
    return mats.transpose(0, 2, 1).reshape(n, -1)
