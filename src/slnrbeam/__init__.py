"""Statistical SLNR-based transmit beamforming for full-dimensional massive MIMO.

The library designs covariance-only (statistical) transmit beamformers for a
base station with a square antenna array serving single-antenna downlink
users, and evaluates the users' ergodic rates and fairness metrics. Three
iterative designs are provided, all driven by the signal-to-leakage-plus-noise
ratio (SLNR): a convex-subproblem max-min design, a geometric-mean design with
closed-form updates, and a smoothed (soft) max-min design with closed-form
updates, plus a uniform-power generalized-eigenvector baseline.
"""

from .channel import (
    ChannelStatistics,
    Scenario,
    UserGeometry,
    build_statistics,
    horizontal_correlation,
    pathloss_db,
    place_users,
    vertical_correlation,
)
from .beamformer import beamformer_matrix, init_feasible
from .metrics import (
    RateReport,
    ergodic_rate_closed,
    ergodic_rate_mc,
    jain_index,
    min_max_ratio,
    nats_to_mbps,
    power_gram,
    rate_report,
    slnr_vec,
)
from .optimizers import (
    AlgoOptions,
    OptimizationResult,
    baseline_uniform,
    closed_form_update,
    run_gm,
    run_maxmin,
    run_soft,
)

__all__ = [
    "AlgoOptions",
    "ChannelStatistics",
    "OptimizationResult",
    "RateReport",
    "Scenario",
    "UserGeometry",
    "baseline_uniform",
    "beamformer_matrix",
    "build_statistics",
    "closed_form_update",
    "ergodic_rate_closed",
    "ergodic_rate_mc",
    "horizontal_correlation",
    "init_feasible",
    "jain_index",
    "min_max_ratio",
    "nats_to_mbps",
    "pathloss_db",
    "place_users",
    "power_gram",
    "rate_report",
    "run_gm",
    "run_maxmin",
    "run_soft",
    "slnr_vec",
    "vertical_correlation",
]
