"""Dense references shared by the test modules.

The library keeps only the Q x Q Kronecker factors; these helpers rebuild the
Q^2 x Q^2 second moments and the per-user SLNR the tests compare against.
"""

import numpy as np

from slnrbeam.beamformer import beamformer_matrix
from slnrbeam.metrics import slnr_vec


def dense_r_tilde(stats):
    """vec(H^T) second moments path_gain_l * kron(R_v,l^T, R_h,l) as an (L, Q^2, Q^2) stack."""
    return np.stack(
        [g * np.kron(r_v.T, r_h) for g, r_v, r_h in zip(stats.path_gain, stats.R_v, stats.R_h)]
    )


def user_slnr(bf, stats, ell, sigma):
    """Covariance-form SLNR of user ``ell`` under an outer-product beamformer set."""
    return float(slnr_vec(beamformer_matrix(bf), stats, sigma)[ell])
