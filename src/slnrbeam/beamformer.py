"""Outer-product beamformer factors and their transmit power.

A user's transmit matrix is a sum of M rank-one outer products,

    V_ell = sum_m v_e[m] @ v_a[m].T     (Q x Q),

composed from M elevation and M azimuth vectors of length Q. All users'
vectors are one complex array ``factors`` of shape (2, L, M, Q):
``factors[s, ell, m]`` is user ell's m-th vector on side ``SIDES[s]`` (0
azimuth, 1 elevation), the other side being ``1 - s``, and
``factors[s].reshape(L, Q*M)`` holds one side as the solvers take it, a row
per user. The transmit power is ||W||_F^2 for the vectorized beamformers W
(``beamformer_matrix``). With one side held fixed it is a quadratic form in
the other side's vector, through the fixed side's Gram matrix
(``coupling_matrix``); the designs orthonormalize the fixed side first,
which makes that Gram matrix the identity.
"""

from __future__ import annotations

import numpy as np

from .channel import Scenario

# Side names by index, for log lines.
SIDES = ("azimuth", "elevation")


def beamformer_matrix(factors: np.ndarray) -> np.ndarray:
    """Column-major vectorized beamformers as a (Q^2, L) matrix.

    One batched product of each user's (Q, M) elevation columns with its
    (M, Q) azimuth rows gives every V_ell = sum_m v_e[m] v_a[m].T; axes
    ordered (column, row, user) then flatten to the vec columns.
    """
    n_users, _, q = factors.shape[1:]
    v = factors[1].swapaxes(-1, -2) @ factors[0]
    return v.transpose(2, 1, 0).reshape(q * q, n_users)


def coupling_matrix(side: int, factors: np.ndarray) -> np.ndarray:
    """Power operators for updating ``side`` with the other side fixed.

    Returns the (L, QM, QM) stack of Hermitian PSD matrices A_l with
    ``v^H A_l v = ||sum_m v[m] v_fixed,l[m].T||_F^2`` for any stacked
    free-side vector v: user l's M x M Gram matrix of the fixed side's
    vectors Kronecker-expanded by I_Q. Orthonormal fixed vectors give the
    identity: the designs orthonormalize the fixed side before each update
    and never build this stack, which stays as the reference for that
    power identity.
    """
    n_users, m, q = factors.shape[1:]
    f = factors[1 - side].swapaxes(-1, -2)  # every user's (Q, M) columns
    gram = f.conj().swapaxes(-1, -2) @ f
    n = q * m
    return (gram[:, :, None, :, None] * np.eye(q)[:, None, :]).reshape(n_users, n, n)


def circular_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussian draws (unit variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def init_feasible(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Random full-power starting factors.

    All entries are drawn standard circular complex Gaussian, the azimuth
    side first, then the azimuth side is rescaled so the total transmit
    power equals the budget exactly (power is quadratic in that side).
    """
    shape = (scenario.L, scenario.M, scenario.Q)
    factors = np.stack([circular_gaussian(rng, shape), circular_gaussian(rng, shape)])
    factors[0] *= np.sqrt(scenario.P / np.linalg.norm(beamformer_matrix(factors)) ** 2)
    return factors
