"""Outer-product beamformer sets and their transmit power.

A user's transmit matrix is a sum of M rank-one outer products,

    V_ell = sum_m v_e[m] @ v_a[m].T     (Q x Q),

composed from M elevation vectors and M azimuth vectors of length Q each.
Per user the M vectors of one side are kept stacked in a single length Q*M
vector (column-major over m). The transmit power is ||W||_F^2 for the
vectorized beamformers W (``beamformer_matrix``). With one side held fixed
it is a quadratic form in the other side's vector, through the fixed side's
Gram matrix (``coupling_matrix``); the designs orthonormalize the fixed side
first, which makes that Gram matrix the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Scenario

SIDES = ("azimuth", "elevation")


@dataclass
class BeamformerSet:
    """Stacked azimuth/elevation vectors for all users.

    ``v_a`` and ``v_e`` are (L, Q*M) complex arrays; row ``ell`` stacks that
    user's M length-Q vectors column-major.
    """

    Q: int
    M: int
    v_a: np.ndarray
    v_e: np.ndarray

    @property
    def L(self) -> int:
        return self.v_a.shape[0]

    def copy(self) -> "BeamformerSet":
        return BeamformerSet(self.Q, self.M, self.v_a.copy(), self.v_e.copy())

    def columns(self, side: str, ell: int) -> np.ndarray:
        """The M stacked vectors of one side as a (Q, M) column matrix."""
        v = self.v_a if side == "azimuth" else self.v_e
        return v[ell].reshape(self.Q, self.M, order="F")


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def beamformer_matrix(bf: BeamformerSet) -> np.ndarray:
    """Column-major vectorized beamformers as a (Q^2, L) matrix.

    Row ell of v.reshape(L, M, Q) holds user ell's M vectors, so one batched
    product gives every V_ell = sum_m v_e[m] v_a[m].T; axes ordered
    (column, row, user) then flatten to the vec columns.
    """
    shape = (bf.L, bf.M, bf.Q)
    v = bf.v_e.reshape(shape).swapaxes(-1, -2) @ bf.v_a.reshape(shape)
    return v.transpose(2, 1, 0).reshape(bf.Q * bf.Q, bf.L)


def coupling_matrix(side: str, bf: BeamformerSet) -> np.ndarray:
    """Power operators for updating ``side`` with the other side fixed.

    Returns the (L, QM, QM) stack of Hermitian PSD matrices A_l with
    ``v^H A_l v = ||sum_m v[m] v_fixed,l[m].T||_F^2`` for any stacked
    free-side vector v: user l's M x M Gram matrix of the fixed side's
    vectors Kronecker-expanded by I_Q. Orthonormal fixed vectors give the
    identity: the designs orthonormalize the fixed side before each update
    and never build this stack, which stays as the reference for that
    power identity.
    """
    _check_side(side)
    fixed = bf.v_e if side == "azimuth" else bf.v_a
    f = fixed.reshape(bf.L, bf.M, bf.Q).swapaxes(-1, -2)  # every user's (Q, M) columns
    gram = f.conj().swapaxes(-1, -2) @ f
    n = bf.Q * bf.M
    return (gram[:, :, None, :, None] * np.eye(bf.Q)[:, None, :]).reshape(bf.L, n, n)


def circular_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussian draws (unit variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def init_feasible(scenario: Scenario, rng: np.random.Generator) -> BeamformerSet:
    """Random full-power starting point.

    All entries are drawn standard circular complex Gaussian, then the
    azimuth block is rescaled so the total transmit power equals the budget
    exactly (power is quadratic in the azimuth block).
    """
    shape = (scenario.L, scenario.Q * scenario.M)
    bf = BeamformerSet(
        scenario.Q, scenario.M, circular_gaussian(rng, shape), circular_gaussian(rng, shape)
    )
    bf.v_a *= np.sqrt(scenario.P / np.linalg.norm(beamformer_matrix(bf)) ** 2)
    return bf

