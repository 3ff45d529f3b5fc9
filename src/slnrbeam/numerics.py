"""Complex linear-algebra and scalar special-function utilities.

All routines are deterministic given the input bits (LAPACK drivers only,
no randomized algorithms), so seeded experiment traces reproduce exactly.
Only numpy is needed: the baseline's generalized Hermitian eigenvectors use
the Cholesky reduction of LAPACK's xHEGV, written out on numpy's linear
algebra.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

# Hermitian symmetry tolerance (absolute, relative to unit-scaled entries).
HERMITIAN_ATOL = 1e-12
# Eigenvalues above -PSD_CLIP_REL * lam_max are treated as round-off zeros.
PSD_CLIP_REL = 1e-9

_EULER_GAMMA = 0.57721566490153286060651209008240243


def check_hermitian(mat: np.ndarray) -> None:
    """Raise ValueError unless ``mat`` is a square Hermitian matrix, or a stack
    of them, within tolerance (scaled per matrix)."""
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not mat.size:
        return
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    tol = HERMITIAN_ATOL * scale
    dev = np.abs(mat - np.swapaxes(mat.conj(), -1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(dev > tol)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^H| = {dev.flat[k]:.3e} "
            f"exceeds {tol.flat[k]:.3e}"
        )


def hermitian_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Non-Hermitian input (beyond round-off) raises ValueError; the
    eigendecomposition reads the input's Hermitian part. Eigenvalues in
    ``(-PSD_CLIP_REL * lam_max, 0)`` are clipped to zero; anything more
    negative raises ValueError (the matrix is not PSD).
    """
    check_hermitian(mat)
    lam, vec = np.linalg.eigh(0.5 * (mat + np.asarray(mat).conj().T))  # ascending
    floor = -PSD_CLIP_REL * max(float(lam[-1]), 0.0) if lam.size else 0.0
    if lam.size and float(lam[0]) < floor:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {lam[0]:.3e} "
            f"below clip threshold {floor:.3e}"
        )
    root = vec * np.sqrt(np.clip(lam, 0.0, None))
    return root @ vec.conj().T


def exp_scaled_e1(x: float) -> float:
    """Compute ``exp(x) * E1(x)`` for x > 0 without overflow.

    Uses the alternating series for x < 1 and a modified-Lentz continued
    fraction otherwise. The scaled form stays finite for arbitrarily large
    x (it decays like 1/x), which the rate formulas rely on when a channel
    eigenvalue is tiny compared to the noise power.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"E1 requires x > 0, got {x}")
    if x < 1.0:
        # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k * k!)
        total = -_EULER_GAMMA - np.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            total -= term / k
            if abs(term) < 1e-18 * max(abs(total), 1e-30):
                break
        return float(np.exp(x) * total)
    # exp(x) E1(x) = 1 / (x+1 - 1^2/(x+3 - 2^2/(x+5 - ...)))
    tiny = 1e-300
    f = x + 1.0
    c = f
    d = 0.0
    for k in range(1, 500):
        a_k = -float(k * k)
        b_k = x + 1.0 + 2.0 * k
        d = b_k + a_k * d
        if d == 0.0:
            d = tiny
        c = b_k + a_k / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1.0 / f


def bisect(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_iter: int | None = None,
) -> float:
    """Root of a continuous monotone scalar function by bisection.

    ``g(lo)`` and ``g(hi)`` must have opposite signs; callers that cannot
    guarantee a bracket should widen ``hi`` geometrically first. Stops when
    ``|g(mid)| <= tol`` or the interval width drops below
    ``tol * max(1, |mid|)``.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if np.sign(g_lo) == np.sign(g_hi):
        raise ValueError(
            f"bracket failure: g({lo}) = {g_lo:.3e} and g({hi}) = {g_hi:.3e} "
            "have the same sign"
        )
    if max_iter is None:
        max_iter = int(np.ceil(np.log2(max((hi - lo) / tol, 1.0)))) + 2
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= tol or (hi - lo) <= tol * max(1.0, abs(mid)):
            return mid
        if np.sign(g_mid) == np.sign(g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return mid


def largest_generalized_eigvec(a: np.ndarray, roots: Iterable[np.ndarray]) -> np.ndarray:
    """Unit-norm maximizers of generalized Rayleigh quotients with one metric.

    For a Hermitian positive-definite metric ``a`` (n, n) and an iterable of
    roots S_l, each (n, r_l) (a stacked (L, n, r) array also serves), row l of
    the (L, n) result maximizes ``(w^H S_l S_l^H w) / (w^H A w)``: with
    A = K K^H it is K^-H u_l for the top left singular vector u_l of K^-1 S_l.
    The roots are read one at a time, so a generator keeps a single user's
    root alive. The global phase is fixed so the pivot is real positive: the
    first entry whose magnitude is within a relative 1e-8 of the largest, so
    that round-off cannot flip a tie (the baseline's largest entries come in
    exactly mirrored pairs). A metric that is not positive definite raises
    ValueError. ``a`` must be Hermitian, which is not checked: the Cholesky
    factorization reads its lower triangle only.
    """
    try:
        inv = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError as err:
        raise ValueError(f"metric matrix is not positive definite: {err}") from None

    def direction(root: np.ndarray) -> np.ndarray:
        u = np.linalg.svd(inv @ root, full_matrices=False)[0][:, 0]
        return (u.conj() @ inv).conj()

    w = np.array([direction(root) for root in roots])
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    mag = np.abs(w)
    first = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=-1, keepdims=True), axis=-1)
    pivot = np.take_along_axis(w, first[..., None], axis=-1)
    return w * np.conj(pivot / np.abs(pivot))


def pencil_diagonalize(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize Hermitian PSD curvatures ``C`` against the identity.

    For ``c`` a single matrix or a stack of shape (..., n, n), returns
    ``(w, T)`` with T unitary and ``T^H C T = diag(w)``, the eigenvalues
    ascending and clipped at 0. Substituting ``v = T u`` turns every shifted
    solve ``(alpha*C + mu*I) v = r`` into a diagonal one, which the
    power-allocation searches exploit. Every curvature must be Hermitian,
    which is not checked: ``eigh`` reads one triangle only.
    """
    lam, t = np.linalg.eigh(c)
    return np.clip(lam, 0.0, None), t
