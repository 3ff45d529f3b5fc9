"""Concave quadratics under one power ball: the closed-form weighted-sum
update and the certified max-min solver.

Every user's bound is one concave quadratic (:class:`Quadratics`)
q_l(v_l) = a_l + 2 Re{b_l v_l} - v_l^H C_l v_l with Hermitian PSD C_l, and
the users share the budget sum_l ||v_l||^2 <= P. ``closed_form_update``
maximizes a positively weighted sum of the q_l and ``solve_maxmin``
maximizes min_l q_l; both work on the diagonalized pencils (C_l, I).

Max-min runs on the Lagrangian dual surface. For per-user multipliers
nu_l >= 0, user l's path point v_l(nu) = nu (I + nu C_l)^{-1} b_l^H maximizes
nu_l q_l(v) - ||v||^2, so weak duality gives, for every nu with sum_l nu_l > 0,
the upper bound

    g(nu) = (P + sum_l (nu_l q_l(v_l) - ||v_l||^2)) / sum_l nu_l

on the optimum. At a level t, the multipliers of the users' minimum-power
problems (q_l >= t at least power P_l(t)) solve monotone secular equations;
there g is the Newton step on the convex increasing F(t) = sum_l P_l(t) - P,
whose slope is sum_l nu_l, so every level trial certifies a bound near the
optimum. The next level is the Newton step on log(sum_l P_l(t) / P)
instead: where users run along directions of little curvature with small
linear terms, sum_l P_l grows quadratically in t and Newton on F only
halves the distance per trial. A step that leaves the bounds, or a trial that does
not improve the bound, bisects them. The path points, scaled into the ball,
and the warm start are the feasible points; the best of them is the lower
bound, and the reported gap is the nonnegative difference between the
bounds.

The power metric is the identity: the designs orthonormalize the fixed side
of every user's beamformer before each half-iteration, so a user's transmit
power is the squared norm of its free-side vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import pencil_diagonalize

# Relative step below which a multiplier's Newton search counts as converged.
NU_REL_TOL = 1e-13
# A level that needs a larger multiplier lies within about 2^-600 (relative)
# of the user's unconstrained maximum, below floating-point resolution; the
# multiplier stops at the cap, which keeps every path quantity finite.
NU_MAX = 2.0**300
# Cap on the Newton steps of one multiplier search.
MAX_LEVEL_STEPS = 200
# Cap on the steps of one power-price search; Newton needs about ten.
MAX_PRICE_STEPS = 200


@dataclass
class Quadratics:
    """Every user's concave quadratic a_l + 2 Re{b_l v_l} - v_l^H C_l v_l.

    Stacked over users: ``a`` is (L,), ``b`` (L, n) of row vectors and ``C``
    an (L, n, n) Hermitian PSD stack.
    """

    a: np.ndarray
    b: np.ndarray
    C: np.ndarray

    def values(self, v: np.ndarray) -> np.ndarray:
        """Every user's value at stacked vectors v of shape (L, n)."""
        linear = 2.0 * np.real(self.b[:, None, :] @ v[:, :, None])[:, 0, 0]
        return self.a + linear - np.real(v.conj()[:, None, :] @ (self.C @ v[:, :, None]))[:, 0, 0]


@dataclass
class SubproblemSolution:
    """Best feasible point, its min-objective, the certified relative gap and
    the number of level trials (0 only for the inactive-constraint short cut)."""

    v: np.ndarray
    objective: float
    gap: float
    iterations: int


class _Pencils:
    """Diagonalized (C_l, I) pencils of ``quads`` under ``budget``: the
    weighted Lagrangian surface.

    Serves the power price and its maximizers to
    :func:`closed_form_update`; :class:`_LevelPaths` adds the per-user
    minimum-power paths of the max-min dual bound.
    """

    def __init__(self, quads: Quadratics, budget: float):
        self.quads = quads
        self.budget = budget
        self.d, self.t = pencil_diagonalize(quads.C)
        b_t = (quads.b[:, None, :] @ self.t)[:, 0]
        abs_b_sq = np.abs(b_t) ** 2
        # Transformed linear terms this far below their row's maximum are
        # round-off zeros: kept, they drive level multipliers toward an
        # asymptote, and along a zero-curvature direction they make a
        # maximizer that fits the budget look unbounded, so the price spends
        # the budget.
        kept = abs_b_sq > 1e-28 * abs_b_sq.max(axis=1, keepdims=True)
        self.b_t = np.where(kept, b_t, 0.0)
        self.abs_b_sq = np.where(kept, abs_b_sq, 0.0)

    def power_price(self, lam: np.ndarray) -> float:
        """Power price mu >= 0 minimizing g(lam, .): zero when the weighted
        maximizers fit the budget, else the root of the secular equation
        power(mu) = sum_j num_j / (s_j + mu)^2 = P over the terms with
        num_j = lam_l^2 |b_j|^2 > 0, s_j = lam_l d_j (Moré & Sorensen 1983).

        Newton on power^(-1/2), concave and increasing in mu, starts from
        the lower end of the certified bracket max_j (sqrt(num_j / P) - s_j)^+
        <= mu <= sqrt(sum_j num_j / P), so it never overshoots; bisection
        inside the bracket takes over if round-off sends a step outside it.
        Stops at a residual of 1e-12 P or when a step no longer moves mu.
        """
        budget = self.budget
        num = (lam[:, None] ** 2) * self.abs_b_sq
        live = num > 0.0
        num, s = num[live], (lam[:, None] * self.d)[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            if float((num / s**2).sum()) <= budget:
                return 0.0
            lo = max(float((np.sqrt(num / budget) - s).max()), 0.0)
            hi = math.sqrt(float(num.sum()) / budget)
            mu = lo
            for _ in range(MAX_PRICE_STEPS):
                inv = 1.0 / (s + mu)
                terms = num * inv * inv
                power = float(terms.sum())
                if abs(power - budget) <= 1e-12 * budget:
                    break
                lo, hi = (mu, hi) if power > budget else (lo, mu)
                # Newton on power^(-1/2); the slope is sum_j num_j / (s_j + mu)^3
                step = mu + power * (math.sqrt(power / budget) - 1.0) / float((terms * inv).sum())
                step = step if lo < step < hi else 0.5 * (lo + hi)
                if step == mu:
                    break
                mu = step
        return mu

    def dual_argmax(self, lam: np.ndarray, mu: float) -> np.ndarray:
        """Stacked maximizers v_l = lam_l (lam_l C_l + mu I)^{-1} b_l^H."""
        den = lam[:, None] * self.d + mu
        num = lam[:, None] * np.conj(self.b_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = num / den
        u[num == 0.0] = 0.0
        return np.einsum("lij,lj->li", self.t, u)


def closed_form_update(
    quads: Quadratics, budget: float, weights: np.ndarray | None = None
) -> np.ndarray:
    """Maximizer of sum_l w_l q_l(v_l) under sum_l ||v_l||^2 <= budget.

    For positive user weights w_l (default 1) the stationarity system is
    v_l(mu) = w_l (w_l C_l + mu I)^{-1} b_l^H on the diagonalized pencils;
    the constants a_l do not enter. The power price (the Lagrangian dual's at
    weights w, a safeguarded Newton search) is zero exactly when the
    unconstrained maximizer C_l^{-1} b_l^H fits the budget, which is then
    returned as is; otherwise mu > 0 puts v on the budget sphere.
    """
    n_users = quads.b.shape[0]
    if n_users == 0:
        raise ValueError("no users")
    weights = np.ones(n_users) if weights is None else np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    pencils = _Pencils(quads, budget)
    mu = pencils.power_price(weights)
    v = pencils.dual_argmax(weights, mu)
    if mu == 0.0:
        return v
    # The price stops at a power residual of 1e-12 * budget; a final exact
    # rescale lands on the budget sphere. A larger residual is a wrong
    # power, never rescaled away.
    power = float(np.vdot(v, v).real)
    if abs(power - budget) > 1e-4 * budget:
        raise RuntimeError(f"power price residual {abs(power - budget):.3e} exceeds 1e-4 * budget")
    return v * np.sqrt(budget / power)


class _LevelPaths(_Pencils):
    """The pencils plus every user's minimum-power path, for the max-min
    dual bound.

    Precondition: every user's linear term lies in the range of its
    curvature up to round-off, as the SLNR minorants' do by construction
    (b_l^H = k_l own_l v_bar_l with C_l = c_l sum_l and own_l <= sum_l). The
    linear term is dropped on every direction of exactly zero curvature, so
    no q_l is unbounded and every unconstrained maximum ``q_free`` is finite.
    """

    def __init__(self, quads: Quadratics, budget: float):
        super().__init__(quads, budget)
        curved = self.d > 0.0
        self.b_t = np.where(curved, self.b_t, 0.0)
        self.abs_b_sq = np.where(curved, self.abs_b_sq, 0.0)
        # |b_j|^2 / d_j: what each direction adds to the unconstrained maximum
        self.gain = np.divide(self.abs_b_sq, self.d, out=np.zeros(self.d.shape), where=curved)
        self.q_free = quads.a + self.gain.sum(axis=1)

    def level_curves(self, nu: np.ndarray):
        """Power, q and their pieces along the users' minimum-power paths.

        At per-user multipliers ``nu >= 0`` the path
        v_l(nu) = nu (I + nu C_l)^{-1} b_l^H traces the efficient
        power/objective frontier. With r_j = nu / (1 + nu d_j),

            power = sum_j |b_j|^2 r_j^2,   dq/dnu = 2 sum_j |b_j|^2 / (1 + nu d_j)^3,

        and dpower/dnu = nu dq/dnu: both coordinates increase with nu and q
        is concave in it. q = a + sum_j |b_j|^2 r_j (2 - d_j r_j) sums
        nonnegative terms, so it carries no cancellation. For the secular
        equation, q = q_free - shortfall with the shortfall
        sum_j (|b_j|^2 / d_j) / (1 + nu d_j)^2.

        Returns ``(power, q, shortfall, dq)``, the last being dq/dnu.
        """
        d = self.d
        inv = 1.0 / (1.0 + nu[:, None] * d)
        # r_j as 1 / (1/nu + d_j): every operation is monotone in nu, so the
        # computed power never decreases along the path
        inv_nu = np.divide(1.0, nu, out=np.full(nu.shape, np.inf), where=nu > 0.0)
        r = 1.0 / (inv_nu[:, None] + d)
        w = self.abs_b_sq
        power = (w * r * r).sum(axis=1)
        q = self.quads.a + (w * r * (2.0 - d * r)).sum(axis=1)
        shortfall = (self.gain * inv * inv).sum(axis=1)
        dq = 2.0 * (w * inv * inv * inv).sum(axis=1)
        return power, q, shortfall, dq

    def multipliers(self, level: float, start: np.ndarray) -> np.ndarray:
        """Every user's multiplier of its minimum-power problem at ``level``.

        Users that cannot rise above the level (level >= q_free) get the cap
        ``NU_MAX``, the others already at it (a_l >= level) zero. The rest's
        multipliers solve the secular equation phi(nu) = 0 with

            phi = shortfall^(-1/2) - (q_free - level)^(-1/2),

        concave, increasing and nearly linear in nu (the Moré–Sorensen
        transform). Newton runs from ``start`` (from zero where it sits at
        the cap), all users at once, clipped at zero: the tangent of a
        concave increasing function never leads above its root, so after the
        first step every step rises, and a user stops once its step falls
        below ``NU_REL_TOL`` of its multiplier or it meets the cap.
        """
        reached = self.quads.a >= level
        nu = np.where(level >= self.q_free, NU_MAX, np.where(reached | (start >= NU_MAX), 0.0, start))
        todo = ~reached & (nu < NU_MAX)
        room = self.q_free - level  # positive wherever todo holds
        for rounds in range(MAX_LEVEL_STEPS):
            if not todo.any():
                break
            _, _, shortfall, dq = self.level_curves(nu)
            rel = np.divide(shortfall, room, out=np.zeros(room.shape), where=todo)
            num = 2.0 * shortfall * (np.sqrt(rel) - 1.0)
            # a step longer than the multiplier cap is taken as the cap, undivided
            step = np.divide(num, dq, out=np.sign(num) * NU_MAX, where=dq * NU_MAX > np.abs(num))
            if rounds:
                todo &= step > NU_REL_TOL * nu
            nu = np.where(todo, np.clip(nu + step, 0.0, NU_MAX), nu)
            todo &= nu < NU_MAX
        return nu


def solve_maxmin(
    quads: Quadratics,
    budget: float,
    tol: float = 1e-5,
    max_iterations: int = 5000,
    warm_start: np.ndarray | None = None,
) -> SubproblemSolution:
    """Maximize min_l q_l(v_l) under sum_l ||v_l||^2 <= ``budget``, with a
    certified relative gap of at most ``tol``.

    Each level trial takes the users' multipliers at the level (Newton from
    the last trial's), keeps their path point, scaled into the ball, if it
    beats the best feasible point, and lowers the upper bound to g(nu). When
    ``warm_start`` (a feasible stacked point) is supplied, the returned
    objective never falls below the min-objective at the warm start, whose
    level is the first trial. If the iteration cap is reached first, or a
    level repeats (round-off), the best feasible point is returned with the
    achieved gap. Every user's linear term must lie in the range of its
    curvature up to round-off (:class:`_LevelPaths`), as the SLNR minorants'
    do; on a direction of exactly zero curvature it is dropped.
    """
    n_users, dim = quads.b.shape
    if budget <= 0:
        raise ValueError(f"power budget must be positive, got {budget}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    pencils = _LevelPaths(quads, budget)

    best_obj = -np.inf
    best_v = np.zeros((n_users, dim), dtype=complex)

    def consider(v: np.ndarray, power: float | None = None) -> None:
        nonlocal best_obj, best_v
        if power is None:
            power = float(np.vdot(v, v).real)
        # Rescale only genuine violations: a feasible warm start passes
        # through untouched, so the warm-start guarantee holds exactly.
        if power > budget * (1.0 + 1e-9):
            v = v * np.sqrt(budget / power)
        obj = float(quads.values(v).min())
        if obj > best_obj:
            best_obj = obj
            best_v = v.copy()

    if warm_start is not None:
        consider(np.asarray(warm_start, dtype=complex))

    # Inactive-constraint short cut: if the unconstrained per-user maximizers
    # are jointly feasible, they solve the problem outright (the linear term
    # is zero on every direction without curvature).
    u_free = np.conj(pencils.b_t) / np.where(pencils.d > 0.0, pencils.d, 1.0)
    power_free = float((np.abs(u_free) ** 2).sum())
    if power_free <= budget:
        consider(np.einsum("lij,lj->li", pencils.t, u_free), power=power_free)
        return SubproblemSolution(v=best_v, objective=best_obj, gap=0.0, iterations=0)

    # The zero point is feasible, and no user's q exceeds its unconstrained
    # maximum.
    consider(np.zeros((n_users, dim), dtype=complex), power=0.0)
    upper = float(pencils.q_free.min())
    level = best_obj
    nu = np.ones(n_users)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # A level every user reaches at zero power has no multipliers; the
        # first trial then keeps unit ones, which certify a bound as well.
        if level > float(quads.a.min()):
            nu = pencils.multipliers(level, nu)
        power, q, *_ = pencils.level_curves(nu)
        # the path point, scaled into the ball where it needs more power
        v = pencils.dual_argmax(nu, 1.0)
        consider(v * math.sqrt(budget / max(float(np.vdot(v, v).real), budget)))
        total = float(power.sum())
        bound = level + (float(nu @ (q - level)) + budget - total) / float(nu.sum())
        improved = bound < upper
        upper = min(upper, bound)
        if upper - best_obj <= tol * max(1.0, abs(best_obj), abs(upper)):
            break
        # The next level is the Newton step on log sum_l P_l(t) - log P. A
        # bound that did not improve (the level sat at an unconstrained
        # maximum, where the slope is infinite, or on round-off) or a step
        # outside the bounds bisects them instead; a level that repeats
        # would repeat its trial.
        step = level - total * math.log(total / budget) / float(nu.sum()) if total > 0.0 else upper
        next_level = step if improved and best_obj < step < upper else 0.5 * (best_obj + upper)
        if next_level == level:
            break
        level = next_level

    # An infinite or undefined bound certifies nothing: the gap reads inf,
    # never nan, so every ``gap > limit`` check still trips.
    gap = np.inf
    if np.isfinite(upper):
        gap = max(upper - best_obj, 0.0) / max(1.0, abs(best_obj), abs(upper))
    return SubproblemSolution(v=best_v, objective=best_obj, gap=gap, iterations=iterations)
