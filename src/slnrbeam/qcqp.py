"""Max-min concave-quadratic solver under one convex quadratic constraint.

Solves problems of the form

    maximize   min_l  q_l(v_l),   q_l(v_l) = a_l + 2 Re{b_l v_l} - v_l^H C_l v_l
    subject to sum_l v_l^H A_l v_l <= P,

with Hermitian PSD C_l and A_l. Users couple only through the power sum, so
the attainable objective level t admits an exact feasibility test: for each
user the minimum power P_l(t) needed to reach q_l(v_l) >= t is a
one-dimensional convex subproblem, and t is attainable iff those minimum
powers sum to at most P. After simultaneous diagonalization of the
(C_l, A_l) pencil, the multiplier of user l's subproblem solves a monotone
secular equation; a safeguarded Newton iteration on it (all users at once)
keeps a certified bracket q_l(nu_lo) < t <= q_l(nu_hi), so power(nu_lo) is
a certified underestimate of P_l(t).

The outer search keeps a bracket [t_lo, t_hi] where t_lo is achieved by an
explicitly constructed feasible point and t_hi is certified unattainable.
F(t) = sum_l P_l(t) - P is convex and increasing in t with slope
sum_l nu_l, so Newton steps from t_hi stay on the unattainable side and
chords through both ends stay on the attainable side; bisection is the
fallback whenever a step would leave the bracket or stops shrinking it.

The Lagrangian dual

    g(lam, mu) = mu P + sum_l max_{v_l} [lam_l q_l(v_l) - mu v_l^H A_l v_l],

over simplex weights lam and power price mu >= 0, upper-bounds the optimum
at every dual point; the solver evaluates it (with mu minimized exactly by a
safeguarded Newton search on the transmit power, ``_Pencils.power_price``)
at the weights recovered from the active users' multipliers to tighten the
certificate. The reported gap is the nonnegative difference between that
dual bound and the best feasible value.

A_l may be singular; a ridge of 1e-10 times A_l's own trace scale (floored
at a 1e-12 fraction of the largest user's) is added before diagonalizing,
which shrinks the feasible set by a negligible margin and never loosens it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import pencil_diagonalize

RIDGE_REL = 1e-10
# Smallest per-user power scale, relative to the largest, that sizes a ridge.
SCALE_FLOOR = 1e-12
# Relative width at which a per-user multiplier bracket counts as solved.
NU_REL_TOL = 1e-13
# A level that needs a larger multiplier lies within about 2^-600 (relative)
# of the user's unconstrained maximum, below floating-point resolution; it
# counts as out of reach. The cap keeps every path quantity finite.
NU_MAX = 2.0**300
# Cap on the rounds of one level search; desk problems need at most about 20.
MAX_LEVEL_STEPS = 200
FAR_EXCESS = 4.0
# Cap on the steps of one power-price search; Newton needs about ten.
MAX_PRICE_STEPS = 200


@dataclass
class MaxMinQuadraticProblem:
    """Per-user quadratic data and the shared power budget.

    ``a`` is (L,), ``b`` is (L, n) of row vectors, ``C`` and ``A`` are
    (L, n, n) Hermitian PSD stacks, ``P`` the budget.
    """

    a: np.ndarray
    b: np.ndarray
    C: np.ndarray
    A: np.ndarray
    P: float

    @property
    def n_users(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.b.shape[1]

    def objective_values(self, v: np.ndarray) -> np.ndarray:
        """Per-user quadratic values at stacked vectors v of shape (L, n)."""
        return quadratic_values(self.a, self.b, self.C, v)


def quadratic_form(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every user's v_l^H M_l v_l for an (L, n, n) Hermitian stack and (L, n) vectors."""
    return np.real(v.conj()[:, None, :] @ (mats @ v[:, :, None]))[:, 0, 0]


def quadratic_values(a: np.ndarray, b: np.ndarray, C: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every user's a_l + 2 Re{b_l v_l} - v_l^H C_l v_l for (L, n) vectors v."""
    return a + 2.0 * np.real(b[:, None, :] @ v[:, :, None])[:, 0, 0] - quadratic_form(C, v)


@dataclass
class SubproblemSolution:
    """Best feasible point, its min-objective, the certified relative gap and
    the number of outer level-search passes (0 only for the inactive-constraint
    short cut; otherwise the number of level trials, plus one for the pass that
    found the bracket closed unless ``max_iterations`` ran out first)."""

    v: np.ndarray
    objective: float
    gap: float
    iterations: int


def power_ridge_size(a_stack: np.ndarray) -> np.ndarray:
    """Per-user ridges for the power matrices, relative to their own trace scale.

    The pencil diagonalization needs each A_l positive definite; loading it
    with a fraction of the objective curvature's trace would distort the power
    metric whenever the two matrices live on very different scales, so only
    the power matrices' scales enter here. A user whose own scale falls below
    ``SCALE_FLOOR`` times the largest one (an all-zero A_l, say) takes that
    floor instead, and an all-zero stack takes unit scale: a ridge sized from
    a vanishing trace would be subnormal and leave the pencil with infinite
    eigenvalues.
    """
    scale = np.real(np.trace(a_stack, axis1=-2, axis2=-1)) / a_stack.shape[-1]
    top = float(scale.max())
    return RIDGE_REL * np.maximum(scale, SCALE_FLOOR * top if top > 0.0 else 1.0)


class _Pencils:
    """Diagonalized (C_l, A_l + eps I) pencils: the weighted Lagrangian surface.

    Serves the power price and its maximizers, shared by the closed-form
    designs and the max-min dual bound. :class:`_LevelPaths` adds the
    per-user minimum-power paths of the max-min level test.
    """

    def __init__(self, problem: MaxMinQuadraticProblem):
        self.problem = problem
        eps = power_ridge_size(problem.A)
        self.a_ridged = problem.A + eps[:, None, None] * np.eye(problem.dim)
        self.d, self.t = pencil_diagonalize(problem.C, self.a_ridged)
        b_t = (problem.b[:, None, :] @ self.t)[:, 0]
        abs_b_sq = np.abs(b_t) ** 2
        # Transformed linear terms this far below their row's maximum are
        # round-off zeros: kept, they drive level multipliers toward an
        # asymptote, and along a flat direction they make a maximizer that
        # fits the budget look unbounded, so the price spends the budget.
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
        budget = self.problem.P
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
        """Stacked maximizers v_l = lam_l (lam_l C_l + mu (A_l + eps I))^{-1} b_l^H."""
        den = lam[:, None] * self.d + mu
        num = lam[:, None] * np.conj(self.b_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = num / den
        u[num == 0.0] = 0.0
        return np.einsum("lij,lj->li", self.t, u)

    def dual_value(self, lam: np.ndarray) -> float:
        """g(lam, mu*(lam)) with the power price minimized exactly."""
        mu = self.power_price(lam)
        num = (lam[:, None] ** 2) * self.abs_b_sq
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = num / (lam[:, None] * self.d + mu)
        frac[num == 0.0] = 0.0
        return mu * self.problem.P + float(lam @ self.problem.a) + float(frac.sum())


class _LevelPaths(_Pencils):
    """The pencils plus every user's minimum-power path, for the max-min
    level test."""

    def __init__(self, problem: MaxMinQuadraticProblem):
        super().__init__(problem)
        w = self.abs_b_sq
        d_floor = 1e-13 * max(float(self.d.max()), 1e-300)
        self.flat = self.d <= d_floor
        # users with a flat direction carrying a linear term: q_l is unbounded
        self.escapes = (self.flat & (w > 0.0)).any(axis=1)
        # |b_j|^2 / d_j: what each non-flat direction adds to the maximum
        self.gain = np.where(self.flat, 0.0, w / np.where(self.flat, 1.0, self.d))
        self.w_curved = np.where(self.flat, 0.0, w)
        self.w_flat = np.where(self.flat, w, 0.0)
        self.q_curved = self.problem.a + self.gain.sum(axis=1)
        # unconstrained per-user maxima of q_l (inf along flat directions
        # carrying a linear term)
        self.q_free = np.where(self.escapes, np.inf, self.q_curved)
        # Every bracket end solved so far, stacked as (multiplier, then
        # level_curves' outputs) x users and nan where a user was not solved:
        # later level searches start from the tightest bracket among them.
        self._seen: list[np.ndarray] = []

    def level_curves(self, nu: np.ndarray, users: np.ndarray | slice = slice(None)):
        """Power, q and their pieces along the users' minimum-power paths.

        At finite per-user multipliers ``nu >= 0`` the path
        v_l(nu) = nu (A_l + nu C_l)^{-1} b_l^H traces the efficient
        power/objective frontier. With r_j = nu / (1 + nu d_j),

            power = sum_j |b_j|^2 r_j^2,   dq/dnu = 2 sum_j |b_j|^2 / (1 + nu d_j)^3,

        and dpower/dnu = nu dq/dnu: both coordinates increase with nu and q
        is concave in it. q = a + sum_j |b_j|^2 r_j (2 - d_j r_j) sums
        nonnegative terms, so it carries no cancellation. Split for the
        secular equation, q = q_curved - shortfall + lift: q_curved is a plus
        the sum of |b_j|^2 / d_j over non-flat directions, the shortfall
        sum_j (|b_j|^2 / d_j) / (1 + nu d_j)^2 runs over the same directions,
        and the lift is q's sum over flat ones, nonzero only for escaping
        users.

        Returns ``(power, q, shortfall, lift, dq_curved, dq_flat)``, the last
        two splitting dq/dnu between non-flat and flat directions.
        """
        d = self.d[users]
        inv = 1.0 / (1.0 + nu[:, None] * d)
        # r_j as 1 / (1/nu + d_j): every operation is monotone in nu, so the
        # computed power never decreases along the path
        inv_nu = np.divide(1.0, nu, out=np.full(nu.shape, np.inf), where=nu > 0.0)
        r = 1.0 / (inv_nu[:, None] + d)
        inv_cube = inv * inv * inv
        w = self.abs_b_sq[users]
        power = (w * r * r).sum(axis=1)
        gains = w * r * (2.0 - d * r)
        q = self.problem.a[users] + gains.sum(axis=1)
        shortfall = (self.gain[users] * inv * inv).sum(axis=1)
        dq_curved = 2.0 * (self.w_curved[users] * inv_cube).sum(axis=1)
        lift = np.zeros(nu.shape)
        dq_flat = np.zeros(nu.shape)
        if self.escapes[users].any():
            flat = self.flat[users]
            lift = np.where(flat, gains, 0.0).sum(axis=1)
            dq_flat = 2.0 * (self.w_flat[users] * inv_cube).sum(axis=1)
        return power, q, shortfall, lift, dq_curved, dq_flat

    def min_power_bracket(
        self, level: float, budget: float = np.inf
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bracket every user's minimum power for q_l >= level.

        Returns per-user ``(nu_lo, nu_hi, power_lo, power_hi)`` with
        q_l(nu_lo) < level <= q_l(nu_hi): power_lo is a certified
        underestimate of the true minimum and nu_hi reaches the level at
        power_hi. Users already at the level (q_l(0) >= level, i.e.
        level <= a_l up to round-off) get zeros; users that cannot reach it
        get infinities (or, past the multiplier cap, a finite nu_lo and
        power_lo with infinite upper ends).

        The multiplier solves a secular equation, phi(nu) = 0 with phi
        concave and increasing in nu:

            phi = shortfall^(-1/2) - (q_curved - level + lift)^(-1/2)

        wherever the second root is defined (the Moré–Sorensen transform;
        for users without escaping directions the lift is zero and phi is
        nearly linear), and phi = q - level before that. Each round
        evaluates, for all users at once, a Newton step from nu_lo (it never
        overshoots the root) and a point above it: the chord through the
        bracket ends (it never undershoots), or a doubled Newton step until
        the root is bracketed. Bisection or doubling takes over when a
        candidate leaves the bracket, and a minimum relative separation,
        growing fourfold while it keeps failing, gets past round-off
        plateaus. Brackets are solved at a relative width of ``NU_REL_TOL``.

        With a finite ``budget`` the search stops as soon as
        sum(power_lo) > budget, which certifies that the level needs more
        power than that; the brackets stay certified, only wider.
        """
        n_users = self.problem.n_users
        nu_lo = np.zeros(n_users)
        nu_hi = np.zeros(n_users)
        p_lo = np.zeros(n_users)
        p_hi = np.zeros(n_users)
        out = level >= self.q_free
        if out.any():
            for arr in (nu_lo, nu_hi, p_lo, p_hi):
                arr[out] = np.inf
            if np.isfinite(budget):
                return nu_lo, nu_hi, p_lo, p_hi
        if not self._seen:
            origin = np.zeros(n_users)
            self._seen.append(np.vstack([origin, *self.level_curves(origin)]))
        rows = np.nonzero((self._seen[0][2] < level) & ~out)[0]
        if rows.size:
            ends = self._start_brackets(level, rows)
            ends = self._solve_levels(level, rows, *ends, budget)
            for state in ends:
                seen = np.full((7, n_users), np.nan)
                seen[:, rows] = state[:7]
                self._seen.append(seen)
            nu_lo[rows], p_lo[rows] = ends[0][0], ends[0][1]
            nu_hi[rows], p_hi[rows] = ends[1][0], ends[1][1]
        return nu_lo, nu_hi, p_lo, p_hi

    def _start_brackets(self, level, rows):
        """The tightest certified bracket for each row among the solved ends."""
        seen = np.stack(self._seen)[:, :, rows]
        nu, q = seen[:, 0], seen[:, 2]
        columns = np.arange(rows.size)
        # the origin is below every searched level, so a lower end exists
        lo = seen[np.argmax(np.where(q < level, nu, -1.0), axis=0), :, columns].T
        hi = seen[np.argmin(np.where(q >= level, nu, np.inf), axis=0), :, columns].T
        hi[:, ~((q >= level).any(axis=0) & (hi[0] > lo[0]))] = np.inf
        return lo, hi

    def _solve_levels(self, level, rows, lo, hi, budget):
        k = rows.size
        # room for the shortfall: q_curved - level + lift
        room_0 = self.q_curved[rows] - level
        # Per-user state at either bracket end, one row per quantity: the
        # multiplier, then level_curves' outputs, then phi in its two forms.
        lo = np.vstack([lo, self._secular(lo, room_0, level)])
        hi = np.vstack([hi, self._secular(hi, room_0, level)])
        hi[:, ~np.isfinite(hi[0])] = np.inf
        misses = np.zeros(k)
        todo = np.ones(k, dtype=bool)
        both = np.concatenate([rows, rows])
        room_2 = np.concatenate([room_0, room_0])
        columns = np.arange(k)
        for _ in range(MAX_LEVEL_STEPS):
            nu_lo, nu_hi = lo[0], hi[0]
            span = 0.5 * NU_REL_TOL * 4.0**misses
            bounded = np.isfinite(nu_hi)
            # Newton from nu_lo on phi; ``shaped`` where the transform applies
            _, _, q, shortfall, lift, dq_curved, dq_flat, _, _ = lo
            room = room_0 + lift
            shaped = room > 0.0
            rel = np.divide(shortfall, room, out=np.zeros(k), where=shaped)
            num = np.where(shaped, 2.0 * shortfall * (np.sqrt(rel) - 1.0), level - q)
            den = np.where(shaped, dq_curved + rel * np.sqrt(rel) * dq_flat, dq_curved + dq_flat)
            # a step past the multiplier cap is taken as the cap, undivided
            step = np.divide(
                num, den, out=np.where(num > 0.0, NU_MAX, np.nan), where=den * NU_MAX > np.abs(num)
            )
            x_n = nu_lo + step
            took_newton = (x_n > nu_lo) & (x_n < nu_hi)
            # Newton met the upper end: the root sits just below it
            x_n = np.where(x_n >= nu_hi, nu_hi * (1.0 - span), x_n)
            # stalled or undefined: nudge up from nu_lo
            x_n = np.where(x_n > nu_lo, x_n, nu_lo * (1.0 + span))
            x_n = np.where(x_n < nu_hi, x_n, 0.5 * (nu_lo + nu_hi))
            # a point above: the chord once bracketed, else a doubled step
            phi_lo = np.where(shaped, lo[7], lo[8])
            rise = np.where(shaped, hi[7], hi[8]) - phi_lo
            width = np.where(bounded, nu_hi - nu_lo, 0.0)
            chord = nu_lo + np.divide(
                -phi_lo * width, rise, out=np.full(k, np.nan), where=bounded & (rise > 0.0)
            )
            x_u = np.where(bounded, chord, nu_lo + 2.0 * step)
            floor = x_n * (1.0 + span)
            ahead = x_u > floor
            x_u = np.minimum(np.where(ahead, x_u, floor), nu_hi)
            trial = np.where(todo, np.minimum(np.stack([x_n, x_u]), NU_MAX), 0.0)
            at = np.empty((9, 2 * k))
            at[0] = trial.ravel()
            at[1:7] = self.level_curves(at[0], both)
            at[7:] = self._secular(at, room_2, level)
            at = at.reshape(9, 2, k)
            reach_n = todo & (at[2, 0] >= level)
            reach_u = todo & (at[2, 1] >= level)
            # The lower candidate reaching the level supersedes the upper one;
            # the upper one not reaching it supersedes the lower one.
            hi = np.where(reach_n | reach_u, at[:, np.where(reach_n, 0, 1), columns], hi)
            lo = np.where(todo & ~reach_n, at[:, np.where(reach_u, 0, 1), columns], lo)
            solved = (hi[0] - lo[0] <= NU_REL_TOL * hi[0]) & np.isfinite(hi[0])
            misses = np.where(took_newton | solved, 0.0, np.minimum(misses + 1.0, 20.0))
            todo &= ~solved & (lo[0] < NU_MAX)
            if not todo.any():
                break
            if lo[1].sum() > budget:
                break
        return lo, hi

    @staticmethod
    def _secular(state, room_0, level):
        """phi at evaluated points: the transformed form (nan where it does
        not apply) and q - level."""
        room = room_0 + state[4]
        shaped = room > 0.0
        shortfall = state[3]
        transformed = np.divide(
            1.0, np.sqrt(shortfall), out=np.full(room.shape, np.inf), where=shortfall > 0.0
        ) - np.divide(
            1.0, np.sqrt(room, where=shaped, out=np.ones(room.shape)), out=np.full(room.shape, np.nan), where=shaped
        )
        return transformed, state[2] - level


def solve_maxmin(
    problem: MaxMinQuadraticProblem,
    tol: float = 1e-5,
    max_iterations: int = 5000,
    warm_start: np.ndarray | None = None,
) -> SubproblemSolution:
    """Solve the max-min quadratic problem with a certified relative gap.

    When ``warm_start`` (a feasible stacked point) is supplied, the returned
    objective never falls below the min-objective at the warm start: the
    warm start always stays in the candidate pool. If the iteration cap is
    reached first, the best feasible point is returned with the achieved gap.
    """
    n_users = problem.n_users
    if problem.P <= 0:
        raise ValueError(f"power budget must be positive, got {problem.P}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    pencils = _LevelPaths(problem)

    best_obj = -np.inf
    best_v = np.zeros((n_users, problem.dim), dtype=complex)

    def consider(v: np.ndarray, power: float | None = None) -> None:
        nonlocal best_obj, best_v
        if power is None:
            power = sum(quadratic_form(pencils.a_ridged, v).tolist())  # summed in user order
        # Rescale only genuine violations; a true-feasible warm start may
        # exceed the ridged budget by ridge order and must pass through
        # untouched so the warm-start guarantee holds exactly.
        if power > problem.P * (1.0 + 1e-9):
            v = v * np.sqrt(problem.P / power)
        obj = float(problem.objective_values(v).min())
        if obj > best_obj:
            best_obj = obj
            best_v = v.copy()

    if warm_start is not None:
        consider(np.asarray(warm_start, dtype=complex))

    # Inactive-constraint short cut: if the unconstrained per-user maximizers
    # exist and are jointly feasible, they solve the problem outright.
    if not pencils.escapes.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            u_free = np.conj(pencils.b_t) / pencils.d
        u_free[pencils.flat] = 0.0
        power_free = float((np.abs(u_free) ** 2).sum())
        if power_free <= problem.P:
            v_free = np.einsum("lij,lj->li", pencils.t, u_free)
            consider(v_free, power=power_free)
            return SubproblemSolution(v=best_v, objective=best_obj, gap=0.0, iterations=0)

    # Bracket the attainable level: the zero point is always feasible, and
    # the dual value at uniform weights upper-bounds the optimum.
    consider(np.zeros((n_users, problem.dim), dtype=complex), power=0.0)
    t_lo = best_obj
    uniform = np.full(n_users, 1.0 / n_users)
    q_cap = float(pencils.q_free.min())
    t_hi = max(min(q_cap, pencils.dual_value(uniform)), t_lo)
    upper = t_hi

    # What is known of F(t) = sum_l P_l(t) - P at each bracket end: lower and
    # upper bounds on F and on its slope sum_l nu_l, from the per-user
    # brackets. The zero point reaches every a_l at no power, so F = -P there.
    at_lo = (-problem.P, -problem.P, 0.0, 0.0) if t_lo <= float(problem.a.min()) else None
    at_hi = None
    # The level tested in full before the steps start: a better warm start's
    # own (its tangent bounds the optimum from above), else the dual bound.
    probe = t_lo if at_lo is None else (t_hi if t_hi < q_cap else None)
    moved_hi = False
    widths = [t_hi - t_lo]

    last_nus = None
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        width = t_hi - t_lo
        stop = 0.25 * tol * max(1.0, abs(t_lo), abs(t_hi))
        if width <= stop:
            break
        if probe is not None:
            level, budget, probe = probe, np.inf, None
        else:
            level = _next_level(t_lo, t_hi, at_lo, at_hi, moved_hi, widths, stop)
            # Searches stop early on levels needing over FAR_EXCESS times
            # the budget: their power sums are too loose to steer by anyway.
            budget = FAR_EXCESS * problem.P
        nus_lo, nus, p_lo, p_hi = pencils.min_power_bracket(level, budget)
        known = (
            float(p_lo.sum()) - problem.P,
            float(p_hi.sum()) - problem.P,
            float(nus_lo.sum()),
            float(nus.sum()),
        )
        if known[1] <= 0.0:
            t_lo, at_lo = level, known
            moved_hi = False
            last_nus = nus
            # the minimum-power point at multipliers nu_l: the weighted
            # maximizer at weights nu and unit price
            consider(pencils.dual_argmax(nus, 1.0))
        else:
            # A level whose bracket straddles the budget counts as
            # unattainable, as the bisection it replaces did; its ambiguity
            # is of the brackets' relative width, 1e-13.
            t_hi, at_hi = level, known
            moved_hi = True
        widths.append(t_hi - t_lo)

    # Dual polish: recover simplex weights from the active multipliers of
    # the last feasible point and evaluate the dual there; any dual value is
    # a valid upper bound, so this can only tighten the certificate.
    if last_nus is not None and float(last_nus.sum()) > 0.0 and np.all(np.isfinite(last_nus)):
        lam_hat = last_nus / float(last_nus.sum())
        upper = min(upper, pencils.dual_value(lam_hat))
    upper = min(upper, t_hi)

    # An infinite or undefined bound certifies nothing: the gap reads inf,
    # never nan, so every ``gap > limit`` check still trips.
    gap = np.inf
    if np.isfinite(upper):
        gap = max(upper - best_obj, 0.0) / max(1.0, abs(best_obj), abs(upper))
    return SubproblemSolution(v=best_v, objective=best_obj, gap=gap, iterations=iterations)


def _next_level(t_lo, t_hi, at_lo, at_hi, moved_hi, widths, stop) -> float:
    """Next trial level of the outer search, strictly inside (t_lo, t_hi).

    F is convex and increasing, so a tangent lands at or above the optimal
    level and the chord through both ends at or below it; with F and its
    slope known only within brackets, the bound that keeps each guarantee
    is used. The side not moved by the last trial goes first. Trials keep a
    fifth of the stopping width from the ends, so a step that barely moves
    an end closes the bracket instead; bisection takes over when no step
    applies or two trials failed to halve the bracket.
    """
    tangents = []
    if at_hi is not None and at_hi[0] > 0.0 and 0.0 < at_hi[3] < np.inf:
        tangents.append(t_hi - at_hi[0] / at_hi[3])
    if at_lo is not None and at_lo[0] < 0.0 and at_lo[2] > 0.0:
        tangents.append(t_lo - at_lo[0] / at_lo[2])
    above = min(tangents) if tangents else None
    below = None
    if at_lo is not None and at_hi is not None and at_lo[1] <= 0.0 < at_hi[1] < np.inf:
        below = t_lo - at_lo[1] * (t_hi - t_lo) / (at_hi[1] - at_lo[1])
    halving = len(widths) < 3 or widths[-1] <= 0.5 * widths[-3]
    margin = 0.2 * stop
    for cand in (below, above) if moved_hi else (above, below):
        if halving and cand is not None and t_lo < cand < t_hi:
            return min(max(cand, t_lo + margin), t_hi - margin)
    return 0.5 * (t_lo + t_hi)
