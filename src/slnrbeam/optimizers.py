"""Iterative beamforming algorithms and the uniform-power baseline.

All three designs alternate between the azimuth and the elevation side of
the outer-product beamformers; each half-iteration optimizes one side with
the other held fixed:

  * ``run_maxmin`` maximizes the minimum SLNR by solving a convex max-min
    quadratic subproblem (module :mod:`slnrbeam.qcqp`) built from per-user
    SLNR minorants; the min-SLNR trace is nondecreasing per half-iteration.
  * ``run_gm`` maximizes the geometric mean of ln(1 + SLNR) through a
    weighted-sum surrogate with closed-form updates; weights are inversely
    proportional to each user's current log term.
  * ``run_soft`` minimizes the smoothed-minimum objective
    ln(sum_l (1 + SLNR_l / c)^-1) through a quadratic majorant with
    closed-form updates; the objective trace is nonincreasing.

Independently of its driving objective, every run tracks the incumbent
beamformers achieving the best minimum ergodic rate seen so far, evaluated
each half-iteration. A worsening step is never accepted: if a candidate
update would degrade the driving objective (possible only through finite
precision or, for the geometric mean, because a weighted-sum ascent step
does not always increase the product), the step is backtracked toward the
current iterate and the run stalls to convergence if no fraction helps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .beamformer import (
    BeamformerSet,
    beamformer_matrix,
    coupling_matrix,
    init_feasible,
    total_power,
)
from .channel import ChannelStatistics, Scenario
from .metrics import ergodic_rate_closed, ergodic_rate_mc, slnr_vec
from .numerics import largest_generalized_eigvec
from .qcqp import MaxMinQuadraticProblem, SubproblemSolution, _Pencils, solve_maxmin
from .surrogates import (
    HalfIterationOperators,
    SurrogateCoefficients,
    gm_minorant_coeffs,
    half_iteration_operators,
    slnr_minorant_coeffs,
    soft_majorant_coeffs,
)

logger = logging.getLogger(__name__)

SIDE_ORDER = ("azimuth", "elevation")
# Fraction of the remaining budget granted to a reinitialized degenerate user.
DEGENERATE_POWER_FRACTION = 0.01


@dataclass
class AlgoOptions:
    """Knobs shared by the three iterative algorithms."""

    tolerance: float = 1e-3
    max_iterations: int = 200
    soft_c: float = 0.1
    rate_eval: str = "closed"  # "closed" or "mc"
    mc_samples: int = 100_000
    rate_every: int = 1
    subproblem_tol: float = 1e-5
    seed: int | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.soft_c <= 0:
            raise ValueError(f"soft_c must be positive, got {self.soft_c}")
        if self.rate_eval not in ("closed", "mc"):
            raise ValueError(f"rate_eval must be 'closed' or 'mc', got {self.rate_eval!r}")
        if self.rate_every < 1:
            raise ValueError(f"rate_every must be >= 1, got {self.rate_every}")


@dataclass(slots=True)
class TraceEntry:
    """One half-iteration record; ``step`` advances by 0.5 per half.

    Max-min half-iterations also keep their subproblem's certified relative
    gap and outer-iteration count (:class:`~slnrbeam.qcqp.SubproblemSolution`);
    they stay None elsewhere and are not written to the trace CSV. Slotted:
    a sweep holds thousands of these.
    """

    step: float
    min_slnr: float
    objective: float
    min_rate_nats: float
    power: float
    subproblem_gap: float | None = None
    subproblem_iterations: int | None = None


@dataclass
class OptimizationResult:
    algorithm: str
    incumbent: BeamformerSet | None
    incumbent_matrix: np.ndarray | None
    rate_min_nats: float
    trace: list[TraceEntry] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    final: BeamformerSet | None = None


def gm_weights(slnr_values: np.ndarray) -> np.ndarray:
    """Inverse-log weights: largest log term over each user's own log.

    Weights are >= 1 with value 1 for the best user; their product is not
    normalized (logged for diagnosis, it generally exceeds one).
    """
    logs = np.log1p(np.asarray(slnr_values, dtype=float))
    if np.any(logs <= 0.0):
        raise ValueError("all SLNR values must be positive")
    weights = logs.max() / logs
    logger.debug("gm weight product: %.6e", float(np.prod(weights)))
    return weights


def track_incumbent(
    result: OptimizationResult,
    candidate,
    stats: ChannelStatistics,
    sigma: float,
    rates: np.ndarray | None = None,
) -> OptimizationResult:
    """Adopt ``candidate`` iff its minimum ergodic rate strictly improves.

    ``candidate`` is a BeamformerSet or an already-vectorized (Q^2, L)
    matrix. Precomputed per-user ``rates`` (nats) may be passed to avoid
    re-evaluation.
    """
    if isinstance(candidate, BeamformerSet):
        w_mat = beamformer_matrix(candidate)
        keep = candidate.copy()
    else:
        w_mat = np.asarray(candidate)
        keep = None
    if rates is None:
        rates = np.array(
            [ergodic_rate_closed(w_mat, stats, ell, sigma) for ell in range(w_mat.shape[1])]
        )
    min_rate = float(np.min(rates))
    if min_rate > result.rate_min_nats:
        result.rate_min_nats = min_rate
        result.incumbent = keep
        result.incumbent_matrix = w_mat
    return result


def closed_form_update(
    coeffs: list[SurrogateCoefficients],
    power_mats: list[np.ndarray],
    budget: float,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Optimal per-user vectors of a separable quadratic under a power cap.

    Solves, for positive user weights w_l (default 1),

        opt  sum_l w_l (+-2 Re{b_l v_l} -+ v_l^H C_l v_l)
        s.t. sum_l v_l^H A_l v_l <= budget,

    which is a maximization for minorant coefficients and a minimization for
    majorant coefficients; both share the same stationarity system. Branch
    one returns the unconstrained solution C_l^{-1} b_l^H when it meets the
    power budget; otherwise the multiplier mu > 0 solves

        v_l(mu) = w_l (w_l C_l + mu A_l)^{-1} b_l^H,   power(mu) = budget,

    on the diagonalized pencils of :mod:`slnrbeam.qcqp`, whose power price
    (the Lagrangian dual's, at weights w) is bisected to a residual of 1e-12
    times the budget.
    """
    n_users = len(coeffs)
    if n_users == 0:
        raise ValueError("no users")
    dim = coeffs[0].b.shape[0]
    if weights is None:
        weights = np.ones(n_users)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    eye = np.eye(dim)
    v_free = np.empty((n_users, dim), dtype=complex)
    for ell in range(n_users):
        eps = 1e-10 * max(float(np.real(np.trace(coeffs[ell].C))) / dim, 1e-300)
        mat = coeffs[ell].C + eps * eye
        v_free[ell] = np.linalg.solve(mat, coeffs[ell].b.conj())
        if not np.all(np.isfinite(v_free[ell])):
            raise np.linalg.LinAlgError(f"system for user {ell} not invertible after ridge")

    def true_power(v: np.ndarray) -> float:
        return sum(
            float(np.real(v[ell].conj() @ (power_mats[ell] @ v[ell])))
            for ell in range(n_users)
        )

    if true_power(v_free) <= budget:
        return v_free

    pencils = _Pencils(
        MaxMinQuadraticProblem(
            a=np.zeros(n_users),
            b=np.stack([c.b for c in coeffs]),
            C=np.stack([c.C for c in coeffs]),
            A=np.stack(power_mats),
            P=budget,
        )
    )
    v = pencils.dual_argmax(weights, pencils.power_price(weights))
    # The bisection targets the ridged power metric, which overstates the
    # true power by eps * ||v||^2; the mismatch grows when the solution has
    # large components along weakly coupled power directions. A final exact
    # rescale lands on the budget sphere; the radial move is of the same
    # (tiny) relative size, so the point stays an optimum to that order.
    power = true_power(v)
    if abs(power - budget) > 1e-4 * budget:
        raise RuntimeError(
            f"power bisection residual {abs(power - budget):.3e} exceeds 1e-4 * budget"
        )
    return v * np.sqrt(budget / power)


def baseline_uniform(stats: ChannelStatistics, scenario: Scenario) -> np.ndarray:
    """Uniform-power generalized-eigenvector beamformers, as a (Q^2, L) matrix.

    Each user's direction maximizes its signal-to-leakage Rayleigh quotient
    with a noise-loaded leakage matrix (loading L*sigma/P); the power budget
    is split equally, giving each column squared norm P/L.
    """
    n_users = stats.L
    loading = n_users * scenario.sigma / scenario.P * np.eye(stats.R.shape[1])
    leak = stats.R_sum - stats.R + loading
    w = largest_generalized_eigvec(leak, stats.R)
    return np.ascontiguousarray(np.sqrt(scenario.P / n_users) * w.T)


def _min_slnr(bf: BeamformerSet, stats: ChannelStatistics, sigma: float) -> float:
    w_mat = beamformer_matrix(bf)
    return min(slnr_vec(w_mat, stats, ell, sigma) for ell in range(bf.L))


class _RateEvaluator:
    """Per-run ergodic-rate evaluation with a deterministic sampling stream."""

    def __init__(self, stats: ChannelStatistics, sigma: float, options: AlgoOptions, seed: int):
        self.stats = stats
        self.sigma = sigma
        self.options = options
        self.rng = np.random.default_rng([seed, 2])

    def rates(self, w_mat: np.ndarray) -> np.ndarray:
        n_users = w_mat.shape[1]
        if self.options.rate_eval == "mc":
            return np.array(
                [
                    ergodic_rate_mc(
                        w_mat, self.stats, ell, self.sigma, self.options.mc_samples, self.rng
                    )[0]
                    for ell in range(n_users)
                ]
            )
        return np.array(
            [ergodic_rate_closed(w_mat, self.stats, ell, self.sigma) for ell in range(n_users)]
        )


class _Run:
    """Shared state and bookkeeping for one alternating-optimization run."""

    def __init__(
        self,
        algorithm: str,
        scenario: Scenario,
        stats: ChannelStatistics,
        options: AlgoOptions,
    ):
        self.scenario = scenario
        self.stats = stats
        self.options = options
        self.sigma = scenario.sigma
        seed = scenario.seed if options.seed is None else options.seed
        self.rng = np.random.default_rng([seed, 1])
        self.bf = init_feasible(scenario, self.rng)
        self.result = OptimizationResult(
            algorithm=algorithm, incumbent=None, incumbent_matrix=None, rate_min_nats=-np.inf
        )
        self.evaluator = _RateEvaluator(stats, self.sigma, options, seed)
        self.half_steps = 0

    def record(
        self,
        step: float,
        min_slnr: float,
        objective: float,
        subproblem: SubproblemSolution | None = None,
    ) -> None:
        """Append a trace row and refresh the incumbent on the rate cadence."""
        if self.half_steps % self.options.rate_every == 0:
            w_mat = beamformer_matrix(self.bf)
            rates = self.evaluator.rates(w_mat)
            track_incumbent(self.result, self.bf, self.stats, self.sigma, rates=rates)
            min_rate = float(np.min(rates))
        else:
            min_rate = np.nan
        self.half_steps += 1
        self.result.trace.append(
            TraceEntry(
                step=step,
                min_slnr=min_slnr,
                objective=objective,
                min_rate_nats=min_rate,
                power=total_power(self.bf),
                subproblem_gap=None if subproblem is None else subproblem.gap,
                subproblem_iterations=None if subproblem is None else subproblem.iterations,
            )
        )

    def reinit_degenerate(self, side: str, ops: HalfIterationOperators) -> HalfIterationOperators:
        """Replace zero-signal users' free vectors by a small random draw.

        A vanished expected signal makes every bound uninformative, so the
        user restarts from a fresh vector carrying one percent of the power
        left in the budget by the other users.
        """
        dead = np.nonzero(ops.signal <= 0.0)[0]
        if dead.size == 0:
            return ops
        free = self.bf.v_a if side == "azimuth" else self.bf.v_e
        for ell in dead:
            per_user = [
                float(
                    np.linalg.norm(
                        self.bf.columns("azimuth", lp) @ self.bf.columns("elevation", lp).T
                    )
                    ** 2
                )
                for lp in range(self.bf.L)
            ]
            remaining = max(self.scenario.P - (sum(per_user) - per_user[ell]), 1e-12 * self.scenario.P)
            draw = (
                self.rng.standard_normal(free.shape[1])
                + 1j * self.rng.standard_normal(free.shape[1])
            ) / np.sqrt(2.0)
            a_mat = coupling_matrix(side, self.bf, ell)
            quad = float(np.real(draw.conj() @ (a_mat @ draw)))
            if quad <= 0.0:
                # Fixed side vanished as well; restart it at unit scale first.
                fixed = self.bf.v_a if side == "elevation" else self.bf.v_e
                redraw = (
                    self.rng.standard_normal(free.shape[1])
                    + 1j * self.rng.standard_normal(free.shape[1])
                ) / np.sqrt(2.0)
                fixed[ell] = redraw / np.linalg.norm(redraw)
                a_mat = coupling_matrix(side, self.bf, ell)
                quad = float(np.real(draw.conj() @ (a_mat @ draw)))
            free[ell] = draw * np.sqrt(DEGENERATE_POWER_FRACTION * remaining / quad)
            logger.warning("reinitialized degenerate user %d on the %s side", ell, side)
        return half_iteration_operators(side, self.bf, self.stats, self.sigma)

    def set_side(self, side: str, vectors: np.ndarray) -> None:
        if side == "azimuth":
            self.bf.v_a = vectors
        else:
            self.bf.v_e = vectors

    def finish(self, iterations: int, converged: bool) -> OptimizationResult:
        self.result.iterations = iterations
        self.result.converged = converged
        self.result.final = self.bf.copy()
        return self.result


def run_maxmin(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Max-min SLNR design via convex max-min quadratic subproblems.

    Each half-iteration builds tight SLNR minorants at the current iterate
    and solves the resulting max-min problem on the power ball; the current
    iterate is kept in the subproblem's candidate pool, so the minimum SLNR
    never decreases. Terminates when its relative change over a full
    iteration drops below the tolerance.
    """
    options = options or AlgoOptions()
    run = _Run("maxmin", scenario, stats, options)
    current = _min_slnr(run.bf, stats, run.sigma)
    run.record(0.0, current, current)
    converged = False
    iterations = 0
    for it in range(1, options.max_iterations + 1):
        previous_full = current
        for half, side in enumerate(SIDE_ORDER):
            ops = half_iteration_operators(side, run.bf, stats, run.sigma)
            ops = run.reinit_degenerate(side, ops)
            coeffs = [
                slnr_minorant_coeffs(side, run.bf, stats, ell, run.sigma, ops=ops)
                for ell in range(run.bf.L)
            ]
            problem = MaxMinQuadraticProblem(
                a=np.array([c.a for c in coeffs]),
                b=np.stack([c.b for c in coeffs]),
                C=np.stack([c.C for c in coeffs]),
                A=np.stack([coupling_matrix(side, run.bf, ell) for ell in range(run.bf.L)]),
                P=scenario.P,
            )
            sol: SubproblemSolution = solve_maxmin(
                problem, tol=options.subproblem_tol, warm_start=ops.v_bar
            )
            trial = run.bf.copy()
            if side == "azimuth":
                trial.v_a = sol.v
            else:
                trial.v_e = sol.v
            new_val = _min_slnr(trial, stats, run.sigma)
            if new_val < current:
                # cannot improve further; keep the iterate
                logger.warning(
                    "maxmin stopped in iteration %d: the %s subproblem's point "
                    "lowers the min SLNR from %.9e to %.9e (gap %.2e)",
                    it, side, current, new_val, sol.gap,
                )
                converged = True
                break
            run.set_side(side, sol.v)
            current = new_val
            run.record(it - 0.5 + 0.5 * half, current, current, subproblem=sol)
        iterations = it
        if converged:
            break
        if abs(current - previous_full) <= options.tolerance * max(abs(previous_full), 1e-30):
            converged = True
            break
    return run.finish(iterations, converged)


def _geometric_mean_log(bf: BeamformerSet, stats: ChannelStatistics, sigma: float) -> float:
    """Geometric mean over users of ln(1 + SLNR)."""
    w_mat = beamformer_matrix(bf)
    logs = np.array(
        [np.log1p(slnr_vec(w_mat, stats, ell, sigma)) for ell in range(bf.L)]
    )
    if np.any(logs <= 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(logs))))


def _backtrack(
    run: _Run,
    side: str,
    v_new: np.ndarray,
    objective,
    current: float,
    better,
    max_halvings: int = 40,
) -> tuple[float, bool]:
    """Accept v_new, or a fraction of the step toward it, or stall.

    ``objective`` maps the beamformer set to the driving objective and
    ``better(new, old)`` says whether the step direction is acceptable.
    Returns the accepted objective value and whether any step was taken.
    """
    v_old = (run.bf.v_a if side == "azimuth" else run.bf.v_e).copy()
    scale = 1.0
    for _ in range(max_halvings):
        trial = run.bf.copy()
        blended = v_old + scale * (v_new - v_old)
        if side == "azimuth":
            trial.v_a = blended
        else:
            trial.v_e = blended
        value = objective(trial)
        if better(value, current):
            run.set_side(side, blended)
            return value, True
        scale *= 0.5
    return current, False


def run_gm(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Geometric-mean SLNR design with closed-form half-iteration updates.

    Each iteration recomputes inverse-log weights, then maximizes the
    weighted sum of log-SLNR minorants side by side in closed form. A step
    is kept only if the geometric mean does not decrease; otherwise it is
    backtracked along the update segment (weighted-sum ascent does not by
    itself guarantee product ascent), stalling to convergence if no
    fraction of the step helps.
    """
    options = options or AlgoOptions()
    run = _Run("gm", scenario, stats, options)
    objective = lambda bf: _geometric_mean_log(bf, stats, run.sigma)
    current = objective(run.bf)
    run.record(0.0, _min_slnr(run.bf, stats, run.sigma), current)
    converged = False
    iterations = 0
    for it in range(1, options.max_iterations + 1):
        previous_full = current
        ops_start = half_iteration_operators("azimuth", run.bf, stats, run.sigma)
        ops_start = run.reinit_degenerate("azimuth", ops_start)
        weights = gm_weights(ops_start.slnr())
        moved = False
        for half, side in enumerate(SIDE_ORDER):
            ops = (
                ops_start
                if side == "azimuth"
                else run.reinit_degenerate(
                    side, half_iteration_operators(side, run.bf, stats, run.sigma)
                )
            )
            coeffs = [
                gm_minorant_coeffs(side, run.bf, stats, ell, run.sigma, ops=ops)
                for ell in range(run.bf.L)
            ]
            a_mats = [coupling_matrix(side, run.bf, ell) for ell in range(run.bf.L)]
            v_new = closed_form_update(coeffs, a_mats, scenario.P, weights=weights)
            current, stepped = _backtrack(
                run, side, v_new, objective, current, better=lambda new, old: new >= old
            )
            moved = moved or stepped
            run.record(it - 0.5 + 0.5 * half, _min_slnr(run.bf, stats, run.sigma), current)
        iterations = it
        if not moved:
            converged = True
            break
        if abs(current - previous_full) <= options.tolerance * max(abs(previous_full), 1e-30):
            converged = True
            break
    return run.finish(iterations, converged)


def _soft_objective_value(
    bf: BeamformerSet, stats: ChannelStatistics, sigma: float, c: float
) -> float:
    w_mat = beamformer_matrix(bf)
    inv = [
        1.0 / (1.0 + slnr_vec(w_mat, stats, ell, sigma) / c) for ell in range(bf.L)
    ]
    return float(np.log(np.sum(inv)))


def run_soft(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Soft max-min SLNR design with closed-form half-iteration updates.

    Minimizes the smoothed minimum ln(sum_l (1 + SLNR_l / c)^-1), whose
    gap to the true (negated) minimum is at most ln L. Each half-iteration
    minimizes a tight quadratic majorant in closed form, so the objective
    trace never increases.
    """
    options = options or AlgoOptions()
    c = options.soft_c
    run = _Run("soft", scenario, stats, options)
    objective = lambda bf: _soft_objective_value(bf, stats, run.sigma, c)
    current = objective(run.bf)
    run.record(0.0, _min_slnr(run.bf, stats, run.sigma), current)
    converged = False
    iterations = 0
    for it in range(1, options.max_iterations + 1):
        previous_full = current
        moved = False
        for half, side in enumerate(SIDE_ORDER):
            ops = half_iteration_operators(side, run.bf, stats, run.sigma)
            ops = run.reinit_degenerate(side, ops)
            _, coeffs = soft_majorant_coeffs(side, run.bf, stats, c, run.sigma, ops=ops)
            a_mats = [coupling_matrix(side, run.bf, ell) for ell in range(run.bf.L)]
            v_new = closed_form_update(coeffs, a_mats, scenario.P)
            current, stepped = _backtrack(
                run, side, v_new, objective, current, better=lambda new, old: new <= old
            )
            moved = moved or stepped
            run.record(it - 0.5 + 0.5 * half, _min_slnr(run.bf, stats, run.sigma), current)
        iterations = it
        if not moved:
            converged = True
            break
        if abs(current - previous_full) <= options.tolerance * max(abs(previous_full), 1e-30):
            converged = True
            break
    return run.finish(iterations, converged)


def run_baseline(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Evaluate the uniform-power baseline in the common result format."""
    options = options or AlgoOptions()
    w_mat = baseline_uniform(stats, scenario)
    result = OptimizationResult(
        algorithm="baseline", incumbent=None, incumbent_matrix=None, rate_min_nats=-np.inf
    )
    evaluator = _RateEvaluator(
        stats, scenario.sigma, options, scenario.seed if options.seed is None else options.seed
    )
    rates = evaluator.rates(w_mat)
    track_incumbent(result, w_mat, stats, scenario.sigma, rates=rates)
    min_slnr = min(slnr_vec(w_mat, stats, ell, scenario.sigma) for ell in range(stats.L))
    result.trace.append(
        TraceEntry(
            step=0.0,
            min_slnr=min_slnr,
            objective=min_slnr,
            min_rate_nats=float(np.min(rates)),
            power=float(np.linalg.norm(w_mat) ** 2),
        )
    )
    result.iterations = 0
    result.converged = True
    return result


ALGORITHMS = {
    "maxmin": run_maxmin,
    "gm": run_gm,
    "soft": run_soft,
    "baseline": run_baseline,
}


def run_algorithm(
    name: str, scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    try:
        fn = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {sorted(ALGORITHMS)}")
    return fn(scenario, stats, options)
