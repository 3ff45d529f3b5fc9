"""Iterative beamforming algorithms and the uniform-power baseline.

All three designs run one alternating scheme (``_alternate``): each
half-iteration fits per-user SLNR surrogates for the azimuth or the
elevation side of the outer-product beamformers, the other side held fixed,
and steps to the surrogate's optimum unless that worsens the design's
driving objective. The designs differ in that objective and in the step:

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
each half-iteration. A worsening step is never accepted: if a closed-form
update would degrade the driving objective (possible only through finite
precision or, for the geometric mean, because a weighted-sum ascent step
does not always increase the product), the step is backtracked toward the
current iterate. Every result says why its run stopped.

Each candidate iterate is evaluated once: a backtracking trial builds its
beamformer matrix W and every user's expected signal and leakage power. The
accepted trial's evaluation is kept with the iterate and serves its
objective, its trace row (rates, power, incumbent) and the next
half-iteration's operators.
"""

from __future__ import annotations

import logging
import numbers
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .beamformer import (
    BeamformerSet,
    beamformer_matrix,
    circular_gaussian,
    coupling_matrix,
    init_feasible,
    user_powers,
)
from .channel import ChannelStatistics, Scenario
from .metrics import _signal_and_leakage, ergodic_rate_closed, slnr_vec
from .numerics import largest_generalized_eigvec
from .qcqp import (
    MaxMinQuadraticProblem,
    SubproblemSolution,
    _Pencils,
    quadratic_form,
    solve_maxmin,
)
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
# Relative duality gap to which each max-min subproblem is solved.
SUBPROBLEM_TOL = 1e-5


@dataclass
class AlgoOptions:
    """Knobs shared by the three iterative algorithms."""

    tolerance: float = 1e-3
    max_iterations: int = 200
    soft_c: float = 0.1

    def __post_init__(self):
        for name in ("tolerance", "soft_c"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Real) or not value > 0:
                raise ValueError(f"{name} must be a positive number, got {value!r}")
        if not _is_number(self.max_iterations, numbers.Integral) or self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be an integer >= 0, got {self.max_iterations!r}"
            )


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


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
    """A design run's incumbent, trace and ending.

    ``stop_reason`` is "tolerance", "stalled", "subproblem_regressed" or
    "max_iterations" (see ``_alternate``), or "direct" for the baseline's
    single evaluation; ``converged`` holds for "tolerance" and "direct".
    """

    algorithm: str
    incumbent: BeamformerSet | None
    incumbent_matrix: np.ndarray | None
    rate_min_nats: float
    trace: list[TraceEntry] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str | None = None
    final: BeamformerSet | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("tolerance", "direct")


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
    w_mat: np.ndarray,
    rates: np.ndarray,
    bf: BeamformerSet | None = None,
) -> OptimizationResult:
    """Adopt the (Q^2, L) beamformers ``w_mat`` iff the minimum of their
    per-user ergodic ``rates`` (nats) strictly improves.

    ``bf``, the set that ``w_mat`` vectorizes if there is one, is copied into
    the incumbent on adoption.
    """
    min_rate = float(np.min(rates))
    if min_rate > result.rate_min_nats:
        result.rate_min_nats = min_rate
        result.incumbent = None if bf is None else bf.copy()
        result.incumbent_matrix = w_mat
    return result


def closed_form_update(
    coeffs: SurrogateCoefficients,
    power_mats: np.ndarray,
    budget: float,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Optimal per-user vectors of a separable quadratic under a power cap.

    Solves, for positive user weights w_l (default 1),

        opt  sum_l w_l (+-2 Re{b_l v_l} -+ v_l^H C_l v_l)
        s.t. sum_l v_l^H A_l v_l <= budget,

    over the users' stacked coefficients and (L, n, n) power matrices A_l.
    It is a maximization for minorant coefficients and a minimization for
    majorant coefficients; both share the stationarity system
    v_l(mu) = w_l (w_l C_l + mu A_l)^{-1} b_l^H on the diagonalized pencils
    of :mod:`slnrbeam.qcqp`. Their power price (the Lagrangian dual's at
    weights w, a safeguarded Newton search) is zero exactly when the
    unconstrained solution C_l^{-1} b_l^H fits the budget, and is then
    returned as is; otherwise mu > 0 puts v on the budget sphere.
    """
    n_users = coeffs.b.shape[0]
    if n_users == 0:
        raise ValueError("no users")
    weights = np.ones(n_users) if weights is None else np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    pencils = _Pencils(MaxMinQuadraticProblem(np.zeros(n_users), coeffs.b, coeffs.C, power_mats, budget))
    mu = pencils.power_price(weights)
    v = pencils.dual_argmax(weights, mu)
    if mu == 0.0:  # fits in the ridged power metric, hence in the true one
        return v
    # The price targets the ridged power metric, which overstates the true
    # power by eps * ||v||^2. A final exact rescale lands on the budget
    # sphere; the radial move is of that (tiny) relative size, so the point
    # stays an optimum to that order.
    power = sum(quadratic_form(power_mats, v).tolist())  # summed in user order
    if abs(power - budget) > 1e-4 * budget:
        raise RuntimeError(f"power price residual {abs(power - budget):.3e} exceeds 1e-4 * budget")
    return v * np.sqrt(budget / power)


def baseline_uniform(stats: ChannelStatistics, scenario: Scenario) -> np.ndarray:
    """Uniform-power generalized-eigenvector beamformers, as a (Q^2, L) matrix.

    Each user's direction maximizes its signal-to-leakage Rayleigh quotient
    with a noise-loaded leakage matrix (loading L*sigma/P); the power budget
    is split equally, giving each column squared norm P/L.
    """
    n_users = stats.L
    cov = stats.covariance()
    loading = n_users * scenario.sigma / scenario.P * np.eye(cov.shape[1])
    leak = cov.sum(axis=0) - cov + loading
    w = largest_generalized_eigvec(leak, cov)
    return np.ascontiguousarray(np.sqrt(scenario.P / n_users) * w.T)


class _Run:
    """Shared state and bookkeeping for one alternating-optimization run.

    The current iterate ``bf`` is kept with its one evaluation (``evaluate``):
    its (Q^2, L) matrix ``w_mat``, every user's expected ``signal`` and
    ``leakage`` power, and the ``slnrs`` derived from them. The trace row,
    the incumbent and the next half-iteration's operators all read these.
    ``subproblem`` is the last max-min subproblem's solution, for the trace
    row.
    """

    def __init__(self, algorithm: str, scenario: Scenario, stats: ChannelStatistics):
        self.scenario = scenario
        self.stats = stats
        self.sigma = scenario.sigma
        self.rng = np.random.default_rng([scenario.seed, 1])
        self.bf = init_feasible(scenario, self.rng)
        self.keep(self.evaluate(self.bf))
        self.subproblem: SubproblemSolution | None = None
        self.result = OptimizationResult(
            algorithm=algorithm, incumbent=None, incumbent_matrix=None, rate_min_nats=-np.inf
        )

    def evaluate(self, bf: BeamformerSet) -> tuple[np.ndarray, ...]:
        """``(w_mat, signal, leakage, slnrs)`` of a candidate iterate ``bf``."""
        w_mat = beamformer_matrix(bf)
        signal, leakage = _signal_and_leakage(w_mat, self.stats)
        return w_mat, signal, leakage, signal / (leakage + self.sigma)

    def keep(self, evaluation: tuple[np.ndarray, ...]) -> None:
        """Adopt ``evaluate``'s result as the current iterate's."""
        self.w_mat, self.signal, self.leakage, self.slnrs = evaluation

    def record(self, step: float, objective: float) -> None:
        """Append a trace row and refresh the incumbent."""
        rates = ergodic_rate_closed(self.w_mat, self.stats, self.sigma)
        track_incumbent(self.result, self.w_mat, rates, bf=self.bf)
        sub = self.subproblem
        self.result.trace.append(
            TraceEntry(
                step=step,
                min_slnr=float(self.slnrs.min()),
                objective=objective,
                min_rate_nats=float(np.min(rates)),
                power=float(np.linalg.norm(self.w_mat) ** 2),
                subproblem_gap=None if sub is None else sub.gap,
                subproblem_iterations=None if sub is None else sub.iterations,
            )
        )

    def reinit_degenerate(self, side: str) -> None:
        """Replace zero-signal users' free vectors by a small random draw.

        A vanished expected signal makes every bound uninformative, so the
        user restarts from a fresh vector carrying one percent of the power
        left in the budget by the other users; the kept evaluation follows
        the change.
        """
        dead = np.nonzero(self.signal <= 0.0)[0]
        if dead.size == 0:
            return
        free = self.bf.v_a if side == "azimuth" else self.bf.v_e
        for ell in dead:
            per_user = user_powers(self.bf)
            remaining = max(self.scenario.P - (sum(per_user) - per_user[ell]), 1e-12 * self.scenario.P)
            draw = circular_gaussian(self.rng, free.shape[1])
            a_mat = coupling_matrix(side, self.bf)[ell]
            quad = float(np.real(draw.conj() @ (a_mat @ draw)))
            if quad <= 0.0:
                # Fixed side vanished as well; restart it at unit scale first.
                fixed = self.bf.v_a if side == "elevation" else self.bf.v_e
                redraw = circular_gaussian(self.rng, free.shape[1])
                fixed[ell] = redraw / np.linalg.norm(redraw)
                a_mat = coupling_matrix(side, self.bf)[ell]
                quad = float(np.real(draw.conj() @ (a_mat @ draw)))
            free[ell] = draw * np.sqrt(DEGENERATE_POWER_FRACTION * remaining / quad)
            logger.warning("reinitialized degenerate user %d on the %s side", ell, side)
        self.keep(self.evaluate(self.bf))

    def finish(self, iterations: int, stop_reason: str) -> OptimizationResult:
        self.result.iterations = iterations
        self.result.stop_reason = stop_reason
        self.result.final = self.bf.copy()
        return self.result


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

    Tries v_old + s (v_new - v_old) for s = 1, 1/2, ... (``max_halvings``
    trials); ``max_halvings=0`` tries v_new itself, unblended, once.
    Each trial is evaluated once (``_Run.evaluate``); ``objective`` maps its
    SLNR vector to the driving objective and ``better(new, old)`` says
    whether the step direction is acceptable. The accepted trial's
    evaluation becomes the run's. Returns the accepted objective value and
    whether any step was taken.
    """
    attr = "v_a" if side == "azimuth" else "v_e"
    v_old = getattr(run.bf, attr)
    trials = [v_new] if max_halvings == 0 else (
        v_old + 0.5**k * (v_new - v_old) for k in range(max_halvings)
    )
    for point in trials:
        evaluation = run.evaluate(replace(run.bf, **{attr: point}))
        value = objective(evaluation[-1])  # the trial's SLNRs
        if better(value, current):
            setattr(run.bf, attr, point)
            run.keep(evaluation)
            return value, True
    return current, False


def _alternate(
    algorithm: str,
    scenario: Scenario,
    stats: ChannelStatistics,
    options: AlgoOptions | None,
    objective,
    better,
    update,
    certified: bool = False,
) -> OptimizationResult:
    """The alternating scheme the three designs share.

    ``objective`` maps the SLNR vector to the driving objective, ``better``
    (``operator.ge`` or ``operator.le``) orders its values, and
    ``update(run, side, ops)`` returns the candidate free-side point of one
    half-iteration from the operators at the current iterate. A candidate
    is accepted through ``_backtrack``. A ``certified`` update (max-min,
    whose subproblem point never worsens the objective in exact arithmetic)
    is taken whole or not at all: a worsening point ends the run as
    "subproblem_regressed". Otherwise an iteration in which no fraction of
    either step helps ends the run as "stalled"; an iteration whose
    relative objective change is within the tolerance as "tolerance".
    """
    options = options or AlgoOptions()
    run = _Run(algorithm, scenario, stats)
    current = objective(run.slnrs)
    run.record(0.0, current)
    for it in range(1, options.max_iterations + 1):
        previous_full = current
        moved = False
        for half, side in enumerate(SIDE_ORDER):
            run.reinit_degenerate(side)
            ops = half_iteration_operators(side, run.bf, stats, run.signal, run.leakage, run.sigma)
            current, stepped = _backtrack(
                run, side, update(run, side, ops), objective, current, better,
                max_halvings=0 if certified else 40,
            )
            if certified and not stepped:
                logger.warning(
                    "%s stopped in iteration %d: the %s subproblem's point lowers "
                    "the min SLNR below %.9e (gap %.2e)",
                    algorithm, it, side, current, run.subproblem.gap,
                )
                return run.finish(it, "subproblem_regressed")
            moved = moved or stepped
            run.record(it - 0.5 + 0.5 * half, current)
        if not moved:
            return run.finish(it, "stalled")
        if abs(current - previous_full) <= options.tolerance * max(abs(previous_full), 1e-30):
            return run.finish(it, "tolerance")
    return run.finish(options.max_iterations, "max_iterations")


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

    def update(run: _Run, side: str, ops: HalfIterationOperators) -> np.ndarray:
        coeffs = slnr_minorant_coeffs(ops)
        problem = MaxMinQuadraticProblem(
            a=coeffs.a, b=coeffs.b, C=coeffs.C, A=coupling_matrix(side, run.bf), P=scenario.P
        )
        run.subproblem = solve_maxmin(problem, tol=SUBPROBLEM_TOL, warm_start=ops.v_bar)
        return run.subproblem.v

    objective = lambda slnrs: float(slnrs.min())
    return _alternate(
        "maxmin", scenario, stats, options, objective, operator.ge, update, certified=True
    )


def _geometric_mean_log(slnrs: np.ndarray) -> float:
    """Geometric mean over users of ln(1 + SLNR)."""
    logs = np.log1p(slnrs)
    if np.any(logs <= 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(logs))))


def run_gm(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Geometric-mean SLNR design with closed-form half-iteration updates.

    Each iteration recomputes inverse-log weights, then maximizes the
    weighted sum of log-SLNR minorants side by side in closed form. A step
    is kept only if the geometric mean does not decrease; otherwise it is
    backtracked along the update segment (weighted-sum ascent does not by
    itself guarantee product ascent), stalling if no fraction of the step
    helps.
    """
    weights = None

    def update(run: _Run, side: str, ops: HalfIterationOperators) -> np.ndarray:
        nonlocal weights
        if side == SIDE_ORDER[0]:
            weights = gm_weights(run.slnrs)
        return closed_form_update(
            gm_minorant_coeffs(ops), coupling_matrix(side, run.bf), scenario.P, weights=weights
        )

    return _alternate("gm", scenario, stats, options, _geometric_mean_log, operator.ge, update)


def _soft_objective_value(slnrs: np.ndarray, c: float) -> float:
    """The smoothed-minimum objective ln(sum_l (1 + SLNR_l / c)^-1)."""
    return float(np.log(np.sum(1.0 / (1.0 + slnrs / c))))


def run_soft(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Soft max-min SLNR design with closed-form half-iteration updates.

    Minimizes the smoothed minimum ln(sum_l (1 + SLNR_l / c)^-1), whose
    gap to the true (negated) minimum is at most ln L. Each half-iteration
    minimizes a tight quadratic majorant in closed form, so the objective
    trace never increases.
    """
    c = (options or AlgoOptions()).soft_c

    def update(run: _Run, side: str, ops: HalfIterationOperators) -> np.ndarray:
        _, coeffs = soft_majorant_coeffs(ops, c)
        return closed_form_update(coeffs, coupling_matrix(side, run.bf), scenario.P)

    objective = lambda slnrs: _soft_objective_value(slnrs, c)
    return _alternate("soft", scenario, stats, options, objective, operator.le, update)


def run_baseline(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Evaluate the uniform-power baseline in the common result format."""
    w_mat = baseline_uniform(stats, scenario)
    result = OptimizationResult(
        algorithm="baseline",
        incumbent=None,
        incumbent_matrix=None,
        rate_min_nats=-np.inf,
        stop_reason="direct",
    )
    rates = ergodic_rate_closed(w_mat, stats, scenario.sigma)
    track_incumbent(result, w_mat, rates)
    min_slnr = float(slnr_vec(w_mat, stats, scenario.sigma).min())
    result.trace.append(
        TraceEntry(
            step=0.0,
            min_slnr=min_slnr,
            objective=min_slnr,
            min_rate_nats=float(np.min(rates)),
            power=float(np.linalg.norm(w_mat) ** 2),
        )
    )
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
