"""Iterative beamforming algorithms and the uniform-power baseline.

All three designs run one alternating scheme (``_alternate``): each
half-iteration fits per-user SLNR surrogates for the azimuth or the
elevation side of the outer-product beamformers, the other side held fixed,
and steps toward the surrogate's optimum. The designs differ in their
driving objective and in that optimum:

  * ``run_maxmin`` maximizes the minimum SLNR by solving a convex max-min
    quadratic subproblem (module :mod:`slnrbeam.qcqp`) built from per-user
    SLNR minorants; the min-SLNR trace is nondecreasing.
  * ``run_gm`` maximizes the geometric mean of ln(1 + SLNR) through a
    weighted-sum surrogate with closed-form updates; weights are inversely
    proportional to each user's current log term.
  * ``run_soft`` minimizes the smoothed-minimum objective
    ln(sum_l (1 + SLNR_l / c)^-1) through a quadratic majorant with
    closed-form updates (maximizing its negation); the objective trace is
    nonincreasing.

The closed-form step is :func:`slnrbeam.qcqp.closed_form_update`, re-exported
here; every bound is one :class:`slnrbeam.qcqp.Quadratics` stack.

Independently of its driving objective, every run tracks the incumbent
beamformers achieving the best minimum ergodic rate seen so far, evaluated
each half-iteration. Every design steps by the rule of a minorize-maximize
scheme (Sun, Babu & Palomar, IEEE TSP 2017), that no accepted step worsens
the driving objective: its optimum, max-min's subproblem point included, is
backtracked toward the current iterate until it is no worse (a worse optimum
arises through finite precision, the subproblem's gap or, for the geometric
mean, because weighted-sum ascent need not raise the product). Every result
says why its run stopped.

Each candidate iterate is evaluated once: a backtracking trial builds its
beamformer matrix W, W's power Gram (:func:`slnrbeam.metrics.power_gram`)
and, from its diagonals, every user's expected signal and leakage power and
SLNR. The accepted trial's evaluation is kept with the iterate and serves
its objective, its trace row (the rate oracle reads its Gram; power,
incumbent) and the next half-iteration's operators.
"""

from __future__ import annotations

import logging
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .beamformer import SIDES, beamformer_matrix, circular_gaussian, init_feasible
from .channel import ChannelStatistics, Scenario
from .metrics import _signal_and_leakage, ergodic_rate_closed, power_gram, slnr_vec
from .numerics import largest_generalized_eigvec
from .qcqp import SubproblemSolution, closed_form_update, solve_maxmin
from .surrogates import (
    HalfIterationOperators,
    gm_minorant_coeffs,
    half_iteration_operators,
    slnr_minorant_coeffs,
    soft_majorant_coeffs,
)

logger = logging.getLogger(__name__)

# Fraction of the remaining budget granted to a reinitialized degenerate user.
DEGENERATE_POWER_FRACTION = 0.01
# Relative duality gap to which each max-min subproblem is solved.
SUBPROBLEM_TOL = 1e-5


@dataclass
class AlgoOptions:
    """Knobs shared by the three iterative algorithms; a value out of range is
    a ValueError naming its key."""

    tolerance: float = 1e-3
    max_iterations: int = 200
    soft_c: float = 0.1

    def __post_init__(self):
        for name in ("tolerance", "soft_c"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Real) or not 0 < value < np.inf:
                raise ValueError(f"key {name!r} must be a positive finite number, got {value!r}")
        if not _is_number(self.max_iterations, numbers.Integral) or self.max_iterations < 0:
            raise ValueError(
                f"key 'max_iterations' must be an integer >= 0, got {self.max_iterations!r}"
            )


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


# A run's trace: one row per half-iteration, ``step`` advancing by 0.5 per
# half. Max-min rows also keep their subproblem's certified relative gap and
# level trials (:class:`~slnrbeam.qcqp.SubproblemSolution`); other rows read
# NaN and -1 there. Neither is written to the trace CSV.
TRACE_DTYPE = np.dtype(
    [("step", float), ("min_slnr", float), ("objective", float), ("min_rate_nats", float),
     ("power", float), ("subproblem_gap", float), ("subproblem_iterations", np.int64)]
)


@dataclass
class OptimizationResult:
    """A design run's incumbent, trace and ending.

    The incumbent is the evaluated (Q^2, L) matrix ``incumbent_matrix`` with
    the best minimum ergodic rate seen, and ``incumbent_rates`` its users'
    rates in nats; ``rate_min_nats`` is their minimum, -inf before any
    incumbent. ``trace`` is one record array of ``TRACE_DTYPE`` rows, frozen
    when the run returns: a column reads as ``trace.min_slnr``, a row as
    ``trace[k].power``. ``stop_reason`` is "tolerance", "stalled" or
    "max_iterations" (see ``_alternate``), or "direct" for the baseline's
    single evaluation; ``converged`` holds for "tolerance" and "direct".
    ``final`` is an iterative run's last (2, L, M, Q) factor array
    (:mod:`slnrbeam.beamformer`).
    """

    algorithm: str
    incumbent_matrix: np.ndarray | None = None
    incumbent_rates: np.ndarray | None = None
    trace: np.recarray = field(default_factory=lambda: np.recarray(0, TRACE_DTYPE))
    iterations: int = 0
    stop_reason: str | None = None
    final: np.ndarray | None = None

    @property
    def rate_min_nats(self) -> float:
        return -np.inf if self.incumbent_rates is None else float(self.incumbent_rates.min())

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


def _record(
    result: OptimizationResult,
    w_mat: np.ndarray,
    gram: np.ndarray,
    slnrs: np.ndarray,
    sigma: float,
    step: float,
    objective: float,
    sub: SubproblemSolution | None = None,
) -> tuple:
    """The trace row of the iterate ``w_mat`` (power Gram ``gram``, SLNRs
    ``slnrs``), a ``TRACE_DTYPE`` tuple; adopts the iterate and its
    per-user rates as ``result``'s incumbent iff their minimum strictly
    improves. ``sub`` is the max-min subproblem solution that produced the
    iterate, if any."""
    rates = ergodic_rate_closed(gram, sigma)
    min_rate = float(rates.min())
    if min_rate > result.rate_min_nats:
        result.incumbent_matrix, result.incumbent_rates = w_mat, rates
    gap, trials = (np.nan, -1) if sub is None else (sub.gap, sub.iterations)
    return step, float(slnrs.min()), objective, min_rate, float(np.linalg.norm(w_mat) ** 2), gap, trials


def _finish(result: OptimizationResult, rows: list, iterations: int, stop_reason: str) -> OptimizationResult:
    """Freeze the trace ``rows`` into ``result.trace`` and record how the run
    ended; every design returns through here."""
    result.trace = np.rec.fromrecords(rows, dtype=TRACE_DTYPE)
    result.iterations, result.stop_reason = iterations, stop_reason
    return result


def baseline_uniform(stats: ChannelStatistics, scenario: Scenario) -> np.ndarray:
    """Uniform-power generalized-eigenvector beamformers, as a (Q^2, L) matrix.

    Column l, of squared norm P/L, maximizes w^H R_l w / w^H (T - R_l + rho I) w
    with T = sum_k R_k and rho = L*sigma/P (Sadek, Tarighat & Sayed, IEEE TWC
    2007). Its maximizers are those of w^H R_l w / w^H (T + rho I) w, a metric
    all users share, built from the factors as T = sum_k g_k R_h,k kron R_v,k^T.
    R_l = S_l S_l^H enters through the root
    S_l = sqrt(g_l) (U_h Lam_h^1/2 kron U_v Lam_v^1/2) of the factors'
    eigenpairs, cut at machine epsilon times the largest product; the roots
    are produced one user at a time, and a user with no product above the cut
    keeps one zero column.
    """
    n_users, q_side = stats.L, stats.Q
    scaled_h = stats.path_gain[:, None, None] * stats.R_h
    metric = np.einsum("lik,lmj->ijkm", scaled_h, stats.R_v).reshape(q_side**2, q_side**2)
    metric.flat[:: q_side**2 + 1] += n_users * scenario.sigma / scenario.P
    lam_h, u_h = np.linalg.eigh(stats.R_h)
    lam_v, u_v = np.linalg.eigh(np.swapaxes(stats.R_v, -1, -2))

    def roots():
        for ell in range(n_users):
            products = stats.path_gain[ell] * np.outer(lam_h[ell].clip(0), lam_v[ell].clip(0)).ravel()
            kept = products > np.finfo(float).eps * products.max()
            order = np.argsort(~kept, kind="stable")[: max(kept.sum(), 1)]
            i_idx, j_idx = np.divmod(order, q_side)
            left = u_h[ell][:, i_idx] * np.sqrt(np.where(kept, products, 0.0)[order])
            yield (left[:, None, :] * u_v[ell][None, :, j_idx]).reshape(q_side**2, -1)

    w = largest_generalized_eigvec(metric, roots())
    return np.ascontiguousarray(np.sqrt(scenario.P / n_users) * w.T)


class _Run:
    """Shared state and bookkeeping for one alternating-optimization run.

    The current iterate, the (2, L, M, Q) array ``factors``
    (:mod:`slnrbeam.beamformer`), is kept with its one evaluation (``evaluate``):
    its (Q^2, L) matrix ``w_mat``, its (L, L, L) power ``gram``, every user's
    expected ``signal`` and ``leakage`` power, and the ``slnrs`` derived from
    them. The trace row, the incumbent and the next half-iteration's
    operators all read these; the Gram never reaches the result.
    ``subproblem`` is the last max-min subproblem's solution, and ``rows``
    the trace rows so far.

    Before each half-iteration ``fix_gauge`` orthonormalizes the side held
    fixed, so a user's transmit power is the squared norm of its free-side
    vector.
    """

    def __init__(self, algorithm: str, scenario: Scenario, stats: ChannelStatistics):
        self.scenario = scenario
        self.stats = stats
        self.sigma = scenario.sigma
        self.rng = np.random.default_rng([scenario.seed, 1])
        self.factors = init_feasible(scenario, self.rng)
        self.keep(self.evaluate(self.factors))
        self.subproblem: SubproblemSolution | None = None
        self.result = OptimizationResult(algorithm)
        self.rows: list[tuple] = []

    def evaluate(self, factors: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(w_mat, gram, signal, leakage, slnrs)`` of candidate ``factors``."""
        w_mat = beamformer_matrix(factors)
        gram = power_gram(w_mat, self.stats)
        return (w_mat, gram, *_signal_and_leakage(gram, self.sigma))

    def keep(self, evaluation: tuple[np.ndarray, ...]) -> None:
        """Adopt ``evaluate``'s result as the current iterate's."""
        self.w_mat, self.gram, self.signal, self.leakage, self.slnrs = evaluation

    def record(self, step: float, objective: float) -> None:
        """Append the current iterate's trace row and refresh the incumbent."""
        self.rows.append(_record(
            self.result, self.w_mat, self.gram, self.slnrs, self.sigma, step, objective,
            sub=self.subproblem,
        ))

    def fix_gauge(self, side: int) -> None:
        """Orthonormalize the side held fixed while ``side`` is updated.

        Every user's fixed (Q, M) columns F = Q_f R are replaced by Q_f and
        the free columns G by G R^T, which leaves the transmit matrix
        F G^T, hence W, unchanged up to round-off. A user's power is then
        the squared norm of its free vector. The kept evaluation is redone
        at the refactored iterate: ``_backtrack``'s trials at small s round
        back to these factors, and the kept objective they are compared with
        must be theirs bit for bit, not the pre-QR factors' (equal only to
        round-off), or a max-min run at its fixpoint can stall.
        """
        q_f, r = np.linalg.qr(self.factors[1 - side].swapaxes(-1, -2))
        self.factors[1 - side] = q_f.swapaxes(-1, -2)
        self.factors[side] = r @ self.factors[side]
        self.keep(self.evaluate(self.factors))

    def reinit_degenerate(self, side: int) -> None:
        """Replace zero-signal users' free vectors by a small random draw.

        A vanished expected signal makes every bound uninformative, so the
        user restarts from a fresh vector carrying one percent of the power
        left in the budget by the other users; the kept evaluation follows
        the change. The fixed side must be orthonormal (``fix_gauge``), so
        that the draw's squared norm is its power.
        """
        dead = np.nonzero(self.signal <= 0.0)[0]
        if dead.size == 0:
            return
        free = self.factors[side]
        per_user = np.linalg.norm(self.w_mat, axis=0) ** 2
        for ell in dead:
            remaining = max(self.scenario.P - (per_user.sum() - per_user[ell]), 1e-12 * self.scenario.P)
            draw = circular_gaussian(self.rng, free.shape[1:])
            free[ell] = draw * np.sqrt(DEGENERATE_POWER_FRACTION * remaining) / np.linalg.norm(draw)
            per_user[ell] = DEGENERATE_POWER_FRACTION * remaining
            logger.warning("reinitialized degenerate user %d on the %s side", ell, SIDES[side])
        self.keep(self.evaluate(self.factors))

    def finish(self, iterations: int, stop_reason: str) -> OptimizationResult:
        self.result.final = self.factors
        return _finish(self.result, self.rows, iterations, stop_reason)


def _backtrack(
    run: _Run, side: int, v_new: np.ndarray, objective, current: float, better
) -> tuple[float, bool]:
    """Accept the candidate v_new, or a fraction of the step toward it, or stall.

    ``v_new`` holds every user's new vector on ``side`` as an (L, QM) row.
    Tries v_new + (1 - s)(v_old - v_new) for s = 1, 1/2, ..., 2^-39, so the
    full step is v_new exactly, whichever design produced it. Each trial is
    evaluated once (``_Run.evaluate``); ``objective`` maps its SLNR vector
    to the driving objective and ``better(new, old)`` says whether it is no
    worse than ``current``. The first such trial's evaluation becomes the
    run's, and a step taken at s < 1 is logged at debug level. Returns the
    accepted objective value and whether any step was taken.
    """
    v_old = run.factors[side]
    v_new = v_new.reshape(v_old.shape)
    back = v_old - v_new
    for k in range(40):
        factors = run.factors.copy()
        factors[side] = v_new + (1.0 - 0.5**k) * back
        evaluation = run.evaluate(factors)
        value = objective(evaluation[-1])  # the trial's SLNRs
        if better(value, current):
            if k:
                logger.debug("%s took %.3g of the %s step", run.result.algorithm, 0.5**k, SIDES[side])
            run.factors = factors
            run.keep(evaluation)
            return value, True
    return current, False


def _alternate(
    algorithm: str, scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None,
    objective, better, update,
) -> OptimizationResult:
    """The alternating scheme the three designs share.

    ``objective`` maps the SLNR vector to the driving objective, ``better``
    (``operator.ge`` or ``operator.le``) orders its values, and
    ``update(run, side, ops)`` returns the candidate free-side point of one
    half-iteration from the operators at the current iterate. Every
    candidate is accepted through ``_backtrack``. Each half-iteration starts
    by fixing the gauge and reinitializing degenerate users (``_Run``), and
    the objective it must not worsen is re-read from that evaluation. An
    iteration in which no fraction of either step helps ends the run as
    "stalled", with a warning naming the design, the iteration, the kept
    objective and, for max-min, the last subproblem gap; an iteration whose
    relative objective change is within the tolerance as "tolerance".
    """
    options = options or AlgoOptions()
    run = _Run(algorithm, scenario, stats)
    current = objective(run.slnrs)
    run.record(0.0, current)
    for it in range(1, options.max_iterations + 1):
        previous_full = current
        moved = False
        for side in (0, 1):
            run.fix_gauge(side)
            run.reinit_degenerate(side)
            current = objective(run.slnrs)
            ops = half_iteration_operators(side, run.factors, stats, run.signal, run.leakage, run.sigma)
            current, stepped = _backtrack(run, side, update(run, side, ops), objective, current, better)
            moved = moved or stepped
            run.record(it - 0.5 + 0.5 * side, current)
        if not moved:
            gap = "" if run.subproblem is None else f" (last subproblem gap {run.subproblem.gap:.2e})"
            logger.warning(
                "%s stalled in iteration %d: every fraction of the %s and the %s step "
                "worsened the kept objective %.9e%s", algorithm, it, *SIDES, current, gap,
            )
            return run.finish(it, "stalled")
        if abs(current - previous_full) <= options.tolerance * max(abs(previous_full), 1e-30):
            return run.finish(it, "tolerance")
    return run.finish(options.max_iterations, "max_iterations")


def run_maxmin(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Max-min SLNR design via convex max-min quadratic subproblems.

    Each half-iteration builds tight SLNR minorants at the current iterate
    and solves the resulting max-min problem on the power ball to
    ``SUBPROBLEM_TOL``. Its point is backtracked as every design's is, so
    one that round-off or the gap leaves below the current minimum SLNR is
    blended toward the iterate. Terminates when the minimum SLNR's relative
    change over a full iteration drops below the tolerance.
    """

    def update(run: _Run, side: int, ops: HalfIterationOperators) -> np.ndarray:
        run.subproblem = solve_maxmin(
            slnr_minorant_coeffs(ops), scenario.P, tol=SUBPROBLEM_TOL, warm_start=ops.v_bar
        )
        return run.subproblem.v

    objective = lambda slnrs: float(slnrs.min())
    return _alternate("maxmin", scenario, stats, options, objective, operator.ge, update)


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

    def update(run: _Run, side: int, ops: HalfIterationOperators) -> np.ndarray:
        nonlocal weights
        if side == 0:
            weights = gm_weights(run.slnrs)
        return closed_form_update(gm_minorant_coeffs(ops), scenario.P, weights=weights)

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
    minimizes a tight quadratic majorant in closed form, by maximizing the
    negated per-user quadratics, so the objective trace never increases.
    """
    c = (options or AlgoOptions()).soft_c

    def update(run: _Run, side: int, ops: HalfIterationOperators) -> np.ndarray:
        _, quads = soft_majorant_coeffs(ops, c)
        return closed_form_update(quads, scenario.P)

    objective = lambda slnrs: _soft_objective_value(slnrs, c)
    return _alternate("soft", scenario, stats, options, objective, operator.le, update)


def run_baseline(
    scenario: Scenario, stats: ChannelStatistics, options: AlgoOptions | None = None
) -> OptimizationResult:
    """Evaluate the uniform-power baseline in the common result format."""
    w_mat = baseline_uniform(stats, scenario)
    gram = power_gram(w_mat, stats)
    result = OptimizationResult("baseline")
    slnrs = slnr_vec(gram, scenario.sigma)
    row = _record(result, w_mat, gram, slnrs, scenario.sigma, 0.0, float(slnrs.min()))
    return _finish(result, [row], 0, "direct")


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
