"""Algorithm-level behavior: closed-form updates, monotone traces,
incumbent tracking, stop reasons, and the uniform-power baseline."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import slnrbeam
from slnrbeam.beamformer import beamformer_matrix, init_feasible, total_power
from slnrbeam.channel import Scenario, build_statistics
from slnrbeam import optimizers, surrogates
from slnrbeam.metrics import _signal_and_leakage, ergodic_rate_closed
from slnrbeam.numerics import hermitian_eig
from slnrbeam.optimizers import (
    AlgoOptions,
    OptimizationResult,
    baseline_uniform,
    closed_form_update,
    gm_weights,
    run_gm,
    run_maxmin,
    run_soft,
    track_incumbent,
)
from slnrbeam.qcqp import SubproblemSolution
from slnrbeam.surrogates import SurrogateCoefficients

from conftest import operators_at


def random_quadratics(rng, n_users=3, dim=6, b_scale=1.0):
    """Stacked minorant coefficients (zero constants) and power matrices."""
    bs, c_mats, a_mats = [], [], []
    for _ in range(n_users):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c_mats.append(g @ g.conj().T / dim + 0.2 * np.eye(dim))
        bs.append(b_scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
        f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a_mats.append(f @ f.conj().T / dim + 0.1 * np.eye(dim))
    coeffs = SurrogateCoefficients(
        a=np.zeros(n_users), b=np.stack(bs), C=np.stack(c_mats), sense="minorant"
    )
    return coeffs, np.stack(a_mats)


def weighted_objective(coeffs, weights, v):
    return sum(
        w * (2.0 * np.real(b @ v[i]) - np.real(v[i].conj() @ c_mat @ v[i]))
        for i, (b, c_mat, w) in enumerate(zip(coeffs.b, coeffs.C, weights))
    )


def slsqp_oracle(coeffs, weights, a_mats, budget):
    """Independent ball-constrained maximizer via scipy's SQP on real parts."""
    n_users, dim = coeffs.b.shape

    def unpack(x):
        z = x[: n_users * dim] + 1j * x[n_users * dim :]
        return z.reshape(n_users, dim)

    def neg_obj(x):
        return -weighted_objective(coeffs, weights, unpack(x))

    def power_slack(x):
        v = unpack(x)
        return budget - sum(
            np.real(v[i].conj() @ a_mats[i] @ v[i]) for i in range(n_users)
        )

    best = None
    for trial in range(3):
        rng = np.random.default_rng(trial)
        x0 = 0.1 * rng.standard_normal(2 * n_users * dim)
        res = scipy.optimize.minimize(
            neg_obj,
            x0,
            constraints=[{"type": "ineq", "fun": power_slack}],
            method="SLSQP",
            options={"maxiter": 800, "ftol": 1e-14},
        )
        if best is None or res.fun < best.fun:
            best = res
    return -best.fun


class TestClosedFormUpdate:
    def test_zero_linear_terms_give_zero(self):
        rng = np.random.default_rng(0)
        coeffs, a_mats = random_quadratics(rng, b_scale=0.0)
        v = closed_form_update(coeffs, a_mats, budget=1.0)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_inactive_constraint_pass_through(self):
        rng = np.random.default_rng(1)
        coeffs, a_mats = random_quadratics(rng, b_scale=0.05)
        free = np.stack([np.linalg.solve(c, b.conj()) for b, c in zip(coeffs.b, coeffs.C)])
        used = sum(np.real(free[i].conj() @ a_mats[i] @ free[i]) for i in range(3))
        v = closed_form_update(coeffs, a_mats, budget=2.0 * used)
        np.testing.assert_allclose(v, free, rtol=1e-8, atol=1e-12)

    def test_active_constraint_power_equality(self):
        rng = np.random.default_rng(2)
        coeffs, a_mats = random_quadratics(rng, b_scale=2.0)
        free = np.stack([np.linalg.solve(c, b.conj()) for b, c in zip(coeffs.b, coeffs.C)])
        used = sum(np.real(free[i].conj() @ a_mats[i] @ free[i]) for i in range(3))
        budget = used / 4.0  # unconstrained point uses four times the budget
        v = closed_form_update(coeffs, a_mats, budget=budget)
        power = sum(np.real(v[i].conj() @ a_mats[i] @ v[i]) for i in range(3))
        assert abs(power - budget) <= 1e-8 * budget

    @pytest.mark.parametrize("use_weights", [False, True])
    def test_ball_optimality_against_sqp(self, use_weights):
        rng = np.random.default_rng(3)
        coeffs, a_mats = random_quadratics(rng, n_users=2, dim=4, b_scale=2.0)
        weights = np.array([1.7, 0.6]) if use_weights else np.ones(2)
        budget = 0.5
        v = closed_form_update(coeffs, a_mats, budget, weights=weights)
        mine = weighted_objective(coeffs, weights, v)
        oracle = slsqp_oracle(coeffs, weights, a_mats, budget)
        assert mine >= oracle - 1e-6 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("budget", [0.05, 1000.0])
    @pytest.mark.parametrize("linear_term", [False, True], ids=["no_linear_term", "linear_term"])
    def test_singular_curvature(self, linear_term, budget):
        # User 0's curvature has two null directions. Without a linear term
        # along them the unconstrained maximum is finite (and, at the large
        # budget, fits); with one, only the power cap bounds the objective.
        rng = np.random.default_rng(5)
        coeffs, a_mats = random_quadratics(rng, n_users=2, dim=4, b_scale=2.0)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        coeffs.C[0] = g @ g.conj().T
        if not linear_term:
            coeffs.b[0] = (coeffs.C[0] @ coeffs.b[0].conj()).conj()  # b^H in the range of C
        v = closed_form_update(coeffs, a_mats, budget)
        assert np.all(np.isfinite(v))
        power = sum(np.real(v[i].conj() @ a_mats[i] @ v[i]) for i in range(2))
        assert power <= budget * (1.0 + 1e-9)
        if not linear_term and budget > 1.0:
            # the unconstrained maximizer fits (it needs about 155): no
            # power goes along the null directions' round-off linear terms
            assert power <= 0.2 * budget
        mine = weighted_objective(coeffs, np.ones(2), v)
        oracle = slsqp_oracle(coeffs, np.ones(2), a_mats, budget)
        assert mine >= oracle - 1e-6 * max(1.0, abs(oracle))

    def test_majorant_minimization(self):
        # With majorant sense the same update minimizes; compare against SQP
        # on the negated objective.
        rng = np.random.default_rng(4)
        coeffs, a_mats = random_quadratics(rng, n_users=2, dim=4, b_scale=2.0)
        coeffs.sense = "majorant"
        budget = 0.4
        v = closed_form_update(coeffs, a_mats, budget)
        value = coeffs.evaluate(v).sum()
        # minimizing a - 2Re{bv} + v^H C v equals maximizing its negation
        oracle = slsqp_oracle(coeffs, np.ones(2), a_mats, budget)
        assert value <= -oracle + 1e-6 * max(1.0, abs(oracle))


@pytest.fixture(scope="module")
def desk():
    sc = Scenario(Q=4, L=3, M=1, seed=7)
    return sc, build_statistics(sc)


class TestRunMaxmin:
    def test_single_user_improves(self):
        sc = Scenario(Q=3, L=1, M=1, seed=4)
        stats = build_statistics(sc)
        res = run_maxmin(sc, stats, AlgoOptions(max_iterations=2))
        assert res.trace[-1].min_slnr >= res.trace[0].min_slnr

    def test_desk_monotone_and_feasible(self, desk):
        sc, stats = desk
        res = run_maxmin(sc, stats, AlgoOptions())
        slnrs = [e.min_slnr for e in res.trace]
        assert np.all(np.diff(slnrs) >= -1e-12)
        for entry in res.trace:
            assert entry.power <= sc.P * (1.0 + 1e-8)
        assert total_power(res.final) <= sc.P * (1.0 + 1e-8)

    def test_objective_is_min_slnr(self, desk):
        sc, stats = desk
        res = run_maxmin(sc, stats, AlgoOptions(max_iterations=3))
        for entry in res.trace:
            assert entry.objective == entry.min_slnr

    def test_subproblem_diagnostics_kept(self, desk):
        sc, stats = desk
        res = run_maxmin(sc, stats, AlgoOptions(max_iterations=3))
        assert res.trace[0].subproblem_gap is None
        assert res.trace[0].subproblem_iterations is None
        assert len(res.trace) > 1
        for entry in res.trace[1:]:
            assert 0.0 <= entry.subproblem_gap <= 1e-4
            assert entry.subproblem_iterations >= 0
        gm = run_gm(sc, stats, AlgoOptions(max_iterations=1))
        assert all(e.subproblem_gap is None for e in gm.trace)

    def test_regressed_subproblem_warns(self, desk, monkeypatch, caplog):
        # A subproblem returning the zero point lowers the min SLNR; the run
        # keeps its iterate, stops, and says so.
        sc, stats = desk

        def regress(problem, **kwargs):
            return SubproblemSolution(
                v=np.zeros((problem.n_users, problem.dim), dtype=complex),
                objective=0.0,
                gap=0.0,
                iterations=1,
            )

        monkeypatch.setattr(optimizers, "solve_maxmin", regress)
        with caplog.at_level("WARNING", logger="slnrbeam.optimizers"):
            res = run_maxmin(sc, stats, AlgoOptions())
        assert res.stop_reason == "subproblem_regressed" and not res.converged
        assert res.iterations == 1 and len(res.trace) == 1
        assert any("lowers the min SLNR" in r.getMessage() for r in caplog.records)


class TestRunGm:
    def test_equal_slnrs_give_unit_weights(self):
        np.testing.assert_allclose(gm_weights(np.full(4, 1.3)), np.ones(4))

    def test_weights_formula(self):
        vals = np.array([0.5, 2.0, 9.0])
        logs = np.log1p(vals)
        np.testing.assert_allclose(gm_weights(vals), logs.max() / logs)

    def test_desk_monotone(self, desk):
        sc, stats = desk
        res = run_gm(sc, stats, AlgoOptions())
        objs = [e.objective for e in res.trace]
        assert np.all(np.diff(objs) >= -1e-12)
        for entry in res.trace:
            assert entry.power <= sc.P * (1.0 + 1e-8)

    def test_half_step_surrogate_stationarity(self, desk):
        # The accepted point of each half-step maximizes the weighted
        # surrogate on the power ball: verify the KKT residual of the first
        # azimuth update directly.
        sc, stats = desk
        from slnrbeam.beamformer import coupling_matrix
        from slnrbeam.surrogates import gm_minorant_coeffs

        bf = init_feasible(sc, np.random.default_rng([7, 1]))
        ops = operators_at("azimuth", bf, stats, sc.sigma)
        weights = gm_weights(ops.signal / ops.x_bar)
        coeffs = gm_minorant_coeffs(ops)
        a_mats = coupling_matrix("azimuth", bf)
        v = closed_form_update(coeffs, a_mats, sc.P, weights=weights)
        power = sum(np.real(v[i].conj() @ a_mats[i] @ v[i]) for i in range(3))
        if power < sc.P * (1 - 1e-6):
            mu = 0.0
        else:
            # recover the common multiplier from user 0's stationarity
            resid = weights[0] * (coeffs.b[0].conj() - coeffs.C[0] @ v[0])
            av = a_mats[0] @ v[0]
            mu = float(np.real(np.vdot(av, resid)) / np.real(np.vdot(av, av)))
        for i in range(3):
            grad = weights[i] * (coeffs.b[i].conj() - coeffs.C[i] @ v[i]) - mu * (
                a_mats[i] @ v[i]
            )
            scale = np.linalg.norm(weights[i] * coeffs.b[i])
            assert np.linalg.norm(grad) <= 1e-6 * scale


    def test_massive_array_smoke(self):
        # 1024 antennas: the factor-only statistics stay small (dense Q^2 x Q^2
        # stacks would take about 270 MB here) and two gm iterations give
        # finite rates within the power budget.
        sc = Scenario(Q=32, L=4, M=1, seed=3)
        stats = build_statistics(sc)
        stored = sum(v.nbytes for v in vars(stats).values() if isinstance(v, np.ndarray))
        assert stored < 1e6
        res = run_gm(sc, stats, AlgoOptions(max_iterations=2))
        assert np.isfinite(res.rate_min_nats)
        assert all(np.isfinite(e.min_rate_nats) for e in res.trace)
        assert max(e.power for e in res.trace) <= sc.P * (1.0 + 1e-9)
        assert np.linalg.norm(res.incumbent_matrix) ** 2 <= sc.P * (1.0 + 1e-9)


class TestRunSoft:
    def test_desk_monotone_decreasing(self, desk):
        sc, stats = desk
        res = run_soft(sc, stats, AlgoOptions())
        objs = [e.objective for e in res.trace]
        assert np.all(np.diff(objs) <= 1e-12)

    def test_single_user_objective_tracks_slnr(self):
        sc = Scenario(Q=3, L=1, M=1, seed=6)
        stats = build_statistics(sc)
        res = run_soft(sc, stats, AlgoOptions(max_iterations=10))
        # ln((1 + slnr/c)^-1) is a decreasing transform of the SLNR
        for entry in res.trace:
            want = np.log(1.0 / (1.0 + entry.min_slnr / 0.1))
            assert entry.objective == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("c", [1.0, 0.1, 0.01])
    def test_smoothing_grid_completes(self, desk, c):
        sc, stats = desk
        res = run_soft(sc, stats, AlgoOptions(soft_c=c, max_iterations=30))
        assert len(res.trace) >= 3
        assert np.all(np.diff([e.objective for e in res.trace]) <= 1e-12)


class TestBaseline:
    def test_single_user_reduces_to_principal_eigvec(self):
        sc = Scenario(Q=3, L=1, M=1, seed=8)
        stats = build_statistics(sc)
        w_mat = baseline_uniform(stats, sc)
        _, vec = hermitian_eig(stats.covariance()[0])
        direction = w_mat[:, 0] / np.linalg.norm(w_mat[:, 0])
        assert abs(abs(np.vdot(direction, vec[:, 0])) - 1.0) < 1e-8

    def test_total_power_split(self, desk):
        sc, stats = desk
        w_mat = baseline_uniform(stats, sc)
        for ell in range(3):
            assert np.linalg.norm(w_mat[:, ell]) ** 2 == pytest.approx(sc.P / 3, rel=1e-10)
        assert np.linalg.norm(w_mat) ** 2 == pytest.approx(sc.P, rel=1e-10)

    def test_quotient_optimality_random_probes(self, desk):
        sc, stats = desk
        w_mat = baseline_uniform(stats, sc)
        rng = np.random.default_rng(9)
        loading = 3 * sc.sigma / sc.P * np.eye(16)
        cov = stats.covariance()
        for ell in range(3):
            leak = cov.sum(axis=0) - cov[ell] + loading

            def quotient(z):
                return np.real(z.conj() @ cov[ell] @ z) / np.real(
                    z.conj() @ leak @ z
                )

            best = quotient(w_mat[:, ell])
            for _ in range(1000):
                z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                assert quotient(z) <= best * (1.0 + 1e-8)


class TestRuntimeDependencies:
    def test_designs_run_without_scipy(self):
        # SciPy is a test-only oracle: a fresh interpreter that imports the
        # package and runs two designs never loads it.
        script = (
            "import sys\n"
            "from slnrbeam import Scenario, build_statistics\n"
            "from slnrbeam.optimizers import AlgoOptions, run_baseline, run_gm\n"
            "sc = Scenario(Q=3, L=2, seed=0)\n"
            "stats = build_statistics(sc)\n"
            "run_gm(sc, stats, AlgoOptions(max_iterations=1))\n"
            "run_baseline(sc, stats, AlgoOptions(max_iterations=1))\n"
            "print('scipy' in sys.modules)\n"
        )
        src = str(Path(slnrbeam.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestIncumbent:
    def test_first_candidate_accepted(self, desk):
        sc, stats = desk
        result = OptimizationResult(
            algorithm="x", incumbent=None, incumbent_matrix=None, rate_min_nats=-np.inf
        )
        bf = init_feasible(sc, np.random.default_rng(1))
        w_mat = beamformer_matrix(bf)
        track_incumbent(result, w_mat, ergodic_rate_closed(w_mat, stats, sc.sigma), bf=bf)
        assert result.incumbent is not bf
        np.testing.assert_array_equal(result.incumbent.v_a, bf.v_a)
        assert result.incumbent_matrix is w_mat
        assert np.isfinite(result.rate_min_nats)

    def test_equal_candidate_rejected(self, desk):
        sc, stats = desk
        result = OptimizationResult(
            algorithm="x", incumbent=None, incumbent_matrix=None, rate_min_nats=-np.inf
        )
        bf = init_feasible(sc, np.random.default_rng(1))
        rates = ergodic_rate_closed(beamformer_matrix(bf), stats, sc.sigma)
        track_incumbent(result, beamformer_matrix(bf), rates, bf=bf)
        first = result.incumbent
        # identical min rate
        track_incumbent(result, beamformer_matrix(bf), rates, bf=bf.copy())
        assert result.incumbent is first

    def test_trace_row_vectorizes_once(self, desk, monkeypatch):
        # An iterate is vectorized once, when it is evaluated; its trace row's
        # rates, power and incumbent read that one beamformer matrix.
        sc, stats = desk
        built = []

        def counting(bf):
            built.append(beamformer_matrix(bf))
            return built[-1]

        monkeypatch.setattr(optimizers, "beamformer_matrix", counting)
        run = optimizers._Run("gm", sc, stats)
        run.record(0.0, 0.0)
        assert len(built) == 1
        assert run.w_mat is built[0]
        assert run.result.incumbent_matrix is built[0]
        np.testing.assert_array_equal(run.result.incumbent.v_e, run.bf.v_e)
        assert run.result.trace[0].power == float(np.linalg.norm(built[0]) ** 2)
        assert run.result.trace[0].power == pytest.approx(total_power(run.bf), rel=1e-14)

    def test_rate_min_equals_trace_max(self, desk):
        sc, stats = desk
        res = run_gm(sc, stats, AlgoOptions(max_iterations=15))
        best = np.nanmax([e.min_rate_nats for e in res.trace])
        assert res.rate_min_nats == pytest.approx(best, rel=1e-12)


class TestDeterminism:
    def test_same_seed_same_trace(self, desk):
        sc, stats = desk
        a = run_soft(sc, stats, AlgoOptions(max_iterations=10))
        b = run_soft(sc, stats, AlgoOptions(max_iterations=10))
        assert [e.objective for e in a.trace] == [e.objective for e in b.trace]
        assert [e.min_rate_nats for e in a.trace] == [e.min_rate_nats for e in b.trace]


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlgoOptions(tolerance=0.0)
        with pytest.raises(ValueError):
            AlgoOptions(soft_c=-0.1)
        # Wrongly typed values are ValueErrors too, never TypeErrors.
        for bad in ("1e-4", True, None, float("nan")):
            for name in ("tolerance", "soft_c"):
                with pytest.raises(ValueError, match=name):
                    AlgoOptions(**{name: bad})
        for bad in (-1, 2.5, 10.0, "200", False, None):
            with pytest.raises(ValueError, match="max_iterations"):
                AlgoOptions(max_iterations=bad)
        # Integral and real numbers of any kind still pass.
        AlgoOptions(tolerance=np.float64(1e-4), max_iterations=np.int64(0), soft_c=1)

    def test_three_knobs(self):
        names = [f.name for f in dataclasses.fields(AlgoOptions)]
        assert names == ["tolerance", "max_iterations", "soft_c"]
        for removed in ("rate_eval", "mc_samples", "rate_every", "subproblem_tol", "seed"):
            with pytest.raises(TypeError):
                AlgoOptions(**{removed: 1})


class TestStopReason:
    def test_default_runs_stop_on_tolerance(self, desk):
        sc, stats = desk
        for run in (run_maxmin, run_gm, run_soft):
            res = run(sc, stats, AlgoOptions())
            assert res.stop_reason == "tolerance" and res.converged
        base = optimizers.run_baseline(sc, stats)
        assert base.stop_reason == "direct" and base.converged

    def test_iteration_cap(self, desk):
        sc, stats = desk
        for run in (run_maxmin, run_gm, run_soft):
            res = run(sc, stats, AlgoOptions(max_iterations=1))
            assert res.stop_reason == "max_iterations" and not res.converged
            assert res.iterations == 1 and len(res.trace) == 3

    @pytest.mark.parametrize("run", [run_gm, run_soft])
    def test_stall(self, desk, monkeypatch, run):
        # An update that always points at zero worsens the objective at every
        # fraction of the step: the run keeps its iterate and stalls.
        sc, stats = desk
        monkeypatch.setattr(
            optimizers, "closed_form_update", lambda coeffs, *args, **kwargs: np.zeros_like(
                coeffs.b
            )
        )
        res = run(sc, stats, AlgoOptions())
        assert res.stop_reason == "stalled" and not res.converged
        assert res.iterations == 1 and len(res.trace) == 3
        assert len({e.objective for e in res.trace}) == 1
        np.testing.assert_array_equal(res.final.v_a, res.incumbent.v_a)

    def test_slnrs_computed_once_per_objective_evaluation(self, desk, monkeypatch, caplog):
        # Each candidate iterate is evaluated once: W and the expected powers
        # are built per backtracking trial, plus once at init and once per
        # degenerate-user reinit, and feed its objective, its trace row and
        # the next half-iteration's operators. Wrapping the two functions in
        # every slnrbeam namespace that binds them, and counting the calls,
        # shows that no trace row or operator build evaluates them again.
        sc, stats = desk
        callers = {beamformer_matrix: [], _signal_and_leakage: []}
        counts = {"objective": 0, "backtrack": 0, "slnr_vec": 0}

        def caller_names():
            frame, names = sys._getframe(2), []
            while frame is not None and len(names) < 4:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            return names

        def wrapping(func):
            def wrapper(*args, **kwargs):
                callers[func].append(caller_names())
                return func(*args, **kwargs)

            return wrapper

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return wrapper

        for func in callers:
            wrapper = wrapping(func)
            for mod in [m for n, m in sys.modules.items() if n.startswith("slnrbeam")]:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        monkeypatch.setattr(mod, attr, wrapper)
        assert not hasattr(surrogates, "beamformer_matrix")
        assert not hasattr(surrogates, "_signal_and_leakage")
        monkeypatch.setattr(optimizers, "slnr_vec", counting("slnr_vec", optimizers.slnr_vec))
        monkeypatch.setattr(optimizers, "_backtrack", counting("backtrack", optimizers._backtrack))
        monkeypatch.setattr(
            optimizers,
            "_geometric_mean_log",
            counting("objective", optimizers._geometric_mean_log),
        )
        for run in (run_gm, run_maxmin):
            for calls in callers.values():
                calls.clear()
            counts.update(dict.fromkeys(counts, 0))
            caplog.clear()
            with caplog.at_level("WARNING", logger="slnrbeam.optimizers"):
                res = run(sc, stats, AlgoOptions(max_iterations=3))
            reinits = sum("reinitialized" in r.getMessage() for r in caplog.records)
            assert len(res.trace) == 7
            assert counts["slnr_vec"] == 0
            if run is run_gm:
                # The objective is taken once at init and once per trial.
                assert counts["objective"] >= len(res.trace)
                trials = counts["objective"] - 1
            else:
                # Max-min tries its subproblem's point whole: one trial per step.
                assert counts["backtrack"] == len(res.trace) - 1
                trials = counts["backtrack"]
            for func, calls in callers.items():
                assert len(calls) == 1 + trials + reinits, func.__name__
                sites = [names[1] for names in calls]
                assert all(names[0] == "evaluate" for names in calls), func.__name__
                assert sites.count("__init__") == 1
                assert sites.count("_backtrack") == trials
                assert sites.count("reinit_degenerate") == reinits
                assert not {"record", "half_iteration_operators"} & {n for c in calls for n in c}


class TestDegenerateHandling:
    def test_zero_user_reinitialized_with_budget_fraction(self, desk):
        sc, stats = desk
        from slnrbeam.optimizers import _Run

        run = _Run("gm", sc, stats)
        run.bf.v_a[0] = 0.0  # kill one user's signal entirely
        run.keep(run.evaluate(run.bf))
        assert run.signal[0] == 0.0
        run.reinit_degenerate("azimuth")
        assert run.signal[0] > 0.0
        assert total_power(run.bf) <= sc.P * (1.0 + 1e-8)
        # The kept evaluation, SLNRs included, follows the reinitialized
        # iterate, and so do the operators built from it.
        ops = operators_at("azimuth", run.bf, stats, sc.sigma)
        np.testing.assert_array_equal(run.w_mat, beamformer_matrix(run.bf))
        np.testing.assert_array_equal(run.signal, ops.signal)
        np.testing.assert_array_equal(run.leakage, ops.leakage)
        np.testing.assert_array_equal(run.slnrs, ops.signal / ops.x_bar)

    def test_dead_fixed_side_also_recovers(self, desk):
        sc, stats = desk
        from slnrbeam.optimizers import _Run

        run = _Run("soft", sc, stats)
        run.bf.v_a[1] = 0.0
        run.bf.v_e[1] = 0.0  # both sides dead: the coupling matrix vanishes
        run.keep(run.evaluate(run.bf))
        run.reinit_degenerate("azimuth")
        assert run.signal[1] > 0.0
        assert total_power(run.bf) <= sc.P * (1.0 + 1e-8)
        np.testing.assert_array_equal(
            run.signal, operators_at("azimuth", run.bf, stats, sc.sigma).signal
        )
