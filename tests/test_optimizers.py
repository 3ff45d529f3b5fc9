"""Algorithm-level behavior: closed-form updates, monotone traces,
incumbent tracking, and the uniform-power baseline."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import slnrbeam
from slnrbeam.beamformer import init_feasible, total_power
from slnrbeam.channel import Scenario, build_statistics
from slnrbeam import optimizers
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


def random_quadratics(rng, n_users=3, dim=6, b_scale=1.0):
    coeffs = []
    a_mats = []
    for _ in range(n_users):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c_mat = g @ g.conj().T / dim + 0.2 * np.eye(dim)
        b = b_scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        coeffs.append(SurrogateCoefficients(a=0.0, b=b, C=c_mat, sense="minorant"))
        f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a_mats.append(f @ f.conj().T / dim + 0.1 * np.eye(dim))
    return coeffs, a_mats


def weighted_objective(coeffs, weights, v):
    return sum(
        w * (2.0 * np.real(c.b @ v[i]) - np.real(v[i].conj() @ c.C @ v[i]))
        for i, (c, w) in enumerate(zip(coeffs, weights))
    )


def slsqp_oracle(coeffs, weights, a_mats, budget):
    """Independent ball-constrained maximizer via scipy's SQP on real parts."""
    n_users = len(coeffs)
    dim = coeffs[0].b.shape[0]

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
        free = np.stack([np.linalg.solve(c.C, c.b.conj()) for c in coeffs])
        used = sum(np.real(free[i].conj() @ a_mats[i] @ free[i]) for i in range(3))
        v = closed_form_update(coeffs, a_mats, budget=2.0 * used)
        np.testing.assert_allclose(v, free, rtol=1e-8, atol=1e-12)

    def test_active_constraint_power_equality(self):
        rng = np.random.default_rng(2)
        coeffs, a_mats = random_quadratics(rng, b_scale=2.0)
        free = np.stack([np.linalg.solve(c.C, c.b.conj()) for c in coeffs])
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

    def test_majorant_minimization(self):
        # With majorant sense the same update minimizes; compare against SQP
        # on the negated objective.
        rng = np.random.default_rng(4)
        coeffs, a_mats = random_quadratics(rng, n_users=2, dim=4, b_scale=2.0)
        for c in coeffs:
            c.sense = "majorant"
        budget = 0.4
        v = closed_form_update(coeffs, a_mats, budget)
        value = sum(c.evaluate(v[i]) for i, c in enumerate(coeffs))
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
        assert res.converged and res.iterations == 1 and len(res.trace) == 1
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
        from slnrbeam.surrogates import gm_minorant_coeffs, half_iteration_operators

        bf = init_feasible(sc, np.random.default_rng([7, 1]))
        ops = half_iteration_operators("azimuth", bf, stats, sc.sigma)
        weights = gm_weights(ops.slnr())
        coeffs = [
            gm_minorant_coeffs("azimuth", bf, stats, ell, sc.sigma, ops=ops)
            for ell in range(3)
        ]
        a_mats = [coupling_matrix("azimuth", bf, ell) for ell in range(3)]
        v = closed_form_update(coeffs, a_mats, sc.P, weights=weights)
        power = sum(np.real(v[i].conj() @ a_mats[i] @ v[i]) for i in range(3))
        if power < sc.P * (1 - 1e-6):
            mu = 0.0
        else:
            # recover the common multiplier from user 0's stationarity
            resid = weights[0] * (coeffs[0].b.conj() - coeffs[0].C @ v[0])
            av = a_mats[0] @ v[0]
            mu = float(np.real(np.vdot(av, resid)) / np.real(np.vdot(av, av)))
        for i in range(3):
            grad = weights[i] * (coeffs[i].b.conj() - coeffs[i].C @ v[i]) - mu * (
                a_mats[i] @ v[i]
            )
            scale = np.linalg.norm(weights[i] * coeffs[i].b)
            assert np.linalg.norm(grad) <= 1e-6 * scale


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
        _, vec = hermitian_eig(stats.R[0])
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
        for ell in range(3):
            leak = stats.R_sum - stats.R[ell] + loading

            def quotient(z):
                return np.real(z.conj() @ stats.R[ell] @ z) / np.real(
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
        track_incumbent(result, bf, stats, sc.sigma)
        assert result.incumbent is not None
        assert np.isfinite(result.rate_min_nats)

    def test_equal_candidate_rejected(self, desk):
        sc, stats = desk
        result = OptimizationResult(
            algorithm="x", incumbent=None, incumbent_matrix=None, rate_min_nats=-np.inf
        )
        bf = init_feasible(sc, np.random.default_rng(1))
        track_incumbent(result, bf, stats, sc.sigma)
        first = result.incumbent
        track_incumbent(result, bf.copy(), stats, sc.sigma)  # identical min rate
        assert result.incumbent is first

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
        with pytest.raises(ValueError):
            AlgoOptions(rate_eval="sometimes")
        with pytest.raises(ValueError):
            AlgoOptions(rate_every=0)

    def test_rate_cadence_skips_evaluations(self, desk):
        sc, stats = desk
        res = run_gm(sc, stats, AlgoOptions(max_iterations=4, rate_every=3))
        rates = [e.min_rate_nats for e in res.trace]
        assert np.isfinite(rates[0])  # the initial point is always evaluated
        assert any(np.isnan(r) for r in rates[1:])
        assert res.rate_min_nats == pytest.approx(np.nanmax(rates), rel=1e-12)


class TestDegenerateHandling:
    def test_zero_user_reinitialized_with_budget_fraction(self, desk):
        sc, stats = desk
        from slnrbeam.optimizers import _Run
        from slnrbeam.surrogates import half_iteration_operators

        run = _Run("gm", sc, stats, AlgoOptions())
        run.bf.v_a[0] = 0.0  # kill one user's signal entirely
        ops = half_iteration_operators("azimuth", run.bf, stats, sc.sigma)
        assert ops.signal[0] == 0.0
        ops2 = run.reinit_degenerate("azimuth", ops)
        assert ops2.signal[0] > 0.0
        assert total_power(run.bf) <= sc.P * (1.0 + 1e-8)

    def test_dead_fixed_side_also_recovers(self, desk):
        sc, stats = desk
        from slnrbeam.optimizers import _Run
        from slnrbeam.surrogates import half_iteration_operators

        run = _Run("soft", sc, stats, AlgoOptions())
        run.bf.v_a[1] = 0.0
        run.bf.v_e[1] = 0.0  # both sides dead: the coupling matrix vanishes
        ops = half_iteration_operators("azimuth", run.bf, stats, sc.sigma)
        ops2 = run.reinit_degenerate("azimuth", ops)
        assert ops2.signal[1] > 0.0
        assert total_power(run.bf) <= sc.P * (1.0 + 1e-8)
