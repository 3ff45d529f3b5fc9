"""Max-min quadratic subproblem solver against independent oracles.

The grid oracle sweeps a dense simplex of user weights and, for each, solves
the weighted problem with plain dense linear algebra and scipy's root
bracketing, entirely separate from the solver's diagonalized path.
"""

import dataclasses

import numpy as np
import pytest
import scipy.optimize

from slnrbeam.qcqp import (
    RIDGE_REL,
    SCALE_FLOOR,
    MaxMinQuadraticProblem,
    _LevelPaths,
    _Pencils,
    power_ridge_size,
    solve_maxmin,
)


def random_problem(rng, n_users=3, dim=6, singular_a=False):
    a = rng.uniform(-1.0, 1.0, n_users)
    b = (rng.standard_normal((n_users, dim)) + 1j * rng.standard_normal((n_users, dim))) / 2
    c_stack = np.empty((n_users, dim, dim), dtype=complex)
    a_stack = np.empty_like(c_stack)
    for ell in range(n_users):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c_stack[ell] = g @ g.conj().T / dim + 0.05 * np.eye(dim)
        rank = dim - 2 if singular_a else dim
        f = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        a_stack[ell] = f @ f.conj().T / dim
    return MaxMinQuadraticProblem(a=a, b=b, C=c_stack, A=a_stack, P=float(rng.uniform(0.5, 4.0)))


def dense_point(problem, lam, mu):
    """Oracle weighted maximizers at power price ``mu``: one dense solve per user."""
    v = np.zeros((problem.n_users, problem.dim), dtype=complex)
    for ell in range(problem.n_users):
        if lam[ell] == 0.0:
            continue
        mat = lam[ell] * problem.C[ell] + mu * problem.A[ell]
        v[ell] = lam[ell] * np.linalg.solve(mat, problem.b[ell].conj())
    return v


def dense_price(problem, lam):
    """Oracle power price: brentq on the dense power, 0 when the
    (numerically) unconstrained maximizers fit the budget."""

    def power(mu):
        v = dense_point(problem, lam, mu)
        return sum(
            np.real(v[ell].conj() @ problem.A[ell] @ v[ell]) for ell in range(problem.n_users)
        )

    try:
        p0 = power(1e-14)
    except np.linalg.LinAlgError:
        p0 = np.inf
    if np.isfinite(p0) and p0 <= problem.P:
        return 0.0
    hi = 1.0
    while power(hi) > problem.P:
        hi *= 2.0
    return scipy.optimize.brentq(lambda m: power(m) - problem.P, 1e-14, hi, xtol=1e-14)


def dense_weighted_solution(problem, lam):
    """Oracle inner solve: dense linear algebra plus brentq on the power."""
    return dense_point(problem, lam, max(dense_price(problem, lam), 1e-14))


def grid_oracle(problem, steps=24):
    """Best feasible min-objective over a dense simplex grid of weights."""
    n_users = problem.n_users
    best = -np.inf
    if n_users == 1:
        grid = [np.array([1.0])]
    elif n_users == 2:
        grid = [np.array([t, 1.0 - t]) for t in np.linspace(0, 1, steps + 1)]
    else:
        grid = []
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                lam = np.array([i, j, steps - i - j], dtype=float) / steps
                grid.append(lam)
    for lam in grid:
        try:
            v = dense_weighted_solution(problem, lam)
        except np.linalg.LinAlgError:
            continue
        best = max(best, float(problem.objective_values(v).min()))
    return best


class TestDualInnerArgmax:
    def test_identity_solve(self):
        dim = 4
        problem = MaxMinQuadraticProblem(
            a=np.zeros(1),
            b=np.eye(dim)[0][None, :].astype(complex),
            C=np.eye(dim)[None, :, :].astype(complex),
            A=np.eye(dim)[None, :, :].astype(complex),
            P=1.0,
        )
        v = _Pencils(problem).dual_argmax(np.array([1.0]), 0.0)
        np.testing.assert_allclose(v[0], np.eye(dim)[0], atol=1e-8)

    def test_linearity_in_b(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng)
        doubled = MaxMinQuadraticProblem(
            a=problem.a, b=2.0 * problem.b, C=problem.C, A=problem.A, P=problem.P
        )
        lam = np.array([0.5, 0.3, 0.2])
        v1 = _Pencils(problem).dual_argmax(lam, 0.7)
        v2 = _Pencils(doubled).dual_argmax(lam, 0.7)
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-10)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(2)
        problem = random_problem(rng)
        lam = np.array([0.2, 0.5, 0.3])
        mu = 0.9
        v = _Pencils(problem).dual_argmax(lam, mu)
        for ell in range(problem.n_users):
            # the power matrix carries its ridge: A_l + eps_l I
            eps = power_ridge_size(problem.A)[ell]
            grad = (
                lam[ell] * (problem.b[ell].conj() - problem.C[ell] @ v[ell])
                - mu * problem.A[ell] @ v[ell]
                - mu * eps * v[ell]
            )
            assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(problem.b[ell])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPowerPrice:
    """The Newton power price against brentq on the dense power.

    The oracle runs on the ridged power matrices the pencils diagonalize,
    so both solve the same equation.
    """

    @staticmethod
    def check(problem, lam, rel=1e-9):
        pencils = _Pencils(problem)
        mu = pencils.power_price(lam)
        want = dense_price(dataclasses.replace(problem, A=pencils.a_ridged), lam)
        if want == 0.0:
            assert mu == 0.0
            return mu
        assert mu == pytest.approx(want, rel=rel)
        # the power at the price, from the diagonalized pencils
        num = (lam[:, None] ** 2) * np.abs(pencils.b_t) ** 2
        live = num > 0.0
        power = float((num[live] / (lam[:, None] * pencils.d + mu)[live] ** 2).sum())
        assert abs(power - problem.P) <= 1e-12 * problem.P
        return mu

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pencils(self, seed):
        rng = np.random.default_rng(50 + seed)
        problem = random_problem(rng, n_users=3, dim=6)
        problem.P = 0.05  # the unconstrained maximizers need more
        assert self.check(problem, rng.dirichlet(np.ones(3))) > 0.0

    def test_singular_power_matrices(self):
        # Ridged rank-deficient A_l have condition numbers near 1e10, which
        # limits how well the pencils' whitened coordinates (not the price
        # search) reproduce the dense power: agreement to about 1e-7.
        rng = np.random.default_rng(41)
        problem = random_problem(rng, n_users=3, dim=6, singular_a=True)
        problem.P = 0.05
        assert self.check(problem, rng.dirichlet(np.ones(3)), rel=1e-6) > 0.0

    def test_flat_direction_with_linear_term(self):
        rng = np.random.default_rng(46)
        problem = random_problem(rng, n_users=2, dim=5)
        g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        problem.C[1] = g @ g.conj().T  # two null directions, which b reaches
        assert self.check(problem, np.array([0.5, 0.5])) > 0.0

    def test_zero_weight_user(self):
        problem = random_problem(np.random.default_rng(47), n_users=3, dim=4)
        problem.P = 0.05
        assert self.check(problem, np.array([0.6, 0.0, 0.4])) > 0.0

    def test_zero_rows_of_b(self):
        problem = random_problem(np.random.default_rng(48), n_users=3, dim=4)
        problem.P = 0.05
        problem.b[1] = 0.0
        assert self.check(problem, np.array([0.2, 0.5, 0.3])) > 0.0

    def test_unconstrained_point_fits(self):
        problem = random_problem(np.random.default_rng(49), n_users=3, dim=4)
        problem.P = 1e6
        assert self.check(problem, np.array([0.2, 0.5, 0.3])) == 0.0
        problem.b[:] = 0.0
        assert _Pencils(problem).power_price(np.array([0.2, 0.5, 0.3])) == 0.0

    def test_one_term_exact_root(self):
        # power(mu) = num / (s + mu)^2 = P has the root sqrt(num / P) - s;
        # with num = s = 1 and P = 1/4 it is 1, the root of 1/(1+m)^2 = 1/4
        problem = MaxMinQuadraticProblem(
            a=np.zeros(1), b=np.ones((1, 1), dtype=complex), C=np.ones((1, 1, 1), dtype=complex),
            A=np.ones((1, 1, 1), dtype=complex), P=0.25,
        )
        pencils = _Pencils(problem)
        mu = pencils.power_price(np.array([1.0]))
        exact = np.sqrt(pencils.abs_b_sq[0, 0] / problem.P) - pencils.d[0, 0]
        assert mu == pytest.approx(exact, rel=1e-15)
        assert mu == pytest.approx(1.0, abs=1e-9)


class TestSolveMaxmin:
    def test_single_user_matches_closed_form(self):
        # With one user the solver must reproduce the two-branch constrained
        # quadratic maximum (unconstrained solve or power-saturating shift).
        rng = np.random.default_rng(3)
        for trial in range(10):
            problem = random_problem(rng, n_users=1, dim=5)
            sol = solve_maxmin(problem, tol=1e-8)
            oracle = dense_weighted_solution(problem, np.array([1.0]))
            want = float(problem.objective_values(oracle).min())
            assert sol.objective == pytest.approx(want, rel=1e-6)

    def test_inactive_constraint_exact(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, n_users=2, dim=4)
        problem.P = 1e9  # budget far beyond the unconstrained maximizers
        sol = solve_maxmin(problem)
        assert sol.gap == 0.0
        assert sol.iterations == 0
        for ell in range(2):
            v_free = np.linalg.solve(problem.C[ell], problem.b[ell].conj())
            np.testing.assert_allclose(sol.v[ell], v_free, rtol=1e-6, atol=1e-10)

    def test_grid_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            problem = random_problem(rng, n_users=3, dim=4)
            sol = solve_maxmin(problem, tol=1e-6)
            oracle = grid_oracle(problem, steps=30)
            # solver must not fall below the grid's best feasible value
            assert sol.objective >= oracle - 1e-4 * max(1.0, abs(oracle))
            assert sol.gap <= 1e-4

    def test_weak_duality_gap_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            problem = random_problem(rng, n_users=4, dim=5, singular_a=True)
            sol = solve_maxmin(problem, tol=1e-6)
            assert sol.gap >= 0.0

    def test_feasibility(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            problem = random_problem(rng, n_users=3, dim=5)
            sol = solve_maxmin(problem, tol=1e-6)
            power = sum(
                np.real(sol.v[ell].conj() @ problem.A[ell] @ sol.v[ell])
                for ell in range(problem.n_users)
            )
            assert power <= problem.P * (1.0 + 1e-8)

    def test_warm_start_never_worse(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, n_users=3, dim=5)
        # a feasible warm start: scaled random point
        v0 = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))) / 3
        power = sum(np.real(v0[i].conj() @ problem.A[i] @ v0[i]) for i in range(3))
        v0 *= np.sqrt(0.5 * problem.P / power)
        seed_obj = float(problem.objective_values(v0).min())
        sol = solve_maxmin(problem, tol=1e-6, max_iterations=1, warm_start=v0)
        assert sol.objective >= seed_obj

    def test_reindexing_invariance(self):
        rng = np.random.default_rng(9)
        problem = random_problem(rng, n_users=3, dim=4)
        perm = np.array([2, 0, 1])
        shuffled = MaxMinQuadraticProblem(
            a=problem.a[perm], b=problem.b[perm], C=problem.C[perm], A=problem.A[perm], P=problem.P
        )
        s1 = solve_maxmin(problem, tol=1e-6)
        s2 = solve_maxmin(shuffled, tol=1e-6)
        assert s2.objective == pytest.approx(s1.objective, rel=1e-4)

    def test_badly_scaled_linear_terms(self):
        # With a constant user capping the level far below the others'
        # unconstrained maxima, the level tests must not lose the level to
        # cancellation against those maxima.
        rng = np.random.default_rng(11)
        for scale in (1e-6, 1e6):
            for _ in range(4):
                problem = random_problem(rng, n_users=4, dim=6)
                problem.b *= scale
                problem.b[0] = 0.0
                sol = solve_maxmin(problem)
                assert sol.gap <= 1e-4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_power_matrix(self):
        # A user whose power matrix vanishes takes its ridge from the other
        # users' scale; one sized from its own zero trace was subnormal, and
        # the search then ran to its iteration cap and returned a nan gap.
        rng = np.random.default_rng(12)
        problem = random_problem(rng, n_users=3, dim=2)
        problem.A[0] = 0.0
        sol = solve_maxmin(problem, tol=1e-5)
        assert np.isfinite(sol.gap) and sol.gap <= 1e-5
        assert 0 < sol.iterations <= 100

    def test_ridge_sizes(self):
        a_stack = np.stack([np.eye(3), 4.0 * np.eye(3), np.zeros((3, 3))])
        np.testing.assert_allclose(
            power_ridge_size(a_stack), [RIDGE_REL, 4.0 * RIDGE_REL, 4.0 * RIDGE_REL * SCALE_FLOOR]
        )
        # nothing to take a scale from: unit scale
        np.testing.assert_allclose(power_ridge_size(np.zeros((2, 3, 3))), [RIDGE_REL] * 2)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(10)
        problem = random_problem(rng, n_users=3, dim=4)
        sol = solve_maxmin(problem, tol=1e-8)
        power = sum(
            np.real(sol.v[ell].conj() @ problem.A[ell] @ sol.v[ell]) for ell in range(3)
        )
        # either the budget binds or the unconstrained optimum was feasible
        assert (problem.P - power) <= 1e-6 * problem.P or sol.iterations == 0


def pencil_path(pencils, ell, nu):
    """(power, q) on user ell's minimum-power path at multiplier nu, summed
    term by term on the diagonalized pencil: with r_j = nu / (1 + nu d_j),
    power = sum_j |b_j|^2 r_j^2 and q = a + sum_j |b_j|^2 r_j (2 - d_j r_j)."""
    d, w = pencils.d[ell], pencils.abs_b_sq[ell]
    r = nu / (1.0 + nu * d)
    return float(np.sum(w * r * r)), float(pencils.problem.a[ell] + np.sum(w * r * (2.0 - d * r)))


def reference_multiplier(pencils, ell, level, rel=1e-13):
    """Plain bisection on the multiplier reaching ``level``; None if the
    level needs a multiplier beyond 2^300, the solver's cap too."""
    if pencils.problem.a[ell] >= level:
        return 0.0
    lo, hi = 0.0, 1.0
    while pencil_path(pencils, ell, hi)[1] < level:
        lo, hi = hi, 2.0 * hi
        if hi > 2.0**300:
            return None
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        if pencil_path(pencils, ell, mid)[1] >= level:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLevelSolve:
    """The safeguarded Newton level solve against a reference bisection."""

    @staticmethod
    def check_bracket(pencils, level, result):
        nu_lo, nu_hi, p_lo, p_hi = result
        assert np.all(p_lo <= p_hi)
        at_level = nu_hi == 0.0
        live = np.isfinite(nu_hi) & ~at_level
        _, q_lo, *_ = pencils.level_curves(np.where(live, nu_lo, 0.0))
        _, q_hi, *_ = pencils.level_curves(np.where(live, nu_hi, 0.0))
        assert np.all(q_lo[live] < level)
        assert np.all(q_hi[live] >= level)
        # users already at the level need no power at all
        assert np.all(q_lo[at_level] >= level)
        assert np.all(p_hi[at_level] == 0.0)

    def check_against_reference(self, problem, level, rel=1e-8):
        pencils = _LevelPaths(problem)
        result = pencils.min_power_bracket(level)
        self.check_bracket(pencils, level, result)
        _, nu_hi, _, p_hi = result
        for ell in range(problem.n_users):
            want = reference_multiplier(pencils, ell, level)
            if want is None or level >= pencils.q_free[ell]:
                assert nu_hi[ell] == np.inf and p_hi[ell] == np.inf
                continue
            assert nu_hi[ell] == pytest.approx(want, rel=rel, abs=1e-300)
            assert p_hi[ell] == pytest.approx(pencil_path(pencils, ell, want)[0], rel=rel)
        return pencils, result

    @pytest.mark.parametrize("singular_a", [False, True])
    def test_random_pencils(self, singular_a):
        rng = np.random.default_rng(20 + singular_a)
        for _ in range(6):
            problem = random_problem(rng, n_users=3, dim=5, singular_a=singular_a)
            q_free = _LevelPaths(problem).q_free
            top = float(np.max(q_free[np.isfinite(q_free)]))
            for frac in (0.02, 0.3, 0.7, 0.95, 0.999):
                level = float(problem.a.min()) + frac * (top - float(problem.a.min()))
                self.check_against_reference(problem, level)

    def test_early_stop_stays_certified(self):
        rng = np.random.default_rng(27)
        problem = random_problem(rng, n_users=4, dim=6)
        pencils = _LevelPaths(problem)
        level = float(np.min(pencils.q_free)) - 1e-3
        full = pencils.min_power_bracket(level)
        budget = 0.5 * float(full[2].sum())
        early = _LevelPaths(problem).min_power_bracket(level, budget)
        self.check_bracket(pencils, level, early)
        assert early[2].sum() > budget

    def test_singular_power_matrix(self):
        rng = np.random.default_rng(21)
        problem = random_problem(rng, n_users=2, dim=5)
        f = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        problem.A[0] = f @ f.conj().T  # rank one
        for level in (float(problem.a[0]) + 0.1, float(problem.a[0]) + 1.0):
            self.check_against_reference(problem, level)

    def test_flat_directions_with_linear_term(self):
        rng = np.random.default_rng(22)
        problem = random_problem(rng, n_users=2, dim=5)
        g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        problem.C[1] = g @ g.conj().T  # two null directions, which b reaches
        pencils = _LevelPaths(problem)
        assert pencils.q_free[1] == np.inf
        for level in (float(problem.a[1]) + 0.5, float(problem.a[1]) + 50.0):
            _, result = self.check_against_reference(problem, level)
            assert np.isfinite(result[1][1])

    def test_zero_rows_of_b(self):
        rng = np.random.default_rng(23)
        problem = random_problem(rng, n_users=3, dim=4)
        problem.b[1] = 0.0
        pencils = _LevelPaths(problem)
        assert pencils.q_free[1] == problem.a[1]
        above = float(problem.a[1]) + 0.1
        nu_lo, nu_hi, p_lo, p_hi = pencils.min_power_bracket(above)
        assert nu_hi[1] == np.inf and p_lo[1] == np.inf
        self.check_bracket(pencils, above, (nu_lo, nu_hi, p_lo, p_hi))
        below = float(problem.a[1]) - 0.1
        result = pencils.min_power_bracket(below)
        assert result[1][1] == 0.0 and result[3][1] == 0.0
        self.check_bracket(pencils, below, result)

    def test_level_at_or_below_a(self):
        rng = np.random.default_rng(24)
        problem = random_problem(rng, n_users=3, dim=4)
        pencils = _LevelPaths(problem)
        for level in (float(problem.a.min()), float(problem.a.min()) - 5.0):
            result = pencils.min_power_bracket(level)
            for arr in result:
                np.testing.assert_array_equal(arr, 0.0)

    def test_level_at_or_above_q_free(self):
        rng = np.random.default_rng(25)
        problem = random_problem(rng, n_users=3, dim=4)
        pencils = _LevelPaths(problem)
        top = int(np.argmax(pencils.q_free))
        for level in (float(pencils.q_free.max()), float(pencils.q_free.max()) + 1.0):
            result = pencils.min_power_bracket(level)
            assert result[1][top] == np.inf and result[3][top] == np.inf
            self.check_bracket(pencils, level, result)
        # just below the asymptote the level is reached, at a large multiplier
        level = float(pencils.q_free[top]) - 1e-9 * max(1.0, abs(float(pencils.q_free[top])))
        self.check_against_reference(problem, level, rel=1e-4)
