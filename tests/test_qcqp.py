"""Max-min quadratic subproblem solver against independent oracles.

The grid oracle sweeps a dense simplex of user weights and, for each, solves
the weighted problem with plain dense linear algebra and scipy's root
bracketing, entirely separate from the solver's diagonalized path. Random
problems are drawn with a general positive-definite power metric and
whitened onto the identity metric the solver takes.
"""

import numpy as np
import pytest
import scipy.optimize

from slnrbeam.channel import Scenario, build_statistics
from slnrbeam.numerics import pencil_diagonalize
from slnrbeam.optimizers import _Run
from slnrbeam.qcqp import NU_MAX, Quadratics, _LevelPaths, _Pencils, solve_maxmin
from slnrbeam.surrogates import half_iteration_operators, slnr_minorant_coeffs

from conftest import power_of, whiten


def random_problem(rng, n_users=3, dim=6):
    """Random concave quadratics under a random PD power metric, whitened,
    and a random budget: ``(quads, budget)``."""
    a = rng.uniform(-1.0, 1.0, n_users)
    b = (rng.standard_normal((n_users, dim)) + 1j * rng.standard_normal((n_users, dim))) / 2
    c_stack = np.empty((n_users, dim, dim), dtype=complex)
    a_stack = np.empty_like(c_stack)
    for ell in range(n_users):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c_stack[ell] = g @ g.conj().T / dim + 0.05 * np.eye(dim)
        f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a_stack[ell] = f @ f.conj().T / dim
    b, c_stack = whiten(b, c_stack, a_stack)
    return Quadratics(a=a, b=b, C=c_stack), float(rng.uniform(0.5, 4.0))


def dense_point(quads, lam, mu):
    """Oracle weighted maximizers at power price ``mu``: one dense solve per user."""
    n_users, dim = quads.b.shape
    v = np.zeros((n_users, dim), dtype=complex)
    for ell in range(n_users):
        if lam[ell] == 0.0:
            continue
        mat = lam[ell] * quads.C[ell] + mu * np.eye(dim)
        v[ell] = lam[ell] * np.linalg.solve(mat, quads.b[ell].conj())
    return v


def dense_price(quads, budget, lam):
    """Oracle power price: brentq on the dense power, 0 when the
    (numerically) unconstrained maximizers fit the budget."""

    def power(mu):
        return power_of(dense_point(quads, lam, mu))

    try:
        p0 = power(1e-14)
    except np.linalg.LinAlgError:
        p0 = np.inf
    if np.isfinite(p0) and p0 <= budget:
        return 0.0
    hi = 1.0
    while power(hi) > budget:
        hi *= 2.0
    return scipy.optimize.brentq(lambda m: power(m) - budget, 1e-14, hi, xtol=1e-14)


def dense_weighted_solution(quads, budget, lam):
    """Oracle inner solve: dense linear algebra plus brentq on the power."""
    return dense_point(quads, lam, max(dense_price(quads, budget, lam), 1e-14))


def grid_oracle(quads, budget, steps=24):
    """Best feasible min-objective over a dense simplex grid of weights."""
    n_users = quads.b.shape[0]
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
            v = dense_weighted_solution(quads, budget, lam)
        except np.linalg.LinAlgError:
            continue
        best = max(best, float(quads.values(v).min()))
    return best


class TestDualInnerArgmax:
    def test_identity_solve(self):
        dim = 4
        quads = Quadratics(
            a=np.zeros(1),
            b=np.eye(dim)[0][None, :].astype(complex),
            C=np.eye(dim)[None, :, :].astype(complex),
        )
        v = _Pencils(quads, 1.0).dual_argmax(np.array([1.0]), 0.0)
        np.testing.assert_allclose(v[0], np.eye(dim)[0], atol=1e-8)

    def test_linearity_in_b(self):
        rng = np.random.default_rng(1)
        quads, budget = random_problem(rng)
        doubled = Quadratics(a=quads.a, b=2.0 * quads.b, C=quads.C)
        lam = np.array([0.5, 0.3, 0.2])
        v1 = _Pencils(quads, budget).dual_argmax(lam, 0.7)
        v2 = _Pencils(doubled, budget).dual_argmax(lam, 0.7)
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-10)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(2)
        quads, budget = random_problem(rng)
        lam = np.array([0.2, 0.5, 0.3])
        mu = 0.9
        v = _Pencils(quads, budget).dual_argmax(lam, mu)
        for ell in range(3):
            grad = lam[ell] * (quads.b[ell].conj() - quads.C[ell] @ v[ell]) - mu * v[ell]
            assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(quads.b[ell])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPowerPrice:
    """The Newton power price against brentq on the dense power."""

    @staticmethod
    def check(quads, budget, lam, rel=1e-9):
        pencils = _Pencils(quads, budget)
        mu = pencils.power_price(lam)
        want = dense_price(quads, budget, lam)
        if want == 0.0:
            assert mu == 0.0
            return mu
        assert mu == pytest.approx(want, rel=rel)
        # the power at the price, from the diagonalized pencils
        num = (lam[:, None] ** 2) * np.abs(pencils.b_t) ** 2
        live = num > 0.0
        power = float((num[live] / (lam[:, None] * pencils.d + mu)[live] ** 2).sum())
        assert abs(power - budget) <= 1e-12 * budget
        return mu

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pencils(self, seed):
        rng = np.random.default_rng(50 + seed)
        quads, _ = random_problem(rng, n_users=3, dim=6)
        # the unconstrained maximizers need more than this budget
        assert self.check(quads, 0.05, rng.dirichlet(np.ones(3))) > 0.0

    def test_flat_direction_with_linear_term(self):
        rng = np.random.default_rng(46)
        quads, budget = random_problem(rng, n_users=2, dim=5)
        g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        quads.C[1] = g @ g.conj().T  # two null directions, which b reaches
        assert self.check(quads, budget, np.array([0.5, 0.5])) > 0.0

    def test_zero_weight_user(self):
        quads, _ = random_problem(np.random.default_rng(47), n_users=3, dim=4)
        assert self.check(quads, 0.05, np.array([0.6, 0.0, 0.4])) > 0.0

    def test_zero_rows_of_b(self):
        quads, _ = random_problem(np.random.default_rng(48), n_users=3, dim=4)
        quads.b[1] = 0.0
        assert self.check(quads, 0.05, np.array([0.2, 0.5, 0.3])) > 0.0

    def test_unconstrained_point_fits(self):
        quads, _ = random_problem(np.random.default_rng(49), n_users=3, dim=4)
        assert self.check(quads, 1e6, np.array([0.2, 0.5, 0.3])) == 0.0
        quads.b[:] = 0.0
        assert _Pencils(quads, 1e6).power_price(np.array([0.2, 0.5, 0.3])) == 0.0

    def test_one_term_exact_root(self):
        # power(mu) = num / (s + mu)^2 = P has the root sqrt(num / P) - s;
        # with num = s = 1 and P = 1/4 it is 1, the root of 1/(1+m)^2 = 1/4
        quads = Quadratics(
            a=np.zeros(1), b=np.ones((1, 1), dtype=complex), C=np.ones((1, 1, 1), dtype=complex)
        )
        pencils = _Pencils(quads, 0.25)
        mu = pencils.power_price(np.array([1.0]))
        exact = np.sqrt(pencils.abs_b_sq[0, 0] / 0.25) - pencils.d[0, 0]
        assert mu == pytest.approx(exact, rel=1e-15)
        assert mu == pytest.approx(1.0, abs=1e-9)


class TestSolveMaxmin:
    def test_single_user_matches_closed_form(self):
        # With one user the solver must reproduce the two-branch constrained
        # quadratic maximum (unconstrained solve or power-saturating shift).
        rng = np.random.default_rng(3)
        for trial in range(10):
            quads, budget = random_problem(rng, n_users=1, dim=5)
            sol = solve_maxmin(quads, budget, tol=1e-8)
            oracle = dense_weighted_solution(quads, budget, np.array([1.0]))
            want = float(quads.values(oracle).min())
            assert sol.objective == pytest.approx(want, rel=1e-6)

    def test_inactive_constraint_exact(self):
        rng = np.random.default_rng(4)
        quads, _ = random_problem(rng, n_users=2, dim=4)
        sol = solve_maxmin(quads, 1e9)  # budget far beyond the unconstrained maximizers
        assert sol.gap == 0.0
        assert sol.iterations == 0
        for ell in range(2):
            v_free = np.linalg.solve(quads.C[ell], quads.b[ell].conj())
            np.testing.assert_allclose(sol.v[ell], v_free, rtol=1e-6, atol=1e-10)

    def test_grid_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            quads, budget = random_problem(rng, n_users=3, dim=4)
            sol = solve_maxmin(quads, budget, tol=1e-6)
            oracle = grid_oracle(quads, budget, steps=30)
            # solver must not fall below the grid's best feasible value
            assert sol.objective >= oracle - 1e-4 * max(1.0, abs(oracle))
            assert sol.gap <= 1e-4

    def test_weak_duality_gap_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sol = solve_maxmin(*random_problem(rng, n_users=4, dim=5), tol=1e-6)
            assert sol.gap >= 0.0

    def test_feasibility(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            quads, budget = random_problem(rng, n_users=3, dim=5)
            sol = solve_maxmin(quads, budget, tol=1e-6)
            assert power_of(sol.v) <= budget * (1.0 + 1e-8)

    def test_warm_start_never_worse(self):
        rng = np.random.default_rng(8)
        quads, budget = random_problem(rng, n_users=3, dim=5)
        # a feasible warm start: scaled random point
        v0 = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))) / 3
        v0 *= np.sqrt(0.5 * budget / power_of(v0))
        seed_obj = float(quads.values(v0).min())
        sol = solve_maxmin(quads, budget, tol=1e-6, max_iterations=1, warm_start=v0)
        assert sol.objective >= seed_obj

    def test_reindexing_invariance(self):
        rng = np.random.default_rng(9)
        quads, budget = random_problem(rng, n_users=3, dim=4)
        perm = np.array([2, 0, 1])
        shuffled = Quadratics(a=quads.a[perm], b=quads.b[perm], C=quads.C[perm])
        s1 = solve_maxmin(quads, budget, tol=1e-6)
        s2 = solve_maxmin(shuffled, budget, tol=1e-6)
        assert s2.objective == pytest.approx(s1.objective, rel=1e-4)

    def test_badly_scaled_linear_terms(self):
        # With a constant user capping the level far below the others'
        # unconstrained maxima, the level tests must not lose the level to
        # cancellation against those maxima.
        rng = np.random.default_rng(11)
        for scale in (1e-6, 1e6):
            for _ in range(4):
                quads, budget = random_problem(rng, n_users=4, dim=6)
                quads.b *= scale
                quads.b[0] = 0.0
                sol = solve_maxmin(quads, budget)
                assert sol.gap <= 1e-4

    def test_every_multiplier_certifies_a_bound(self):
        # Weak duality: at any nu >= 0 the path points give the bound
        # g(nu) = (P + sum_l (nu_l q_l - ||v_l||^2)) / sum_l nu_l on the optimum.
        rng = np.random.default_rng(12)
        for _ in range(4):
            quads, budget = random_problem(rng, n_users=3, dim=4)
            pencils = _LevelPaths(quads, budget)
            best = max(grid_oracle(quads, budget, steps=12), solve_maxmin(quads, budget, tol=1e-8).objective)
            for nu in rng.exponential(size=(20, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (20, 1)):
                power, q, *_ = pencils.level_curves(nu)
                bound = (budget + nu @ q - power.sum()) / nu.sum()
                assert bound >= best - 1e-9 * max(1.0, abs(best))

    def test_complementary_slackness(self):
        rng = np.random.default_rng(10)
        quads, budget = random_problem(rng, n_users=3, dim=4)
        sol = solve_maxmin(quads, budget, tol=1e-8)
        power = power_of(sol.v)
        # either the budget binds or the unconstrained optimum was feasible
        assert (budget - power) <= 1e-6 * budget or sol.iterations == 0


def pencil_path(pencils, ell, nu):
    """(power, q) on user ell's minimum-power path at multiplier nu, summed
    term by term on the diagonalized pencil: with r_j = nu / (1 + nu d_j),
    power = sum_j |b_j|^2 r_j^2 and q = a + sum_j |b_j|^2 r_j (2 - d_j r_j)."""
    d, w = pencils.d[ell], pencils.abs_b_sq[ell]
    r = nu / (1.0 + nu * d)
    return float(np.sum(w * r * r)), float(pencils.quads.a[ell] + np.sum(w * r * (2.0 - d * r)))


def reference_multiplier(pencils, ell, level, rel=1e-13):
    """Plain bisection on the multiplier reaching ``level``; None if the
    level needs a multiplier beyond 2^300, the solver's cap too."""
    if pencils.quads.a[ell] >= level:
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
    """The Newton multiplier solve against a reference bisection."""

    @staticmethod
    def check_multipliers(pencils, level, nu):
        at_level = nu == 0.0
        live = (nu < NU_MAX) & ~at_level
        power, q, *_ = pencils.level_curves(nu)
        # the solved users reach the level, to round-off
        np.testing.assert_allclose(q[live], level, rtol=1e-9, atol=1e-12)
        # users already at the level need no power at all
        assert np.all(pencils.quads.a[at_level] >= level)
        assert np.all(power[at_level] == 0.0)

    def check_against_reference(self, quads, level, rel=1e-8, start=None):
        # the multipliers do not depend on the budget
        pencils = _LevelPaths(quads, 1.0)
        nu = pencils.multipliers(level, np.zeros(quads.b.shape[0]) if start is None else start)
        self.check_multipliers(pencils, level, nu)
        for ell in range(quads.b.shape[0]):
            want = reference_multiplier(pencils, ell, level)
            if want is None or level >= pencils.q_free[ell]:
                assert nu[ell] == NU_MAX
                continue
            assert nu[ell] == pytest.approx(want, rel=rel, abs=1e-300)
        return pencils, nu

    @pytest.mark.parametrize("singular_c", [False, True])
    def test_random_pencils(self, singular_c):
        # With singular_c, user 0's curvature has two null directions that
        # its linear term reaches: its level rises without bound.
        rng = np.random.default_rng(20 + singular_c)
        for _ in range(6):
            quads, budget = random_problem(rng, n_users=3, dim=5)
            if singular_c:
                g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
                quads.C[0] = g @ g.conj().T
            q_free = _LevelPaths(quads, budget).q_free
            top = float(np.max(q_free[np.isfinite(q_free)]))
            for frac in (0.02, 0.3, 0.7, 0.95, 0.999):
                level = float(quads.a.min()) + frac * (top - float(quads.a.min()))
                self.check_against_reference(quads, level)

    @pytest.mark.parametrize("flat_user", [False, True])
    def test_start_on_either_side_of_the_root(self, flat_user):
        # Newton from another level's multipliers, from above or below the
        # roots, or from the cap, lands on the multipliers it finds from zero.
        # A user without curvature (C = 0) has its linear term dropped: its
        # q stays at a = q_free, so from any start its multiplier is zero
        # below a and the cap from a on, where level >= q_free decides.
        rng = np.random.default_rng(27)
        quads, budget = random_problem(rng, n_users=4, dim=6)
        if flat_user:
            quads.C[1] = 0.0
        pencils = _LevelPaths(quads, budget)
        live = np.arange(4) != 1 if flat_user else np.full(4, True)
        low, high = float(quads.a[live].max()) + 0.1, float(pencils.q_free[live].min()) - 1e-3
        below, above = pencils.multipliers(low, np.zeros(4)), pencils.multipliers(high, np.zeros(4))
        assert np.all(below[live] < above[live])
        starts = (np.zeros(4), below, above, np.full(4, NU_MAX))
        for level, start in ((high, below), (low, above), (low, starts[-1])):
            want = pencils.multipliers(level, np.zeros(4))
            np.testing.assert_allclose(pencils.multipliers(level, start), want, rtol=1e-9)
        if flat_user:
            a_flat = float(quads.a[1])
            assert pencils.q_free[1] == a_flat
            for level in (a_flat - 0.5, a_flat, a_flat + 1e-9, a_flat + 0.5, high):
                for start in starts:
                    assert pencils.multipliers(level, start)[1] == (0.0 if level < a_flat else NU_MAX)

    def test_zero_curvature_drops_linear_term(self):
        # Along a direction of exactly zero curvature the linear term is
        # dropped (the precondition puts only round-off there): a user with
        # C = 0 keeps q = a and the zero path point, even at the cap.
        rng = np.random.default_rng(22)
        quads, budget = random_problem(rng, n_users=2, dim=5)
        quads.C[1] = 0.0
        pencils = _LevelPaths(quads, budget)
        assert pencils.q_free[1] == quads.a[1] and np.all(pencils.abs_b_sq[1] == 0.0)
        nu = np.array([1.0, NU_MAX])
        power, q, shortfall, dq = pencils.level_curves(nu)
        assert power[1] == shortfall[1] == dq[1] == 0.0 and q[1] == quads.a[1]
        assert np.all(pencils.dual_argmax(nu, 1.0)[1] == 0.0)
        assert power[0] > 0.0 and q[0] > quads.a[0]

    def test_q_free_per_user_across_curvature_scales(self):
        # Zero curvature is judged per direction, not against the largest
        # curvature over all users: a user whose curvature lies 1e15 below
        # another's keeps its finite maximum a + b C^{-1} b^H.
        rng = np.random.default_rng(28)
        g = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        c_stack = g @ g.conj().swapaxes(-1, -2) / 4 + np.eye(4)
        c_stack[1] *= 1e-15
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        b[1] *= 1e-15
        quads = Quadratics(a=np.array([-1.0, -1.0]), b=b, C=c_stack)
        q_free = _LevelPaths(quads, 1.0).q_free
        dense = [-1.0 + (row @ np.linalg.solve(c, row.conj())).real for row, c in zip(b, c_stack)]
        assert np.all(np.isfinite(q_free))
        np.testing.assert_allclose(q_free, dense, rtol=1e-10)

    def test_slnr_minorants_meet_the_precondition(self):
        # The SLNR minorants put their linear terms in the range of their
        # curvature: at desk iterates, on directions of exactly zero pencil
        # curvature, they carry only round-off of each row's |b|^2.
        seen = 0
        for seed in (1, 2, 115, 150):
            sc = Scenario(Q=8, L=5, M=2, seed=seed)
            stats = build_statistics(sc)
            run = _Run("maxmin", sc, stats)
            for side in (0, 1):
                run.fix_gauge(side)
                ops = half_iteration_operators(side, run.factors, stats, run.signal, run.leakage, run.sigma)
                quads = slnr_minorant_coeffs(ops)
                d, t = pencil_diagonalize(quads.C)
                abs_b_sq = np.abs((quads.b[:, None, :] @ t)[:, 0]) ** 2
                flat = d <= 0.0
                seen += int(flat.sum())
                assert np.all(np.where(flat, abs_b_sq, 0.0).sum(axis=1) <= 1e-12 * abs_b_sq.sum(axis=1))
        assert seen > 0  # the iterates have directions of zero curvature

    def test_zero_rows_of_b(self):
        rng = np.random.default_rng(23)
        quads, budget = random_problem(rng, n_users=3, dim=4)
        quads.b[1] = 0.0
        pencils = _LevelPaths(quads, budget)
        assert pencils.q_free[1] == quads.a[1]
        above = float(quads.a[1]) + 0.1
        nu = pencils.multipliers(above, np.zeros(3))
        assert nu[1] == NU_MAX
        self.check_multipliers(pencils, above, nu)
        below = float(quads.a[1]) - 0.1
        nu = pencils.multipliers(below, np.zeros(3))
        assert nu[1] == 0.0
        self.check_multipliers(pencils, below, nu)

    def test_level_at_or_below_a(self):
        rng = np.random.default_rng(24)
        quads, budget = random_problem(rng, n_users=3, dim=4)
        pencils = _LevelPaths(quads, budget)
        for level in (float(quads.a.min()), float(quads.a.min()) - 5.0):
            np.testing.assert_array_equal(pencils.multipliers(level, np.ones(3)), 0.0)

    def test_level_at_or_above_q_free(self):
        rng = np.random.default_rng(25)
        quads, budget = random_problem(rng, n_users=3, dim=4)
        pencils = _LevelPaths(quads, budget)
        top = int(np.argmax(pencils.q_free))
        for level in (float(pencils.q_free.max()), float(pencils.q_free.max()) + 1.0):
            nu = pencils.multipliers(level, np.zeros(3))
            assert nu[top] == NU_MAX
            # at the cap the path point is the unconstrained maximizer
            _, q, *_ = pencils.level_curves(nu)
            assert q[top] == pytest.approx(pencils.q_free[top], rel=1e-12)
        # just below the asymptote the level is reached, at a large multiplier
        level = float(pencils.q_free[top]) - 1e-9 * max(1.0, abs(float(pencils.q_free[top])))
        self.check_against_reference(quads, level, rel=1e-4)
