"""Surrogate bounds: tightness at the expansion point, global domination,
and first-order agreement with the target."""

import numpy as np
import pytest

from slnrbeam.beamformer import SIDES, beamformer_matrix, init_feasible
from slnrbeam.channel import Scenario, build_statistics
from slnrbeam import qcqp
from slnrbeam.optimizers import AlgoOptions, _soft_objective_value, run_gm, run_maxmin, run_soft
from slnrbeam.surrogates import (
    DegenerateUserError,
    gm_minorant_coeffs,
    log_bound,
    ratio_bound,
    slnr_minorant_coeffs,
    smoothed_min_bound,
    soft_majorant_coeffs,
)

from conftest import (
    chi_expansion,
    chi_minorant,
    chi_softmin_majorant,
    dense_r,
    dense_r_tilde,
    free_rows,
    operators_at,
    psi_matrix,
    slnrs_of,
    softmin_target,
    user_slnr,
)


def random_chi(rng, n=4):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_probes(rng, count, shape, scale_hi):
    """``count`` chi-space probes of ``shape``, each scaled by U(0, scale_hi)."""
    chi = rng.standard_normal((count, *shape)) + 1j * rng.standard_normal((count, *shape))
    return chi * rng.uniform(0, scale_hi, (count, *shape[:-1], 1))


def log_value(chi_bar, x_bar, chi, x):
    """The log bound expanded at one point, evaluated at probes."""
    return chi_minorant(*log_bound(*chi_expansion(chi_bar, x_bar)), chi, x)


def ratio_value(chi_bar, x_bar, chi, x):
    """The ratio bound expanded at one point, evaluated at probes."""
    return chi_minorant(*ratio_bound(*chi_expansion(chi_bar, x_bar)), chi, x)


def softmin_value(chi_bars, x_bars, c, chis, xs):
    """The smoothed-minimum bound expanded at a user group, evaluated at probes."""
    constant, b, scale = smoothed_min_bound(*chi_expansion(chi_bars, x_bars), c)
    return chi_softmin_majorant(constant, b, scale, c, chis, xs)


@pytest.fixture(scope="module")
def setup():
    sc = Scenario(Q=4, L=3, M=2, seed=31)
    stats = build_statistics(sc)
    factors = init_feasible(sc, np.random.default_rng(31))
    return sc, stats, factors


class TestLogMinorant:
    def test_zero_expansion_collapses(self):
        alpha, b, psi = log_bound(*chi_expansion(np.zeros(3, dtype=complex), 2.0))
        assert alpha[0] == 0.0
        assert psi[0] == 0.0
        assert not b.any()

    def test_unit_point(self):
        alpha, b, psi = log_bound(*chi_expansion(np.array([1.0 + 0j]), 1.0))
        assert alpha[0] == pytest.approx(np.log(2.0) - 1.0)
        assert psi[0] == pytest.approx(0.5)
        assert b[0, 0] == pytest.approx(1.0)

    def test_tight_at_expansion(self):
        rng = np.random.default_rng(1)
        chis = np.stack([random_chi(rng) for _ in range(50)])
        xs = rng.uniform(0.1, 5.0, 50)
        target = np.log1p(np.sum(np.abs(chis) ** 2, axis=1) / xs)
        values = chi_minorant(*log_bound(*chi_expansion(chis, xs)), chis, xs)
        np.testing.assert_allclose(values, target, rtol=1e-12)

    def test_domination(self):
        rng = np.random.default_rng(2)
        chi_bar = random_chi(rng)
        chi = random_probes(rng, 10_000, (4,), 3.0)
        x = rng.uniform(1e-3, 10.0, 10_000)
        target = np.log1p(np.sum(np.abs(chi) ** 2, axis=1) / x)
        assert np.all(log_value(chi_bar, 1.3, chi, x) <= target + 1e-12)

    def test_domain(self):
        for bound in (log_bound, ratio_bound):
            with pytest.raises(ValueError):
                bound(*chi_expansion(np.ones(2, dtype=complex), 0.0))
        with pytest.raises(ValueError):
            smoothed_min_bound(*chi_expansion(np.ones(2, dtype=complex), -1.0), 0.5)
        with pytest.raises(ValueError):
            smoothed_min_bound(*chi_expansion(np.ones(2, dtype=complex), 1.0), 0.0)


class TestRatioMinorant:
    def test_tight_at_expansion(self):
        rng = np.random.default_rng(3)
        chis = np.stack([random_chi(rng) for _ in range(50)])
        xs = rng.uniform(0.1, 5.0, 50)
        values = chi_minorant(*ratio_bound(*chi_expansion(chis, xs)), chis, xs)
        np.testing.assert_allclose(values, np.sum(np.abs(chis) ** 2, axis=1) / xs, rtol=1e-12)

    def test_zero_expansion_gives_zero_bound(self):
        rng = np.random.default_rng(4)
        chi = random_probes(rng, 100, (3,), 1.0)
        values = ratio_value(np.zeros(3, dtype=complex), 1.0, chi, rng.uniform(0.1, 3.0, 100))
        assert np.all(values == 0.0)

    def test_domination(self):
        rng = np.random.default_rng(5)
        chi_bar = random_chi(rng)
        chi = random_probes(rng, 10_000, (4,), 3.0)
        x = rng.uniform(1e-3, 10.0, 10_000)
        ratio = np.sum(np.abs(chi) ** 2, axis=1) / x
        assert np.all(ratio_value(chi_bar, 0.8, chi, x) <= ratio + 1e-12)


class TestSoftMinMajorant:
    def test_single_user_zero_signal(self):
        # ln(1) plus zero correction sums at the expansion point
        zero = np.zeros((1, 2), dtype=complex)
        value = softmin_value(zero, [1.0], 0.5, zero, np.array([1.0]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_tight_at_expansion(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            chis = np.stack([random_chi(rng) for _ in range(3)])
            xs = rng.uniform(0.1, 4.0, 3)
            c = float(rng.uniform(0.05, 2.0))
            assert softmin_value(chis, xs, c, chis, xs) == pytest.approx(
                softmin_target(chis, xs, c), rel=1e-12
            )

    def test_domination(self):
        rng = np.random.default_rng(7)
        chis_bar = np.stack([random_chi(rng) for _ in range(2)])
        c = 0.3
        chis = random_probes(rng, 10_000, (2, 4), 2.0)
        xs = rng.uniform(1e-3, 8.0, (10_000, 2))
        values = softmin_value(chis_bar, [1.0, 2.0], c, chis, xs)
        assert np.all(values >= softmin_target(chis, xs, c) - 1e-12)


def perturb(factors, side, ell, rng, scale):
    out = factors.copy()
    v = out[side]
    v[ell] = v[ell] + scale * (
        rng.standard_normal(v.shape[1:]) + 1j * rng.standard_normal(v.shape[1:])
    )
    return out


class TestSlnrMinorant:
    def test_tight_at_iterate(self, setup):
        sc, stats, factors = setup
        slnrs = slnrs_of(beamformer_matrix(factors), stats, sc.sigma)
        for side in (0, 1):
            quads = slnr_minorant_coeffs(operators_at(side, factors, stats, sc.sigma))
            np.testing.assert_allclose(quads.values(free_rows(factors, side)), slnrs, rtol=1e-9)

    def test_domination_random_perturbations(self, setup):
        sc, stats, factors = setup
        rng = np.random.default_rng(8)
        side = 0
        ell = 1
        quads = slnr_minorant_coeffs(operators_at(side, factors, stats, sc.sigma))
        base = np.linalg.norm(factors[side, ell])
        for _ in range(1000):
            other = perturb(factors, side, ell, rng, base * rng.uniform(0, 2))
            bound = quads.values(free_rows(other, side))[ell]
            truth = user_slnr(other, stats, ell, sc.sigma)
            assert bound <= truth + 1e-9 * max(1.0, abs(truth))

    def test_gradient_matches_finite_differences(self, setup):
        sc, stats, factors = setup
        side = 0
        ell = 0
        quads = slnr_minorant_coeffs(operators_at(side, factors, stats, sc.sigma))
        scale = np.linalg.norm(factors[side, ell])
        h = 1e-6 * scale

        def truth(v):
            trial = factors.copy()
            trial[side, ell] = v.reshape(trial.shape[2:])
            return user_slnr(trial, stats, ell, sc.sigma)

        def surrogate(v):
            trial = free_rows(factors, side).copy()
            trial[ell] = v
            return quads.values(trial)[ell]

        v0 = free_rows(factors, side)[ell]
        grads = []
        for i in range(v0.shape[0]):
            for delta in (h, 1j * h):
                up, dn = v0.copy(), v0.copy()
                up[i] += delta
                dn[i] -= delta
                g_true = (truth(up) - truth(dn)) / (2 * h)
                g_surr = (surrogate(up) - surrogate(dn)) / (2 * h)
                grads.append((g_true, g_surr))
        g_true = np.array([g[0] for g in grads])
        g_surr = np.array([g[1] for g in grads])
        assert np.linalg.norm(g_true - g_surr) <= 1e-4 * max(np.linalg.norm(g_true), 1e-12)

    @pytest.mark.parametrize("m_count", [1, 2])
    @pytest.mark.parametrize("side", [0, 1], ids=SIDES)
    def test_operators_match_dense_reference(self, side, m_count):
        # The Kronecker-factored operators equal Psi^H R Psi on the dense
        # second moments (R_tilde for azimuth, R for elevation), and the
        # signal and leakage equal w^H R w with w = Psi v.
        sc = Scenario(Q=4, L=3, M=m_count, seed=33)
        stats = build_statistics(sc)
        factors = init_feasible(sc, np.random.default_rng(33))
        cov = dense_r_tilde(stats) if side == 0 else dense_r(stats)
        ops = operators_at(side, factors, stats, sc.sigma)
        for ell in range(sc.L):
            psi = psi_matrix(side, factors, ell)
            own = psi.conj().T @ cov[ell] @ psi
            total = psi.conj().T @ cov.sum(axis=0) @ psi
            assert np.abs(ops.own_quad[ell] - own).max() <= 1e-12 * np.abs(own).max()
            assert np.abs(ops.sum_quad[ell] - total).max() <= 1e-12 * np.abs(total).max()
            w = psi @ ops.v_bar[ell]
            powers = np.real(np.einsum("x,kxy,y->k", w.conj(), cov, w))
            leak = powers.sum() - powers[ell]
            assert ops.signal[ell] == pytest.approx(powers[ell], rel=1e-12)
            assert ops.leakage[ell] == pytest.approx(leak, rel=1e-12)

    def test_degenerate_user_rejected(self, setup):
        sc, stats, factors = setup
        dead = factors.copy()
        dead[0, 1] = 0.0
        ops = operators_at(0, dead, stats, sc.sigma)
        for builder in (slnr_minorant_coeffs, gm_minorant_coeffs):
            with pytest.raises(DegenerateUserError, match="user 1 "):
                builder(ops)
        with pytest.raises(DegenerateUserError, match="user 1 "):
            soft_majorant_coeffs(ops, 0.1)


class TestGmMinorant:
    def test_weighted_sum_tight(self, setup):
        sc, stats, factors = setup
        rng = np.random.default_rng(9)
        weights = rng.uniform(1.0, 3.0, sc.L)
        quads = gm_minorant_coeffs(operators_at(0, factors, stats, sc.sigma))
        total_bound = float(weights @ quads.values(free_rows(factors, 0)))
        total_true = float(weights @ np.log1p(slnrs_of(beamformer_matrix(factors), stats, sc.sigma)))
        assert total_bound == pytest.approx(total_true, rel=1e-9)

    def test_domination(self, setup):
        sc, stats, factors = setup
        rng = np.random.default_rng(10)
        ell = 2
        quads = gm_minorant_coeffs(operators_at(0, factors, stats, sc.sigma))
        base = np.linalg.norm(factors[0, ell])
        for _ in range(1000):
            other = perturb(factors, 0, ell, rng, base * rng.uniform(0, 2))
            truth = np.log1p(user_slnr(other, stats, ell, sc.sigma))
            assert quads.values(free_rows(other, 0))[ell] <= truth + 1e-9 * max(1.0, abs(truth))

    def test_single_user_unit_weight_reduces_to_log_bound(self):
        sc = Scenario(Q=3, L=1, M=1, seed=13)
        stats = build_statistics(sc)
        factors = init_feasible(sc, np.random.default_rng(13))
        ops = operators_at(0, factors, stats, sc.sigma)
        quads = gm_minorant_coeffs(ops)
        g = (ops.signal / ops.x_bar)[0]
        alpha = np.log1p(g) - g
        psi = g / (ops.x_bar[0] * (1.0 + g))
        assert quads.a[0] == pytest.approx(alpha - sc.sigma * psi, rel=1e-12)
        np.testing.assert_allclose(quads.C[0], psi * ops.sum_quad[0], rtol=1e-12)


class TestSoftMajorant:
    def test_tight_at_iterate(self, setup):
        sc, stats, factors = setup
        ops = operators_at(0, factors, stats, sc.sigma)
        for c in (1.0, 0.1):
            constant, quads = soft_majorant_coeffs(ops, c)
            value = constant - quads.values(free_rows(factors, 0)).sum()
            slnrs = slnrs_of(beamformer_matrix(factors), stats, sc.sigma)
            assert value == pytest.approx(_soft_objective_value(slnrs, c), rel=1e-9)

    def test_domination(self, setup):
        sc, stats, factors = setup
        rng = np.random.default_rng(11)
        c = 0.1
        constant, quads = soft_majorant_coeffs(operators_at(0, factors, stats, sc.sigma), c)
        base = np.linalg.norm(factors[0])
        for _ in range(1000):
            other = factors.copy()
            other[0] = factors[0] + 0.5 * base * rng.uniform(0, 1) * (
                rng.standard_normal(factors[0].shape) + 1j * rng.standard_normal(factors[0].shape)
            )
            bound = constant - quads.values(free_rows(other, 0)).sum()
            truth = _soft_objective_value(
                slnrs_of(beamformer_matrix(other), stats, sc.sigma), c
            )
            assert bound >= truth - 1e-9 * max(1.0, abs(truth))

    def test_normalizer_consistent_across_smoothing(self, setup):
        # The normalizer recomputed from the SLNRs must match the one inside
        # the coefficients when c is scaled.
        sc, stats, factors = setup
        ops = operators_at(0, factors, stats, sc.sigma)
        for c in (0.05, 0.5):
            gamma = ops.signal / ops.x_bar
            s_direct = float(np.sum(1.0 / (1.0 + gamma / c)))
            denom = c * ops.x_bar + ops.signal
            s_assembled = float(np.sum(c * ops.x_bar / denom))
            assert s_assembled == pytest.approx(s_direct, rel=1e-12)

    def test_positive_curvature_coefficients(self, setup):
        sc, stats, factors = setup
        _, quads = soft_majorant_coeffs(operators_at(0, factors, stats, sc.sigma), 0.1)
        for mat in quads.C:
            lam = np.linalg.eigvalsh(mat)
            assert lam.min() >= -1e-12 * max(lam.max(), 1.0)


class TestCoefficientPositivity:
    @pytest.mark.parametrize("m_count", [1, 2])
    @pytest.mark.parametrize("side", [0, 1], ids=SIDES)
    def test_curvatures_hermitian_bit_for_bit(self, side, m_count):
        # Every curvature is a real-weighted sum of Kronecker products of
        # exactly Hermitian factors, so C == C^H holds without round-off.
        sc = Scenario(Q=4, L=3, M=m_count, seed=34)
        stats = build_statistics(sc)
        factors = init_feasible(sc, np.random.default_rng(34))
        ops = operators_at(side, factors, stats, sc.sigma)
        mats = [
            ops.own_quad,
            ops.sum_quad,
            slnr_minorant_coeffs(ops).C,
            gm_minorant_coeffs(ops).C,
        ]
        for c in (0.1, 1.0):
            mats.append(soft_majorant_coeffs(ops, c)[1].C)
        for mat in mats:
            np.testing.assert_array_equal(mat, mat.conj().swapaxes(-1, -2))

    def test_design_curvatures_hermitian_bit_for_bit(self, monkeypatch):
        # pencil_diagonalize reads one triangle of each curvature and does not
        # check it: every stack the three designs hand it along their runs,
        # at the cli, desk and literature sizes, is exactly Hermitian.
        stacks = []
        diagonalize = qcqp.pencil_diagonalize

        def capturing(c):
            stacks.append(c)
            return diagonalize(c)

        monkeypatch.setattr(qcqp, "pencil_diagonalize", capturing)
        for q_side, n_users, m_count, seed in ((3, 3, 1, 1), (8, 5, 2, 100), (12, 10, 2, 2)):
            sc = Scenario(Q=q_side, L=n_users, M=m_count, seed=seed)
            stats = build_statistics(sc)
            runs = (run_gm, run_soft) if q_side == 12 else (run_maxmin, run_gm, run_soft)
            for run in runs:
                run(sc, stats, AlgoOptions(max_iterations=3))
        assert len(stacks) >= 3 * 2 * 8
        for c in stacks:
            np.testing.assert_array_equal(c, c.conj().swapaxes(-1, -2))

    def test_curvature_scalars_positive_for_nonzero_signal(self, setup):
        # The quadratic-form multipliers of every bound must be strictly
        # positive whenever the expansion signal is nonzero.
        sc, stats, factors = setup
        rng = np.random.default_rng(12)
        chis = np.stack([random_chi(rng) for _ in range(50)])
        expansion = chi_expansion(chis, rng.uniform(0.05, 5.0, 50))
        assert np.all(log_bound(*expansion)[2] > 0.0)
        assert np.all(ratio_bound(*expansion)[2] > 0.0)
        assert np.all(smoothed_min_bound(*expansion, c=0.2)[2] > 0.0)
        # The designs' curvature scalars, through their stacked builders.
        ops = operators_at(0, factors, stats, sc.sigma)
        for quads in (
            slnr_minorant_coeffs(ops),
            gm_minorant_coeffs(ops),
            soft_majorant_coeffs(ops, 0.2)[1],
        ):
            assert np.all(np.real(np.trace(quads.C, axis1=1, axis2=2)) > 0.0)
