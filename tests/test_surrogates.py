"""Surrogate bounds: tightness at the expansion point, global domination,
and first-order agreement with the target."""

import numpy as np
import pytest

from slnrbeam.beamformer import beamformer_matrix, init_feasible, psi_matrix
from slnrbeam.channel import Scenario, build_statistics
from slnrbeam.metrics import slnr_vec
from slnrbeam.optimizers import _soft_objective_value
from slnrbeam.surrogates import (
    DegenerateUserError,
    evaluate_log_minorant,
    gm_minorant_coeffs,
    half_iteration_operators,
    log_quadratic_minorant,
    ratio_quadratic_minorant,
    slnr_minorant_coeffs,
    soft_majorant_coeffs,
    softmin_majorant,
)

from conftest import dense_r_tilde, user_slnr


def random_chi(rng, n=4):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.fixture(scope="module")
def setup():
    sc = Scenario(Q=4, L=3, M=2, seed=31)
    stats = build_statistics(sc)
    bf = init_feasible(sc, np.random.default_rng(31))
    return sc, stats, bf


class TestLogMinorant:
    def test_zero_expansion_collapses(self):
        alpha, psi = log_quadratic_minorant(np.zeros(3, dtype=complex), 2.0)
        assert alpha == 0.0
        assert psi == 0.0

    def test_unit_point(self):
        alpha, psi = log_quadratic_minorant(np.array([1.0 + 0j]), 1.0)
        assert alpha == pytest.approx(np.log(2.0) - 1.0)
        assert psi == pytest.approx(0.5)

    def test_tight_at_expansion(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            chi = random_chi(rng)
            x = float(rng.uniform(0.1, 5.0))
            target = np.log1p(np.vdot(chi, chi).real / x)
            assert evaluate_log_minorant(chi, x, chi, x) == pytest.approx(target, rel=1e-12)

    def test_domination(self):
        rng = np.random.default_rng(2)
        chi_bar = random_chi(rng)
        x_bar = 1.3
        for _ in range(10_000):
            chi = random_chi(rng) * rng.uniform(0, 3)
            x = float(rng.uniform(1e-3, 10.0))
            target = np.log1p(np.vdot(chi, chi).real / x)
            assert evaluate_log_minorant(chi_bar, x_bar, chi, x) <= target + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            log_quadratic_minorant(np.ones(2, dtype=complex), 0.0)


class TestRatioMinorant:
    def test_tight_at_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            chi = random_chi(rng)
            x = float(rng.uniform(0.1, 5.0))
            bound = ratio_quadratic_minorant(chi, x)
            assert bound.evaluate(chi, x) == pytest.approx(
                np.vdot(chi, chi).real / x, rel=1e-12
            )

    def test_zero_expansion_gives_zero_bound(self):
        bound = ratio_quadratic_minorant(np.zeros(3, dtype=complex), 1.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            chi = random_chi(rng, n=3)
            assert bound.evaluate(chi, float(rng.uniform(0.1, 3.0))) == 0.0

    def test_domination(self):
        rng = np.random.default_rng(5)
        chi_bar = random_chi(rng)
        x_bar = 0.8
        bound = ratio_quadratic_minorant(chi_bar, x_bar)
        for _ in range(10_000):
            chi = random_chi(rng) * rng.uniform(0, 3)
            x = float(rng.uniform(1e-3, 10.0))
            assert bound.evaluate(chi, x) <= np.vdot(chi, chi).real / x + 1e-12


class TestSoftMinMajorant:
    def target(self, chis, xs, c):
        return float(
            np.log(sum(1.0 / (1.0 + np.vdot(ch, ch).real / (c * x)) for ch, x in zip(chis, xs)))
        )

    def test_single_user_zero_signal(self):
        bound = softmin_majorant([np.zeros(2, dtype=complex)], [1.0], 0.5)
        # ln(1) plus zero correction sums at the expansion point
        assert bound.evaluate([np.zeros(2, dtype=complex)], [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_tight_at_expansion(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            chis = [random_chi(rng) for _ in range(3)]
            xs = [float(rng.uniform(0.1, 4.0)) for _ in range(3)]
            c = float(rng.uniform(0.05, 2.0))
            bound = softmin_majorant(chis, xs, c)
            assert bound.evaluate(chis, xs) == pytest.approx(
                self.target(chis, xs, c), rel=1e-12
            )

    def test_domination(self):
        rng = np.random.default_rng(7)
        chis_bar = [random_chi(rng) for _ in range(2)]
        xs_bar = [1.0, 2.0]
        c = 0.3
        bound = softmin_majorant(chis_bar, xs_bar, c)
        for _ in range(10_000):
            chis = [random_chi(rng) * rng.uniform(0, 2) for _ in range(2)]
            xs = [float(rng.uniform(1e-3, 8.0)) for _ in range(2)]
            assert bound.evaluate(chis, xs) >= self.target(chis, xs, c) - 1e-12


def perturb(bf, side, ell, rng, scale):
    out = bf.copy()
    v = out.v_a if side == "azimuth" else out.v_e
    v[ell] = v[ell] + scale * (
        rng.standard_normal(v.shape[1]) + 1j * rng.standard_normal(v.shape[1])
    )
    return out


class TestSlnrMinorant:
    def test_tight_at_iterate(self, setup):
        sc, stats, bf = setup
        for side in ("azimuth", "elevation"):
            for ell in range(bf.L):
                coeff = slnr_minorant_coeffs(side, bf, stats, ell, sc.sigma)
                v = bf.v_a[ell] if side == "azimuth" else bf.v_e[ell]
                assert coeff.evaluate(v) == pytest.approx(
                    user_slnr(bf, stats, ell, sc.sigma), rel=1e-9
                )

    def test_domination_random_perturbations(self, setup):
        sc, stats, bf = setup
        rng = np.random.default_rng(8)
        side = "azimuth"
        ell = 1
        coeff = slnr_minorant_coeffs(side, bf, stats, ell, sc.sigma)
        base = np.linalg.norm(bf.v_a[ell])
        for _ in range(1000):
            other = perturb(bf, side, ell, rng, base * rng.uniform(0, 2))
            bound = coeff.evaluate(other.v_a[ell])
            truth = user_slnr(other, stats, ell, sc.sigma)
            assert bound <= truth + 1e-9 * max(1.0, abs(truth))

    def test_gradient_matches_finite_differences(self, setup):
        sc, stats, bf = setup
        side = "azimuth"
        ell = 0
        coeff = slnr_minorant_coeffs(side, bf, stats, ell, sc.sigma)
        scale = np.linalg.norm(bf.v_a[ell])
        h = 1e-6 * scale

        def truth(v):
            trial = bf.copy()
            trial.v_a = bf.v_a.copy()
            trial.v_a[ell] = v
            return user_slnr(trial, stats, ell, sc.sigma)

        v0 = bf.v_a[ell]
        grads = []
        for i in range(v0.shape[0]):
            for delta in (h, 1j * h):
                up, dn = v0.copy(), v0.copy()
                up[i] += delta
                dn[i] -= delta
                g_true = (truth(up) - truth(dn)) / (2 * h)
                g_surr = (coeff.evaluate(up) - coeff.evaluate(dn)) / (2 * h)
                grads.append((g_true, g_surr))
        g_true = np.array([g[0] for g in grads])
        g_surr = np.array([g[1] for g in grads])
        assert np.linalg.norm(g_true - g_surr) <= 1e-4 * max(np.linalg.norm(g_true), 1e-12)

    @pytest.mark.parametrize("m_count", [1, 2])
    @pytest.mark.parametrize("side", ["azimuth", "elevation"])
    def test_operators_match_dense_reference(self, side, m_count):
        # The Kronecker-factored operators equal Psi^H R Psi on the dense
        # second moments (R_tilde for azimuth, R for elevation), and the
        # signal and leakage equal w^H R w with w = Psi v.
        sc = Scenario(Q=4, L=3, M=m_count, seed=33)
        stats = build_statistics(sc)
        bf = init_feasible(sc, np.random.default_rng(33))
        cov = dense_r_tilde(stats) if side == "azimuth" else stats.covariance()
        ops = half_iteration_operators(side, bf, stats, sc.sigma)
        for ell in range(bf.L):
            psi = psi_matrix(side, bf, ell)
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
        sc, stats, bf = setup
        dead = bf.copy()
        dead.v_a[0] = 0.0
        with pytest.raises(DegenerateUserError):
            slnr_minorant_coeffs("azimuth", dead, stats, 0, sc.sigma)


class TestGmMinorant:
    def test_weighted_sum_tight(self, setup):
        sc, stats, bf = setup
        rng = np.random.default_rng(9)
        weights = rng.uniform(1.0, 3.0, bf.L)
        total_bound = 0.0
        total_true = 0.0
        for ell in range(bf.L):
            coeff = gm_minorant_coeffs("azimuth", bf, stats, ell, sc.sigma, weight=weights[ell])
            total_bound += coeff.evaluate(bf.v_a[ell])
            total_true += weights[ell] * np.log1p(user_slnr(bf, stats, ell, sc.sigma))
        assert total_bound == pytest.approx(total_true, rel=1e-9)

    def test_domination(self, setup):
        sc, stats, bf = setup
        rng = np.random.default_rng(10)
        ell = 2
        coeff = gm_minorant_coeffs("azimuth", bf, stats, ell, sc.sigma)
        base = np.linalg.norm(bf.v_a[ell])
        for _ in range(1000):
            other = perturb(bf, "azimuth", ell, rng, base * rng.uniform(0, 2))
            truth = np.log1p(user_slnr(other, stats, ell, sc.sigma))
            assert coeff.evaluate(other.v_a[ell]) <= truth + 1e-9 * max(1.0, abs(truth))

    def test_single_user_unit_weight_reduces_to_log_bound(self):
        sc = Scenario(Q=3, L=1, M=1, seed=13)
        stats = build_statistics(sc)
        bf = init_feasible(sc, np.random.default_rng(13))
        coeff = gm_minorant_coeffs("azimuth", bf, stats, 0, sc.sigma)
        ops = half_iteration_operators("azimuth", bf, stats, sc.sigma)
        alpha, psi = log_quadratic_minorant(
            np.sqrt(ops.signal[0]) * np.array([1.0 + 0j]), ops.x_bar[0]
        )
        assert coeff.a == pytest.approx(alpha - sc.sigma * psi, rel=1e-12)


class TestSoftMajorant:
    def test_tight_at_iterate(self, setup):
        sc, stats, bf = setup
        for c in (1.0, 0.1):
            constant, coeffs = soft_majorant_coeffs("azimuth", bf, stats, c, sc.sigma)
            value = constant + sum(
                coeffs[ell].evaluate(bf.v_a[ell]) for ell in range(bf.L)
            )
            slnrs = slnr_vec(beamformer_matrix(bf), stats, sc.sigma)
            assert value == pytest.approx(_soft_objective_value(slnrs, c), rel=1e-9)

    def test_domination(self, setup):
        sc, stats, bf = setup
        rng = np.random.default_rng(11)
        c = 0.1
        constant, coeffs = soft_majorant_coeffs("azimuth", bf, stats, c, sc.sigma)
        base = np.linalg.norm(bf.v_a)
        for _ in range(1000):
            other = bf.copy()
            other.v_a = bf.v_a + 0.5 * base * rng.uniform(0, 1) * (
                rng.standard_normal(bf.v_a.shape) + 1j * rng.standard_normal(bf.v_a.shape)
            )
            bound = constant + sum(
                coeffs[ell].evaluate(other.v_a[ell]) for ell in range(bf.L)
            )
            truth = _soft_objective_value(
                slnr_vec(beamformer_matrix(other), stats, sc.sigma), c
            )
            assert bound >= truth - 1e-9 * max(1.0, abs(truth))

    def test_normalizer_consistent_across_smoothing(self, setup):
        # The normalizer recomputed from the SLNRs must match the one inside
        # the coefficients when c is scaled.
        sc, stats, bf = setup
        ops = half_iteration_operators("azimuth", bf, stats, sc.sigma)
        for c in (0.05, 0.5):
            gamma = ops.slnr()
            s_direct = float(np.sum(1.0 / (1.0 + gamma / c)))
            denom = c * ops.x_bar + ops.signal
            s_assembled = float(np.sum(c * ops.x_bar / denom))
            assert s_assembled == pytest.approx(s_direct, rel=1e-12)

    def test_positive_curvature_coefficients(self, setup):
        sc, stats, bf = setup
        _, coeffs = soft_majorant_coeffs("azimuth", bf, stats, 0.1, sc.sigma)
        for coeff in coeffs:
            lam = np.linalg.eigvalsh(coeff.C)
            assert lam.min() >= -1e-12 * max(lam.max(), 1.0)


class TestCoefficientPositivity:
    @pytest.mark.parametrize("m_count", [1, 2])
    @pytest.mark.parametrize("side", ["azimuth", "elevation"])
    def test_curvatures_hermitian_bit_for_bit(self, side, m_count):
        # Every curvature is a real-weighted sum of Kronecker products of
        # exactly Hermitian factors, so C == C^H holds without round-off.
        sc = Scenario(Q=4, L=3, M=m_count, seed=34)
        stats = build_statistics(sc)
        bf = init_feasible(sc, np.random.default_rng(34))
        ops = half_iteration_operators(side, bf, stats, sc.sigma)
        mats = [ops.own_quad, ops.sum_quad]
        for ell in range(bf.L):
            mats.append(slnr_minorant_coeffs(side, bf, stats, ell, sc.sigma, ops=ops).C)
            mats.append(
                gm_minorant_coeffs(side, bf, stats, ell, sc.sigma, weight=1.7, ops=ops).C
            )
        for c in (0.1, 1.0):
            _, coeffs = soft_majorant_coeffs(side, bf, stats, c, sc.sigma, ops=ops)
            mats.extend(co.C for co in coeffs)
        for mat in mats:
            np.testing.assert_array_equal(mat, mat.conj().swapaxes(-1, -2))

    def test_curvature_scalars_positive_for_nonzero_signal(self, setup):
        # The quadratic-form multipliers of every bound must be strictly
        # positive whenever the expansion signal is nonzero.
        sc, stats, bf = setup
        rng = np.random.default_rng(12)
        for _ in range(50):
            chi = random_chi(rng)
            x = float(rng.uniform(0.05, 5.0))
            _, psi = log_quadratic_minorant(chi, x)
            assert psi > 0.0
            assert ratio_quadratic_minorant(chi, x).c > 0.0
            soft = softmin_majorant([chi], [x], c=0.2)
            assert soft.c[0] > 0.0
