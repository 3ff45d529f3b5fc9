"""Rate and fairness metrics against Monte Carlo and dual-path oracles."""

import numpy as np
import pytest

from slnrbeam.beamformer import beamformer_matrix, full_beamformer, init_feasible
from slnrbeam.channel import Scenario, build_statistics, sample_channels, vec_batch
from slnrbeam.metrics import (
    ergodic_rate_closed,
    ergodic_rate_mc,
    jain_index,
    min_max_ratio,
    nats_to_mbps,
    rate_report,
    slnr_vec,
    _covariance_images,
)
from slnrbeam.numerics import exp_scaled_e1
from slnrbeam.surrogates import half_iteration_operators

from conftest import instantaneous_sinr, transmit_bilinear, user_slnr


def dense_slnr(w_mat, stats, sigma):
    """w_l^H R_l w_l / (sum_{k != l} w_l^H R_k w_l + sigma) on dense covariances."""
    cov = stats.covariance()
    power = np.real(np.einsum("xl,kxy,yl->kl", w_mat.conj(), cov, w_mat))
    signal = np.diag(power)
    return signal / (power.sum(axis=0) - signal + sigma)


def full_rank_columns(stats, seed=0):
    """Random (Q^2, L) beamformers whose transmit matrices have full rank."""
    rng = np.random.default_rng(seed)
    shape = (stats.Q**2, stats.L)
    return 1e-2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.fixture(scope="module")
def setup():
    sc = Scenario(Q=4, L=3, M=1, seed=21)
    stats = build_statistics(sc)
    bf = init_feasible(sc, np.random.default_rng(21))
    return sc, stats, bf


def mc_slnr(bf, stats, ell, sigma, n, rng):
    """Monte Carlo of the expected-power ratio SLNR (numerator and each
    leakage term averaged separately)."""
    num = 0.0
    leak = 0.0
    for lp in range(bf.L):
        h = sample_channels(stats, lp, n, rng)
        gains = np.array([transmit_bilinear(bf, h[i], ell) for i in range(n)])
        power = float(np.mean(np.abs(gains) ** 2))
        if lp == ell:
            num = power
        else:
            leak += power
    return num / (leak + sigma)


class TestSlnr:
    def test_single_user_no_leakage(self):
        sc = Scenario(Q=3, L=1, M=1, seed=3)
        stats = build_statistics(sc)
        bf = init_feasible(sc, np.random.default_rng(3))
        val = user_slnr(bf, stats, 0, sc.sigma)
        w = beamformer_matrix(bf)[:, 0]
        signal = np.real(w.conj() @ stats.covariance()[0] @ w)
        assert val == pytest.approx(signal / sc.sigma, rel=1e-9)

    def test_identical_users_equal_slnr(self, setup):
        sc, stats, bf = setup
        twin = stats
        # duplicate user 0's statistics into user 1 and give both the same
        # beamformer; their SLNRs must coincide by symmetry
        import copy

        twin = copy.deepcopy(stats)
        for name in ("path_gain", "R_v", "R_h", "sqrt_R_v", "sqrt_R_h"):
            getattr(twin, name)[1] = getattr(twin, name)[0]
        bf2 = bf.copy()
        bf2.v_a[1] = bf2.v_a[0]
        bf2.v_e[1] = bf2.v_e[0]
        a = user_slnr(bf2, twin, 0, sc.sigma)
        b = user_slnr(bf2, twin, 1, sc.sigma)
        assert a == pytest.approx(b, rel=1e-9)

    def test_azimuth_elevation_forms_agree(self, setup):
        # The SLNR as a quadratic form in either side's free vector, through
        # that side's half-iteration operators (R_tilde for azimuth, R for
        # elevation), matches the vectorized form.
        sc, stats, bf = setup
        want = slnr_vec(beamformer_matrix(bf), stats, sc.sigma)
        for side, free in (("azimuth", bf.v_a), ("elevation", bf.v_e)):
            ops = half_iteration_operators(side, bf, stats, sc.sigma)
            for ell in range(bf.L):
                v = free[ell]
                own = np.real(v.conj() @ ops.own_quad[ell] @ v)
                total = np.real(v.conj() @ ops.sum_quad[ell] @ v)
                assert own / (total - own + sc.sigma) == pytest.approx(want[ell], rel=1e-9)

    def test_vectorized_form_agrees(self, setup):
        sc, stats, bf = setup
        for w in (beamformer_matrix(bf), full_rank_columns(stats)):
            np.testing.assert_allclose(
                slnr_vec(w, stats, sc.sigma), dense_slnr(w, stats, sc.sigma), rtol=1e-12
            )

    def test_mc_oracle(self, setup):
        sc, stats, bf = setup
        rng = np.random.default_rng(100)
        got = user_slnr(bf, stats, 0, sc.sigma)
        est = mc_slnr(bf, stats, 0, sc.sigma, 100_000, rng)
        assert est == pytest.approx(got, rel=0.02)

    def test_mean_ratio_dominates_ratio_of_means(self, setup):
        # E[signal/(leakage+noise)] >= E[signal] / (E[leakage]+noise): the
        # covariance-form SLNR is a lower bound of the expected ratio.
        sc, stats, bf = setup
        rng = np.random.default_rng(101)
        n = 20_000
        for ell in range(bf.L):
            h_own = sample_channels(stats, ell, n, rng)
            own = np.abs(vec_batch(h_own) @ beamformer_matrix(bf)[:, ell]) ** 2
            leak = np.zeros(n)
            for lp in range(bf.L):
                if lp == ell:
                    continue
                h_lp = sample_channels(stats, lp, n, rng)
                leak += np.abs(vec_batch(h_lp) @ beamformer_matrix(bf)[:, ell]) ** 2
            ratios = own / (leak + sc.sigma)
            se = ratios.std(ddof=1) / np.sqrt(n)
            bound = user_slnr(bf, stats, ell, sc.sigma)
            assert ratios.mean() >= bound - 3.0 * se


class TestInstantaneousSinr:
    def test_zero_interferers(self, setup):
        sc, stats, bf = setup
        solo = bf.copy()
        solo.v_a[1:] = 0.0
        solo.v_e[1:] = 0.0
        rng = np.random.default_rng(40)
        channels = np.stack([sample_channels(stats, lp, 1, rng)[0] for lp in range(bf.L)])
        gain = transmit_bilinear(solo, channels[0], 0)
        assert instantaneous_sinr(solo, channels, 0, sc.sigma) == pytest.approx(
            abs(gain) ** 2 / sc.sigma, rel=1e-12
        )

    def test_zero_desired(self, setup):
        sc, stats, bf = setup
        mute = bf.copy()
        mute.v_a[0] = 0.0
        rng = np.random.default_rng(41)
        channels = np.stack([sample_channels(stats, lp, 1, rng)[0] for lp in range(bf.L)])
        assert instantaneous_sinr(mute, channels, 0, sc.sigma) == 0.0

    def test_dual_path_evaluation(self, setup):
        sc, stats, bf = setup
        rng = np.random.default_rng(42)
        channels = np.stack([sample_channels(stats, lp, 1, rng)[0] for lp in range(bf.L)])
        for ell in range(bf.L):
            h = channels[ell]
            gains = np.array([np.trace(h.T @ full_beamformer(bf, lp)) for lp in range(bf.L)])
            powers = np.abs(gains) ** 2
            want = powers[ell] / (powers.sum() - powers[ell] + sc.sigma)
            got = instantaneous_sinr(bf, channels, ell, sc.sigma)
            assert got == pytest.approx(want, rel=1e-12)


class TestErgodicRate:
    def test_single_user_scalar_form(self):
        # One user, one beamformer column: the rate is the single-eigenvalue
        # expression exp(sigma/mu) E1(sigma/mu).
        sc = Scenario(Q=3, L=1, M=1, seed=5)
        stats = build_statistics(sc)
        bf = init_feasible(sc, np.random.default_rng(5))
        w = beamformer_matrix(bf)
        mu = float(np.real(w[:, 0].conj() @ stats.covariance()[0] @ w[:, 0]))
        want = exp_scaled_e1(sc.sigma / mu)
        assert ergodic_rate_closed(w, stats, 0, sc.sigma) == pytest.approx(want, rel=1e-10)

    def test_covariance_images_match_dense(self, setup):
        # R_k w_j from the Kronecker factors equals the dense products, for
        # outer-product and full-rank beamformers, and one user's images
        # equal that user's slice of all of them bit for bit.
        sc, stats, bf = setup
        cov = stats.covariance()
        for w in (beamformer_matrix(bf), full_rank_columns(stats, 1)):
            dense = np.einsum("kxy,yj->kjx", cov, w)
            got = _covariance_images(w, stats)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()
            for ell in range(stats.L):
                one = _covariance_images(w, stats, slice(ell, ell + 1))
                np.testing.assert_array_equal(one[0], got[ell])

    def test_all_zero_beamformers(self, setup):
        sc, stats, _ = setup
        w = np.zeros((16, 3), dtype=complex)
        assert ergodic_rate_closed(w, stats, 0, sc.sigma) == 0.0

    def test_nonnegative(self, setup):
        sc, stats, bf = setup
        w = beamformer_matrix(bf)
        for ell in range(bf.L):
            assert ergodic_rate_closed(w, stats, ell, sc.sigma) >= -1e-9

    def test_matches_monte_carlo(self, setup):
        sc, stats, bf = setup
        w = beamformer_matrix(bf)
        rng = np.random.default_rng(50)
        for ell in range(bf.L):
            closed = ergodic_rate_closed(w, stats, ell, sc.sigma)
            est, se = ergodic_rate_mc(w, stats, ell, sc.sigma, 200_000, rng)
            assert abs(est - closed) <= max(0.01 * closed, 3.0 * se)

    def test_phase_rotation_invariance(self, setup):
        sc, stats, bf = setup
        w = beamformer_matrix(bf)
        rot = bf.copy()
        rot.v_a[1] = np.exp(1j * 0.7) * rot.v_a[1]
        rot.v_e[1] = np.exp(1j * 1.9) * rot.v_e[1]
        w_rot = beamformer_matrix(rot)
        for ell in range(bf.L):
            a = ergodic_rate_closed(w, stats, ell, sc.sigma)
            b = ergodic_rate_closed(w_rot, stats, ell, sc.sigma)
            assert b == pytest.approx(a, rel=1e-9)

    def test_degenerate_eigenvalues_fall_back(self, setup, caplog):
        sc, stats, _ = setup
        # Two identical columns force a repeated eigenvalue in the Gram.
        rng = np.random.default_rng(51)
        col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w = np.stack([col, col, 0.5 * col], axis=1)
        s_mat = w.conj().T @ stats.covariance()[0] @ w
        lam = np.linalg.eigvalsh(s_mat)
        import logging

        with caplog.at_level(logging.WARNING, logger="slnrbeam.metrics"):
            val = ergodic_rate_closed(w, stats, 0, sc.sigma)
        assert np.isfinite(val)

    def test_mc_large_noise_limit(self, setup):
        sc, stats, bf = setup
        w = beamformer_matrix(bf)
        rate, _ = ergodic_rate_mc(
            w, stats, 0, sc.sigma * 1e6, 5_000_000, np.random.default_rng(52), chunk=500_000
        )
        assert rate < 1e-3

    def test_mc_reproducible(self, setup):
        sc, stats, bf = setup
        w = beamformer_matrix(bf)
        a = ergodic_rate_mc(w, stats, 0, sc.sigma, 10_000, np.random.default_rng(7))
        b = ergodic_rate_mc(w, stats, 0, sc.sigma, 10_000, np.random.default_rng(7))
        assert a == b

    def test_mc_sample_floor(self, setup):
        sc, stats, bf = setup
        with pytest.raises(ValueError):
            ergodic_rate_mc(beamformer_matrix(bf), stats, 0, sc.sigma, 10, np.random.default_rng(0))


class TestFairnessStats:
    def test_jain_all_equal(self):
        assert jain_index(np.full(5, 2.2)) == pytest.approx(1.0)

    def test_jain_single_active(self):
        assert jain_index(np.array([0.0, 0.0, 3.0, 0.0])) == pytest.approx(0.25)

    def test_jain_arithmetic(self):
        assert jain_index(np.array([1.0, 2.0, 3.0])) == pytest.approx(36.0 / 42.0)

    def test_jain_rejects_all_zero(self):
        with pytest.raises(ValueError):
            jain_index(np.zeros(3))

    def test_min_max_ratio(self):
        assert min_max_ratio(np.array([1.0, 4.0])) == pytest.approx(0.25)
        assert min_max_ratio(np.array([2.0, 2.0])) == pytest.approx(1.0)
        assert min_max_ratio(np.array([4.0, 1.0])) == pytest.approx(0.25)

    def test_min_max_ratio_errors(self):
        with pytest.raises(ValueError):
            min_max_ratio(np.array([]))

    def test_nats_to_mbps(self):
        assert nats_to_mbps(np.log(2.0), 10e6) == pytest.approx(10.0)
        assert nats_to_mbps(0.0, 10e6) == 0.0
        assert nats_to_mbps(0.347, 10e6) == pytest.approx(5.006, abs=5e-3)

    def test_rate_report_aggregates(self, setup):
        sc, stats, bf = setup
        report = rate_report(beamformer_matrix(bf), stats, sc.sigma, sc.bandwidth)
        assert 1.0 / 3.0 <= report.jain <= 1.0
        assert report.min_rate_mbps <= report.max_rate_mbps
        assert report.min_max_ratio == pytest.approx(
            report.min_rate_mbps / report.max_rate_mbps
        )
        assert report.slnr.shape == (3,)
