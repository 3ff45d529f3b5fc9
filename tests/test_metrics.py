"""Rate and fairness metrics against Monte Carlo and dual-path oracles."""

import copy
import logging

import numpy as np
import pytest
from scipy.special import expn

from slnrbeam import metrics
from slnrbeam.beamformer import beamformer_matrix, init_feasible
from slnrbeam.channel import ChannelStatistics, Scenario, build_statistics, sample_channels, vec_batch
from slnrbeam.metrics import (
    ergodic_rate_closed,
    ergodic_rate_mc,
    jain_index,
    min_max_ratio,
    nats_to_mbps,
    power_gram,
    rate_report,
    slnr_vec,
)
from slnrbeam.numerics import exp_scaled_e1
from slnrbeam.optimizers import AlgoOptions, run_gm, run_soft

from conftest import (
    dense_r,
    expansion_rate,
    free_rows,
    full_beamformer,
    instantaneous_sinr,
    operators_at,
    rates_of,
    slnrs_of,
    transmit_bilinear,
    user_slnr,
)


def dense_slnr(w_mat, stats, sigma):
    """w_l^H R_l w_l / (sum_{k != l} w_l^H R_k w_l + sigma) on dense covariances."""
    cov = dense_r(stats)
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
    factors = init_feasible(sc, np.random.default_rng(21))
    return sc, stats, factors


def mc_slnr(factors, stats, ell, sigma, n, rng):
    """Monte Carlo of the expected-power ratio SLNR (numerator and each
    leakage term averaged separately)."""
    num = 0.0
    leak = 0.0
    for lp in range(factors.shape[1]):
        h = sample_channels(stats, lp, n, rng)
        gains = np.array([transmit_bilinear(factors, h[i], ell) for i in range(n)])
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
        factors = init_feasible(sc, np.random.default_rng(3))
        val = user_slnr(factors, stats, 0, sc.sigma)
        w = beamformer_matrix(factors)[:, 0]
        signal = np.real(w.conj() @ dense_r(stats)[0] @ w)
        assert val == pytest.approx(signal / sc.sigma, rel=1e-9)

    def test_identical_users_equal_slnr(self, setup):
        sc, stats, factors = setup
        twin = stats
        # duplicate user 0's statistics into user 1 and give both the same
        # beamformer; their SLNRs must coincide by symmetry
        twin = copy.deepcopy(stats)
        for name in ("path_gain", "R_v", "R_h"):
            getattr(twin, name)[1] = getattr(twin, name)[0]
        twin_factors = factors.copy()
        twin_factors[0, 1] = twin_factors[0, 0]
        twin_factors[1, 1] = twin_factors[1, 0]
        a = user_slnr(twin_factors, twin, 0, sc.sigma)
        b = user_slnr(twin_factors, twin, 1, sc.sigma)
        assert a == pytest.approx(b, rel=1e-9)

    def test_azimuth_elevation_forms_agree(self, setup):
        # The SLNR as a quadratic form in either side's free vector, through
        # that side's half-iteration operators (R_tilde for azimuth, R for
        # elevation), matches the vectorized form.
        sc, stats, factors = setup
        want = slnrs_of(beamformer_matrix(factors), stats, sc.sigma)
        for side in (0, 1):
            ops = operators_at(side, factors, stats, sc.sigma)
            for ell in range(sc.L):
                v = free_rows(factors, side)[ell]
                own = np.real(v.conj() @ ops.own_quad[ell] @ v)
                total = np.real(v.conj() @ ops.sum_quad[ell] @ v)
                assert own / (total - own + sc.sigma) == pytest.approx(want[ell], rel=1e-9)

    def test_vectorized_form_agrees(self, setup):
        sc, stats, factors = setup
        for w in (beamformer_matrix(factors), full_rank_columns(stats)):
            np.testing.assert_allclose(
                slnrs_of(w, stats, sc.sigma), dense_slnr(w, stats, sc.sigma), rtol=1e-12
            )

    @pytest.mark.parametrize("m_count", [1, 2])
    def test_gram_diagonal_matches_user_slnr(self, m_count):
        # The SLNRs read off the power Gram's diagonals equal the per-user
        # reference on the dense second moments of each user's transmit matrix.
        sc = Scenario(Q=4, L=3, M=m_count, seed=21)
        stats = build_statistics(sc)
        factors = init_feasible(sc, np.random.default_rng(21))
        got = slnr_vec(power_gram(beamformer_matrix(factors), stats), sc.sigma)
        want = [user_slnr(factors, stats, ell, sc.sigma) for ell in range(sc.L)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_mc_oracle(self, setup):
        sc, stats, factors = setup
        rng = np.random.default_rng(100)
        got = user_slnr(factors, stats, 0, sc.sigma)
        est = mc_slnr(factors, stats, 0, sc.sigma, 100_000, rng)
        assert est == pytest.approx(got, rel=0.02)

    def test_mean_ratio_dominates_ratio_of_means(self, setup):
        # E[signal/(leakage+noise)] >= E[signal] / (E[leakage]+noise): the
        # covariance-form SLNR is a lower bound of the expected ratio.
        sc, stats, factors = setup
        rng = np.random.default_rng(101)
        n = 20_000
        for ell in range(sc.L):
            h_own = sample_channels(stats, ell, n, rng)
            own = np.abs(vec_batch(h_own) @ beamformer_matrix(factors)[:, ell]) ** 2
            leak = np.zeros(n)
            for lp in range(sc.L):
                if lp == ell:
                    continue
                h_lp = sample_channels(stats, lp, n, rng)
                leak += np.abs(vec_batch(h_lp) @ beamformer_matrix(factors)[:, ell]) ** 2
            ratios = own / (leak + sc.sigma)
            se = ratios.std(ddof=1) / np.sqrt(n)
            bound = user_slnr(factors, stats, ell, sc.sigma)
            assert ratios.mean() >= bound - 3.0 * se


class TestInstantaneousSinr:
    def test_zero_interferers(self, setup):
        sc, stats, factors = setup
        solo = factors.copy()
        solo[:, 1:] = 0.0  # both sides of every user but 0
        rng = np.random.default_rng(40)
        channels = np.stack([sample_channels(stats, lp, 1, rng)[0] for lp in range(sc.L)])
        gain = transmit_bilinear(solo, channels[0], 0)
        assert instantaneous_sinr(solo, channels, 0, sc.sigma) == pytest.approx(
            abs(gain) ** 2 / sc.sigma, rel=1e-12
        )

    def test_zero_desired(self, setup):
        sc, stats, factors = setup
        mute = factors.copy()
        mute[0, 0] = 0.0
        rng = np.random.default_rng(41)
        channels = np.stack([sample_channels(stats, lp, 1, rng)[0] for lp in range(sc.L)])
        assert instantaneous_sinr(mute, channels, 0, sc.sigma) == 0.0

    def test_dual_path_evaluation(self, setup):
        sc, stats, factors = setup
        rng = np.random.default_rng(42)
        channels = np.stack([sample_channels(stats, lp, 1, rng)[0] for lp in range(sc.L)])
        for ell in range(sc.L):
            h = channels[ell]
            gains = np.array([np.trace(h.T @ full_beamformer(factors, lp)) for lp in range(sc.L)])
            powers = np.abs(gains) ** 2
            want = powers[ell] / (powers.sum() - powers[ell] + sc.sigma)
            got = instantaneous_sinr(factors, channels, ell, sc.sigma)
            assert got == pytest.approx(want, rel=1e-12)


def coalesced_rate(n, a, terms=12):
    """e^a E_n(a), the rate of a user whose Gram is mu I_n, at a = sigma/mu.

    SciPy's expn where exp(a) stays finite; beyond, the asymptotic series
    sum_k (-1)^k n (n+1) ... (n+k-1) / a^(k+1) (DLMF 8.20.2), whose
    truncation error is below its first omitted term, under 1e-30 here.
    """
    if a < 700.0:
        return float(np.exp(a) * expn(n, a))
    term, total = 1.0 / a, 0.0
    for k in range(terms):
        total += term
        term *= -(n + k) / a
    return total


def identity_statistics(n_users, q, gain=1.0):
    """Statistics with white correlation factors: R_k = gain * I for every user."""
    eye = np.broadcast_to(np.eye(q, dtype=complex), (n_users, q, q)).copy()
    return ChannelStatistics(
        Q=q, path_gain=np.full(n_users, gain), R_v=eye, R_h=eye.copy()
    )


def design_iterates():
    """Beamformers from the benchmark's three scales: initial points and gm
    and soft incumbents at Q=8, L=5, M=2 (desk), Q=12, L=10, M=2 (lit) and
    Q in {3, 4}, L=3, M=1 (cli)."""
    cases = []
    for q, n_users, m_count, seed in ((8, 5, 2, 1), (12, 10, 2, 0), (3, 3, 1, 1), (4, 3, 1, 2)):
        sc = Scenario(Q=q, L=n_users, M=m_count, seed=seed)
        stats = build_statistics(sc)
        options = AlgoOptions(max_iterations=2)
        cases.append((sc, stats, beamformer_matrix(init_feasible(sc, np.random.default_rng(seed)))))
        for run in (run_gm, run_soft):
            cases.append((sc, stats, run(sc, stats, options).incumbent_matrix))
    return cases


class TestErgodicRate:
    def test_single_user_scalar_form(self):
        # One user, one beamformer column: the rate is the single-eigenvalue
        # expression exp(sigma/mu) E1(sigma/mu).
        sc = Scenario(Q=3, L=1, M=1, seed=5)
        stats = build_statistics(sc)
        factors = init_feasible(sc, np.random.default_rng(5))
        w = beamformer_matrix(factors)
        mu = float(np.real(w[:, 0].conj() @ dense_r(stats)[0] @ w[:, 0]))
        want = exp_scaled_e1(sc.sigma / mu)
        assert rates_of(w, stats, sc.sigma)[0] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n_users", [1, 2, 5, 10])
    def test_coalesced_spectrum_exact(self, n_users):
        # Orthogonal columns of equal power under white statistics give every
        # user the Gram mu I_n, a fully coalesced spectrum, whose rate is
        # e^a E_n(a) with a = sigma/mu.
        sigma = 4e-14
        rng = np.random.default_rng(n_users)
        basis, _ = np.linalg.qr(rng.standard_normal((16, n_users)) + 1j * rng.standard_normal((16, n_users)))
        stats = identity_statistics(n_users, 4, gain=1e-10)
        for ratio in np.logspace(-6, 9, 16):
            mu = ratio * sigma
            w = np.sqrt(mu / 1e-10) * basis
            want = coalesced_rate(n_users, 1.0 / ratio)
            got = rates_of(w, stats, sigma)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15, err_msg=f"mu/sigma={ratio:.0e}")

    def test_matches_expansion_reference(self):
        # The batched integral against the eigenvalue expansion, user by user,
        # on well-separated spectra of design iterates at three scales.
        for sc, stats, w in design_iterates():
            got = rates_of(w, stats, sc.sigma)
            want = [expansion_rate(w, stats, ell, sc.sigma) for ell in range(sc.L)]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_grid_step_converged(self, monkeypatch):
        cases = design_iterates()
        coarse = [rates_of(w, stats, sc.sigma) for sc, stats, w in cases]
        monkeypatch.setattr(metrics, "RATE_STEP", metrics.RATE_STEP / 2)
        for (sc, stats, w), rates in zip(cases, coarse):
            assert np.abs(rates_of(w, stats, sc.sigma) - rates).max() <= 1e-13

    def test_grid_head_converged(self, monkeypatch):
        # The double-exponential head is spent by the grid's left end: two
        # units further left add nodes whose weight is below round-off.
        cases = design_iterates()
        short = [rates_of(w, stats, sc.sigma) for sc, stats, w in cases]
        monkeypatch.setattr(metrics, "RATE_LEFT", metrics.RATE_LEFT + 2.0)
        for (sc, stats, w), rates in zip(cases, short):
            np.testing.assert_allclose(rates_of(w, stats, sc.sigma), rates, rtol=1e-15, atol=0)

    def test_covariance_images_match_dense(self, setup):
        # Every entry [k, j, i] = w_i^H R_k w_j of the power Gram, built
        # through the covariance images R_k w_j on the Kronecker factors,
        # equals the dense product, for outer-product and full-rank beamformers.
        sc, stats, factors = setup
        cov = dense_r(stats)
        for w in (beamformer_matrix(factors), full_rank_columns(stats, 1)):
            dense = np.einsum("xi,kxy,yj->kji", w.conj(), cov, w)
            got = power_gram(w, stats)
            assert got.shape == (sc.L, sc.L, sc.L)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_exact_at_low_snr(self):
        # Scaling the power down drives both inverse determinants toward 1;
        # their difference, taken through expm1 of the log-determinants,
        # keeps the rates exact to round-off down to 1e-18 of the power.
        sc = Scenario(Q=4, L=3, M=1, seed=1)
        stats = build_statistics(sc)
        w = beamformer_matrix(init_feasible(sc, np.random.default_rng(1)))
        for scale in (1e-4, 1e-8, 1e-12, 1e-16, 1e-18):
            faint = np.sqrt(scale) * w
            want = [expansion_rate(faint, stats, ell, sc.sigma) for ell in range(sc.L)]
            got = rates_of(faint, stats, sc.sigma)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"power scale {scale:g}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_beamformers(self, setup):
        sc, stats, _ = setup
        w = np.zeros((16, 3), dtype=complex)
        np.testing.assert_array_equal(rates_of(w, stats, sc.sigma), 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degenerate_inputs(self, setup):
        # A user whose expected signal vanishes (its column is zero) rates
        # exactly 0; a vanishing path gain and a single user stay finite.
        sc, stats, factors = setup
        w = beamformer_matrix(factors)
        mute = w.copy()
        mute[:, 1] = 0.0
        rates = rates_of(mute, stats, sc.sigma)
        assert abs(rates[1]) <= 1e-15 and np.all(rates[[0, 2]] > 0.0)
        faint = copy.deepcopy(stats)
        faint.path_gain[:] = 1e-300
        assert np.all(np.isfinite(rates_of(w, faint, sc.sigma)))
        solo = Scenario(Q=4, L=1, M=1, seed=3)
        w_solo = beamformer_matrix(init_feasible(solo, np.random.default_rng(3)))
        assert np.isfinite(rates_of(w_solo, build_statistics(solo), solo.sigma)).all()

    def test_nonnegative(self, setup):
        sc, stats, factors = setup
        w = beamformer_matrix(factors)
        assert np.all(rates_of(w, stats, sc.sigma) >= -1e-9)

    def test_faint_user_clipped_at_zero(self):
        # A column scaled by 1e-9 leaves user 0 a round-off difference of the
        # two log-determinants, a rate of -2e-16 unclipped; the oracle returns 0, as
        # ``rate_report`` does, and the other users' rates are untouched.
        sc = Scenario(Q=4, L=3, M=1, seed=0)
        stats = build_statistics(sc)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        w[:, 0] *= 1e-9
        rates = rates_of(w, stats, sc.sigma)
        assert rates[0] == 0.0 and np.all(rates[1:] > 0.1)
        np.testing.assert_array_equal(rate_report(w, stats, sc.sigma, sc.bandwidth).rate_nats, rates)

    def test_matches_monte_carlo(self, setup):
        sc, stats, factors = setup
        w = beamformer_matrix(factors)
        rng = np.random.default_rng(50)
        rates = rates_of(w, stats, sc.sigma)
        for ell in range(sc.L):
            est, se = ergodic_rate_mc(w, stats, ell, sc.sigma, 200_000, rng)
            assert abs(est - rates[ell]) <= max(0.01 * rates[ell], 3.0 * se)

    def test_phase_rotation_invariance(self, setup):
        sc, stats, factors = setup
        w = beamformer_matrix(factors)
        rot = factors.copy()
        rot[0, 1] = np.exp(1j * 0.7) * rot[0, 1]
        rot[1, 1] = np.exp(1j * 1.9) * rot[1, 1]
        w_rot = beamformer_matrix(rot)
        np.testing.assert_allclose(
            rates_of(w_rot, stats, sc.sigma), rates_of(w, stats, sc.sigma), rtol=1e-9
        )

    def test_degenerate_eigenvalues_exact(self, setup, caplog):
        # Two identical columns force a repeated eigenvalue in the Gram; the
        # rate needs no fallback and matches a 1e6-sample Monte Carlo.
        sc, stats, _ = setup
        rng = np.random.default_rng(51)
        col = 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        w = np.stack([col, col, 0.5 * col], axis=1)
        with caplog.at_level(logging.WARNING, logger="slnrbeam"):
            rates = rates_of(w, stats, sc.sigma)
        assert not caplog.records
        mc_rng = np.random.default_rng(52)
        for ell in range(3):
            est, se = ergodic_rate_mc(w, stats, ell, sc.sigma, 1_000_000, mc_rng)
            assert abs(est - rates[ell]) <= 3.0 * se

    def test_mc_large_noise_limit(self, setup):
        sc, stats, factors = setup
        w = beamformer_matrix(factors)
        rate, _ = ergodic_rate_mc(
            w, stats, 0, sc.sigma * 1e6, 5_000_000, np.random.default_rng(52), chunk=500_000
        )
        assert rate < 1e-3

    def test_mc_reproducible(self, setup):
        sc, stats, factors = setup
        w = beamformer_matrix(factors)
        a = ergodic_rate_mc(w, stats, 0, sc.sigma, 10_000, np.random.default_rng(7))
        b = ergodic_rate_mc(w, stats, 0, sc.sigma, 10_000, np.random.default_rng(7))
        assert a == b

    def test_mc_sample_floor(self, setup):
        sc, stats, factors = setup
        with pytest.raises(ValueError):
            ergodic_rate_mc(beamformer_matrix(factors), stats, 0, sc.sigma, 10, np.random.default_rng(0))


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
        sc, stats, factors = setup
        report = rate_report(beamformer_matrix(factors), stats, sc.sigma, sc.bandwidth)
        assert 1.0 / 3.0 <= report.jain <= 1.0
        assert report.min_rate_mbps <= report.max_rate_mbps
        assert report.min_max_ratio == pytest.approx(
            report.min_rate_mbps / report.max_rate_mbps
        )
        assert report.slnr.shape == (3,)

    def test_rate_report_reads_one_build(self, setup, monkeypatch):
        # One build of the power Gram serves the report's SLNRs and rates,
        # which are the readers' on that Gram bit for bit.
        sc, stats, factors = setup
        w = beamformer_matrix(factors)
        builds = []

        def building(w_mat, stats_):
            builds.append(w_mat)
            return power_gram(w_mat, stats_)

        monkeypatch.setattr(metrics, "power_gram", building)
        report = rate_report(w, stats, sc.sigma, sc.bandwidth)
        assert len(builds) == 1 and builds[0] is w
        gram = power_gram(w, stats)
        np.testing.assert_array_equal(report.slnr, slnr_vec(gram, sc.sigma))
        np.testing.assert_array_equal(report.rate_nats, ergodic_rate_closed(gram, sc.sigma))
