"""Channel model: geometry, correlation matrices, and sampling statistics.

Monte Carlo oracles check that sampled channels reproduce the constructed
second-moment matrices in both vectorization orders, and a KS test checks
the placement distance law.
"""

import numpy as np
import pytest
import scipy.stats

from slnrbeam.channel import (
    INNER_RADIUS,
    Scenario,
    ScenarioError,
    build_statistics,
    dbm_to_watt,
    horizontal_correlation,
    noise_power_watt,
    pathloss_db,
    place_users,
    sample_channels,
    vec_batch,
    vertical_correlation,
)
from slnrbeam.numerics import PSD_CLIP_REL, hermitian_sqrt
from slnrbeam.optimizers import run_baseline

from conftest import dense_r, dense_r_tilde


@pytest.fixture
def scenario():
    return Scenario(Q=4, L=3, M=1, seed=11)


class TestScenario:
    def test_default_noise_is_thermal(self):
        sc = Scenario(Q=2, L=2)
        assert sc.sigma == pytest.approx(dbm_to_watt(-174.0) * 10e6, rel=1e-12)
        assert sc.sigma == pytest.approx(noise_power_watt(10e6), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(Q=0, L=1)
        with pytest.raises(ValueError):
            Scenario(Q=2, L=1, M=3)
        with pytest.raises(ValueError):
            Scenario(Q=2, L=1, P=-1.0)

    @pytest.mark.parametrize(
        "change, field",
        [({"Q": 0}, "Q"), ({"L": 0}, "L"), ({"M": 3}, "M"), ({"P": -1.0}, "P"),
         ({"P": float("nan")}, "P"), ({"bandwidth": -1.0, "sigma": 1e-12}, "bandwidth"),
         ({"sigma": 0.0}, "sigma"), ({"cell_radius": 10.0}, "cell_radius"),
         ({"sigma_sf": -1.0}, "sigma_sf"), ({"seed": -1}, "seed")],
    )
    def test_error_names_field(self, change, field):
        # The one place the ranges are written; the config boundary reads the field.
        with pytest.raises(ScenarioError) as err:
            Scenario(**{"Q": 2, "L": 1, **change})
        assert err.value.field == field and str(err.value).startswith(f"{field} must be ")


class TestPathloss:
    def test_one_meter(self):
        assert pathloss_db(1.0) == pytest.approx(28.8)

    def test_hundred_meters(self):
        assert pathloss_db(100.0) == pytest.approx(99.4)

    def test_with_shadowing(self):
        assert pathloss_db(10.0, 7.8) == pytest.approx(64.1 + 7.8)

    def test_domain(self):
        with pytest.raises(ValueError):
            pathloss_db(0.0)


class TestPlacement:
    def test_deterministic(self, scenario):
        a = place_users(scenario, np.random.default_rng(5))
        b = place_users(scenario, np.random.default_rng(5))
        assert all(x == y for x, y in zip(a, b))

    def test_distance_bounds(self, scenario):
        users = place_users(Scenario(Q=2, L=500, seed=1), np.random.default_rng(1))
        dists = np.array([u.distance for u in users])
        assert np.all(dists <= 200.0)
        assert np.all(dists >= INNER_RADIUS)
        assert all(u.path_gain > 0 for u in users)

    def test_area_law(self):
        sc = Scenario(Q=2, L=10_000, seed=2)
        users = place_users(sc, np.random.default_rng(2))
        dists = np.array([u.distance for u in users])

        def cdf(d):
            d = np.clip(d, INNER_RADIUS, sc.cell_radius)
            return (d**2 - INNER_RADIUS**2) / (sc.cell_radius**2 - INNER_RADIUS**2)

        stat = scipy.stats.kstest(dists, cdf)
        assert stat.pvalue > 0.01

    def test_elevation_from_geometry(self, scenario):
        users = place_users(scenario, np.random.default_rng(7))
        for u in users:
            assert u.elevation_angle == pytest.approx(np.arctan2(8.5, u.distance))


class TestCorrelationMatrices:
    def test_vertical_unit_diagonal(self):
        mat = vertical_correlation(0.7, np.deg2rad(5.0), 5)
        np.testing.assert_allclose(np.diag(mat), np.ones(5), atol=1e-12)
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)

    def test_vertical_zero_spread_pure_phase(self):
        mat = vertical_correlation(1.1, 0.0, 6)
        np.testing.assert_allclose(np.abs(mat), np.ones((6, 6)), atol=1e-12)

    def test_vertical_psd_within_clip(self):
        mat = vertical_correlation(np.deg2rad(60.0), np.deg2rad(5.0), 4)
        lam = np.linalg.eigvalsh(mat)
        assert lam.min() >= -PSD_CLIP_REL * lam.max()

    def test_horizontal_unit_diagonal_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            alpha = rng.uniform(0, 2 * np.pi)
            beta = rng.uniform(0, np.pi / 2)
            mat = horizontal_correlation(alpha, beta, np.deg2rad(5.0), np.deg2rad(5.0), 4)
            assert np.max(np.abs(mat)) <= 1.0 + 1e-12
            np.testing.assert_allclose(np.diag(mat), np.ones(4), atol=1e-12)
            np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)

    def test_horizontal_psd_within_clip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mat = horizontal_correlation(
                rng.uniform(0, 2 * np.pi),
                rng.uniform(0, np.pi / 2),
                np.deg2rad(5.0),
                np.deg2rad(5.0),
                4,
            )
            lam = np.linalg.eigvalsh(mat)
            assert lam.min() >= -PSD_CLIP_REL * max(lam.max(), 1.0)


class TestCovariancePair:
    def test_white_case(self, scenario):
        stats = build_statistics(scenario)
        geom = stats.geometry[0]
        Q = scenario.Q
        # The stored factors are the ones the user's geometry dictates.
        r_v = vertical_correlation(geom.elevation_angle, scenario.sigma_beta, Q)
        r_h = horizontal_correlation(
            geom.azimuth_angle, geom.elevation_angle, scenario.sigma_alpha, scenario.sigma_beta, Q
        )
        np.testing.assert_allclose(stats.R_v[0], r_v, atol=0)
        np.testing.assert_allclose(stats.R_h[0], r_h, atol=0)
        assert stats.path_gain[0] == geom.path_gain
        # Construction identities hold exactly.
        big_r = dense_r(stats)[0]
        np.testing.assert_allclose(big_r, geom.path_gain * np.kron(r_h, r_v.T), atol=0)
        assert big_r.shape == (16, 16)
        assert np.trace(big_r).real == pytest.approx(geom.path_gain * 16, rel=1e-12)
        # R_tilde is R with both vec indices transposed: vec(H^T) = K vec(H)
        # for the commutation permutation K.
        idx = np.arange(Q * Q).reshape(Q, Q)
        perm = idx.T.ravel()
        np.testing.assert_allclose(
            dense_r_tilde(stats)[0], big_r[np.ix_(perm, perm)], atol=0
        )
        np.testing.assert_allclose(
            dense_r_tilde(stats)[0], geom.path_gain * np.kron(r_v.T, r_h), atol=0
        )

    def test_only_factors_stored(self, scenario):
        # Statistics keep Q x Q factors and per-user scalars only, and offer
        # no dense Q^2 x Q^2 covariance; the designs run on the factors.
        stats = build_statistics(scenario)
        L, Q = scenario.L, scenario.Q
        arrays = {k: v for k, v in vars(stats).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"path_gain", "R_v", "R_h"}
        for name, arr in arrays.items():
            assert arr.shape in ((L, Q, Q), (L,)), name
        assert not hasattr(stats, "covariance")
        run_baseline(scenario, stats)
        assert set(k for k, v in vars(stats).items() if isinstance(v, np.ndarray)) == set(arrays)

    def test_kron_of_identities(self):
        sc = Scenario(Q=3, L=1, seed=0)
        stats = build_statistics(sc)
        # Force white correlation: beta such that entries collapse is not
        # available analytically, so check the trace law instead and the
        # identity-correlation special case directly.
        gain = 2.5
        big_r = gain * np.kron(np.eye(3), np.eye(3).T)
        np.testing.assert_allclose(big_r, gain * np.eye(9), atol=0)

    def test_shared_spectrum(self, scenario):
        stats = build_statistics(scenario)
        for ell in range(stats.L):
            lam_r = np.sort(np.linalg.eigvalsh(dense_r(stats)[ell]))
            lam_rt = np.sort(np.linalg.eigvalsh(dense_r_tilde(stats)[ell]))
            np.testing.assert_allclose(lam_r, lam_rt, rtol=1e-8, atol=1e-20)

    def test_unit_diagonals_many_geometries(self):
        sc = Scenario(Q=3, L=100, seed=9)
        stats = build_statistics(sc)
        for ell in range(100):
            np.testing.assert_allclose(np.diag(stats.R_v[ell]), np.ones(3), atol=1e-12)
            np.testing.assert_allclose(np.diag(stats.R_h[ell]), np.ones(3), atol=1e-12)

    def test_sqrt_caches(self, scenario):
        # The factor roots (as the channel sampler takes them) square to the
        # factors, and their Kronecker products (scaled by sqrt(path_gain))
        # square to R and R_tilde.
        stats = build_statistics(scenario)
        big_r, big_rt = dense_r(stats), dense_r_tilde(stats)
        for ell in range(stats.L):
            s_v, s_h = hermitian_sqrt(stats.R_v[ell]), hermitian_sqrt(stats.R_h[ell])
            for root_f, factor in ((s_v, stats.R_v[ell]), (s_h, stats.R_h[ell])):
                np.testing.assert_allclose(
                    root_f @ root_f, factor, atol=1e-10 * np.linalg.norm(factor)
                )
            root = np.sqrt(stats.path_gain[ell])
            s_r = root * np.kron(s_h, s_v.T)
            s_rt = root * np.kron(s_v.T, s_h)
            np.testing.assert_allclose(
                s_r @ s_r, big_r[ell], atol=1e-10 * np.linalg.norm(big_r[ell])
            )
            np.testing.assert_allclose(
                s_rt @ s_rt, big_rt[ell], atol=1e-10 * np.linalg.norm(big_rt[ell])
            )


class TestSampling:
    def test_fixed_seed_reproducible(self, scenario):
        stats = build_statistics(scenario)
        h1 = sample_channels(stats, 0, 1, np.random.default_rng(42))[0]
        h2 = sample_channels(stats, 0, 1, np.random.default_rng(42))[0]
        np.testing.assert_array_equal(h1, h2)

    def test_mc_vec_covariance(self, scenario):
        # E[conj(vec(H)) vec(H)^T] must match R = gain * kron(R_h, R_v.T),
        # and E[vec(H) vec(H)^H] its conjugate gain * kron(R_h^T, R_v).
        stats = build_statistics(scenario)
        ell = 1
        n = 100_000
        h = sample_channels(stats, ell, n, np.random.default_rng(8))
        v = vec_batch(h)
        cov = (v.conj().T @ v) / n  # E[conj(h) h^T]
        big_r = dense_r(stats)[ell]
        err = np.linalg.norm(cov - big_r) / np.linalg.norm(big_r)
        assert err < 0.02
        cov_h = (v.T @ v.conj()) / n  # E[h h^H]
        target = stats.path_gain[ell] * np.kron(stats.R_h[ell].T, stats.R_v[ell])
        assert np.linalg.norm(cov_h - target) / np.linalg.norm(target) < 0.02

    def test_mc_transposed_vec_covariance(self, scenario):
        stats = build_statistics(scenario)
        ell = 2
        n = 100_000
        h = sample_channels(stats, ell, n, np.random.default_rng(9))
        v_t = vec_batch(h.transpose(0, 2, 1))
        cov = (v_t.conj().T @ v_t) / n  # E[conj(vec(H^T)) vec(H^T)^T]
        big_rt = dense_r_tilde(stats)[ell]
        err = np.linalg.norm(cov - big_rt) / np.linalg.norm(big_rt)
        assert err < 0.02

    def test_white_case_identity_covariance(self):
        # With identity correlation and unit gain the vectorized covariance
        # is the identity.
        sc = Scenario(Q=3, L=1, seed=0)
        stats = build_statistics(sc)
        stats.R_v[0] = np.eye(3)
        stats.R_h[0] = np.eye(3)
        stats.path_gain[0] = 1.0
        n = 60_000
        h = sample_channels(stats, 0, n, np.random.default_rng(10))
        v = vec_batch(h)
        cov = (v.conj().T @ v) / n
        assert np.linalg.norm(cov - np.eye(9)) / np.linalg.norm(np.eye(9)) < 0.03
