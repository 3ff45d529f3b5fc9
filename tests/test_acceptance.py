"""Acceptance suite: one test per exit criterion, each printing a verdict.

Criteria 7 and 8 share one 20-seed experiment protocol at 64 antennas and
five users (run once per session): every algorithm at its defaults with
M = 2 outer products, plus the M = 1 and c = 1 variants the sub-orderings
need. All runs are seeded, so verdicts are reproducible bit for bit.
"""

import csv
import time

import numpy as np
import pytest

from slnrbeam.beamformer import (
    BeamformerSet,
    beamformer_matrix,
    coupling_matrix,
    init_feasible,
    psi_matrix,
    total_power,
)
from slnrbeam.channel import Scenario, build_statistics, sample_channels, vec, vec_batch
from slnrbeam.harness import ExperimentConfig, default_scenario_dict, run_experiment
from slnrbeam.metrics import ergodic_rate_closed, ergodic_rate_mc, rate_report, slnr_vec
from slnrbeam.optimizers import AlgoOptions, run_baseline, run_gm, run_maxmin, run_soft
from slnrbeam.qcqp import MaxMinQuadraticProblem, solve_maxmin
from slnrbeam.surrogates import log_bound, ratio_bound, smoothed_min_bound

from conftest import chi_expansion, chi_minorant, chi_softmin_majorant, softmin_target


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestCriterion1Surrogates:
    def test_surrogate_suite(self):
        # The designs' own bound formulas (stacked over users), evaluated in
        # chi-space by the independent evaluator of conftest.
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        n_probes = 1000
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            chi_bar = random_vec(rng, dim)
            x_bar = float(rng.uniform(0.05, 5.0))
            expansion = chi_expansion(chi_bar, x_bar)
            log_coeffs = log_bound(*expansion)
            ratio_coeffs = ratio_bound(*expansion)
            # log-ratio and plain-ratio minorants are tight at the expansion point
            ratio0 = np.vdot(chi_bar, chi_bar).real / x_bar
            assert chi_minorant(*log_coeffs, chi_bar, x_bar)[0] == pytest.approx(
                np.log1p(ratio0), rel=1e-9
            )
            assert chi_minorant(*ratio_coeffs, chi_bar, x_bar)[0] == pytest.approx(
                ratio0, rel=1e-9
            )
            # smoothed-minimum majorant over a small user group
            n_users = int(rng.integers(1, 4))
            chis_bar = np.stack([random_vec(rng, dim) for _ in range(n_users)])
            xs_bar = rng.uniform(0.05, 5.0, n_users)
            c = float(rng.uniform(0.05, 1.5))
            soft = smoothed_min_bound(*chi_expansion(chis_bar, xs_bar), c)
            assert chi_softmin_majorant(*soft, c, chis_bar, xs_bar) == pytest.approx(
                softmin_target(chis_bar, xs_bar, c), rel=1e-9, abs=1e-12
            )
            # domination at n_probes random points of each bound's domain
            chi = random_vec(rng, (n_probes, dim)) * rng.uniform(0.0, 2.5, (n_probes, 1))
            x = rng.uniform(1e-3, 8.0, n_probes)
            ratio = np.sum(np.abs(chi) ** 2, axis=1) / x
            assert np.all(chi_minorant(*log_coeffs, chi, x) <= np.log1p(ratio) + 1e-10)
            assert np.all(chi_minorant(*ratio_coeffs, chi, x) <= ratio + 1e-10)
            chis = random_vec(rng, (n_probes, n_users, dim)) * rng.uniform(
                0.0, 2.5, (n_probes, n_users, 1)
            )
            xs = rng.uniform(1e-3, 8.0, (n_probes, n_users))
            assert np.all(
                chi_softmin_majorant(*soft, c, chis, xs) >= softmin_target(chis, xs, c) - 1e-10
            )
        elapsed = time.perf_counter() - start
        report(
            "criterion 1 (surrogate suite)",
            elapsed < 30.0,
            f"200 instances x 1000 probes, domination and tightness hold, {elapsed:.1f}s < 30s",
        )


class TestCriterion2Identities:
    def test_identity_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        for _ in range(200):
            q_len = int(rng.integers(2, 5))
            m_count = int(rng.integers(1, q_len + 1))
            n_users = int(rng.integers(1, 4))
            shape = (n_users, q_len * m_count)
            bf = BeamformerSet(
                q_len,
                m_count,
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            )
            direct = total_power(bf)
            a_az = coupling_matrix("azimuth", bf)
            a_el = coupling_matrix("elevation", bf)
            via_az = sum(np.real(bf.v_a[i].conj() @ a_az[i] @ bf.v_a[i]) for i in range(n_users))
            via_el = sum(np.real(bf.v_e[i].conj() @ a_el[i] @ bf.v_e[i]) for i in range(n_users))
            assert via_az == pytest.approx(direct, rel=1e-10)
            assert via_el == pytest.approx(direct, rel=1e-10)

            h = rng.standard_normal((q_len, q_len)) + 1j * rng.standard_normal((q_len, q_len))
            for i in range(n_users):
                v_e = bf.columns("elevation", i)
                v_a = bf.columns("azimuth", i)
                want = sum(v_e[:, m] @ h @ v_a[:, m] for m in range(m_count))
                scale = max(1.0, abs(want))
                az = vec(h.T) @ psi_matrix("azimuth", bf, i) @ bf.v_a[i]
                el = vec(h) @ psi_matrix("elevation", bf, i) @ bf.v_e[i]
                assert abs(az - want) <= 1e-12 * scale
                assert abs(el - want) <= 1e-12 * scale
        elapsed = time.perf_counter() - start
        report(
            "criterion 2 (identity suite)",
            elapsed < 10.0,
            f"power and bilinear identities on 200 random pairs, {elapsed:.1f}s < 10s",
        )


class TestCriterion3Monotonicity:
    def test_monotone_traces(self):
        start = time.perf_counter()
        checked = 0
        for m_count in (1, 2):
            for seed in range(10):
                sc = Scenario(Q=4, L=3, M=m_count, seed=seed)
                stats = build_statistics(sc)
                opts = AlgoOptions(max_iterations=100)
                res_mm = run_maxmin(sc, stats, opts)
                res_gm = run_gm(sc, stats, opts)
                res_soft = run_soft(sc, stats, opts)
                for res, direction in ((res_mm, +1), (res_gm, +1), (res_soft, -1)):
                    objs = np.array([e.objective for e in res.trace])
                    steps = direction * np.diff(objs)
                    assert np.all(steps >= -1e-12), (
                        f"{res.algorithm} M={m_count} seed={seed}: worst step "
                        f"{steps.min():.3e}"
                    )
                    for entry in res.trace:
                        assert entry.power <= sc.P * (1.0 + 1e-8)
                checked += 1
        elapsed = time.perf_counter() - start
        report(
            "criterion 3 (monotonicity)",
            elapsed < 300.0,
            f"{checked} desk scenarios x 3 algorithms, monotone within 1e-12 and "
            f"power-feasible within 1e-8, {elapsed:.0f}s < 300s",
        )


class TestCriterion4RateOracle:
    def test_closed_form_matches_monte_carlo(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1004)
        for seed in range(1, 11):
            sc = Scenario(Q=4, L=3, M=1, seed=seed)
            stats = build_statistics(sc)
            bf = init_feasible(sc, np.random.default_rng(seed))
            w_mat = beamformer_matrix(bf)
            ell = (seed - 1) % 3
            closed = ergodic_rate_closed(w_mat, stats, sc.sigma)[ell]
            est, se = ergodic_rate_mc(w_mat, stats, ell, sc.sigma, 1_000_000, rng)
            assert abs(est - closed) <= max(0.01 * closed, 3.0 * se), (
                f"seed {seed}: closed {closed:.6f} vs MC {est:.6f} (se {se:.2e})"
            )
        elapsed = time.perf_counter() - start
        report(
            "criterion 4 (rate oracle)",
            elapsed < 120.0,
            f"closed form vs 1e6-sample MC on 10 instances, {elapsed:.0f}s < 120s",
        )


class TestCriterion5MeanRatioBound:
    def test_expected_slnr_dominates_bound(self):
        n_draws = 20_000
        rng = np.random.default_rng(1005)
        for seed in range(20):
            sc = Scenario(Q=4, L=3, M=1, seed=seed)
            stats = build_statistics(sc)
            bf = init_feasible(sc, np.random.default_rng(seed + 500))
            ell = seed % 3
            w = beamformer_matrix(bf)[:, ell]
            own = np.abs(vec_batch(sample_channels(stats, ell, n_draws, rng)) @ w) ** 2
            leak = np.zeros(n_draws)
            for lp in range(3):
                if lp == ell:
                    continue
                h = sample_channels(stats, lp, n_draws, rng)
                leak += np.abs(vec_batch(h) @ w) ** 2
            ratios = own / (leak + sc.sigma)
            se = ratios.std(ddof=1) / np.sqrt(n_draws)
            bound = slnr_vec(beamformer_matrix(bf), stats, sc.sigma)[ell]
            assert ratios.mean() >= bound - 3.0 * se, (
                f"seed {seed}: mean ratio {ratios.mean():.4f} vs bound {bound:.4f}"
            )
        report(
            "criterion 5 (mean-ratio bound)",
            True,
            "expected SLNR dominates its covariance-form bound on 20 instances",
        )


class TestCriterion6Subsolver:
    @staticmethod
    def random_problem(rng, n_users, dim):
        a = rng.uniform(-1.0, 1.0, n_users)
        b = (rng.standard_normal((n_users, dim)) + 1j * rng.standard_normal((n_users, dim))) / 2
        c_stack = np.empty((n_users, dim, dim), dtype=complex)
        a_stack = np.empty_like(c_stack)
        for ell in range(n_users):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            c_stack[ell] = g @ g.conj().T / dim + 0.05 * np.eye(dim)
            rank = dim if rng.integers(0, 2) else max(dim - 2, 1)
            f = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            a_stack[ell] = f @ f.conj().T / dim
        return MaxMinQuadraticProblem(
            a=a, b=b, C=c_stack, A=a_stack, P=float(rng.uniform(0.5, 4.0))
        )

    @staticmethod
    def single_user_oracle(problem):
        """Two-branch closed form for one constrained concave quadratic."""
        import scipy.optimize

        c_mat, a_mat, b = problem.C[0], problem.A[0], problem.b[0]
        v_free = np.linalg.solve(c_mat, b.conj())
        if np.real(v_free.conj() @ a_mat @ v_free) <= problem.P:
            return float(problem.objective_values(v_free[None, :])[0])

        def point(mu):
            return np.linalg.solve(c_mat + mu * a_mat, b.conj())

        def slack(mu):
            v = point(mu)
            return np.real(v.conj() @ a_mat @ v) - problem.P

        hi = 1.0
        while slack(hi) > 0:
            hi *= 2.0
        mu = scipy.optimize.brentq(slack, 1e-16, hi, xtol=1e-15)
        return float(problem.objective_values(point(mu)[None, :])[0])

    def test_certified_gaps(self):
        rng = np.random.default_rng(1006)
        worst = 0.0
        singles = 0
        for _ in range(50):
            n_users = int(rng.integers(1, 5))
            dim = int(rng.integers(2, 17))
            problem = self.random_problem(rng, n_users, dim)
            # single-user instances are solved tighter so the closed-form
            # comparison is meaningful at 1e-6
            sol = solve_maxmin(problem, tol=1e-8 if n_users == 1 else 1e-5)
            worst = max(worst, sol.gap)
            assert sol.gap <= 1e-4
            if n_users == 1:
                singles += 1
                oracle = self.single_user_oracle(problem)
                assert sol.objective == pytest.approx(oracle, rel=1e-6)
        report(
            "criterion 6 (subsolver certification)",
            True,
            f"50 instances certified, worst gap {worst:.2e} <= 1e-4, "
            f"{singles} single-user closed-form matches at 1e-6",
        )


@pytest.fixture(scope="session")
def ordering_suite():
    """The shared 20-seed protocol behind criteria 7 and 8.

    Every method runs at its library defaults; the configured points are
    the four headline methods at M = 2 plus the M = 1 and c = 1 variants.
    """
    start = time.perf_counter()
    rows: dict[str, list[dict]] = {}
    for seed in range(20):
        cache = {}

        def get(m_count):
            if m_count not in cache:
                scm = Scenario(Q=8, L=5, M=m_count, seed=seed)
                cache[m_count] = (scm, build_statistics(scm))
            return cache[m_count]

        def metrics(res, sc, stats):
            rep = rate_report(res.incumbent_matrix, stats, sc.sigma, sc.bandwidth)
            return {
                "min_slnr": res.trace[-1].min_slnr,
                "min_rate": rep.min_rate_mbps,
                "jain": rep.jain,
            }

        sc2, st2 = get(2)
        sc1, st1 = get(1)
        runs = {
            "maxmin": metrics(run_maxmin(sc2, st2, AlgoOptions()), sc2, st2),
            "gm": metrics(run_gm(sc2, st2, AlgoOptions()), sc2, st2),
            "gm_m1": metrics(run_gm(sc1, st1, AlgoOptions()), sc1, st1),
            "soft": metrics(run_soft(sc2, st2, AlgoOptions(soft_c=0.1)), sc2, st2),
            "soft_m1": metrics(run_soft(sc1, st1, AlgoOptions(soft_c=0.1)), sc1, st1),
            "soft_c1": metrics(run_soft(sc2, st2, AlgoOptions(soft_c=1.0)), sc2, st2),
            "baseline": metrics(run_baseline(sc2, st2, AlgoOptions()), sc2, st2),
        }
        for key, val in runs.items():
            rows.setdefault(key, []).append(val)
    elapsed = time.perf_counter() - start
    means = {
        key: {field: float(np.mean([v[field] for v in vals])) for field in vals[0]}
        for key, vals in rows.items()
    }
    return means, elapsed


class TestCriterion7Orderings:
    def test_runtime_and_table(self, ordering_suite):
        means, elapsed = ordering_suite
        for key, vals in means.items():
            print(
                f"    {key:9s} min_slnr={vals['min_slnr']:.6f} "
                f"min_rate={vals['min_rate']:.4f} jain={vals['jain']:.4f}"
            )
        report(
            "criterion 7 (runtime)",
            elapsed < 1800.0,
            f"20-seed ordering suite in {elapsed:.0f}s < 1800s",
        )

    def test_a_min_slnr_ordering(self, ordering_suite):
        means, _ = ordering_suite
        top = means["maxmin"]["min_slnr"]
        others = {k: means[k]["min_slnr"] for k in ("gm", "soft", "baseline")}
        ok = all(top >= v for v in others.values())
        report(
            "criterion 7a (max-min SLNR highest)",
            ok,
            f"maxmin {top:.6f} vs " + ", ".join(f"{k} {v:.6f}" for k, v in others.items()),
        )

    def test_b_jain_ordering(self, ordering_suite):
        means, _ = ordering_suite
        soft, gm = means["soft"]["jain"], means["gm"]["jain"]
        base, mm = means["baseline"]["jain"], means["maxmin"]["jain"]
        ok = soft >= gm >= base and soft >= mm
        report(
            "criterion 7b (Jain ordering)",
            ok,
            f"soft {soft:.4f} >= gm {gm:.4f} >= baseline {base:.4f}, "
            f"soft >= maxmin {mm:.4f}",
        )

    def test_c_min_rate_ordering(self, ordering_suite):
        means, _ = ordering_suite
        soft, gm, base = (
            means["soft"]["min_rate"],
            means["gm"]["min_rate"],
            means["baseline"]["min_rate"],
        )
        ok = soft >= gm >= base
        report(
            "criterion 7c (min-rate ordering)",
            ok,
            f"soft {soft:.4f} >= gm {gm:.4f} >= baseline {base:.4f}",
        )

    def test_d_smoothing_direction(self, ordering_suite):
        means, _ = ordering_suite
        small_c, big_c = means["soft"]["min_rate"], means["soft_c1"]["min_rate"]
        report(
            "criterion 7d (c = 0.1 over c = 1)",
            small_c >= big_c,
            f"c=0.1 mean min rate {small_c:.4f} >= c=1 {big_c:.4f}",
        )


class TestCriterion8MScaling:
    def test_two_outer_products_not_worse(self, ordering_suite):
        means, _ = ordering_suite
        ok_gm = means["gm"]["min_rate"] >= means["gm_m1"]["min_rate"]
        ok_soft = means["soft"]["min_rate"] >= means["soft_m1"]["min_rate"]
        report(
            "criterion 8 (M scaling)",
            ok_gm and ok_soft,
            f"gm M2 {means['gm']['min_rate']:.4f} >= M1 {means['gm_m1']['min_rate']:.4f}; "
            f"soft M2 {means['soft']['min_rate']:.4f} >= M1 {means['soft_m1']['min_rate']:.4f}",
        )


class TestCriterion9Determinism:
    def test_byte_identical_output(self, tmp_path):
        def run(where):
            config = ExperimentConfig(
                scenario=default_scenario_dict(Q=3, users=2),
                algorithms=["soft", "baseline"],
                antennas=[9],
                power_dbm=[24.0],
                c=[0.1],
                n_seeds=2,
                base_seed=3,
                output_dir=str(where),
                options={"max_iterations": 6},
            )
            return sorted(run_experiment(config))

        files_a = run(tmp_path / "a")
        files_b = run(tmp_path / "b")
        for fa, fb in zip(files_a, files_b):
            with open(fa, newline="") as fh:
                rows_a = list(csv.reader(fh))
            with open(fb, newline="") as fh:
                rows_b = list(csv.reader(fh))
            header = rows_a[0]
            skip = {i for i, col in enumerate(header) if "wallclock" in col}
            for ra, rb in zip(rows_a, rows_b):
                for i, (ca, cb) in enumerate(zip(ra, rb)):
                    if i not in skip:
                        assert ca == cb
        report(
            "criterion 9 (determinism)",
            True,
            "repeated runs give byte-identical numeric CSV columns",
        )
