"""Experiment harness: file contracts, determinism, aggregation, CLI."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slnrbeam import harness
from slnrbeam.cli import main as cli_main
from slnrbeam.harness import (
    ExperimentConfig,
    default_scenario_dict,
    fmt,
    report_fairness,
    run_experiment,
    scenario_from_dict,
)
from slnrbeam.channel import Scenario, dbm_to_watt
from slnrbeam.metrics import power_gram, rate_report
from slnrbeam.optimizers import ALGORITHMS, run_algorithm

DESIGNS = sorted(ALGORITHMS)


def small_config(out_dir, **overrides):
    base = dict(
        scenario=default_scenario_dict(Q=3, users=2),
        algorithms=["soft"],
        antennas=[9],
        power_dbm=[24.0],
        c=[0.1],
        n_seeds=1,
        base_seed=7,
        output_dir=str(out_dir),
        options={"max_iterations": 6},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def captured_runs(monkeypatch, builds=()):
    """The design runs ``run_experiment`` makes from now on, in order: each
    one's scenario, statistics, result and the number of entries the run
    added to ``builds`` (a list a patched Gram builder appends to)."""
    runs = []

    def running(name, scenario, stats, options=None):
        before = len(builds)
        result = run_algorithm(name, scenario, stats, options)
        runs.append((scenario, stats, result, len(builds) - before))
        return result

    monkeypatch.setattr(harness, "run_algorithm", running)
    return runs


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestScenarioConversion:
    def test_dbm_to_watt_boundary(self):
        spec = default_scenario_dict(power_dbm=24.0)
        sc = scenario_from_dict(spec)
        assert sc.P == pytest.approx(dbm_to_watt(24.0))
        assert sc.sigma == pytest.approx(dbm_to_watt(-174.0) * 10e6)

    def test_explicit_sigma_override(self):
        spec = default_scenario_dict()
        spec["sigma_watts"] = 1e-12
        assert scenario_from_dict(spec).sigma == 1e-12

    def test_spreads_converted_to_radians(self):
        sc = scenario_from_dict(default_scenario_dict(azimuth_spread_deg=10.0))
        assert sc.sigma_alpha == pytest.approx(np.deg2rad(10.0))

    def test_unknown_keys_ignored(self):
        # Configs written with keys outside the schema (such as a carrier
        # frequency, which no formula reads) still load unchanged.
        spec = default_scenario_dict()
        assert "carrier_hz" not in spec
        assert scenario_from_dict(dict(spec, carrier_hz=2e9)) == scenario_from_dict(spec)

    @pytest.mark.parametrize(
        "key, value",
        [("users", "3"), ("M", 1.5), ("Q", True), ("seed", 2.5), ("users", float("inf")),
         ("power_dbm", float("nan")), ("bandwidth_hz", "1e7"), ("sigma_watts", False)],
    )
    def test_mistyped_keys_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"key '{key}' must be"):
            scenario_from_dict(default_scenario_dict(**{key: value}))

    @pytest.mark.parametrize(
        "change, key, rule",
        [({"Q": 0}, "Q", ">= 1"), ({"users": 0}, "users", ">= 1"),
         ({"M": 5}, "M", "between 1 and Q = 4"), ({"cell_radius_m": 5.0}, "cell_radius_m", "above 10 m"),
         ({"bandwidth_hz": 0.0}, "bandwidth_hz", "positive"),
         ({"sigma_watts": 1e-12, "bandwidth_hz": -1.0}, "bandwidth_hz", "positive"),
         ({"sigma_watts": -1e-12}, "sigma_watts", "positive"),
         ({"shadow_std_db": -1.0}, "shadow_std_db", ">= 0"), ({"seed": -1}, "seed", ">= 0"),
         ({"azimuth_spread_deg": -5.0}, "azimuth_spread_deg", ">= 0"),
         ({"elevation_spread_deg": -0.5}, "elevation_spread_deg", ">= 0")],
    )
    def test_out_of_range_names_key(self, change, key, rule):
        # Scenario's range rules, reported under the key the spec wrote.
        with pytest.raises(ValueError) as err:
            scenario_from_dict(default_scenario_dict(**change))
        assert str(err.value) == f"key '{key}' must be {rule}, got {change[key]!r}"

    def test_zero_angular_spread_accepted(self):
        # Zero spread is a valid degenerate case: rank-1 correlation factors.
        sc = scenario_from_dict(default_scenario_dict(azimuth_spread_deg=0.0, elevation_spread_deg=0.0))
        assert sc.sigma_alpha == 0.0 and sc.sigma_beta == 0.0

    def test_defaults_match_library(self):
        # The schema's JSON-unit defaults give the library's own Scenario defaults.
        assert scenario_from_dict({"Q": 4, "users": 3}) == Scenario(Q=4, L=3)

    def test_integral_floats_accepted(self):
        sc = scenario_from_dict(default_scenario_dict(Q=4.0, users=3.0, M=2.0, seed=7.0))
        assert (sc.Q, sc.L, sc.M, sc.seed) == (4, 3, 2, 7)
        assert all(isinstance(v, int) for v in (sc.Q, sc.L, sc.M, sc.seed))


class TestRunExperiment:
    def test_single_point_single_seed_three_files(self, tmp_path):
        files = run_experiment(small_config(tmp_path / "out"))
        assert len(files) == 3
        names = sorted(Path(f).name for f in files)
        assert "aggregate.csv" in names and "summary.csv" in names
        assert any(n.startswith("trace_soft") for n in names)

    def test_path_output_dir_accepted(self, tmp_path):
        # Python callers may pass a path object; only JSON configs are limited to strings.
        run_experiment(small_config(tmp_path / "out", output_dir=tmp_path / "out"))
        assert (tmp_path / "out" / "aggregate.csv").exists()

    def test_empty_output_dir_rejected(self, tmp_path, monkeypatch):
        # An empty name would write the run files into the working directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=r"^key 'output_dir' must be a nonempty string, got ''$"):
            run_experiment(small_config(tmp_path, output_dir=""))
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_numeric_columns(self, tmp_path):
        files_a = run_experiment(small_config(tmp_path / "a"))
        files_b = run_experiment(small_config(tmp_path / "b"))
        for fa, fb in zip(sorted(files_a), sorted(files_b)):
            rows_a = read_csv(fa)
            rows_b = read_csv(fb)
            header = rows_a[0]
            skip = {i for i, col in enumerate(header) if "wallclock" in col}
            for ra, rb in zip(rows_a, rows_b):
                for i, (ca, cb) in enumerate(zip(ra, rb)):
                    if i not in skip:
                        assert ca == cb

    def test_sweep_counting(self, tmp_path):
        config = small_config(
            tmp_path / "out", algorithms=["soft", "baseline"], antennas=[9, 16], n_seeds=2
        )
        files = run_experiment(config)
        # traces: 2 algorithms x 2 antenna points x 2 seeds, plus 2 shared files
        assert len(files) == 8 + 2
        agg = read_csv(Path(config.output_dir) / "aggregate.csv")
        assert len(agg) - 1 == 4  # algorithms x points

    def test_aggregate_is_arithmetic_mean(self, tmp_path):
        config = small_config(tmp_path / "out", n_seeds=3)
        run_experiment(config)
        out = Path(config.output_dir)
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        with open(out / "aggregate.csv", newline="") as fh:
            agg = list(csv.DictReader(fh))[0]
        for metric in ("min_rate_mbps", "jain", "min_slnr"):
            mean = np.mean([float(r[metric]) for r in summary])
            assert float(agg[f"mean_{metric}"]) == pytest.approx(mean, abs=1e-12, rel=1e-12)
        assert int(agg["n_seeds"]) == 3

    def test_trace_columns(self, tmp_path):
        config = small_config(tmp_path / "out")
        files = run_experiment(config)
        trace = next(f for f in files if "trace" in f)
        rows = read_csv(trace)
        assert rows[0] == ["iteration", "min_slnr", "objective", "min_rate_mbps"]
        assert float(rows[1][0]) == 0.0

    def test_unwritable_output_rejected(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        config = small_config(target / "nested")  # parent is a file
        with pytest.raises(OSError):
            run_experiment(config)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            small_config(tmp_path, algorithms=[])
        with pytest.raises(ValueError):
            small_config(tmp_path, antennas=[10])  # not a perfect square
        with pytest.raises(ValueError):
            small_config(tmp_path, c=[-0.1])
        with pytest.raises(ValueError):
            small_config(tmp_path, n_seeds=0)
        for bad in ([float("nan")], ["0.1"], [True], [0.0], []):
            with pytest.raises(ValueError, match="key 'c' must be"):
                small_config(tmp_path, c=bad)
        for bad in (["9"], [9.5], [0], [False], (9,)):
            with pytest.raises(ValueError, match="key 'antennas' must be"):
                small_config(tmp_path, antennas=bad)
        for bad in ("soft", ["soft", "sfot"], ("soft",)):
            with pytest.raises(ValueError, match="key 'algorithms' must be"):
                small_config(tmp_path, algorithms=bad)
        # repeated sweep entries, compared after normalization
        for key, bad in (("antennas", [9, 9.0]), ("power_dbm", [24, 24.0]), ("c", [0.1, 0.1]),
                         ("algorithms", ["soft", "baseline", "soft"])):
            with pytest.raises(ValueError, match=f"key '{key}' must be a list without repeats"):
                small_config(tmp_path, **{key: bad})
        # Python-built configs are checked like JSON ones, before any file exists
        for key, bad in (("n_seeds", 2.7), ("n_seeds", True), ("n_seeds", "3"), ("base_seed", "1")):
            out_dir = tmp_path / "out"
            with pytest.raises(ValueError, match=f"key '{key}' must be") as built:
                run_experiment(small_config(out_dir, **{key: bad}))
            assert not out_dir.exists()
            path = tmp_path / "exp.json"
            path.write_text(json.dumps({"scenario": default_scenario_dict(Q=3, users=2),
                                        "algorithms": ["soft"], key: bad}))
            with pytest.raises(ValueError) as loaded:
                ExperimentConfig.from_json(path)
            assert str(loaded.value) == str(built.value)
        # integral floats are accepted and normalized
        config = small_config(tmp_path, antennas=[9.0], c=[1])
        assert config.axes.antennas == [9] and type(config.axes.antennas[0]) is int
        assert config.axes.c == [1.0] and type(config.axes.c[0]) is float

    def test_sweep_keys_default_from_scenario(self, tmp_path):
        scenario = default_scenario_dict(Q=5, users=2, power_dbm=40, seed=3)
        config = ExperimentConfig(scenario=scenario, algorithms=["gm"])
        assert (config.axes.antennas, config.axes.power_dbm, config.axes.base_seed) == ([25], [40.0], 3)
        given = ExperimentConfig(scenario=scenario, algorithms=["gm"], antennas=[9],
                                 power_dbm=[24], base_seed=0)
        assert (given.axes.antennas, given.axes.power_dbm, given.axes.base_seed) == ([9], [24.0], 0)
        assert given.run_spec(9, 24.0, 0) == {**scenario, "Q": 3, "power_dbm": 24.0, "seed": 0}
        # a c axis left out takes options.soft_c, else AlgoOptions' default
        assert config.axes.c == [0.1]
        option = ExperimentConfig(scenario=scenario, algorithms=["soft"], options={"soft_c": 1})
        assert option.axes.c == [1.0]
        assert replace(option, c=[0.5]).axes.c == [0.5]
        # an empty axis is an error, never the scenario's value
        for key in ("antennas", "power_dbm"):
            with pytest.raises(ValueError, match=f"key '{key}' must be a nonempty list"):
                ExperimentConfig(scenario=scenario, algorithms=["gm"], **{key: []})
        # a range error names the key that set the value
        with pytest.raises(ValueError, match=r"^key 'seed' must be >= 0, got -1$"):
            ExperimentConfig(scenario=dict(scenario, seed=-1), algorithms=["gm"])
        with pytest.raises(ValueError, match=r"^key 'base_seed' must be >= 0, got -1$"):
            ExperimentConfig(scenario=scenario, algorithms=["gm"], base_seed=-1)
        with pytest.raises(ValueError, match=r"^key 'M' must be between 1 and Q = 2, got 3$"):
            ExperimentConfig(scenario=dict(scenario, M=3), algorithms=["gm"], antennas=[4])

    def test_replace_resolves_the_axes_afresh(self):
        # The fields keep what the caller wrote, so a replaced config resolves
        # its sweep from its own scenario and options.
        config = ExperimentConfig(scenario={"Q": 3, "users": 3}, algorithms=["soft"])
        assert config.axes == ([9], [24.0], [0.1], 0)
        assert config.antennas is config.power_dbm is config.c is config.base_seed is None
        assert replace(config, options={"soft_c": 1.0}).axes.c == [1.0]
        assert replace(config, scenario={"Q": 4, "users": 3}).axes.antennas == [16]
        assert replace(config, scenario={"Q": 3, "users": 3, "seed": 5}).axes.base_seed == 5

    @pytest.mark.parametrize("key", ["tolerence", "mc_samples", "rate_every"])
    def test_unknown_option_rejected(self, tmp_path, key):
        # A misspelt key, or a knob the options no longer carry, is named
        # together with the accepted keys when the config is built.
        with pytest.raises(ValueError, match=rf"'{key}'.*max_iterations, soft_c, tolerance"):
            small_config(tmp_path / "out", options={key: 1})
        assert not (tmp_path / "out").exists()

    def test_beamformer_checkpoints_opt_in(self, tmp_path, monkeypatch):
        # Every design writes its incumbent matrix in one column form,
        # {"Q", "columns"} with [re, im] pairs, equal to the result's matrix.
        runs = captured_runs(monkeypatch)
        config = small_config(tmp_path / "out", algorithms=list(DESIGNS), save_beamformers=True)
        checkpoints = [f for f in run_experiment(config) if "beamformers_" in f]
        assert len(checkpoints) == len(runs) == 4
        for path, (scenario, _, result, _) in zip(checkpoints, runs):
            assert Path(path).name.startswith(f"beamformers_{result.algorithm}_a9_")
            with open(path) as fh:
                doc = json.load(fh)
            assert sorted(doc) == ["Q", "columns"] and doc["Q"] == 3
            pairs = np.array(doc["columns"])
            assert pairs.shape == (9, 2, 2)
            np.testing.assert_array_equal(pairs[..., 0] + 1j * pairs[..., 1], result.incumbent_matrix)
            assert np.linalg.norm(result.incumbent_matrix) ** 2 <= scenario.P * (1.0 + 1e-9)

    def test_summary_reads_the_incumbent_rates(self, tmp_path, monkeypatch):
        # A summary row's rate cells are the rates its design run returned
        # with the incumbent, equal to rate_report's on that matrix bit for
        # bit; the harness builds no power Gram beyond the runs' own.
        from slnrbeam import metrics, optimizers

        builds = []

        def building(w_mat, stats):
            builds.append(w_mat)
            return power_gram(w_mat, stats)

        monkeypatch.setattr(optimizers, "power_gram", building)
        monkeypatch.setattr(metrics, "power_gram", building)
        runs = captured_runs(monkeypatch, builds)
        config = small_config(tmp_path / "out", algorithms=list(DESIGNS))
        run_experiment(config)
        assert len(builds) == sum(n for *_, n in runs)
        header, *rows = read_csv(Path(config.output_dir) / "summary.csv")
        assert len(rows) == len(runs) == 4
        for row, (scenario, stats, result, _) in zip(rows, runs):
            cells = dict(zip(header, row))
            report = rate_report(result.incumbent_matrix, stats, scenario.sigma, scenario.bandwidth)
            np.testing.assert_array_equal(result.incumbent_rates, report.rate_nats)
            for column in ("min_rate_mbps", "max_rate_mbps", "min_max_ratio", "jain"):
                assert cells[column] == fmt(getattr(report, column)), (result.algorithm, column)


class TestReportFairness:
    def test_single_cell_table(self, tmp_path):
        config = small_config(tmp_path / "out")
        run_experiment(config)
        path = report_fairness(config.output_dir)
        rows = read_csv(path)
        assert rows[0] == ["algorithm", "metric", "a9"]
        assert len(rows) == 3  # header + two metrics for one algorithm

    def test_values_match_aggregate(self, tmp_path):
        config = small_config(tmp_path / "out", algorithms=["soft", "baseline"])
        run_experiment(config)
        out = Path(config.output_dir)
        path = report_fairness(out)
        fairness = read_csv(path)
        with open(out / "aggregate.csv", newline="") as fh:
            agg = {r["algorithm"]: r for r in csv.DictReader(fh)}
        for row in fairness[1:]:
            algorithm, metric = row[0], row[1]
            assert row[2] == f"{float(agg[algorithm]['mean_' + metric]):.17g}"

    def test_columns_ascending(self, tmp_path):
        config = small_config(tmp_path / "out", antennas=[16, 9])
        run_experiment(config)
        rows = read_csv(report_fairness(config.output_dir))
        assert rows[0][2:] == ["a9", "a16"]

    def test_missing_inputs_listed(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="aggregate.csv"):
            report_fairness(tmp_path)

    def test_single_point_table_bytes(self, tmp_path):
        # one (power_dbm, c, M) point per algorithm: one row per
        # (algorithm, metric), one 17-digit cell per antenna count
        config = small_config(
            tmp_path / "out", algorithms=["soft", "gm"], antennas=[16, 9],
            options={"max_iterations": 2},
        )
        run_experiment(config)
        out = Path(config.output_dir)
        with open(out / "aggregate.csv", newline="") as fh:
            agg = {(r["algorithm"], r["antennas"]): r for r in csv.DictReader(fh)}
        lines = ["algorithm,metric,a9,a16"]
        for algorithm in ("gm", "soft"):
            for metric in ("min_max_ratio", "jain"):
                cells = [f"{float(agg[algorithm, n]['mean_' + metric]):.17g}" for n in ("9", "16")]
                lines.append(",".join([algorithm, metric] + cells))
        expected = "".join(line + "\r\n" for line in lines).encode()
        assert Path(report_fairness(out)).read_bytes() == expected

    def test_missing_cell_is_empty(self, tmp_path):
        # An algorithm aggregated at fewer antenna counts than another has an
        # empty cell where it has no row; the others are 17-digit means.
        (tmp_path / "aggregate.csv").write_text(
            "algorithm,antennas,power_dbm,c,M,n_seeds,mean_min_max_ratio,mean_jain\n"
            f"soft,16,24,0.1,1,2,{0.1!r},{0.3!r}\n"
            f"gm,16,24,nan,1,2,{1 / 3!r},{0.7!r}\n"
            f"gm,9,24,nan,1,2,{0.25!r},{2 / 3!r}\n"
        )
        assert read_csv(report_fairness(tmp_path)) == [
            ["algorithm", "metric", "a9", "a16"],
            ["gm", "min_max_ratio", "0.25", "0.33333333333333331"],
            ["gm", "jain", "0.66666666666666663", "0.69999999999999996"],
            ["soft", "min_max_ratio", "", "0.10000000000000001"],
            ["soft", "jain", "", "0.29999999999999999"],
        ]

    def test_several_sweep_points_rejected(self, tmp_path, capsys):
        config = small_config(
            tmp_path / "out", algorithms=["gm", "soft"], power_dbm=[20.0, 24.0],
            c=[0.1, 1.0], options={"max_iterations": 2},
        )
        run_experiment(config)
        with pytest.raises(ValueError) as err:
            report_fairness(config.output_dir)
        message = str(err.value)
        assert "2 sweep points for gm" in message
        assert "(power_dbm=20, c=nan, M=1), (power_dbm=24, c=nan, M=1)" in message
        assert not (Path(config.output_dir) / "fairness.csv").exists()
        # the CLI turns it into one error line and exit code 1
        assert cli_main(["report", "--out", config.output_dir]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "for gm" in lines[0]


class TestCli:
    def test_run_smoke(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "--algorithm",
                "soft",
                "--Q",
                "3",
                "--users",
                "2",
                "--M",
                "1",
                "--power-dbm",
                "24",
                "--c",
                "0.1",
                "--seed",
                "7",
                "--out",
                str(tmp_path / "res"),
            ]
        )
        assert code == 0
        assert (tmp_path / "res" / "summary.csv").exists()

    def test_low_power_runs_write_positive_rates(self, tmp_path, capsys):
        # At -200 dBm every determinant term of the rate integral is within
        # 1e-17 of 1; the rates stay positive, so the fairness cells exist.
        for algorithm in ("maxmin", "gm", "soft"):
            out = tmp_path / algorithm
            code = cli_main(["run", "--algorithm", algorithm, "--power-dbm", "-200", "--out", str(out)])
            assert code == 0, capsys.readouterr().err
            header, row = read_csv(out / "summary.csv")
            cells = dict(zip(header, row))
            assert float(cells["min_rate_mbps"]) > 0.0 and float(cells["min_max_ratio"]) > 0.0

    def test_negative_c_rejected(self, tmp_path):
        code = cli_main(["run", "--algorithm", "soft", "--c", "-1", "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_flag_usage_error(self):
        assert cli_main(["run", "--bogus"]) == 2

    def test_report_empty_dir(self, tmp_path, capsys):
        code = cli_main(["report", "--out", str(tmp_path)])
        assert code != 0
        assert "missing" in capsys.readouterr().err

    def test_scenario_gen(self, tmp_path):
        out = tmp_path / "scenario.json"
        code = cli_main(["scenario", "gen", "--out", str(out), "--Q", "5", "--users", "4"])
        assert code == 0
        spec = json.loads(out.read_text())
        assert spec["Q"] == 5 and spec["users"] == 4
        scenario_from_dict(spec)  # schema round-trips into a Scenario

    @pytest.mark.parametrize(
        "flags, changes",
        [([], {}),
         (["--Q", "5", "--users", "4", "--M", "2", "--power-dbm", "30", "--seed", "7"],
          {"Q": "5", "users": "4", "M": "2", "power_dbm": "30.0", "seed": "7"})],
        ids=["defaults", "flags"],
    )
    def test_scenario_gen_bytes(self, tmp_path, flags, changes):
        # The file's bytes, key order included, are part of the schema.
        values = {"Q": "4", "users": "3", "M": "1", "power_dbm": "24.0",
                  "bandwidth_hz": "10000000.0", "cell_radius_m": "200.0", "bs_height_m": "10.0",
                  "ue_height_m": "1.5", "shadow_std_db": "7.8", "azimuth_spread_deg": "5.0",
                  "elevation_spread_deg": "5.0", "noise_dbm_per_hz": "-174.0", "seed": "0",
                  **changes}
        body = ",\n".join(f'  "{key}": {value}' for key, value in values.items())
        out = tmp_path / "scenario.json"
        assert cli_main(["scenario", "gen", "--out", str(out), *flags]) == 0
        assert out.read_text() == "{\n" + body + "\n}\n"

    @pytest.mark.parametrize(
        "flags, key", [(["--Q", "2", "--M", "3"], "M"), (["--power-dbm", "nan"], "power_dbm")]
    )
    def test_scenario_gen_checked_before_writing(self, tmp_path, capsys, flags, key):
        out = tmp_path / "scenario.json"
        assert cli_main(["scenario", "gen", "--out", str(out), *flags]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: key '{key}' must be")
        assert not out.exists()

    def test_scenario_gen_has_no_c_flag(self, tmp_path):
        out = tmp_path / "scenario.json"
        assert cli_main(["scenario", "gen", "--out", str(out), "--c", "0.1"]) == 2
        assert not out.exists()

    def test_sweep_keys_left_out_take_scenario_values(self, tmp_path):
        # The scenario's Q, power_dbm and seed run as written when the config
        # gives no antennas, power_dbm or base_seed.
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "scenario": {"Q": 5, "users": 2, "seed": 3, "power_dbm": 40.0},
            "algorithms": ["baseline"],
        }))
        out_dir = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 0
        (row,) = read_csv(out_dir / "summary.csv")[1:]
        assert row[:6] == ["baseline", "25", "40", "nan", "1", "3"]

    def test_run_flag_overrides_config_axis(self, tmp_path):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "scenario": default_scenario_dict(Q=3, users=2),
            "algorithms": ["baseline"], "antennas": [9, 16], "power_dbm": [20.0], "base_seed": 5,
        }))
        out_dir = tmp_path / "out"
        argv = ["run", "--config", str(config_path), "--Q", "2", "--power-dbm", "30", "--seed", "1",
                "--out", str(out_dir)]
        assert cli_main(argv) == 0
        (row,) = read_csv(out_dir / "summary.csv")[1:]
        assert row[:6] == ["baseline", "4", "30", "nan", "1", "1"]

    @pytest.mark.parametrize(
        "flags, scenario, experiment, key",
        [
            (["run", "--algorithm", "gm", "--M", "0"], {"M": 0}, {}, "M"),
            (["run", "--algorithm", "soft", "--c", "-1"], {}, {"algorithms": ["soft"], "c": [-1]}, "c"),
            (["run", "--algorithm", "gm", "--Q", "0"], {"Q": 0}, {}, "Q"),
            (["run", "--algorithm", "gm", "--users", "0"], {"users": 0}, {}, "users"),
            (["run", "--algorithm", "gm", "--Q", "2", "--users", "2", "--M", "3"],
             {"Q": 2, "users": 2, "M": 3}, {}, "M"),
            (["sweep", "--config", "{valid}", "--seeds", "0"], {}, {"n_seeds": 0}, "n_seeds"),
            (None, {}, {"base_seed": -1}, "base_seed"),
        ],
        ids=["M_zero", "c_negative", "Q_zero", "users_zero", "M_above_Q", "seeds_zero", "base_seed"],
    )
    def test_rejected_value_is_one_key_line(self, tmp_path, capsys, flags, scenario, experiment, key):
        # A flag and the same value in JSON give one identical line naming the
        # key, exit code 1 and no file.
        valid = tmp_path / "valid.json"
        valid.write_text(json.dumps({"scenario": default_scenario_dict(), "algorithms": ["gm"]}))
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "scenario": default_scenario_dict(**scenario), "algorithms": ["gm"], **experiment,
        }))
        out_dir = tmp_path / "out"
        runs = [["sweep", "--config", str(config_path)]]
        if flags is not None:
            runs.append([str(valid) if arg == "{valid}" else arg for arg in flags])
        lines = []
        for argv in runs:
            assert cli_main([*argv, "--out", str(out_dir)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: key '{key}' must be")
            assert not out_dir.exists()
            lines += err
        assert len(set(lines)) == 1

    def test_negative_angular_spread_is_one_key_line(self, tmp_path, capsys):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "scenario": default_scenario_dict(azimuth_spread_deg=-5.0), "algorithms": ["baseline"],
        }))
        out_dir = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: key 'azimuth_spread_deg' must be >= 0, got -5.0"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, output_dir",
        [(["sweep", "--config", "exp.json"], ""),
         (["run", "--algorithm", "baseline", "--Q", "2", "--users", "2", "--out", ""], None),
         (["sweep", "--config", "exp.json", "--out", ""], "elsewhere")],
        ids=["json", "run_flag", "sweep_flag"],
    )
    def test_empty_output_dir_is_one_key_line(self, tmp_path, capsys, monkeypatch, argv, output_dir):
        # An empty directory, in the config or as --out, is rejected before
        # any file is written, never read as the working directory, out/ or
        # the config's own directory.
        monkeypatch.chdir(tmp_path)
        doc = {"scenario": {"Q": 2, "users": 2}, "algorithms": ["baseline"]}
        if output_dir is not None:
            doc["output_dir"] = output_dir
        (tmp_path / "exp.json").write_text(json.dumps(doc))
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: key 'output_dir' must be a nonempty string, got ''"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    def test_axis_values_sharing_a_file_label_rejected(self, tmp_path, capsys):
        # Trace and checkpoint names print power_dbm and c through one label;
        # two values it prints alike would write one file over the other, so
        # the config is one key-named error line before any file is written.
        config = {"scenario": {"Q": 3, "users": 2}, "algorithms": ["gm", "soft"],
                  "power_dbm": [24.0, 24.0000001], "c": [0.1, 0.1000001]}
        out_dir = tmp_path / "out"
        lines = []
        for fixed in ({}, {"power_dbm": [24.0, 30.5]}):
            config_path = tmp_path / "exp.json"
            config_path.write_text(json.dumps({**config, **fixed}))
            assert cli_main(["sweep", "--config", str(config_path), "--out", str(out_dir)]) == 1
            lines += capsys.readouterr().err.splitlines()
            assert not out_dir.exists()
        assert lines == [
            "error: key 'power_dbm' values 24.0 and 24.0000001 both print as '24' in file names",
            "error: key 'c' values 0.1 and 0.1000001 both print as '0.1' in file names",
        ]
        # Values the label tells apart keep their names: one trace per run.
        config.update(power_dbm=[24.0, 30.5], c=[0.1, 0.25], options={"max_iterations": 2})
        written = run_experiment(ExperimentConfig(**config, output_dir=str(out_dir)))
        traces = sorted(Path(p).name for p in written if Path(p).name.startswith("trace_"))
        assert traces == sorted(
            f"trace_{name}_a9_p{p}_c{c}_M1_s0.csv"
            for p in ("24", "30.5") for name, c in (("gm", "na"), ("soft", "0.1"), ("soft", "0.25"))
        )
        assert len(list(out_dir.glob("trace_*.csv"))) == 6

    def test_sweep_from_config(self, tmp_path):
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": default_scenario_dict(Q=3, users=2),
                    "algorithms": ["baseline"],
                    "antennas": [9],
                    "power_dbm": [24.0],
                    "n_seeds": 2,
                    "output_dir": str(tmp_path / "sweepout"),
                }
            )
        )
        assert cli_main(["sweep", "--config", str(config_path)]) == 0
        assert (tmp_path / "sweepout" / "aggregate.csv").exists()

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["sweep", "--config", str(tmp_path / "nope.json")]) == 1

    def test_unknown_option_is_an_error_line(self, tmp_path, capsys):
        out_dir = tmp_path / "sweepout"
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": default_scenario_dict(Q=3, users=2),
                    "algorithms": ["gm"],
                    "antennas": [9],
                    "output_dir": str(out_dir),
                    "options": {"tolerence": 1e-4},
                }
            )
        )
        assert cli_main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown option 'tolerence'")
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_unknown_key_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # A misspelt top-level key is named with the accepted keys, where it
        # used to be dropped (one seed into out/ instead of three elsewhere).
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "scenario": {"Q": 3, "users": 2}, "algorithms": ["baseline"],
            "n_seed": 3, "output_dri": "elsewhere",
        }))
        assert cli_main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: unknown key 'n_seed'; accepted keys: algorithms, antennas, base_seed, c, "
            "n_seeds, options, output_dir, power_dbm, save_beamformers, scenario"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    @pytest.mark.parametrize(
        "options",
        [{"tolerance": "1e-4"}, {"soft_c": True}, {"max_iterations": 2.5},
         {"tolerance": float("inf")}, {"soft_c": float("inf")}],
    )
    def test_mistyped_option_is_an_error_line(self, tmp_path, capsys, options):
        # An infinite value (JSON reads 1e999 as one) is out of range as well.
        out_dir = tmp_path / "sweepout"
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": default_scenario_dict(Q=3, users=2),
                    "algorithms": ["gm"],
                    "antennas": [9],
                    "output_dir": str(out_dir),
                    "options": options,
                }
            )
        )
        assert cli_main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        (name,) = options
        assert err.startswith(f"error: key '{name}' must be")
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_c_axis_left_out_takes_soft_c(self, tmp_path):
        # The soft_c option sets the c axis a config leaves out; a given c
        # sets soft_c in every soft run. Rows match but for the wallclock.
        doc = {"scenario": {"Q": 3, "users": 3}, "algorithms": ["soft"]}
        variants = {
            "option": {"options": {"soft_c": 1.0}},
            "axis": {"c": [1.0]},
            "given": {"options": {"soft_c": 1.0}, "c": [0.1]},
            "default": {},
        }
        rows = {}
        for name, extra in variants.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**doc, **extra}))
            assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            (row,) = read_csv(tmp_path / name / "summary.csv")[1:]
            rows[name] = row[:-1]
        assert rows["option"][3] == fmt(1.0) and rows["option"] == rows["axis"]
        assert rows["given"][3] == fmt(0.1) and rows["given"] == rows["default"]
        assert rows["option"] != rows["default"]

    @pytest.mark.parametrize(
        "scenario_key, experiment_key",
        [
            ({"users": "3"}, {}),
            ({"M": 1.5}, {}),
            ({}, {"n_seeds": 2.7}),
            ({}, {"base_seed": "1"}),
            # sweep axes: finite real numbers, not NaN, strings or booleans
            ({}, {"c": [float("nan")]}),
            ({}, {"c": ["0.1"]}),
            ({}, {"c": [True]}),
            ({}, {"c": [0.1, -1.0]}),
            ({}, {"antennas": ["9"]}),
            ({}, {"antennas": [9.5]}),
            ({}, {"antennas": 9}),
            ({}, {"power_dbm": [float("inf")]}),
            # algorithms: a list of known names, never a string split into letters
            ({}, {"algorithms": "gm"}),
            ({}, {"algorithms": ["gm", "gmm"]}),
            # repeated sweep entries, 9 and 9.0 being one value
            ({}, {"algorithms": ["gm", "gm"]}),
            ({}, {"antennas": [9, 9.0]}),
            ({}, {"power_dbm": [24, 24.0]}),
            ({}, {"c": [0.1, 0.1]}),
        ],
    )
    def test_mistyped_key_is_an_error_line(self, tmp_path, capsys, scenario_key, experiment_key):
        out_dir = tmp_path / "sweepout"
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "scenario": default_scenario_dict(**{"Q": 3, "users": 2, **scenario_key}),
                    "algorithms": ["gm"],
                    "antennas": [9],
                    "output_dir": str(out_dir),
                    **experiment_key,
                }
            )
        )
        assert cli_main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        (name,) = {**scenario_key, **experiment_key}
        assert err.startswith(f"error: key '{name}' must be")
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "name, change",
        [
            ("scenario", {"scenario": [1]}),
            ("options", {"options": 5}),
            ("save_beamformers", {"save_beamformers": "no"}),
            ("output_dir", {"output_dir": None}),
            ("users", {"scenario": {"Q": 3}}),
            ("algorithms", {"algorithms": ...}),
        ],
        ids=[
            "scenario_list", "options_number", "save_beamformers_string", "output_dir_null",
            "no_users", "no_algorithms",
        ],
    )
    def test_malformed_config_is_an_error_line(self, tmp_path, capsys, name, change):
        # Wrong JSON types and missing required keys (``...`` drops a key) end
        # in one error line naming the key, never a traceback, and nothing is
        # written.
        out_dir = tmp_path / "sweepout"
        doc = {
            "scenario": default_scenario_dict(Q=3, users=2),
            "algorithms": ["gm"],
            "antennas": [9],
            "output_dir": str(out_dir),
            **change,
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({k: v for k, v in doc.items() if v is not ...}))
        assert cli_main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: key '{name}' ")
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_config_not_an_object_is_an_error_line(self, tmp_path, capsys):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps([{"algorithms": ["gm"]}]))
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: an experiment config must be a JSON object")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_mc_samples_flag_removed(self, tmp_path):
        out_dir = tmp_path / "res"
        argv = ["run", "--algorithm", "gm", "--mc-samples", "5000", "--out", str(out_dir)]
        assert cli_main(argv) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--power-dbm", "nan"], ["--power-dbm", "inf"], ["--Q", "2", "--M", "3"]],
        ids=["nan_power", "inf_power", "M_above_Q"],
    )
    def test_run_flags_checked_before_writing(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "res"
        argv = ["run", "--algorithm", "gm", "--Q", "2", "--users", "2", *flags, "--out", str(out_dir)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_design_runtime_error_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        from slnrbeam import optimizers

        def failing(scenario, stats, options=None):
            raise RuntimeError("power price residual 1.233e-04 exceeds 1e-4 * budget")

        monkeypatch.setitem(optimizers.ALGORITHMS, "gm", failing)
        argv = ["run", "--algorithm", "gm", "--Q", "2", "--users", "2", "--out", str(tmp_path / "res")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: power price residual 1.233e-04 exceeds 1e-4 * budget\n"
