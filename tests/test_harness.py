"""Experiment harness: file contracts, determinism, aggregation, CLI."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from slnrbeam.cli import main as cli_main
from slnrbeam.harness import (
    ExperimentConfig,
    default_scenario_dict,
    report_fairness,
    run_experiment,
    scenario_from_dict,
)
from slnrbeam.channel import dbm_to_watt


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

    @pytest.mark.parametrize("key", ["tolerence", "mc_samples", "rate_every"])
    def test_unknown_option_rejected(self, tmp_path, key):
        # A misspelt key, or a knob the options no longer carry, is named
        # together with the accepted keys when the config is built.
        with pytest.raises(ValueError, match=rf"'{key}'.*max_iterations, soft_c, tolerance"):
            small_config(tmp_path / "out", options={key: 1})
        assert not (tmp_path / "out").exists()

    def test_beamformer_checkpoints_opt_in(self, tmp_path):
        from slnrbeam.beamformer import from_json_dict, total_power

        config = small_config(tmp_path / "out", save_beamformers=True)
        files = run_experiment(config)
        checkpoints = [f for f in files if "beamformers_" in f]
        assert len(checkpoints) == 1
        with open(checkpoints[0]) as fh:
            bf = from_json_dict(json.load(fh))
        assert bf.Q == 3
        assert total_power(bf) > 0.0


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

    def test_negative_c_rejected(self, tmp_path):
        code = cli_main(["run", "--algorithm", "soft", "--c", "-1", "--out", str(tmp_path)])
        assert code == 2

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

    @pytest.mark.parametrize(
        "options", [{"tolerance": "1e-4"}, {"soft_c": True}, {"max_iterations": 2.5}]
    )
    def test_mistyped_option_is_an_error_line(self, tmp_path, capsys, options):
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
        assert err.startswith(f"error: {name} must be")
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "scenario_key, experiment_key",
        [({"users": "3"}, {}), ({"M": 1.5}, {}), ({}, {"n_seeds": 2.7}), ({}, {"base_seed": "1"})],
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

    def test_mc_samples_flag_removed(self, tmp_path):
        out_dir = tmp_path / "res"
        argv = ["run", "--algorithm", "gm", "--mc-samples", "5000", "--out", str(out_dir)]
        assert cli_main(argv) == 2
        assert not out_dir.exists()
