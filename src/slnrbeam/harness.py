"""Experiment orchestration and CSV reporting.

Configuration is a JSON document with a scenario template, the algorithms to
run, and sweep axes (antenna counts as Q^2 values, power in dBm, smoothing
coefficients for the soft algorithm). Power is converted between dBm and
watts only at this boundary; everything below works in linear units.

Scenario JSON schema (all keys optional except Q and users)::

    {
      "Q": 4,                  side length of the square array
      "users": 3,              number of downlink users
      "M": 1,                  outer products per beamformer
      "power_dbm": 24.0,       transmit power budget
      "bandwidth_hz": 1e7,
      "cell_radius_m": 200.0,
      "bs_height_m": 10.0,
      "ue_height_m": 1.5,
      "shadow_std_db": 7.8,
      "azimuth_spread_deg": 5.0,
      "elevation_spread_deg": 5.0,
      "noise_dbm_per_hz": -174.0,   or "sigma_watts" to set noise directly
      "seed": 0
    }

Keys outside this schema are ignored. Values must be finite JSON numbers
(not booleans or strings), and Q, users, M and seed integral ones; anything
else is rejected when the config is built, before any file is written.

Experiment JSON wraps that under ``"scenario"`` and adds ``"algorithms"``,
``"antennas"``, ``"power_dbm"``, ``"c"``, ``"n_seeds"``, ``"base_seed"``,
``"output_dir"`` and an ``"options"`` object mirroring
:class:`slnrbeam.optimizers.AlgoOptions`; unknown option keys, and an
``n_seeds`` or ``base_seed`` that is not an integral number, are rejected
when the config is built, before any file is written.

Outputs per (algorithm, sweep point, seed): a convergence-trace CSV with
columns ``iteration,min_slnr,objective,min_rate_mbps``; plus one shared
``summary.csv`` (a row per run) and one ``aggregate.csv`` (a row per
algorithm and sweep point, averaging the per-seed summaries). Floats are
printed with 17 significant digits so reruns diff byte-identically; the
wallclock column is the only nondeterministic one.
"""

from __future__ import annotations

import csv
import json
import numbers
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import Scenario, build_statistics, dbm_to_watt
from .metrics import nats_to_mbps, rate_report
from .optimizers import AlgoOptions, run_algorithm

TRACE_COLUMNS = ("iteration", "min_slnr", "objective", "min_rate_mbps")
SUMMARY_COLUMNS = (
    "algorithm",
    "antennas",
    "power_dbm",
    "c",
    "M",
    "seed",
    "min_slnr",
    "min_rate_mbps",
    "max_rate_mbps",
    "min_max_ratio",
    "jain",
    "iterations",
    "converged",
    "wallclock_s",
)
AGGREGATE_METRICS = ("min_slnr", "min_rate_mbps", "max_rate_mbps", "min_max_ratio", "jain")
FAIRNESS_METRICS = ("min_max_ratio", "jain")


def fmt(value) -> str:
    """Reproducible CSV cell: floats at 17 significant digits."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


@dataclass
class ExperimentConfig:
    """One experiment: a scenario template plus sweep axes."""

    scenario: dict
    algorithms: list[str]
    antennas: list[int] = field(default_factory=lambda: [16])
    power_dbm: list[float] = field(default_factory=lambda: [24.0])
    c: list[float] = field(default_factory=lambda: [0.1])
    n_seeds: int = 1
    base_seed: int = 0
    output_dir: str = "out"
    options: dict = field(default_factory=dict)
    save_beamformers: bool = False

    def __post_init__(self):
        accepted = sorted(f.name for f in fields(AlgoOptions))
        for key in self.options:
            if key not in accepted:
                raise ValueError(
                    f"unknown option {key!r}; accepted options: {', '.join(accepted)}"
                )
        AlgoOptions(**self.options)  # checks the values, before any file is written
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if not self.antennas or not self.power_dbm or not self.c:
            raise ValueError("sweep axes must be nonempty")
        for n_ant in self.antennas:
            root = int(round(np.sqrt(n_ant)))
            if root * root != n_ant or root < 1:
                raise ValueError(f"antenna counts must be perfect squares, got {n_ant}")
        if any(p <= 0 for p in map(dbm_to_watt, self.power_dbm)):
            raise ValueError("power values must be finite")
        for n_ant in self.antennas:
            for power in self.power_dbm:
                scenario_from_dict(self.run_spec(n_ant, power, self.base_seed))
        if any(cc <= 0 for cc in self.c):
            raise ValueError("smoothing coefficients must be positive")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")

    def run_spec(self, antennas: int, power_dbm: float, seed: int) -> dict:
        """The scenario template at one sweep point and seed."""
        return {**self.scenario, "Q": int(round(np.sqrt(antennas))), "power_dbm": power_dbm, "seed": seed}

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        return cls(
            scenario=data.get("scenario", {}),
            algorithms=list(data["algorithms"]),
            antennas=list(data.get("antennas", [16])),
            power_dbm=list(data.get("power_dbm", [24.0])),
            c=list(data.get("c", [0.1])),
            n_seeds=_number(data, "n_seeds", 1, integral=True),
            base_seed=_number(data, "base_seed", 0, integral=True),
            output_dir=str(data.get("output_dir", "out")),
            options=dict(data.get("options", {})),
            save_beamformers=bool(data.get("save_beamformers", False)),
        )


def _number(spec: dict, key: str, default=None, integral: bool = False):
    """``spec[key]`` (required without a ``default``) as a float, or an int if
    ``integral``; ValueError unless it is a finite real number, integral if
    so asked."""
    value = spec[key] if default is None else spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"key {key!r} must be a finite number, got {value!r}")
    if not integral:
        return float(value)
    if value != int(value):
        raise ValueError(f"key {key!r} must be an integer, got {value!r}")
    return int(value)


def scenario_from_dict(spec: dict) -> Scenario:
    """Build a Scenario from the JSON schema, checking types and converting units."""
    bandwidth = _number(spec, "bandwidth_hz", 10e6)
    sigma = None
    if spec.get("sigma_watts") is not None:
        sigma = _number(spec, "sigma_watts")
    elif "noise_dbm_per_hz" in spec:
        sigma = dbm_to_watt(_number(spec, "noise_dbm_per_hz")) * bandwidth
    return Scenario(
        Q=_number(spec, "Q", integral=True),
        L=_number(spec, "users", integral=True),
        M=_number(spec, "M", 1, integral=True),
        P=dbm_to_watt(_number(spec, "power_dbm", 24.0)),
        sigma=sigma,
        bandwidth=bandwidth,
        cell_radius=_number(spec, "cell_radius_m", 200.0),
        bs_height=_number(spec, "bs_height_m", 10.0),
        ue_height=_number(spec, "ue_height_m", 1.5),
        sigma_sf=_number(spec, "shadow_std_db", 7.8),
        sigma_alpha=float(np.deg2rad(_number(spec, "azimuth_spread_deg", 5.0))),
        sigma_beta=float(np.deg2rad(_number(spec, "elevation_spread_deg", 5.0))),
        seed=_number(spec, "seed", 0, integral=True),
    )


def default_scenario_dict(**overrides) -> dict:
    spec = {
        "Q": 4,
        "users": 3,
        "M": 1,
        "power_dbm": 24.0,
        "bandwidth_hz": 10e6,
        "cell_radius_m": 200.0,
        "bs_height_m": 10.0,
        "ue_height_m": 1.5,
        "shadow_std_db": 7.8,
        "azimuth_spread_deg": 5.0,
        "elevation_spread_deg": 5.0,
        "noise_dbm_per_hz": -174.0,
        "seed": 0,
    }
    spec.update(overrides)
    return spec


@dataclass(frozen=True)
class _RunKey:
    algorithm: str
    antennas: int
    power_dbm: float
    c: float  # nan for algorithms that ignore it
    m_count: int
    seed: int

    def c_label(self) -> str:
        return "na" if np.isnan(self.c) else f"{self.c:g}"

    def trace_name(self) -> str:
        return (
            f"trace_{self.algorithm}_a{self.antennas}_p{self.power_dbm:g}"
            f"_c{self.c_label()}_M{self.m_count}_s{self.seed}.csv"
        )


def _enumerate_runs(config: ExperimentConfig) -> list[_RunKey]:
    m_count = int(config.scenario.get("M", 1))
    runs = []
    for algorithm in config.algorithms:
        c_axis = config.c if algorithm == "soft" else [float("nan")]
        for antennas in sorted(config.antennas):
            for power in config.power_dbm:
                for c_val in c_axis:
                    for idx in range(config.n_seeds):
                        runs.append(
                            _RunKey(
                                algorithm=algorithm,
                                antennas=antennas,
                                power_dbm=float(power),
                                c=float(c_val),
                                m_count=m_count,
                                seed=config.base_seed + idx,
                            )
                        )
    return runs


def _execute_run(key: _RunKey, config: ExperimentConfig, out_dir: Path) -> dict:
    scenario = scenario_from_dict(config.run_spec(key.antennas, key.power_dbm, key.seed))
    stats = build_statistics(scenario)
    opt_kwargs = dict(config.options)
    if not np.isnan(key.c):
        opt_kwargs["soft_c"] = key.c
    options = AlgoOptions(**opt_kwargs)
    start = time.perf_counter()
    result = run_algorithm(key.algorithm, scenario, stats, options)
    wallclock = time.perf_counter() - start

    trace_path = out_dir / key.trace_name()
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for entry in result.trace:
            writer.writerow(
                [
                    fmt(entry.step),
                    fmt(entry.min_slnr),
                    fmt(entry.objective),
                    fmt(nats_to_mbps(entry.min_rate_nats, scenario.bandwidth))
                    if np.isfinite(entry.min_rate_nats)
                    else "nan",
                ]
            )

    extra_paths = []
    if config.save_beamformers:
        from .beamformer import to_json_dict

        checkpoint = out_dir / key.trace_name().replace("trace_", "beamformers_").replace(
            ".csv", ".json"
        )
        if result.incumbent is not None:
            doc = to_json_dict(result.incumbent)
        else:
            w = result.incumbent_matrix
            doc = {
                "Q": scenario.Q,
                "columns": np.stack([w.real, w.imag], axis=-1).tolist(),
            }
        with open(checkpoint, "w") as fh:
            json.dump(doc, fh)
        extra_paths.append(str(checkpoint))

    report = rate_report(result.incumbent_matrix, stats, scenario.sigma, scenario.bandwidth)
    return {
        "extra_paths": extra_paths,
        "algorithm": key.algorithm,
        "antennas": key.antennas,
        "power_dbm": key.power_dbm,
        "c": key.c,
        "M": key.m_count,
        "seed": key.seed,
        "min_slnr": result.trace[-1].min_slnr,
        "min_rate_mbps": report.min_rate_mbps,
        "max_rate_mbps": report.max_rate_mbps,
        "min_max_ratio": report.min_max_ratio,
        "jain": report.jain,
        "iterations": result.iterations,
        "converged": result.converged,
        "wallclock_s": wallclock,
        "trace_path": str(trace_path),
    }


def run_experiment(config: ExperimentConfig) -> list[str]:
    """Run every (algorithm, sweep point, seed) and write the report files.

    Returns the list of written paths: one trace CSV per run plus
    ``summary.csv`` and ``aggregate.csv``.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        raise OSError(f"output directory {out_dir} is not writable: {err}")

    rows = [_execute_run(key, config, out_dir) for key in _enumerate_runs(config)]

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([fmt(row[col]) for col in SUMMARY_COLUMNS])

    aggregate_path = out_dir / "aggregate.csv"
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        group_key = (row["algorithm"], row["antennas"], row["power_dbm"], row["c"], row["M"])
        groups.setdefault(group_key, []).append(row)
    agg_columns = (
        ["algorithm", "antennas", "power_dbm", "c", "M", "n_seeds"]
        + [f"mean_{m}" for m in AGGREGATE_METRICS]
        + [f"se_{m}" for m in AGGREGATE_METRICS]
        + ["mean_wallclock_s"]
    )
    with open(aggregate_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(agg_columns)
        for group_key in sorted(groups, key=lambda k: tuple(map(str, k))):
            members = groups[group_key]
            record = dict(zip(("algorithm", "antennas", "power_dbm", "c", "M"), group_key))
            record["n_seeds"] = len(members)
            for metric in AGGREGATE_METRICS:
                vals = np.array([m[metric] for m in members], dtype=float)
                record[f"mean_{metric}"] = float(vals.mean())
                record[f"se_{metric}"] = (
                    float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
                )
            record["mean_wallclock_s"] = float(
                np.mean([m["wallclock_s"] for m in members])
            )
            writer.writerow([fmt(record[col]) for col in agg_columns])

    written = [row["trace_path"] for row in rows]
    for row in rows:
        written.extend(row["extra_paths"])
    return written + [str(summary_path), str(aggregate_path)]


def report_fairness(output_dir: str | Path) -> str:
    """Tabulate fairness metrics per algorithm across antenna counts.

    Reads ``aggregate.csv`` from ``output_dir`` and writes ``fairness.csv``
    with one row per (algorithm, metric) and one column per antenna count in
    ascending order. Raises FileNotFoundError naming the missing input, and
    ValueError naming any algorithm aggregated at more than one
    (power_dbm, c, M) point, which the table has no column for.
    """
    out_dir = Path(output_dir)
    aggregate_path = out_dir / "aggregate.csv"
    if not aggregate_path.exists():
        raise FileNotFoundError(f"missing input file: {aggregate_path}")
    with open(aggregate_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise FileNotFoundError(f"no aggregate rows found in {aggregate_path}")
    points: dict[str, set] = {}
    for r in rows:
        points.setdefault(r["algorithm"], set()).add((r["power_dbm"], r["c"], r["M"]))
    for algorithm, seen in sorted(points.items()):
        if len(seen) > 1:
            listed = ", ".join(f"(power_dbm={float(p):g}, c={float(c):g}, M={m})" for p, c, m in sorted(seen))
            raise ValueError(f"{aggregate_path} holds {len(seen)} sweep points for {algorithm}: {listed}; "
                             "the fairness table takes one (power_dbm, c, M) point per algorithm")
    antenna_counts = sorted({int(r["antennas"]) for r in rows})
    algorithms = sorted(points)
    fairness_path = out_dir / "fairness.csv"
    with open(fairness_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "metric"] + [f"a{n}" for n in antenna_counts])
        for algorithm in algorithms:
            for metric in FAIRNESS_METRICS:
                cells = []
                for n_ant in antenna_counts:
                    match = [
                        r
                        for r in rows
                        if r["algorithm"] == algorithm and int(r["antennas"]) == n_ant
                    ]
                    cells.append(fmt(float(match[0][f"mean_{metric}"])) if match else "")
                writer.writerow([algorithm, metric] + cells)
    return str(fairness_path)
