"""Experiment orchestration and CSV reporting.

Configuration is a JSON document with a scenario template, the algorithms to
run, and sweep axes (antenna counts as Q^2 values, power in dBm, smoothing
coefficients for the soft algorithm). Power is converted between dBm and
watts only at this boundary; everything below works in linear units.

A scenario is a JSON object with the keys of ``SCENARIO_SCHEMA``, all
optional except Q and users; ``"sigma_watts"`` sets the noise power directly
in place of ``"noise_dbm_per_hz"``. Keys outside this schema are ignored.
Values must be finite JSON numbers (not booleans or strings), Q, users, M
and seed integral ones, in :class:`slnrbeam.channel.Scenario`'s ranges.

Experiment JSON is an object that wraps that under ``"scenario"`` (an
object) and adds ``"algorithms"`` (required), ``"antennas"``,
``"power_dbm"``, ``"c"``, ``"n_seeds"``, ``"base_seed"``, a nonempty string
``"output_dir"``, a boolean ``"save_beamformers"`` and an ``"options"``
object mirroring :class:`slnrbeam.optimizers.AlgoOptions`. The sweep keys
``antennas``, ``power_dbm`` and ``base_seed`` replace the scenario's Q (as
Q^2), ``power_dbm`` and ``seed`` (``SWEEP_KEYS``); one the config leaves out
takes that scenario value, and the scenario must load as it stands. A
``c`` axis left out takes ``options.soft_c`` (else :class:`AlgoOptions`'
default); a given one sets ``soft_c`` in every soft run. The resolved sweep
is ``ExperimentConfig.axes``; the fields keep what the config wrote. Other
keys left out take :class:`ExperimentConfig`'s defaults. Unknown keys of
the experiment object (``ExperimentConfig.from_json``), missing required
keys, unknown option keys, algorithms not given as a list of known names,
values of the wrong JSON type or out of range (sweep axes of finite numbers,
antennas perfect squares, c positive, integral ``n_seeds`` >= 1 and
``base_seed``), a value repeated in ``algorithms`` or a sweep axis (9 and
9.0 being one value) and ``power_dbm`` or ``c`` values that file names print
alike (``file_label``) are rejected when the config is built, before any
file is written, by a ValueError naming the key as the config wrote it. A
config built in Python, or changed by command-line flags, goes through the
same checks.

Outputs per (algorithm, sweep point, seed): a convergence-trace CSV with
columns ``iteration,min_slnr,objective,min_rate_mbps``; plus one shared
``summary.csv`` (a row per run) and one ``aggregate.csv`` (a row per
algorithm and sweep point, averaging the per-seed summaries). The summary
row's rates are the incumbent's, as the design run returned them; its
``min_slnr`` is the final iterate's (``trace.min_slnr[-1]``). Floats
are printed with 17 significant digits so reruns diff byte-identically; the
wallclock column is the only nondeterministic one. With
``save_beamformers`` each run also writes its incumbent matrix W, whatever
the design, as ``{"Q": Q, "columns": W as [re, im] pairs}`` (nested lists of
shape (Q^2, L, 2)).
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (NOISE_DENSITY_DBM_PER_HZ, Scenario, ScenarioError, build_statistics,
                      dbm_to_watt, noise_power_watt)
from .metrics import fairness_cells, nats_to_mbps
from .optimizers import ALGORITHMS, AlgoOptions, run_algorithm

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
AGGREGATE_COLUMNS = ("algorithm", "antennas", "power_dbm", "c", "M", "n_seeds",
                     *(f"mean_{m}" for m in AGGREGATE_METRICS), *(f"se_{m}" for m in AGGREGATE_METRICS),
                     "mean_wallclock_s")
FAIRNESS_METRICS = ("min_max_ratio", "jain")


def fmt(value) -> str:
    """Reproducible CSV cell: floats at 17 significant digits."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def file_label(value: float) -> str:
    """A ``power_dbm`` or ``c`` sweep value as run file names print it ("na":
    no c, outside soft)."""
    return "na" if np.isnan(value) else f"{value:g}"


class SweepAxes(NamedTuple):
    """The sweep a config runs: its axes and first seed, resolved from what
    the config wrote."""

    antennas: list[int]
    power_dbm: list[float]
    c: list[float]
    base_seed: int


@dataclass
class ExperimentConfig:
    """One experiment: a scenario template plus sweep axes.

    The fields keep what the caller wrote (None for a sweep key left out);
    ``axes`` is the sweep resolved from them, so ``dataclasses.replace``
    resolves it afresh.
    """

    scenario: dict
    algorithms: list[str]
    antennas: list[int] | None = None
    power_dbm: list[float] | None = None
    c: list[float] | None = None
    n_seeds: int = 1
    base_seed: int | None = None
    output_dir: str | os.PathLike = "out"
    options: dict = field(default_factory=dict)
    save_beamformers: bool = False
    axes: SweepAxes = field(init=False)

    def __post_init__(self):
        for key, kind, wanted in (
            ("scenario", dict, "an object"),
            ("options", dict, "an object"),
            ("output_dir", (str, os.PathLike), "a nonempty string"),
            ("save_beamformers", bool, "true or false"),
        ):
            if not isinstance(getattr(self, key), kind) or getattr(self, key) == "":
                raise ValueError(f"key {key!r} must be {wanted}, got {getattr(self, key)!r}")
        accepted = sorted(f.name for f in fields(AlgoOptions))
        for key in self.options:
            if key not in accepted:
                raise ValueError(f"unknown option {key!r}; accepted options: {', '.join(accepted)}")
        options = AlgoOptions(**self.options)  # checks the values, before any file is written
        names = sorted(ALGORITHMS)
        known = isinstance(self.algorithms, list) and all(a in names for a in self.algorithms)
        if not known or not self.algorithms:
            raise ValueError(f"key 'algorithms' must be a list of {names}, got {self.algorithms!r}")
        _distinct("algorithms", self.algorithms)
        # The template loads as it stands, so a run's range error comes from a
        # sweep key; one left out takes the value of the scenario key it
        # replaces, and a c axis left out takes the soft_c option.
        scenario_from_dict(self.scenario)
        template = {**default_scenario_dict(), **self.scenario}
        antennas = [template["Q"] ** 2] if self.antennas is None else self.antennas
        power_dbm = [template["power_dbm"]] if self.power_dbm is None else self.power_dbm
        c = [options.soft_c] if self.c is None else self.c
        base_seed = template["seed"] if self.base_seed is None else self.base_seed
        self.axes = axes = SweepAxes(
            _axis("antennas", antennas, integral=True), _axis("power_dbm", power_dbm), _axis("c", c),
            _number("base_seed", base_seed, integral=True),
        )
        if any(n < 1 or round(n**0.5) ** 2 != n for n in axes.antennas):
            raise ValueError(f"key 'antennas' must be perfect squares, got {axes.antennas}")
        if any(cc <= 0 for cc in axes.c):
            raise ValueError(f"key 'c' must be positive, got {axes.c}")
        for key in ("power_dbm", "c"):  # each run's files are named by its labels
            by_label = {}
            for value in getattr(axes, key):
                first = by_label.setdefault(file_label(value), value)
                if first != value:
                    raise ValueError(f"key {key!r} values {first!r} and {value!r} both print as "
                                     f"{file_label(value)!r} in file names")
        self.n_seeds = _number("n_seeds", self.n_seeds, integral=True)
        if self.n_seeds < 1:
            raise ValueError(f"key 'n_seeds' must be >= 1, got {self.n_seeds}")
        for n_ant in axes.antennas:
            for power in axes.power_dbm:
                scenario_from_dict(self.run_spec(n_ant, power, axes.base_seed), SWEEP_KEYS)

    def run_spec(self, antennas: int, power_dbm: float, seed: int) -> dict:
        """The scenario template at one sweep point and seed."""
        return {**self.scenario, "Q": int(round(np.sqrt(antennas))), "power_dbm": power_dbm, "seed": seed}

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        """The config a JSON file holds; keys it leaves out take the defaults,
        and a key it does not know is rejected."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"an experiment config must be a JSON object, got {data!r}")
        accepted = sorted(f.name for f in fields(cls) if f.init)
        for key in sorted(data):
            if key not in accepted:
                raise ValueError(f"unknown key {key!r}; accepted keys: {', '.join(accepted)}")
        for key in ("scenario", "algorithms"):
            if key not in data:
                raise ValueError(f"key {key!r} is required")
        return cls(**data)


def _number(key: str, value, integral: bool = False):
    """``value`` as a float, or an int if ``integral``; ValueError naming
    ``key`` unless it is a finite real number, integral if so asked."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"key {key!r} must be a finite number, got {value!r}")
    if not integral:
        return float(value)
    if value != int(value):
        raise ValueError(f"key {key!r} must be an integer, got {value!r}")
    return int(value)


def _distinct(key: str, values: list) -> list:
    """``values``; ValueError naming ``key`` if one of them repeats."""
    if len(set(values)) != len(values):
        raise ValueError(f"key {key!r} must be a list without repeats, got {values!r}")
    return values


def _axis(key: str, values, integral: bool = False) -> list:
    """A sweep axis as a nonempty list of distinct finite real numbers,
    integral ones if so asked; ValueError naming ``key`` otherwise."""
    if not isinstance(values, list) or not values:
        raise ValueError(f"key {key!r} must be a nonempty list, got {values!r}")
    return _distinct(key, [_number(key, value, integral) for value in values])


# Each scenario key a sweep key replaces, with that sweep key.
SWEEP_KEYS = {"Q": "antennas", "power_dbm": "power_dbm", "seed": "base_seed"}

# The scenario schema in JSON units, in the order ``slnrbeam scenario gen``
# writes it: each key with its default (that of ``channel.Scenario``), the
# Scenario field it sets and the conversion from the key's unit (None: the
# value as it stands). Integer defaults mark the integral keys.
# ``scenario_from_dict`` requires Q and users; only ``default_scenario_dict``
# defaults them.
SCENARIO_SCHEMA = {
    "Q": (4, "Q", None),  # side length of the square array
    "users": (3, "L", None),  # number of downlink users
    "M": (1, "M", None),  # outer products per beamformer
    "power_dbm": (24.0, "P", dbm_to_watt),  # transmit power budget
    "bandwidth_hz": (10e6, "bandwidth", None),
    "cell_radius_m": (200.0, "cell_radius", None),
    "bs_height_m": (10.0, "bs_height", None),
    "ue_height_m": (1.5, "ue_height", None),
    "shadow_std_db": (7.8, "sigma_sf", None),
    "azimuth_spread_deg": (5.0, "sigma_alpha", lambda deg: float(np.deg2rad(deg))),
    "elevation_spread_deg": (5.0, "sigma_beta", lambda deg: float(np.deg2rad(deg))),
    # sigma through noise_power_watt over the bandwidth; unread when "sigma_watts" is given
    "noise_dbm_per_hz": (NOISE_DENSITY_DBM_PER_HZ, "sigma", None),
    "seed": (0, "seed", None),
}


def scenario_from_dict(spec: dict, sweep_keys: dict | None = None) -> Scenario:
    """Build a Scenario from the JSON schema, checking types and converting units.

    A value out of :class:`Scenario`'s range is a ValueError naming its key,
    or the sweep key ``sweep_keys`` gives for it when a sweep set the value.
    """

    def get(key: str):
        if key not in spec and key in ("Q", "users"):
            raise ValueError(f"key {key!r} is required")
        default, _, unit = SCENARIO_SCHEMA[key]
        value = _number(key, spec.get(key, default), integral=isinstance(default, int))
        return value if unit is None else unit(value)

    keys = {name: key for key, (_, name, _) in SCENARIO_SCHEMA.items()}  # the key that sets each field
    values = {name: get(key) for name, key in keys.items() if name != "sigma"}
    if spec.get("sigma_watts") is not None:
        keys["sigma"], values["sigma"] = "sigma_watts", _number("sigma_watts", spec["sigma_watts"])
    else:
        values["sigma"] = noise_power_watt(values["bandwidth"], get("noise_dbm_per_hz"))
    try:
        return Scenario(**values)
    except ScenarioError as err:
        key = keys[err.field]
        raise ValueError(f"key {(sweep_keys or {}).get(key, key)!r} must be {err.rule}, got {spec[key]!r}") from None


def default_scenario_dict(**overrides) -> dict:
    """The scenario schema at its defaults, with ``overrides`` applied."""
    return {**{key: default for key, (default, _, _) in SCENARIO_SCHEMA.items()}, **overrides}


@dataclass(frozen=True)
class _RunKey:
    algorithm: str
    antennas: int
    power_dbm: float
    c: float  # nan for algorithms that ignore it
    seed: int

    def trace_name(self, m_count: int) -> str:
        return (
            f"trace_{self.algorithm}_a{self.antennas}_p{file_label(self.power_dbm)}"
            f"_c{file_label(self.c)}_M{m_count}_s{self.seed}.csv"
        )


def _enumerate_runs(config: ExperimentConfig) -> list[_RunKey]:
    axes = config.axes
    return [
        _RunKey(algorithm, antennas, power, c_val, axes.base_seed + idx)
        for algorithm in config.algorithms
        for antennas in sorted(axes.antennas)
        for power in axes.power_dbm
        for c_val in (axes.c if algorithm == "soft" else [float("nan")])
        for idx in range(config.n_seeds)
    ]


def _write_csv(path: Path, header, rows) -> str:
    """Write one table, every cell through ``fmt``; returns the path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(cell) for cell in row] for row in rows)
    return str(path)


def _execute_run(key: _RunKey, config: ExperimentConfig, out_dir: Path) -> tuple[dict, list[str]]:
    """One design run: its summary row by ``SUMMARY_COLUMNS`` and the paths
    it wrote (its trace, then its checkpoint if any)."""
    scenario = scenario_from_dict(config.run_spec(key.antennas, key.power_dbm, key.seed))
    stats = build_statistics(scenario)
    opt_kwargs = dict(config.options)
    if not np.isnan(key.c):
        opt_kwargs["soft_c"] = key.c
    options = AlgoOptions(**opt_kwargs)
    start = time.perf_counter()
    result = run_algorithm(key.algorithm, scenario, stats, options)
    wallclock = time.perf_counter() - start

    trace = result.trace
    trace_name = key.trace_name(scenario.M)
    rates = nats_to_mbps(trace.min_rate_nats, scenario.bandwidth)
    paths = [_write_csv(out_dir / trace_name, TRACE_COLUMNS,
                        zip(trace.step, trace.min_slnr, trace.objective, rates))]
    if config.save_beamformers:
        checkpoint = out_dir / trace_name.replace("trace_", "beamformers_").replace(".csv", ".json")
        w = result.incumbent_matrix
        with open(checkpoint, "w") as fh:
            json.dump({"Q": scenario.Q, "columns": np.stack([w.real, w.imag], axis=-1).tolist()}, fh)
        paths.append(str(checkpoint))

    return {
        "algorithm": key.algorithm,
        "antennas": key.antennas,
        "power_dbm": key.power_dbm,
        "c": key.c,
        "M": scenario.M,
        "seed": key.seed,
        "min_slnr": trace.min_slnr[-1],
        **fairness_cells(nats_to_mbps(result.incumbent_rates, scenario.bandwidth)),
        "iterations": result.iterations,
        "converged": result.converged,
        "wallclock_s": wallclock,
    }, paths


def _aggregate_rows(rows: list[dict]) -> list[list]:
    """One row by ``AGGREGATE_COLUMNS`` per (algorithm, sweep point): the
    per-seed summaries' means and standard errors."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[col] for col in AGGREGATE_COLUMNS[:5]), []).append(row)  # algorithm, point
    table = []
    for group_key in sorted(groups, key=lambda k: tuple(map(str, k))):
        members = groups[group_key]
        columns = [np.array([m[metric] for m in members], dtype=float) for metric in AGGREGATE_METRICS]
        se = [vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0 for vals in columns]
        wallclock = np.mean([m["wallclock_s"] for m in members])
        table.append([*group_key, len(members), *(vals.mean() for vals in columns), *se, wallclock])
    return table


def run_experiment(config: ExperimentConfig) -> list[str]:
    """Run every (algorithm, sweep point, seed) and write the report files.

    Returns the list of written paths: each run's trace CSV (and checkpoint,
    with ``save_beamformers``) in run order, then ``summary.csv`` and
    ``aggregate.csv``.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        raise OSError(f"output directory {out_dir} is not writable: {err}")

    runs = [_execute_run(key, config, out_dir) for key in _enumerate_runs(config)]
    rows = [row for row, _ in runs]
    written = [path for _, paths in runs for path in paths]
    summary = [[row[col] for col in SUMMARY_COLUMNS] for row in rows]
    return written + [
        _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, summary),
        _write_csv(out_dir / "aggregate.csv", AGGREGATE_COLUMNS, _aggregate_rows(rows)),
    ]


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
    cells: dict[tuple, dict] = {}  # the first row of each (algorithm, antennas)
    for r in rows:
        points.setdefault(r["algorithm"], set()).add((r["power_dbm"], r["c"], r["M"]))
        cells.setdefault((r["algorithm"], int(r["antennas"])), r)
    for algorithm, seen in sorted(points.items()):
        if len(seen) > 1:
            listed = ", ".join(f"(power_dbm={float(p):g}, c={float(c):g}, M={m})" for p, c, m in sorted(seen))
            raise ValueError(f"{aggregate_path} holds {len(seen)} sweep points for {algorithm}: {listed}; "
                             "the fairness table takes one (power_dbm, c, M) point per algorithm")
    antenna_counts = sorted({n for _, n in cells})
    table = [
        [algorithm, metric]
        + [float(cells[algorithm, n][f"mean_{metric}"]) if (algorithm, n) in cells else "" for n in antenna_counts]
        for algorithm in sorted(points)
        for metric in FAIRNESS_METRICS
    ]
    return _write_csv(out_dir / "fairness.csv", ["algorithm", "metric"] + [f"a{n}" for n in antenna_counts], table)
