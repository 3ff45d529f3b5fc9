"""The drift report's comparison on synthetic snapshots."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "drift.py"


@pytest.fixture(scope="module")
def drift():
    spec = importlib.util.spec_from_file_location("drift", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(design, rate, iterations=4, stop="tolerance", gap=None, trace="t", others=(1.0,)):
    return {
        "design": design, "incumbent": "i", "final": "f", "trace": trace,
        "iterations": iterations, "stop_reason": stop, "min_rate_nats": rate,
        "rates_nats": [rate, *others], "gap_max": gap,
    }


def test_run_set_has_86_distinct_runs(drift):
    runs = list(drift.run_set())
    assert len(runs) == 86
    keys = {(size, tuple(kw.items()), design, c) for size, kw, design, c in runs}
    assert len(keys) == 86
    # seed 107 at M = 2, where the closed-form designs once raised
    assert ("desk", (("Q", 8), ("L", 5), ("M", 2), ("seed", 107)), "gm", None) in keys


def test_compare_reports_counts_moves_and_changes(drift, tmp_path, capsys):
    before = {
        "a": run("gm", 0.5),
        "b": run("gm", 0.25),
        "c": run("maxmin", 0.1, gap=1e-6),
        "d": run("soft c=0.1", 0.2),
    }
    after = {
        "a": run("gm", 0.5),
        "b": run("gm", 0.25 * (1.0 + 4e-10), trace="u"),
        "c": run("maxmin", 0.1, gap=3e-6, trace="u"),
        # a user above the minimum moves while the minimum stays put
        "d": run("soft c=0.1", 0.2, iterations=5, stop="stalled", trace="u", others=(1.0 - 3e-9,)),
    }
    lines = drift.compare(before, after)
    assert lines[0] == (
        "gm: 1/2 identical, largest min-rate move 4e-10 relative, "
        "largest per-user rate move 4e-10 relative"
    )
    assert lines[1] == (
        "maxmin: 0/1 identical, largest min-rate move 0 relative, "
        "largest per-user rate move 0 relative, largest gap 3e-06"
    )
    assert lines[2] == (
        "soft c=0.1: 0/1 identical, largest min-rate move 0 relative, "
        "largest per-user rate move 3e-09 relative"
    )
    assert lines[3:] == ["d: iterations 4 -> 5", "d: stop_reason tolerance -> stalled"]

    # the command line reads the two files and prints the same lines
    paths = []
    for name, snap in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(snap))
    assert drift.main(["compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_compare_reports_slnr_moves_where_both_record_them(drift):
    # Both snapshots record SLNRs: the design line ends with their largest
    # move. A parent snapshot without them (an older tool) prints none.
    before = {"a": {**run("gm", 0.5), "slnrs": [2.0, 4.0]}, "b": {**run("gm", 0.25), "slnrs": [1.0, 1.0]}}
    after = {**before, "a": {**run("gm", 0.5), "slnrs": [2.0, 4.0 * (1.0 + 5e-12)]}}
    assert drift.compare(before, after) == [
        "gm: 2/2 identical, largest min-rate move 0 relative, largest per-user rate move 0 relative, "
        "largest per-user SLNR move 5e-12 relative"
    ]
    older = {key: run("gm", snap["min_rate_nats"]) for key, snap in before.items()}
    assert drift.compare(older, after) == [
        "gm: 2/2 identical, largest min-rate move 0 relative, largest per-user rate move 0 relative"
    ]


def test_compare_names_unmatched_runs(drift):
    lines = drift.compare({"a": run("gm", 1.0), "x": run("gm", 1.0)}, {"a": run("gm", 1.0)})
    assert lines == [
        "runs in one snapshot only: x",
        "gm: 1/1 identical, largest min-rate move 0 relative, largest per-user rate move 0 relative",
    ]


def test_summary_records_every_users_rate(drift):
    from slnrbeam.channel import Scenario, build_statistics
    from slnrbeam.metrics import ergodic_rate_closed, power_gram
    from slnrbeam.optimizers import run_baseline

    sc = Scenario(Q=3, L=3, seed=1)
    stats = build_statistics(sc)
    result = run_baseline(sc, stats)
    w_mat = result.incumbent_matrix
    rates = ergodic_rate_closed(power_gram(w_mat, stats), sc.sigma)
    summary = drift.summarize(result, rates)
    assert summary["rates_nats"] == [float(r) for r in rates]
    assert min(summary["rates_nats"]) == summary["min_rate_nats"]
    json.dumps(summary, allow_nan=False)


def test_snapshot_records_a_raising_run(drift, monkeypatch):
    from slnrbeam import optimizers

    run_algorithm = optimizers.run_algorithm

    def gm_raises(design, *args):
        if design == "gm":
            raise RuntimeError("power price residual 1.233e-04 exceeds 1e-4 * budget")
        return run_algorithm(design, *args)

    monkeypatch.setattr(optimizers, "run_algorithm", gm_raises)
    keywords = dict(Q=3, L=3, M=1, seed=1)
    monkeypatch.setattr(
        drift, "run_set", lambda: iter([("cli", keywords, "gm", None), ("cli", keywords, "baseline", None)])
    )
    runs = drift.snapshot()
    assert runs["cli/gm/Q=3/L=3/M=1/seed=1"] == {
        "design": "gm", "error": "RuntimeError: power price residual 1.233e-04 exceeds 1e-4 * budget",
    }
    assert runs["cli/baseline/Q=3/L=3/M=1/seed=1"]["stop_reason"] == "direct"
    json.dumps(runs, allow_nan=False)


def test_snapshot_records_a_raising_rate_call(drift, monkeypatch):
    # The incumbent's rates are read inside the per-run try: a rate call that
    # raises is that run's error, and the runs after it are still snapshotted.
    from slnrbeam import metrics

    rate_report = metrics.rate_report
    calls = []

    def first_raises(*args):
        calls.append(args)
        if len(calls) == 1:
            raise TypeError("rate_report() takes 3 positional arguments but 4 were given")
        return rate_report(*args)

    monkeypatch.setattr(metrics, "rate_report", first_raises)
    keywords = dict(Q=3, L=3, M=1, seed=1)
    monkeypatch.setattr(
        drift, "run_set", lambda: iter([("cli", keywords, "gm", None), ("cli", keywords, "baseline", None)])
    )
    runs = drift.snapshot()
    assert runs["cli/gm/Q=3/L=3/M=1/seed=1"] == {
        "design": "gm", "error": "TypeError: rate_report() takes 3 positional arguments but 4 were given",
    }
    baseline = runs["cli/baseline/Q=3/L=3/M=1/seed=1"]
    assert baseline["stop_reason"] == "direct" and len(baseline["rates_nats"]) == 3
    assert len(calls) == 2
    # The run keeps the report's per-user SLNRs beside its rates.
    report = rate_report(*calls[1])
    assert baseline["slnrs"] == [float(x) for x in report.slnr]
    assert baseline["rates_nats"] == [float(r) for r in report.rate_nats]


def test_compare_lists_error_transitions(drift):
    failed = {"design": "gm", "error": "RuntimeError: residual"}
    before = {"a": run("gm", 0.5), "b": failed, "c": failed, "d": run("gm", 0.5)}
    after = {"a": run("gm", 0.5), "b": run("gm", 0.25), "c": failed, "d": failed}
    assert drift.compare(before, after) == [
        "gm: 1/1 identical, largest min-rate move 0 relative, largest per-user rate move 0 relative",
        "b: RuntimeError: residual -> ok",
        "c: RuntimeError: residual -> RuntimeError: residual",
        "d: ok -> RuntimeError: residual",
    ]


def test_scan_reports_each_design_on_held_out_seeds(drift, monkeypatch, capsys):
    monkeypatch.setattr(drift, "SCAN_SEEDS", [100, 101])
    runs = list(drift.scan_set())
    assert len(runs) == 20
    held_out = [kw for size, kw, _, _ in runs if size == "scan"]
    assert len(held_out) == 10 and {kw["seed"] for kw in held_out} == {100, 101}
    assert all(kw["Q"] == 8 and kw["L"] == 5 and kw["M"] == 2 for kw in held_out)
    degenerate = [(kw, design) for size, kw, design, _ in runs if size == "degenerate"]
    one_user, one_antenna = dict(Q=4, L=1, M=1, seed=0), dict(Q=1, L=3, M=1, seed=0)
    assert [kw for kw, _ in degenerate] == [one_user] * 5 + [one_antenna] * 5
    assert drift.main(["scan"]) == 0
    lines = capsys.readouterr().out.splitlines()
    designs, block = lines[:5], lines[5:]
    assert [line.split(":")[0] for line in designs] == ["maxmin", "gm", "soft c=0.1", "soft c=1", "baseline"]
    assert designs[0].startswith("maxmin: 2/2 completed, ") and ", largest gap " in designs[0]
    assert ", 0 above 1e-05, largest trace power " in designs[0]
    assert designs[-1].startswith("baseline: 2/2 completed, 2 direct, largest trace power ")
    assert all(", largest trace power P (1 " in line for line in designs)
    # One line per degenerate run with its stop reason; max-min on one user
    # runs to the cap while still improving.
    assert block[0] == "degenerate inputs:" and len(block) == 11
    assert block[1] == "  degenerate/maxmin/Q=4/L=1/M=1/seed=0: max_iterations"
    assert block[5] == "  degenerate/baseline/Q=4/L=1/M=1/seed=0: direct"
    assert all(line.split(": ")[1] in ("tolerance", "max_iterations", "direct") for line in block[1:])


def test_scan_fails_on_errors_power_and_gaps(drift):
    ok = {**run("gm", 0.5), "power_over_budget": 1.0}
    runs = {
        "a": ok,
        "b": {**run("maxmin", 0.1, gap=2e-4), "power_over_budget": 0.9},
        "e": {**run("maxmin", 0.1, gap=1e-5), "power_over_budget": 0.9},
        "c": {**run("gm", 0.4, stop="stalled"), "power_over_budget": 1.0 + 1e-8},
        "d": {"design": "gm", "error": "RuntimeError: residual"},
        "degenerate/soft": {**run("soft", 0.3, stop="stalled"), "power_over_budget": 1.0},
        "degenerate/gm": {"design": "gm", "error": "LinAlgError: singular"},
    }
    lines, passed = drift.scan(runs)
    assert not passed
    assert lines == [
        "gm: 2/3 completed, 1 stalled, 1 tolerance, largest trace power P (1 + 1e-08)",
        "maxmin: 2/2 completed, 2 tolerance, largest gap 0.0002, 1 above 1e-05, largest trace power P (1 - 0.1)",
        "degenerate inputs:",
        "  degenerate/soft: stalled",
        "  degenerate/gm: raised",
        "b: subproblem gap 0.0002 above 0.0001",
        "c: trace power 1.00000001 P exceeds P (1 + 1e-9)",
        "d: RuntimeError: residual",
        "degenerate/gm: LinAlgError: singular",
    ]
    assert drift.scan({"a": ok}) == (["gm: 1/1 completed, 1 tolerance, largest trace power P (1 + 0)"], True)
    # A gap above the design's own target but within the limit is counted,
    # not failed.
    loose = {**run("maxmin", 0.1, gap=2e-5), "power_over_budget": 1.0}
    assert drift.scan({"a": loose}) == ([
        "maxmin: 1/1 completed, 1 tolerance, largest gap 2e-05, 1 above 1e-05, largest trace power P (1 + 0)"
    ], True)


def test_summary_reads_the_trace_by_column(drift):
    # The trace digest covers every column of the record array, in field
    # order; outside max-min the largest gap is None and the level trials 0
    # (the columns read NaN and -1), and max-min's gap and trials add up.
    # The final factor array digests as the azimuth side's bytes, then the
    # elevation side's, each user's M vectors stacked in one row.
    from slnrbeam.channel import Scenario, build_statistics
    from slnrbeam.optimizers import run_algorithm

    sc = Scenario(Q=3, L=3, M=2, seed=1)
    stats = build_statistics(sc)
    for design in ("maxmin", "gm", "soft", "baseline"):
        result = run_algorithm(design, sc, stats)
        table = drift.summarize(result, [1.0])
        trace = result.trace
        columns = [trace.step, trace.min_slnr, trace.objective, trace.min_rate_nats, trace.power,
                   trace.subproblem_gap, trace.subproblem_iterations.astype(float)]
        assert table["trace"] == drift.digest(np.column_stack(columns))
        trials = trace.subproblem_iterations
        if design == "maxmin":
            assert table["gap_max"] == float(np.nanmax(trace.subproblem_gap))
            assert table["level_trials"] == int(trials[1:].sum()) > 0
        else:
            assert table["gap_max"] is None and table["level_trials"] == 0
            assert np.all(np.isnan(trace.subproblem_gap)) and np.all(trials == -1)
        if design == "baseline":
            assert result.final is None and table["final"] is None
        else:
            sides = [side.reshape(sc.L, sc.Q * sc.M) for side in result.final]
            assert table["final"] == drift.digest(*sides)


def test_compare_reports_level_trials(drift):
    before = {"a": {**run("maxmin", 0.1, gap=1e-6), "level_trials": 40},
              "b": {**run("maxmin", 0.2, gap=1e-6), "level_trials": 60}, "c": run("gm", 0.5)}
    after = {"a": {**run("maxmin", 0.1, gap=2e-6, trace="u"), "level_trials": 20},
             "b": {**run("maxmin", 0.2, gap=1e-6), "level_trials": 30}, "c": run("gm", 0.5)}
    assert drift.compare(before, after) == [
        "maxmin: 1/2 identical, largest min-rate move 0 relative, largest per-user rate move 0 "
        "relative, largest gap 2e-06, level trials 100 -> 50",
        "gm: 1/1 identical, largest min-rate move 0 relative, largest per-user rate move 0 relative",
    ]
