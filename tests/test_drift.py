"""The drift report's comparison on synthetic snapshots."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "drift.py"


@pytest.fixture(scope="module")
def drift():
    spec = importlib.util.spec_from_file_location("drift", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(design, rate, iterations=4, stop="tolerance", gap=None, trace="t"):
    return {
        "design": design, "incumbent": "i", "final": "f", "trace": trace,
        "iterations": iterations, "stop_reason": stop, "min_rate_nats": rate, "gap_max": gap,
    }


def test_run_set_has_76_distinct_runs(drift):
    runs = list(drift.run_set())
    assert len(runs) == 76
    keys = {(size, tuple(kw.items()), design, c) for size, kw, design, c in runs}
    assert len(keys) == 76


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
        "d": run("soft c=0.1", 0.2, iterations=5, stop="stalled", trace="u"),
    }
    lines = drift.compare(before, after)
    assert lines[0] == "gm: 1/2 identical, largest min-rate move 4e-10 relative"
    assert lines[1] == "maxmin: 0/1 identical, largest min-rate move 0 relative, largest gap 3e-06"
    assert lines[2] == "soft c=0.1: 0/1 identical, largest min-rate move 0 relative"
    assert lines[3:] == ["d: iterations 4 -> 5", "d: stop_reason tolerance -> stalled"]

    # the command line reads the two files and prints the same lines
    paths = []
    for name, snap in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(snap))
    assert drift.main(["compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_compare_names_unmatched_runs(drift):
    lines = drift.compare({"a": run("gm", 1.0), "x": run("gm", 1.0)}, {"a": run("gm", 1.0)})
    assert lines == ["runs in one snapshot only: x", "gm: 1/1 identical, largest min-rate move 0 relative"]
