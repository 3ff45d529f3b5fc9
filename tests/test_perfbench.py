"""The benchmark's result line: strict JSON, a correct run, every declared metric.

Runs one traced ``cli_sweep`` pass of ``perfbench/run.py`` (about 7 s) and
reads its last line as the benchmark's consumer does. A non-finite metric
(``json.dumps`` writes a bare ``NaN`` or ``Infinity``) or a layer function
folded away (its spans drop out of the line) fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_traced_cli_sweep_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_sweep", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
