"""Run the three designs plus the baseline on one desk scenario.

Prints the per-half-iteration traces (minimum SLNR, driving objective, and
minimum ergodic rate) and writes them as plot-ready CSV files under
demo_output/.
"""

import csv
from pathlib import Path

import numpy as np

from slnrbeam import AlgoOptions, Scenario, build_statistics, nats_to_mbps
from slnrbeam.optimizers import run_baseline, run_gm, run_maxmin, run_soft

scenario = Scenario(Q=4, L=3, M=1, seed=7)
stats = build_statistics(scenario)

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

for name, runner in (
    ("maxmin", run_maxmin),
    ("gm", run_gm),
    ("soft", run_soft),
    ("baseline", run_baseline),
):
    result = runner(scenario, stats, AlgoOptions())
    best = nats_to_mbps(result.rate_min_nats, scenario.bandwidth)
    print(f"{name:9s} {result.iterations:3d} iterations, stopped on {result.stop_reason}, "
          f"min SLNR {result.trace[0].min_slnr:.4f} -> {result.trace[-1].min_slnr:.4f}, "
          f"best minimum rate {best:.3f} Mbps")
    path = out_dir / f"trace_{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "min_slnr", "objective", "min_rate_mbps"])
        for entry in result.trace:
            rate = nats_to_mbps(max(entry.min_rate_nats, 0.0), scenario.bandwidth) \
                if np.isfinite(entry.min_rate_nats) else float("nan")
            writer.writerow([entry.step, entry.min_slnr, entry.objective, rate])
    print(f"          trace written to {path}")
