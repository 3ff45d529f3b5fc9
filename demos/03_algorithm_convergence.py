"""Run the three designs plus the baseline on one desk scenario.

Prints the per-half-iteration traces (minimum SLNR, driving objective, and
minimum ergodic rate) and writes them as plot-ready CSV files under
demo_output/.
"""

import csv
from pathlib import Path

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
    trace = result.trace
    best = nats_to_mbps(result.rate_min_nats, scenario.bandwidth)
    print(f"{name:9s} {result.iterations:3d} iterations, stopped on {result.stop_reason}, "
          f"min SLNR {trace.min_slnr[0]:.4f} -> {trace.min_slnr[-1]:.4f}, "
          f"best minimum rate {best:.3f} Mbps")
    path = out_dir / f"trace_{name}.csv"
    rates = nats_to_mbps(trace.min_rate_nats, scenario.bandwidth)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "min_slnr", "objective", "min_rate_mbps"])
        writer.writerows(zip(trace.step, trace.min_slnr, trace.objective, rates))
    print(f"          trace written to {path}")
