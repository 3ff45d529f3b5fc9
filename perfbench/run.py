"""slnrbeam benchmark: one workload per invocation, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload desk_protocol --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
timed three times (here and in two fresh interpreters) and reported as the
median, then whole passes over the workload's seed block repeat until
``--seconds`` is used up, at least three of them, and ``wall_s`` is their
median. ``--trace 1`` makes one untraced pass and one pass
with every layer function wrapped, reports the per-layer metrics and the
tracing overhead, and fails the run unless both passes give bit-identical
outputs. ``--seeds`` picks the scenario block: ``default``, ``heldout``
(inside 100-119), or an explicit ``a-b`` range.

The last line of standard output is the result; the line before it is a
``record`` with the environment and the figures that are not gated metrics.
Exits with code 2, printing no result, when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("desk_protocol", "lit_closed_form", "cli_sweep")
SETUP_SAMPLES = 3
# wall_s is a median over passes; a single pass swung by up to a quarter
# between runs, as the machine's speed changes in phases of seconds.
MIN_PASSES = 3
# A run must end within 180 s; no pass starts that would likely end past this.
PASS_DEADLINE_S = 130.0
DESIGNS = ("maxmin", "gm", "soft", "baseline")
# Designs that run on every workload, so their min-rate metrics can be gated.
GATED_DESIGNS = ("gm", "soft", "baseline")

# Layer functions wrapped in a traced run, by span name. The three surrogate
# coefficient builders share one span, as do the two objective functions the
# closed-form designs evaluate while backtracking.
LAYER_TARGETS = {
    "channel.build_statistics": "channel.build_statistics",
    "beamformer.coupling_matrix": "beamformer.coupling_matrix",
    "beamformer.beamformer_matrix": "beamformer.beamformer_matrix",
    "surrogates.half_iteration_operators": "surrogates.half_iteration_operators",
    "surrogates.slnr_minorant_coeffs": "surrogates.coeffs",
    "surrogates.gm_minorant_coeffs": "surrogates.coeffs",
    "surrogates.soft_majorant_coeffs": "surrogates.coeffs",
    "qcqp.solve_maxmin": "qcqp.solve_maxmin",
    "optimizers.run_algorithm": "optimizers.run_algorithm",
    "optimizers.closed_form_update": "optimizers.closed_form_update",
    "optimizers._backtrack": "optimizers.backtrack",
    "optimizers._geometric_mean_log": "optimizers.objective",
    "optimizers._soft_objective_value": "optimizers.objective",
    "metrics.ergodic_rate_closed": "metrics.ergodic_rate_closed",
    "metrics.ergodic_rate_mc": "metrics.ergodic_rate_mc",
    "metrics.slnr_vec": "metrics.slnr_vec",
    "metrics.rate_report": "metrics.rate_report",
    "numerics.pencil_diagonalize": "numerics.pencil_diagonalize",
    "numerics.exp_scaled_e1": "numerics.exp_scaled_e1",
    "numerics.bisect": "numerics.bisect",
    "numerics.largest_generalized_eigvec": "numerics.largest_generalized_eigvec",
    "harness.run_experiment": "harness.run_experiment",
}
# Wrapped in every run, untimed, for the correctness checks.
CHECK_TARGETS = {
    "qcqp.solve_maxmin": "qcqp.solve_maxmin",
    "optimizers.run_algorithm": "optimizers.run_algorithm",
}
# Spans reported as <span>.calls and <span>.self_s.
CALL_AND_SELF = (
    "channel.build_statistics",
    "qcqp.solve_maxmin",
    "surrogates.half_iteration_operators",
    "surrogates.coeffs",
    "optimizers.closed_form_update",
    "optimizers.backtrack",
    "metrics.ergodic_rate_closed",
    "metrics.slnr_vec",
    "metrics.rate_report",
    "numerics.pencil_diagonalize",
    "numerics.exp_scaled_e1",
    "numerics.bisect",
    "numerics.largest_generalized_eigvec",
    "beamformer.coupling_matrix",
    "beamformer.beamformer_matrix",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="orders the block's runs")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="default", help="default, heldout, or a-b")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def seed_block(workload: str, spec: str) -> list[int]:
    import workloads

    if spec in ("default", "heldout"):
        return list(workloads.BLOCKS[workload][spec])
    lo, _, hi = spec.partition("-")
    block = list(range(int(lo), int(hi or lo) + 1))
    if not block:
        raise ValueError(f"empty seed block {spec!r}")
    return block


def import_package() -> None:
    """Import slnrbeam from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import slnrbeam

    if Path(slnrbeam.__file__).resolve().parent != (SRC / "slnrbeam").resolve():
        raise SystemExit(f"error: imported slnrbeam from {slnrbeam.__file__}, not {SRC}")


def timed_setup(args):
    """Import, warm up and build statistics; returns (seconds, workload)."""
    start = time.perf_counter()
    import_package()
    import workloads

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, seed_block(args.workload, args.seeds), args.seed, work_dir)
    workload.setup()
    return time.perf_counter() - start, workload


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seeds", args.seeds]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail_percentile(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); the value is the order
    statistic with exactly ten samples above it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_calls(passes) -> dict[str, tuple[str, list[float]]]:
    """Each run of the block: its design and its timed calls.

    A run's calls are its first call, its timing repeats, and the same run
    in later passes; the run's time is their median.
    """
    calls = {}
    for p in passes:
        for r in p.runs:
            if r.samples:
                calls.setdefault(r.key, (r.design, []))[1].extend(r.samples)
    return calls


def design_time(calls, design) -> float:
    """Time of one ``design`` run: geometric mean over the block's runs.

    The block's runs of one design differ up to tenfold in size, so a median
    across them would follow the one or two runs in the middle and their
    noise; the geometric mean weighs every run's noise alike.
    """
    times = [statistics.median(c) for d, c in calls.values() if d == design]
    return math.exp(statistics.fmean(map(math.log, times))) if times else math.nan


def failures_of(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): runs plus pass-level checks."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for run in p.runs:
            attempted += 1
            if run.problems:
                failed += 1
                problems.extend(run.problems)
        for name, found in p.checks.items():
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"{name}: {item}" for item in found)
    return attempted, failed, problems


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    """Gated metrics and the ungated figures that go in the record.

    Per-design run times and the tail are recorded but not gated: on a
    shared 2-core machine their spread over ten runs reached 0.26-0.27 of
    the median (the bound may be at most 0.25), while wall_s, a median of
    whole passes, stayed at 0.08-0.15.
    """
    first = passes[0].runs
    rates = {d: [r.min_rate_mbps for r in first if r.design == d and r.headline] for d in DESIGNS}
    calls = run_calls(passes)
    ran = {d for d, _ in calls.values()}
    tail, pct, count = tail_percentile([statistics.median(c) for _, c in calls.values()])
    gated = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # maxmin is left out: lit_closed_form runs no max-min design, and
        # every gated metric must exist on every workload.
        **{f"min_rate_mbps.{d}": (statistics.fmean(rates[d]) if rates[d] else math.nan, "Mbit/s")
           for d in GATED_DESIGNS},
    }
    extra = {
        **{f"run_s.{d}": design_time(calls, d) for d in DESIGNS if d in ran},
        "run_s.tail": tail,
        "run_s.tail.percentile": pct,
        "run_s.tail.samples": count,
        **{f"min_rate_mbps.{d}": statistics.fmean(rates[d]) for d in DESIGNS
           if rates[d] and d not in GATED_DESIGNS},
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "setup_samples_s": setup_samples,
        "run_calls_s": {key: c for key, (_, c) in calls.items()},
    }
    return gated, extra


def per_layer(tracer, observed, traced_pass, untraced_pass) -> dict:
    spans = tracer.spans
    absent = {LAYER_TARGETS[t] for t in tracer.absent}
    present = set(LAYER_TARGETS.values()) - absent

    def calls(span):
        return spans[span].calls if span in spans else 0

    def self_s(span):
        return spans[span].self_time if span in spans else 0.0

    out = {}
    for span in CALL_AND_SELF:
        if span in present:
            out[f"{span}.calls"] = (calls(span), "count")
            out[f"{span}.self_s"] = (self_s(span), "s")
    if "channel.build_statistics" in present:
        sizes = observed.stats_bytes
        out["channel.stats_mb"] = (sum(sizes) / len(sizes) / 1e6 if sizes else 0.0, "MB")
    if "qcqp.solve_maxmin" in present:
        solves = observed.solves
        out["qcqp.solve_maxmin.bisection_steps"] = (sum(i for _, i in solves), "count")
        out["qcqp.solve_maxmin.gap_max"] = (max((g for g, _ in solves), default=0.0), "ratio")
        out["qcqp.solve_maxmin.shortcut_frac"] = (
            sum(i == 0 for _, i in solves) / len(solves) if solves else 0.0, "ratio")
    if "optimizers.backtrack" in present:
        n = calls("optimizers.backtrack")
        out["optimizers.backtrack.accept_frac"] = (observed.backtracks_accepted / n if n else 0.0, "ratio")
    if "optimizers.objective" in present:
        out["optimizers.objective_evals"] = (calls("optimizers.objective"), "count")
    iterative = [r for r in observed.results if r.algorithm != "baseline"]
    out["optimizers.half_iterations"] = (sum(len(r.trace) - 1 for r in iterative), "count")
    out["optimizers.iterations"] = (sum(r.iterations for r in iterative), "count")
    out["optimizers.converged_frac"] = (
        sum(bool(r.converged) for r in iterative) / len(iterative) if iterative else 0.0, "ratio")
    if "metrics.ergodic_rate_mc" in present:
        out["metrics.mc_fallbacks"] = (
            tracer.nested.get(("metrics.ergodic_rate_closed", "metrics.ergodic_rate_mc"), 0), "count")
        out["metrics.ergodic_rate_mc.self_s"] = (self_s("metrics.ergodic_rate_mc"), "s")
    if "harness.run_experiment" in present:
        out["harness.run_experiment.self_s"] = (self_s("harness.run_experiment"), "s")
    out["harness.files_written"] = (traced_pass.files_written, "count")
    out["harness.bytes_written"] = (traced_pass.bytes_written, "bytes")
    out["bench.trace_overhead"] = (traced_pass.seconds / untraced_pass.seconds - 1.0, "ratio")
    return out


def identity_problems(reference, other) -> list[str]:
    if reference.outputs == other.outputs:
        return []
    differing = sorted(k for k in set(reference.outputs) | set(other.outputs)
                       if reference.outputs.get(k) != other.outputs.get(k))
    return [f"outputs differ from the first pass for {differing[:5]}"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slnrbeam" / "__init__.py").is_file():
        print(f"error: no slnrbeam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracer as tracing

    if args.probe_setup:
        seconds, workload = timed_setup(args)
        workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    # The workload modules import slnrbeam, so they load inside the timer.
    setup_s, workload = timed_setup(args)
    import envinfo
    import workloads

    try:
        observed = workloads.Observed()
        workload.observed = observed
        checker = tracing.Tracer(timed=False)
        checker.install(CHECK_TARGETS, observed.observers())
        passes = []
        if args.trace == 0:
            setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            started = time.perf_counter()
            while True:
                passes.append(workload.run_pass())
                elapsed = time.perf_counter() - started
                typical = elapsed / len(passes)
                enough = len(passes) >= MIN_PASSES
                if (enough and elapsed + typical > args.seconds) or elapsed + typical > PASS_DEADLINE_S:
                    break
        else:
            passes.append(workload.run_pass(repeat_short=False))
        checker.restore()
        patch_problems = checker.self_test(installed=False)

        if args.trace == 1:
            traced_observed = workloads.Observed()
            workload.observed = traced_observed
            layer_tracer = tracing.Tracer(timed=True)
            layer_tracer.install(LAYER_TARGETS, traced_observed.observers())
            patch_problems += layer_tracer.self_test(installed=True)
            try:
                workload.build_statistics()
                passes.append(workload.run_pass(repeat_short=False))
            finally:
                layer_tracer.restore()
            patch_problems += layer_tracer.self_test(installed=False)
        for later in passes[1:]:
            later.checks["identical outputs"] = identity_problems(passes[0], later)
        passes[0].checks["tracer patching"] = patch_problems

        attempted, failed, problems = failures_of(passes)
        if args.trace == 0:
            gated, extra = end_to_end(passes, setup_samples)
        else:
            gated = per_layer(layer_tracer, traced_observed, passes[1], passes[0])
            extra = {"absent": layer_tracer.absent, "pass_s": [p.seconds for p in passes]}
    finally:
        workload.close()

    for item in problems:
        print(f"check failed: {item}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": workload.seeds,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        **extra,
        "environment": envinfo.environment(ROOT),
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v, _ in gated.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
