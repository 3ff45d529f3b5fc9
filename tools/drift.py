"""Drift report and held-out scan of the design runs.

Do two checkouts' design runs agree? Does every design complete, feasibly
and certified, on seeds no default was tuned on?

Each checkout snapshots itself with its own copy of this tool. To compare
a change with its parent, check the parent out beside it (for example with
``git worktree add ../parent <commit>``) and run, from the root of each::

    (in ../parent)   python3 tools/drift.py snapshot ../before.json
    (in the change)  python3 tools/drift.py snapshot ../after.json
    (in the change)  python3 tools/drift.py compare ../before.json ../after.json
    (in the change)  python3 tools/drift.py scan

``snapshot`` runs a fixed set of 86 design runs with this checkout's
``src`` and writes, per run, sha256 digests of the incumbent matrix, the
final factor array and the trace, plus the iteration count, the stop
reason, the minimum rate, every user's incumbent rate and SLNR (read by
``metrics.rate_report``), the largest max-min subproblem gap, the summed
max-min level trials and the largest trace power over the budget. The
trace is digested column by column, in the order of its record array's
fields. A run that raises, in its design or in ``metrics.rate_report``, is
recorded by its exception's type and message instead. The set covers the
three benchmark sizes:

* desk: Q=8, L=5, M in {1, 2}, seeds 1, 2, 100, 101, 107, every design;
* lit: Q=12, L=10, M=2, seeds 0, 1, 100, 101, every design but max-min;
* cli: Q in {3, 4}, L=3, M=1, seeds 1, 2, every design;

where every design is max-min, gm, soft at c = 0.1 and at c = 1, and the
baseline. ``compare`` prints, per design, how many runs are identical (all
digests equal), the largest relative move of the minimum rate, the largest
relative move of any user's rate, the largest relative move of any user's
SLNR (over the runs whose snapshots both record SLNRs; a snapshot from a
checkout whose tool did not record them prints none), the largest max-min
gap and the summed level trials before -> after over the runs that
completed in both, then every change of iteration count or stop reason and
every run that raises in either snapshot.

``scan`` runs every design on the held-out seeds 100-159 at Q=8, L=5, M=2
and on two degenerate inputs, one user (Q=4, L=1, M=1, seed 0) and one
antenna (Q=1, L=3, M=1, seed 0): 310 runs, recorded as ``snapshot``
records them. It prints, per design, the held-out runs completed, the count
of each stop reason, the largest subproblem gap with the count of runs
whose largest gap is above the design's own target
(``optimizers.SUBPROBLEM_TOL``) and the largest trace power over P; then
the degenerate runs' stop reasons in a block of their own; then every run
that raised, whose trace power exceeds P (1 + 1e-9) or whose subproblem gap
exceeds 1e-4. It exits 1 if there is any such run, else 0: a gap between
the target and 1e-4 is counted, not failed.

It needs numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

DESIGNS = (("maxmin", None), ("gm", None), ("soft", 0.1), ("soft", 1.0), ("baseline", None))
DIGESTS = ("incumbent", "final", "trace")
# This checkout's package, the one every snapshot and scan runs.
SRC = Path(__file__).resolve().parents[1] / "src"
# The held-out scan's seeds and its limits on trace power (over P) and gaps.
SCAN_SEEDS = range(100, 160)
POWER_LIMIT = 1.0 + 1e-9
GAP_LIMIT = 1e-4
# The degenerate inputs the scan also runs with every design: one user on
# 16 antennas, and three users on one antenna.
DEGENERATE = (dict(Q=4, L=1, M=1, seed=0), dict(Q=1, L=3, M=1, seed=0))


def run_set():
    """``(size, scenario keywords, design, soft c)`` of every run."""
    for seed in (1, 2, 100, 101, 107):
        for m_count in (1, 2):
            for design, c in DESIGNS:
                yield "desk", dict(Q=8, L=5, M=m_count, seed=seed), design, c
    for seed in (0, 1, 100, 101):
        for design, c in DESIGNS[1:]:
            yield "lit", dict(Q=12, L=10, M=2, seed=seed), design, c
    for seed in (1, 2):
        for q_side in (3, 4):
            for design, c in DESIGNS:
                yield "cli", dict(Q=q_side, L=3, M=1, seed=seed), design, c


def scan_set():
    """The held-out scan's runs, shaped as ``run_set``'s."""
    for seed in SCAN_SEEDS:
        for design, c in DESIGNS:
            yield "scan", dict(Q=8, L=5, M=2, seed=seed), design, c
    for keywords in DEGENERATE:
        for design, c in DESIGNS:
            yield "degenerate", dict(keywords), design, c


def label(design: str, c: float | None) -> str:
    return design if c is None else f"{design} c={c:g}"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def summarize(result, rates) -> dict:
    """Digests and headline figures of one ``OptimizationResult``, with the
    per-user ``rates`` (nats) of its incumbent."""
    trace = result.trace
    rows = np.column_stack([trace[f].astype(float) for f in trace.dtype.names])
    gaps = trace.subproblem_gap[~np.isnan(trace.subproblem_gap)]
    return {
        "incumbent": digest(result.incumbent_matrix),
        "final": None if result.final is None else digest(result.final),
        "trace": digest(rows),
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "min_rate_nats": result.rate_min_nats,
        "rates_nats": [float(r) for r in rates],
        "gap_max": float(gaps.max()) if gaps.size else None,
        "level_trials": int(trace.subproblem_iterations.clip(min=0).sum()),
    }


def package(module: str):
    """This checkout's ``slnrbeam.<module>``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module(f"slnrbeam.{module}")


def snapshot(runs_to_do=None) -> dict:
    """Every run of ``runs_to_do`` (default: ``run_set()``) summarized by key."""
    channel, metrics, optimizers = (package(name) for name in ("channel", "metrics", "optimizers"))
    runs = {}
    for size, keywords, design, c in run_set() if runs_to_do is None else runs_to_do:
        scenario = channel.Scenario(**keywords)
        stats = channel.build_statistics(scenario)
        options = optimizers.AlgoOptions(soft_c=0.1 if c is None else c)
        key = "/".join([size, label(design, c)] + [f"{k}={v}" for k, v in keywords.items()])
        try:
            result = optimizers.run_algorithm(design, scenario, stats, options)
            report = metrics.rate_report(
                result.incumbent_matrix, stats, scenario.sigma, scenario.bandwidth
            )
        except Exception as exc:  # a failing run is a finding, not the end of the set
            runs[key] = {"design": label(design, c), "error": f"{type(exc).__name__}: {exc}"}
            continue
        power = float(result.trace.power.max()) / scenario.P
        runs[key] = {
            "design": label(design, c), **summarize(result, report.rate_nats),
            "slnrs": [float(x) for x in report.slnr], "power_over_budget": power,
        }
    return runs


def relative_move(before, after) -> float:
    """Largest |after - before| / |before| over paired values."""
    before, after = np.atleast_1d(before), np.atleast_1d(after)
    return float(np.max(np.abs(after - before) / np.maximum(np.abs(before), 1e-300)))


def compare(before: dict, after: dict) -> list[str]:
    """Report lines on how ``after``'s runs differ from ``before``'s."""
    lines = []
    missing = sorted(set(before) ^ set(after))
    if missing:
        lines.append(f"runs in one snapshot only: {', '.join(missing)}")
    shared = [key for key in before if key in after]
    failing = [key for key in shared if "error" in before[key] or "error" in after[key]]
    shared = [key for key in shared if key not in failing]
    designs: dict[str, list[str]] = {}
    for key in shared:
        designs.setdefault(after[key]["design"], []).append(key)
    for design, keys in designs.items():
        same = sum(all(before[k][d] == after[k][d] for d in DIGESTS) for k in keys)
        moves = [relative_move(before[k]["min_rate_nats"], after[k]["min_rate_nats"]) for k in keys]
        user_moves = [relative_move(before[k]["rates_nats"], after[k]["rates_nats"]) for k in keys]
        line = (
            f"{design}: {same}/{len(keys)} identical, largest min-rate move {max(moves):.3g} "
            f"relative, largest per-user rate move {max(user_moves):.3g} relative"
        )
        slnr_moves = [
            relative_move(before[k]["slnrs"], after[k]["slnrs"])
            for k in keys if "slnrs" in before[k] and "slnrs" in after[k]
        ]
        if slnr_moves:
            line += f", largest per-user SLNR move {max(slnr_moves):.3g} relative"
        gaps = [after[k]["gap_max"] for k in keys if after[k]["gap_max"] is not None]
        if gaps:
            line += f", largest gap {max(gaps):.3g}"
        trials = [sum(snap[k].get("level_trials", 0) for k in keys) for snap in (before, after)]
        if any(trials):
            line += f", level trials {trials[0]} -> {trials[1]}"
        lines.append(line)
    for key in shared:
        for field in ("iterations", "stop_reason"):
            if before[key][field] != after[key][field]:
                lines.append(f"{key}: {field} {before[key][field]} -> {after[key][field]}")
    for key in failing:
        lines.append(f"{key}: {before[key].get('error', 'ok')} -> {after[key].get('error', 'ok')}")
    return lines


def scan(runs: dict) -> tuple[list[str], bool]:
    """Report lines on a snapshot of held-out and degenerate runs (keys
    starting with "degenerate/"), and whether every run completed within
    the power and gap limits."""
    target = package("optimizers").SUBPROBLEM_TOL
    degenerate = {key: run for key, run in runs.items() if key.startswith("degenerate/")}
    designs: dict[str, list[dict]] = {}
    for key, run in runs.items():
        if key not in degenerate:
            designs.setdefault(run["design"], []).append(run)
    lines = []
    for design, group in designs.items():
        done = [run for run in group if "error" not in run]
        stops = Counter(run["stop_reason"] for run in done)
        line = f"{design}: {len(done)}/{len(group)} completed"
        if done:
            line += ", " + ", ".join(f"{n} {reason}" for reason, n in sorted(stops.items()))
            gaps = [run["gap_max"] for run in done if run["gap_max"] is not None]
            if gaps:
                above = sum(gap > target for gap in gaps)
                line += f", largest gap {max(gaps):.3g}, {above} above {target:g}"
            excess = max(run["power_over_budget"] for run in done) - 1.0
            line += f", largest trace power P (1 {'-' if excess < 0 else '+'} {abs(excess):.2g})"
        lines.append(line)
    if degenerate:
        lines.append("degenerate inputs:")
        lines += [f"  {key}: {run.get('stop_reason', 'raised')}" for key, run in degenerate.items()]
    failures = []
    for key, run in runs.items():
        if "error" in run:
            failures.append(f"{key}: {run['error']}")
            continue
        if run["power_over_budget"] > POWER_LIMIT:
            failures.append(f"{key}: trace power {run['power_over_budget']!r} P exceeds P (1 + 1e-9)")
        if run["gap_max"] is not None and run["gap_max"] > GAP_LIMIT:
            failures.append(f"{key}: subproblem gap {run['gap_max']:.3g} above {GAP_LIMIT:g}")
    return lines + failures, not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    snap = sub.add_parser("snapshot", help="run the set and write its digests")
    snap.add_argument("out", type=Path)
    comp = sub.add_parser("compare", help="compare two snapshots")
    comp.add_argument("before", type=Path)
    comp.add_argument("after", type=Path)
    sub.add_parser("scan", help="run every design on the held-out seeds and check them")
    args = parser.parse_args(argv)
    if args.command == "snapshot":
        args.out.write_text(json.dumps(snapshot(), indent=1) + "\n")
        return 0
    if args.command == "scan":
        lines, ok = scan(snapshot(scan_set()))
        print("\n".join(lines))
        return 0 if ok else 1
    before, after = (json.loads(p.read_text()) for p in (args.before, args.after))
    print("\n".join(compare(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
