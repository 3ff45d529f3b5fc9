"""Drift report: do two checkouts' design runs agree?

Run from the root of a checkout::

    python3 tools/drift.py snapshot before.json --src /path/to/parent/src
    python3 tools/drift.py snapshot after.json
    python3 tools/drift.py compare before.json after.json

``snapshot`` runs a fixed set of 76 design runs with the ``slnrbeam`` found
under ``--src`` (default: this checkout's ``src``) and writes, per run,
sha256 digests of the incumbent matrix, the final iterate and the trace,
plus the iteration count, the stop reason, the minimum rate and the largest
max-min subproblem gap. The set covers the three benchmark sizes:

* desk: Q=8, L=5, M in {1, 2}, seeds 1, 2, 100, 101, every design;
* lit: Q=12, L=10, M=2, seeds 0, 1, 100, 101, every design but max-min;
* cli: Q in {3, 4}, L=3, M=1, seeds 1, 2, every design;

where every design is max-min, gm, soft at c = 0.1 and at c = 1, and the
baseline. ``compare`` prints, per design, how many runs are identical (all
digests equal), the largest relative move of the minimum rate and the
largest max-min gap, then every change of iteration count or stop reason.
It needs numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

DESIGNS = (("maxmin", None), ("gm", None), ("soft", 0.1), ("soft", 1.0), ("baseline", None))
DIGESTS = ("incumbent", "final", "trace")


def run_set():
    """``(size, scenario keywords, design, soft c)`` of every run."""
    for seed in (1, 2, 100, 101):
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


def label(design: str, c: float | None) -> str:
    return design if c is None else f"{design} c={c:g}"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def summarize(result) -> dict:
    """Digests and headline figures of one ``OptimizationResult``."""
    rows = np.array(
        [
            (e.step, e.min_slnr, e.objective, e.min_rate_nats, e.power,
             math.nan if e.subproblem_gap is None else e.subproblem_gap,
             -1 if e.subproblem_iterations is None else e.subproblem_iterations)
            for e in result.trace
        ],
        dtype=float,
    )
    final = result.final
    gaps = [e.subproblem_gap for e in result.trace if e.subproblem_gap is not None]
    return {
        "incumbent": digest(result.incumbent_matrix),
        "final": None if final is None else digest(final.v_a, final.v_e),
        "trace": digest(rows),
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "min_rate_nats": result.rate_min_nats,
        "gap_max": max(gaps) if gaps else None,
    }


def snapshot(src: Path) -> dict:
    sys.path.insert(0, str(src))
    channel = importlib.import_module("slnrbeam.channel")
    optimizers = importlib.import_module("slnrbeam.optimizers")
    runs = {}
    for size, keywords, design, c in run_set():
        scenario = channel.Scenario(**keywords)
        options = optimizers.AlgoOptions(soft_c=0.1 if c is None else c)
        result = optimizers.run_algorithm(
            design, scenario, channel.build_statistics(scenario), options
        )
        key = "/".join([size, label(design, c)] + [f"{k}={v}" for k, v in keywords.items()])
        runs[key] = {"design": label(design, c), **summarize(result)}
    return runs


def compare(before: dict, after: dict) -> list[str]:
    """Report lines on how ``after``'s runs differ from ``before``'s."""
    lines = []
    missing = sorted(set(before) ^ set(after))
    if missing:
        lines.append(f"runs in one snapshot only: {', '.join(missing)}")
    shared = [key for key in before if key in after]
    designs: dict[str, list[str]] = {}
    for key in shared:
        designs.setdefault(after[key]["design"], []).append(key)
    for design, keys in designs.items():
        same = sum(all(before[k][d] == after[k][d] for d in DIGESTS) for k in keys)
        moves = [
            abs(after[k]["min_rate_nats"] - before[k]["min_rate_nats"])
            / max(abs(before[k]["min_rate_nats"]), 1e-300)
            for k in keys
        ]
        line = f"{design}: {same}/{len(keys)} identical, largest min-rate move {max(moves):.3g} relative"
        gaps = [after[k]["gap_max"] for k in keys if after[k]["gap_max"] is not None]
        if gaps:
            line += f", largest gap {max(gaps):.3g}"
        lines.append(line)
    for key in shared:
        for field in ("iterations", "stop_reason"):
            if before[key][field] != after[key][field]:
                lines.append(f"{key}: {field} {before[key][field]} -> {after[key][field]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    snap = sub.add_parser("snapshot", help="run the set and write its digests")
    snap.add_argument("out", type=Path)
    snap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    comp = sub.add_parser("compare", help="compare two snapshots")
    comp.add_argument("before", type=Path)
    comp.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    if args.command == "snapshot":
        args.out.write_text(json.dumps(snapshot(args.src.resolve()), indent=1) + "\n")
        return 0
    before, after = (json.loads(p.read_text()) for p in (args.before, args.after))
    print("\n".join(compare(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
