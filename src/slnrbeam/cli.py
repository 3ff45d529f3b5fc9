"""Command-line interface.

Subcommands::

    slnrbeam scenario gen --out scenario.json [--Q 4 --users 3 ...]
    slnrbeam run --algorithm soft --Q 4 --users 3 --M 1 --power-dbm 24 \
                 --c 0.1 --seed 7 --out results
    slnrbeam sweep --config experiment.json [--out results] [--seeds 20]
    slnrbeam report --out results

``run`` executes one algorithm at one sweep point (flags override the
optional --config); ``sweep`` runs a full experiment config; ``report``
tabulates fairness metrics from an existing output directory. Exit codes:
0 on success, 2 on usage or validation errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .harness import (
    ExperimentConfig,
    default_scenario_dict,
    report_fairness,
    run_experiment,
)
from .optimizers import ALGORITHMS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slnrbeam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    scen = sub.add_parser("scenario", help="scenario file utilities")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    gen = scen_sub.add_parser("gen", help="write a scenario JSON with defaults")
    gen.add_argument("--out", default="scenario.json", help="output path")
    _add_scenario_flags(gen)

    run = sub.add_parser("run", help="run one algorithm at one sweep point")
    run.add_argument("--config", help="experiment JSON; flags override it")
    run.add_argument("--algorithm", choices=sorted(ALGORITHMS), help="algorithm to run")
    run.add_argument("--out", help="output directory (default: out)")
    _add_scenario_flags(run)

    sweep = sub.add_parser("sweep", help="run a full experiment configuration")
    sweep.add_argument("--config", required=True, help="experiment JSON path")
    sweep.add_argument("--out", help="override the configured output directory")
    sweep.add_argument("--seeds", type=int, help="override the number of seeds")

    report = sub.add_parser("report", help="tabulate fairness metrics from results")
    report.add_argument("--out", default="out", help="results directory to read")
    return parser


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--Q", type=int, help="array side length")
    parser.add_argument("--users", type=int, help="number of users")
    parser.add_argument("--M", type=int, help="outer products per beamformer")
    parser.add_argument("--power-dbm", type=float, help="transmit power budget in dBm")
    parser.add_argument("--c", type=float, help="soft max-min smoothing coefficient")
    parser.add_argument("--seed", type=int, help="base random seed")


def _validate(args: argparse.Namespace) -> str | None:
    checks = [
        (getattr(args, "Q", None), lambda v: v >= 1, "--Q must be >= 1"),
        (getattr(args, "users", None), lambda v: v >= 1, "--users must be >= 1"),
        (getattr(args, "M", None), lambda v: v >= 1, "--M must be >= 1"),
        (getattr(args, "c", None), lambda v: v > 0, "--c must be positive"),
        (getattr(args, "seed", None), lambda v: v >= 0, "--seed must be nonnegative"),
        (getattr(args, "seeds", None), lambda v: v >= 1, "--seeds must be >= 1"),
    ]
    for value, ok, message in checks:
        if value is not None and not ok(value):
            return message
    return None


def _scenario_overrides(args: argparse.Namespace) -> dict:
    keys = ("Q", "users", "M", "power_dbm", "seed")
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    message = _validate(args)
    if message is not None:
        print(f"error: {message}", file=sys.stderr)
        return 2

    try:
        if args.command == "scenario":
            spec = default_scenario_dict(**_scenario_overrides(args))
            with open(args.out, "w") as fh:
                json.dump(spec, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.out}")
            return 0

        if args.command == "run":
            if args.config:
                config = ExperimentConfig.from_json(args.config)
            else:
                if args.algorithm is None:
                    print("error: --algorithm is required without --config", file=sys.stderr)
                    return 2
                config = ExperimentConfig(
                    scenario=default_scenario_dict(), algorithms=[args.algorithm]
                )
            changes = {"scenario": {**config.scenario, **_scenario_overrides(args)}, "n_seeds": 1}
            if args.algorithm:
                changes["algorithms"] = [args.algorithm]
            if args.Q is not None:
                changes["antennas"] = [args.Q * args.Q]
            if args.power_dbm is not None:
                changes["power_dbm"] = [args.power_dbm]
            if args.c is not None:
                changes["c"] = [args.c]
            if args.seed is not None:
                changes["base_seed"] = args.seed
            if args.out:
                changes["output_dir"] = args.out
            # rebuilt, so the flags pass the config checks before any file is written
            config = replace(config, **changes)
            files = run_experiment(config)
            print(f"wrote {len(files)} files under {config.output_dir}")
            return 0

        if args.command == "sweep":
            config = ExperimentConfig.from_json(args.config)
            changes = {"output_dir": args.out or None, "n_seeds": args.seeds}
            config = replace(config, **{k: v for k, v in changes.items() if v is not None})
            files = run_experiment(config)
            print(f"wrote {len(files)} files under {config.output_dir}")
            return 0

        if args.command == "report":
            path = report_fairness(args.out)
            print(f"wrote {path}")
            return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("error: unknown command", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
