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
0 on success, 2 on usage errors (argparse), 1 on any other error, such as a
rejected value: an ``error:`` line naming its key, from a flag or a file alike.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .harness import (
    SCENARIO_SCHEMA,
    SWEEP_KEYS,
    ExperimentConfig,
    default_scenario_dict,
    report_fairness,
    run_experiment,
    scenario_from_dict,
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
    run.add_argument("--c", type=float, help="soft max-min smoothing coefficient")

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
    parser.add_argument("--seed", type=int, help="base random seed")


def _scenario_overrides(args: argparse.Namespace) -> dict:
    """The scenario keys the flags set (a flag's dest is its JSON key)."""
    return {key: getattr(args, key) for key in SCENARIO_SCHEMA if getattr(args, key, None) is not None}


def _run_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``run`` command's config: one seed, the flags over the --config."""
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig(scenario=default_scenario_dict(), algorithms=[args.algorithm])
    flags = _scenario_overrides(args)
    # A flag sets its scenario key; a sweep key that would replace it is dropped.
    changes = {"scenario": {**config.scenario, **flags}, "n_seeds": 1}
    changes.update({SWEEP_KEYS[key]: None for key in flags if key in SWEEP_KEYS})
    if args.algorithm:
        changes["algorithms"] = [args.algorithm]
    if args.c is not None:
        changes["c"] = [args.c]
    if args.out is not None:  # an empty --out reaches the config's check
        changes["output_dir"] = args.out
    # rebuilt, so the flags pass the config checks before any file is written
    return replace(config, **changes)


def _sweep_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    changes = {"output_dir": args.out, "n_seeds": args.seeds}
    return replace(config, **{k: v for k, v in changes.items() if v is not None})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and not (args.config or args.algorithm):
            parser.error("--algorithm is required without --config")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "scenario":
            spec = default_scenario_dict(**_scenario_overrides(args))
            scenario_from_dict(spec)  # a spec that does not load is never written
            with open(args.out, "w") as fh:
                json.dump(spec, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.out}")
        elif args.command == "report":
            print(f"wrote {report_fairness(args.out)}")
        else:
            config = _run_config(args) if args.command == "run" else _sweep_config(args)
            files = run_experiment(config)
            print(f"wrote {len(files)} files under {config.output_dir}")
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
