"""Command-line interface.

Subcommands: run, sweep, verify, teacher-dump.
Exit codes: 0 success, 1 acceptance failure, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from ..ensemble import atomic_open
from ..errors import ConfigurationError
from .config import load_config
from .runner import RUN_ERRORS, run_experiment, run_sweep
from .verify import run_verify

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bdflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment")
    run.add_argument("--config", required=True, help="path to the experiment JSON")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the output directory")
    run.add_argument("--quiet", action="store_true")

    sweep = sub.add_parser("sweep", help="cross product of one config axis and seeds")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--axis", required=True, help="dotted config path, e.g. dynamics.alpha or n")
    sweep.add_argument("--values", required=True, help="comma-separated axis values, each read as JSON")
    sweep.add_argument("--seeds", type=int, default=1)
    sweep.add_argument("--jobs", type=int, default=None, help="worker processes (default: cores)")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--quiet", action="store_true")

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument("--level", choices=("fast", "full"), default="fast")
    verify.add_argument("--out", default=None, help="write the JSON verdict here")
    verify.add_argument("--quiet", action="store_true")

    dump = sub.add_parser("teacher-dump", help="dump relu teacher parameters to CSV")
    dump.add_argument("--config", required=True)
    dump.add_argument("--out", required=True)
    return p


def _parse_values(raw: str):
    """Each comma-separated item as a JSON value (the config file's grammar),
    or as the stripped string when it is not JSON."""
    vals = []
    for item in raw.split(","):
        try:
            vals.append(json.loads(item))
        except json.JSONDecodeError:
            vals.append(item.strip())
    return vals


def write_teacher_csv(model, path) -> None:
    """A relu model's teacher units as CSV: unit,amplitude,y_0,...; replaced atomically."""
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["unit", "amplitude"] + [f"y_{j}" for j in range(model.input_dim)])
        for j in range(model.teacher_units):
            w.writerow([j, format(model.teacher_c[j], ".17g")] + [format(v, ".17g") for v in model.teacher_y[j]])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            summary = run_experiment(cfg, output_dir=args.out, quiet=args.quiet)
            return EXIT_OK if summary["status"] == "ok" else EXIT_NUMERIC

        if args.command == "sweep":
            cfg = load_config(args.config)
            report = run_sweep(
                cfg,
                axis=args.axis,
                values=_parse_values(args.values),
                seeds=args.seeds,
                output_dir=args.out,
                jobs=args.jobs,
            )
            if not args.quiet:
                for cell in report["cells"]:
                    print(
                        f"value={cell['value']}: completed {cell['completed']}/{cell['runs']}"
                        f" mean_final_energy={cell['mean_final_energy']}"
                    )
            return EXIT_OK

        if args.command == "verify":
            code, _ = run_verify(level=args.level, report_path=args.out, quiet=args.quiet)
            return EXIT_ACCEPTANCE if code else EXIT_OK

        if args.command == "teacher-dump":
            model = load_config(args.config).model
            if model.kind != "relu-student-teacher":
                raise ConfigurationError("teacher-dump needs a relu-student-teacher model")
            write_teacher_csv(model, args.out)
            return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RUN_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
