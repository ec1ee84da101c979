"""Command-line interface.

Subcommands: run, sweep, verify, teacher-dump.
Exit codes: 0 success, 1 acceptance failure, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ..errors import ConfigurationError, ExtinctionError, NumericError, StepSizeError

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
    sweep.add_argument("--values", required=True, help="comma-separated axis values")
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
    vals = []
    for item in raw.split(","):
        item = item.strip()
        try:
            num = float(item)
            vals.append(int(num) if num.is_integer() and "." not in item and "e" not in item.lower() else num)
        except ValueError:
            vals.append(item)
    return vals


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            from .config import load_config
            from .runner import run_experiment

            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            summary = run_experiment(cfg, output_dir=args.out, quiet=args.quiet)
            return EXIT_OK if summary["status"] == "ok" else EXIT_NUMERIC

        if args.command == "sweep":
            from .config import load_config
            from .runner import run_sweep

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
            from .verify import run_verify

            code, _ = run_verify(level=args.level, report_path=args.out, quiet=args.quiet)
            return EXIT_ACCEPTANCE if code else EXIT_OK

        if args.command == "teacher-dump":
            from .config import load_config

            model = load_config(args.config).model
            if model.kind != "relu-student-teacher":
                raise ConfigurationError("teacher-dump needs a relu-student-teacher model")
            model.dump_teacher_csv(args.out)
            return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ExtinctionError, StepSizeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
