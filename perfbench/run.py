"""bdflow benchmark: time to a checked result on three suite-shaped workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload config-runs --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a record with the machine, the pass times,
each check's measured statistic and any failure reasons.  Results and span
files are also written under ``.bench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout.  Without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread unless the caller chose otherwise: with two threads the
# pairwise mat-vecs at n = 1000 jitter between 24 and 40 ms per step on a
# 2-core box, with one they take a steady 8 ms
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # this process plus four fresh interpreters
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes; checks may not hold")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_bdflow():
    src = ROOT / "src"
    if not (src / "bdflow" / "__init__.py").is_file():
        raise ImportError(f"bdflow sources not found under {src}")
    sys.path.insert(0, str(src))
    import bdflow
    import bdflow.harness

    return bdflow


def spec_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def fast_half_mean(seconds: list) -> float:
    """Mean of the faster half of the pass times.

    The box's speed drifts by up to 10% over seconds to minutes with the load
    of its neighbours; the faster half of equal passes is the least disturbed
    estimate of one pass.
    """
    ordered = sorted(seconds)
    half = ordered[: (len(ordered) + 1) // 2]
    return sum(half) / len(half)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        bf = import_bdflow()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2

    from machine import machine_record
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_out"
    scratch = out_root / f"tmp-{os.getpid()}"
    wl = WORKLOADS[args.workload](bf, ROOT, scratch, args.seed, tiny=args.tiny)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s]

        passes = wl.passes_for(args.seconds)
        tracer = Tracer(bf) if args.trace else None
        fresh = 0 if tracer else SETUP_REPEATS - 1
        pass_s = {False: [], True: []}
        for k in range(passes):
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                wl.run_pass(k)
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.remove()
            pass_s[traced].append(elapsed)
            # fresh set-ups spread between the passes see the box's drifting
            # speed the way the passes do, instead of one moment of it
            for _ in range(fresh * (k + 1) // passes - fresh * k // passes):
                setup_samples.append(setup_in_fresh_process(args))
        start = time.perf_counter()
        wl.check()
        check_s = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # fixed work per run: every pass does equal work
    solve_s = passes * fast_half_mean(pass_s[False]) + check_s
    if tracer is None:
        values = {
            "solve_s": solve_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = passes * (fast_half_mean(pass_s[True])
                                               - fast_half_mean(pass_s[False]))
        for m in spec_metrics(1):  # checks this workload does not run read 0
            if m["name"].startswith("diagnostics.gap."):
                values[m["name"]] = wl.gaps.get(m["name"][len("diagnostics."):], 0.0)

    metrics = {}
    for m in spec_metrics(args.trace):
        metrics[m["name"]] = {"value": float(values.pop(m["name"])), "unit": m["unit"]}
    if values:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(values)}")

    failed = [op for op in wl.ops if op.failed]
    op_s = {}
    for op in wl.ops:  # operation kind: the label without its pass and seed
        op_s.setdefault(op.label.split("/")[0], []).append(round(op.seconds, 6))
    machine = machine_record()
    if machine["blas_threads_exceed_nproc"]:
        print(f"warning: {machine['blas_threads']} BLAS threads on {machine['nproc']} cores",
              file=sys.stderr)
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "machine": machine, "passes": passes,
        "pass_s": pass_s[False], "traced_pass_s": pass_s[True], "check_s": check_s, "op_s": op_s,
        "raw_solve_s": sum(pass_s[False]) + sum(pass_s[True]) + check_s,
        "setup_samples_s": setup_samples, "gaps": wl.gaps,
        "failures": [{"op": op.label, "reason": op.reason} for op in failed],
    }
    result = {"correct": not failed, "attempted": len(wl.ops), "failed": len(failed),
              "metrics": metrics}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out_root.mkdir(exist_ok=True)
    (out_root / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    if tracer is not None:
        tracer.write(out_root / f"{stem}-spans.json.gz")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
