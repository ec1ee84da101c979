"""Experiment execution: single runs, seed/parameter sweeps, file outputs.

Outputs per run: ``trajectory.csv`` (one row per recorded step),
``summary.json`` (status, final observables, the birth-death passes' largest
alpha |rate| dt and total head-count corrections, config echo, wall time), and
``snapshot_t*.csv`` population dumps at the requested times.  These files
and a sweep's ``sweep.json`` are written atomically (temp file + rename).
All randomness descends from the config seed through
``numpy.random.SeedSequence`` spawning, in the fixed order (init, dynamics,
evaluation).
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..diagnostics import TRAJECTORY_COLUMNS, TrajectoryRecord, field_moments, rate_fit
from ..dynamics import run_step
from ..ensemble import atomic_open, init_from_sampler, write_snapshot_csv
from ..errors import ConfigurationError, ExtinctionError, FitError, NumericError, StepSizeError, require_int
from ..potentials import ensemble_energy, field
from .config import ExperimentConfig, parse_config, snapshot_name

RUN_ERRORS = (NumericError, ExtinctionError, StepSizeError)


def observe(model, ens, step: int, t: float, births: int, deaths: int, eval_rng) -> TrajectoryRecord:
    """The trajectory record of `ens` after `step` steps, at time `t`; batch models use a fresh
    evaluation minibatch drawn from the dedicated eval stream so the dynamics stream is untouched."""
    if model.is_exact:
        batch, energy = None, ensemble_energy(model, ens)
    else:
        batch = model.sample_batch(eval_rng)
        energy = model.batch_loss(ens.thetas, ens.weights, batch)
    mean_v, var_v, grad_sq = field_moments(ens, *field(model, ens, batch))
    return TrajectoryRecord(
        step=step,
        time=t,
        energy=energy,
        mean_V=mean_v,
        var_V=var_v,
        grad_norm_sq=grad_sq,
        births=births,
        deaths=deaths,
        n=ens.n,
    )


def _write_trajectory(path: Path, records):
    with atomic_open(path) as fh:
        fh.write("# schema_version=1\n")
        w = csv.writer(fh)
        w.writerow(TRAJECTORY_COLUMNS)
        for r in records:
            w.writerow(r.to_row())


def run_experiment(config: ExperimentConfig, output_dir=None, quiet: bool = True) -> dict:
    """Execute one configured run in `output_dir` (default: the config's);
    returns the summary dict (also written to summary.json, whose config echo
    names the directory written).  Numeric failures mark the summary failed
    and keep the last valid record instead of raising."""
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, dyn = config.model, config.dynamics

    root = np.random.SeedSequence(config.seed)
    init_ss, dyn_ss, eval_ss = root.spawn(3)
    ens = init_from_sampler(config.init, config.n, model.theta_dim, seed=int(init_ss.generate_state(1)[0]))
    rng = np.random.default_rng(dyn_ss)
    eval_rng = np.random.default_rng(eval_ss)

    t_start = time.perf_counter()
    records = [observe(model, ens, 0, dyn.time_of(0), 0, 0, eval_rng)]
    pending = sorted(config.snapshot_times)
    snapshots = []

    def take_snapshots(step):
        while pending and dyn.time_of(step) >= pending[0] - 0.5 * dyn.dt:
            t_snap = pending.pop(0)
            path = out / snapshot_name(t_snap)
            write_snapshot_csv(ens, path, model)
            snapshots.append(path.name)

    take_snapshots(0)
    status, error = "ok", None
    births = deaths = corrections = 0
    max_rate = 0.0
    try:
        for step in range(1, config.steps + 1):
            report = run_step(model, ens, dyn, rng)
            births += report.births
            deaths += report.deaths
            corrections += report.population_corrections
            max_rate = max(max_rate, report.max_rate)
            if step % config.record_every == 0 or step == config.steps:
                records.append(observe(model, ens, step, dyn.time_of(step), births, deaths, eval_rng))
                births = deaths = 0
            take_snapshots(step)
    except RUN_ERRORS as exc:
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t_start

    _write_trajectory(out / "trajectory.csv", records)
    fit = None
    if config.rate_fit is not None and status == "ok":
        try:
            fit = asdict(rate_fit(records, tuple(config.rate_fit["window"]), config.rate_fit["form"]))
        except FitError as exc:
            fit = {"error": f"FitError: {exc}"}
    last = records[-1]
    summary = {
        "schema_version": 1,
        "status": status,
        "error": error,
        "seed": config.seed,
        "final_step": last.step,
        "final_time": last.time,
        "final_energy": last.energy,
        "final_mean_V": last.mean_V,
        "final_var_V": last.var_V,
        "records": len(records),
        "max_rate": max_rate,
        "population_corrections": corrections,
        "snapshots": snapshots,
        "rate_fit": fit,
        "wall_time_s": wall,
        "config": {**config.normalized(), "output_dir": str(out)},
    }
    with atomic_open(out / "summary.json") as fh:
        json.dump(summary, fh, indent=2)
    if not quiet:
        print(f"[{status}] steps={last.step} time={last.time:g} energy={last.energy:.6g} -> {out}")
    return summary


# ---------------------------------------------------------------------------
# sweeps


def _set_axis(data: dict, axis: str, value):
    keys = axis.split(".")
    node = data
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigurationError(f"axis {axis!r} does not resolve in the config")
        node = node[k]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigurationError(f"axis {axis!r} does not resolve in the config")
    old = node[leaf]
    if isinstance(old, bool) or not isinstance(old, (int, float, str)):
        raise ConfigurationError(f"axis {axis!r} must point at a numeric or enum field")
    node[leaf] = value  # parse_config judges the value as it judges the config file


def _run_cell(args):
    cfg, cell_dir = args
    try:
        summary = run_experiment(cfg, output_dir=cell_dir)
        return summary["status"], summary.get("final_energy"), summary.get("error")
    except RUN_ERRORS as exc:
        return "failed", None, f"{type(exc).__name__}: {exc}"


def run_sweep(config: ExperimentConfig, axis: str, values, seeds: int,
              output_dir, jobs: int | None = None) -> dict:
    """Cross product of axis values and seeds; per-cell statistics in one
    report.  Each cell derives its own seed and output directory, so `seed`
    and `output_dir` are no axes.  Every cell's config is parsed before any
    cell runs, so a bad axis value raises ConfigurationError; cells then run
    in a process pool and numeric failures mark the cell only."""
    if axis in ("seed", "output_dir"):
        raise ConfigurationError(f"axis {axis!r} is set per cell by the sweep and cannot be swept")
    seeds = require_int(seeds, "seeds", 1)
    n_jobs = (os.cpu_count() or 1) if jobs is None else require_int(jobs, "jobs", 1)
    out = Path(output_dir)
    base = config.normalized()
    tasks = []
    for vi, value in enumerate(values):
        for si in range(seeds):
            data = json.loads(json.dumps(base))
            _set_axis(data, axis, value)
            # per-cell stream: documented derivation from (seed, value index, seed index)
            data["seed"] = int(
                np.random.SeedSequence([config.seed, vi, si]).generate_state(1)[0]
            )
            cell_dir = out / f"value_{vi:02d}" / f"seed_{si:03d}"
            tasks.append(((parse_config(data), str(cell_dir)), vi, si))
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    if n_jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for (args, vi, si), res in zip(tasks, pool.map(_run_cell, [t[0] for t in tasks])):
                results[(vi, si)] = res
    else:
        for args, vi, si in tasks:
            results[(vi, si)] = _run_cell(args)

    cells = []
    for vi, value in enumerate(values):
        energies = []
        failures = []
        for si in range(seeds):
            status, energy, error = results[(vi, si)]
            if status == "ok":
                energies.append(energy)
            else:
                failures.append({"seed_index": si, "error": error})
        cells.append(
            {
                "value": value,
                "runs": seeds,
                "completed": len(energies),
                "mean_final_energy": float(np.mean(energies)) if energies else None,
                "std_final_energy": float(np.std(energies, ddof=1)) if len(energies) > 1 else None,
                "failures": failures,
            }
        )
    report = {
        "schema_version": 1,
        "axis": axis,
        "values": list(values),
        "seeds": seeds,
        "base_seed": config.seed,
        "cells": cells,
    }
    with atomic_open(out / "sweep.json") as fh:
        json.dump(report, fh, indent=2)
    return report
