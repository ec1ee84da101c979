"""Outside-in tracing of bdflow's public functions.

The tracer replaces module attributes and class methods with thin wrappers
for the duration of one traced pass.  Every call becomes a span
``[name, start_ns, end_ns, parent]`` kept in memory; hooks attached to a
wrapper update exact counters (pair evaluations, grid cell-updates, births,
deaths, KMC events) from the call's arguments and result.  Nothing inside the
package is edited: functions re-exported under several module names are
replaced wherever the same object is bound.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

VARIANTS = ("gd-only", "gd-bd", "gd-bd-reinjection")
LATE_TIME = 2.0  # grid steps starting at t >= 2 count as late (c03 regime)
PROBE_EVERY = 64  # grid steps between subnormal/CFL probes


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[rank])


class Tracer:
    def __init__(self, bf):
        self.bf = bf
        self.spans = []  # [name, start_ns, end_ns, parent]
        self._stack = [-1]
        self._undo = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.step_ns = {v: [] for v in VARIANTS}
        self.kmc_ns = 0

    # -- patching ------------------------------------------------------------
    def _wrapper(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            sid = len(spans)
            span = [name, 0, 0, stack[-1]]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(ctx, args, kwargs, result, span[2] - span[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def function(self, module, attr, name, before=None, after=None):
        """Wrap a module-level function everywhere bdflow binds it."""
        orig = getattr(module, attr)
        wrapped = self._wrapper(name, orig, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname == "bdflow" or modname.startswith("bdflow."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def method(self, cls, attr, name, before=None, after=None):
        if attr not in vars(cls):
            return
        orig = vars(cls)[attr]
        setattr(cls, attr, self._wrapper(name, orig, before, after))
        self._undo.append((cls, attr, orig))

    def remove(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- hooks ---------------------------------------------------------------
    def _pairs(self, ctx, args, kwargs, result, dur):
        rows, cols = len(args[1]), len(args[2])
        self.counts["pair_evals"] += rows * cols

    def _run_step(self, ctx, args, kwargs, report, dur):
        variant = args[2].variant
        if variant in self.step_ns:
            self.step_ns[variant].append(dur)
        self.counts["births"] += report.births
        self.counts["deaths"] += report.deaths

    def _birth_death(self, ctx, args, kwargs, report, dur):
        self.counts["population_corrections"] += report.population_corrections
        self.maxima["max_rate"] = max(self.maxima["max_rate"], report.max_rate)

    def _kmc(self, ctx, args, kwargs, log, dur):
        self.counts["kmc_events"] += log.n_events
        self.kmc_ns += dur

    def _grid_probe(self, stepper):
        g = stepper.grid
        rho = g.density
        sub = int(np.count_nonzero((rho > 0.0) & (rho < np.finfo(float).tiny)))
        self.maxima["subnormal_cells"] = max(self.maxima["subnormal_cells"], sub)
        v = stepper.potential()
        cfl = stepper.cfg.dt * float(np.max(np.abs(np.diff(v)), initial=0.0)) / g.dx**2
        self.maxima["cfl"] = max(self.maxima["cfl"], cfl)

    def _grid_before(self, args, kwargs):
        return args[0].grid.time

    def _grid_step(self, t_start, args, kwargs, clip, dur):
        stepper = args[0]
        cells = stepper.grid.cells
        self.counts["cell_updates"] += cells
        self.counts["grid_step_ns"] += dur
        if t_start >= LATE_TIME - 1e-12:
            self.counts["late_cell_updates"] += cells
            self.counts["late_step_ns"] += dur
        self.counts["clip_mass"] += clip
        if clip > self.bf.meanfield.CLIP_WARN_MASS:
            self.counts["heavy_clips"] += 1
        if stepper.steps_taken % PROBE_EVERY == 0:
            self._grid_probe(stepper)

    def _grid_energy(self, ctx, args, kwargs, result, dur):
        self._grid_probe(args[0])

    def _snapshot(self, ctx, args, kwargs, result, dur):
        self.counts["snapshot_bytes"] += os.path.getsize(args[1])

    def _run_experiment(self, ctx, args, kwargs, summary, dur):
        out = kwargs.get("output_dir", args[1] if len(args) > 1 else None)
        if out is not None:
            self.counts["bytes_written"] += _dir_bytes(out)

    # -- installation ----------------------------------------------------------
    def install(self):
        bf = self.bf
        pot, dyn, ens, mf = bf.potentials, bf.dynamics, bf.ensemble, bf.meanfield
        diag, runner, config = bf.diagnostics, bf.harness.runner, bf.harness.config

        for attr in ("kernel_weighted_sums", "kernel_mean", "K_block"):
            self.method(pot.GaussianMixtureModel, attr, "potentials.kernel", after=self._pairs)
        for cls in (pot.QuadraticWellModel, pot.DoubleWellModel, pot.GaussianMixtureModel):
            for attr in ("F", "grad_F"):
                self.method(cls, attr, "potentials.single")
        for attr in ("batch_potential_hat", "batch_grad_V", "batch_loss"):
            self.method(pot.ReLUStudentTeacherModel, attr, "potentials.batch")

        self.function(dyn, "run_step", "dynamics.run_step", after=self._run_step)
        self.function(dyn, "gd_step", "dynamics.transport")
        self.function(dyn, "centered_rate", "dynamics.rates")
        self.function(dyn, "fvariant_rate", "dynamics.rates")
        self.function(dyn, "birth_death_step", "dynamics.birth_death", after=self._birth_death)
        self.function(dyn, "reinjection_step", "dynamics.birth_death", after=self._birth_death)
        self.function(dyn, "kmc_run", "dynamics.kmc", after=self._kmc)

        self.method(ens.Ensemble, "validate", "ensemble.validate")
        self.function(ens, "init_from_sampler", "ensemble.init")
        self.function(ens, "write_snapshot_csv", "ensemble.snapshot", after=self._snapshot)

        self.method(mf.GridStepper, "__init__", "meanfield.setup")
        self.method(mf.GridStepper, "step", "meanfield.step",
                    before=self._grid_before, after=self._grid_step)
        self.method(mf.GridStepper, "energy", "diagnostics.energy", after=self._grid_energy)

        self.function(diag, "ensemble_energy", "diagnostics.energy")
        self.function(pot, "exact_mixture_loss", "diagnostics.energy")
        self.function(diag, "rate_fit", "diagnostics.rate_fit")

        self.function(config, "parse_config", "harness.parse")
        self.function(runner, "observe", "harness.observe")
        self.function(runner, "run_experiment", "harness.io", after=self._run_experiment)

    # -- results ---------------------------------------------------------------
    def self_seconds(self) -> dict:
        """Per span name: total duration minus the time covered by child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e-9
        return out

    def call_counts(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by the names in BENCHMARK.json."""
        selfs, calls, c, mx = self.self_seconds(), self.call_counts(), self.counts, self.maxima
        pairs = c["pair_evals"]
        events = c["births"] + c["deaths"]
        m = {
            "potentials.pair_evals": pairs,
            "potentials.kernel_s": selfs["potentials.kernel"],
            "potentials.pair_ns": selfs["potentials.kernel"] * 1e9 / pairs if pairs else 0.0,
            "potentials.kernel_bytes_computed": 8.0 * pairs,
            "potentials.single_s": selfs["potentials.single"],
            "potentials.batch_s": selfs["potentials.batch"],
        }
        for v in VARIANTS:
            ns = self.step_ns[v]
            m[f"dynamics.step_us_p50.{v}"] = statistics.median(ns) / 1e3 if ns else 0.0
            m[f"dynamics.step_us_p99.{v}"] = _percentile(ns, 99) / 1e3
            m[f"dynamics.step_samples.{v}"] = len(ns)
        m.update({
            "dynamics.transport_s": selfs["dynamics.transport"],
            "dynamics.rates_s": selfs["dynamics.rates"],
            "dynamics.birth_death_s": selfs["dynamics.birth_death"],
            "dynamics.births": c["births"],
            "dynamics.deaths": c["deaths"],
            "dynamics.population_corrections": c["population_corrections"],
            "dynamics.correction_ratio": c["population_corrections"] / events if events else 0.0,
            "dynamics.max_rate": mx["max_rate"],
            "dynamics.kmc_events": c["kmc_events"],
            "dynamics.kmc_events_per_s": c["kmc_events"] / (self.kmc_ns * 1e-9) if self.kmc_ns else 0.0,
            "ensemble.validate_s": selfs["ensemble.validate"],
            "ensemble.init_s": selfs["ensemble.init"],
            "ensemble.snapshot_s": selfs["ensemble.snapshot"],
            "ensemble.snapshot_bytes": c["snapshot_bytes"],
            "meanfield.cell_updates": c["cell_updates"],
            "meanfield.cell_update_ns": c["grid_step_ns"] / c["cell_updates"] if c["cell_updates"] else 0.0,
            "meanfield.cell_update_ns.late": (
                c["late_step_ns"] / c["late_cell_updates"] if c["late_cell_updates"] else 0.0
            ),
            "meanfield.subnormal_cells": mx["subnormal_cells"],
            "meanfield.setup_s": selfs["meanfield.setup"],
            "meanfield.cfl": mx["cfl"],
            "meanfield.clip_mass": c["clip_mass"],
            "meanfield.heavy_clips": c["heavy_clips"],
            "diagnostics.energy_s": selfs["diagnostics.energy"],
            "diagnostics.rate_fit_s": selfs["diagnostics.rate_fit"],
            "harness.parse_s": selfs["harness.parse"],
            "harness.observe_s": selfs["harness.observe"],
            "harness.observe_calls": calls["harness.observe"],
            "harness.io_s": selfs["harness.io"],
            "harness.bytes_written": c["bytes_written"],
            "trace.spans": len(self.spans),
        })
        return m

    def write(self, path: Path):
        """Spans as JSON: a name table and rows [name_index, start_ns, end_ns, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": names, "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
