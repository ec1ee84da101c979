"""The three benchmark workloads.

Each workload mirrors an acceptance criterion of the suite (same models,
population sizes, step sizes and variants) with fewer seeds per pass.  A run
is a fixed number of passes; a pass is a fixed amount of work whose
operations are checked as they finish, and the claims that are statements
about seed averages are checked once over all passes of the run.

An operation is one seed-run or one oracle solve.  It fails when it raises,
when a harness summary says ``failed``, when the population size or the unit
mean weight is broken, or when its check misses tolerance.  A failed
run-level check fails every operation it pools.

Every random input descends from the benchmark's ``--seed`` through
``numpy.random.SeedSequence([seed, workload code, pass, operation])``; the
library only receives the generated seeds.
"""

from __future__ import annotations

import copy
import csv
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WEIGHT_ATOL = 1e-12


@dataclass
class Op:
    label: str
    group: str
    failed: bool = False
    reason: str = ""
    seconds: float = 0.0


@dataclass
class Workload:
    """Shared pass/operation bookkeeping; subclasses fill in the work."""

    bf: object
    root: Path  # checkout root holding configs/
    out_dir: Path  # scratch space for harness outputs
    seed: int
    tiny: bool = False
    refs: dict = field(default_factory=dict)  # overrides of check references

    name = ""
    why = ""
    code = 0
    pass_seconds = 1.0  # one pass on a 2-core Xeon with one BLAS thread
    min_passes = 2

    def __post_init__(self):
        self.ops: list[Op] = []
        self.gaps: dict = {}

    def passes_for(self, seconds: float) -> int:
        """Pass count for a run of `seconds`; fixed work for a given value."""
        return max(self.min_passes, int(seconds // self.pass_seconds))

    def seeds(self, k: int, index: int, count: int = 2) -> list[int]:
        ss = np.random.SeedSequence([self.seed, self.code, k, index])
        return [int(v) for v in ss.generate_state(count)]

    def op(self, label: str, group: str, fn, *args):
        """Run one operation; any exception marks it failed and is reported."""
        op = Op(label, group)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            reason = fn(*args)
        except Exception as exc:  # the benchmark keeps running and counts it
            reason = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}"
        op.seconds = time.perf_counter() - start
        if reason:
            op.failed, op.reason = True, reason
        return op

    def fail_group(self, group: str, reason: str):
        for op in self.ops:
            if op.group == group and not op.failed:
                op.failed, op.reason = True, reason

    def check_population(self, ens, n: int) -> str:
        if ens.n != n:
            return f"population changed from {n} to {ens.n}"
        mean_w = float(np.mean(ens.weights))
        if abs(mean_w - 1.0) > WEIGHT_ATOL:
            return f"mean weight {mean_w!r} is not 1"
        if not np.all(np.isfinite(ens.thetas)):
            return "non-finite particle parameters"
        return ""

    def setup(self):
        raise NotImplementedError

    def run_pass(self, k: int):
        raise NotImplementedError

    def check(self):
        """Run-level checks over every pass; fills self.gaps."""


# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    """Columns of a harness CSV output, by header name."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


class ConfigRuns(Workload):
    name = "config-runs"
    why = ("The committed configs through parse_config -> run_experiment at small n, where "
           "per-call overhead, observe, trajectory/snapshot I/O and rate_fit run.")
    code = 1
    pass_seconds = 3.75
    mixture_variants = ("gd-only", "gd-bd", "gd-bd-reinjection")

    # the quadratic envelope alpha^-1 tr(H e^{-2Ht}) decays at rate -2 for H = 1
    rate_exponent, rate_rtol = -2.0, 0.05

    def _load(self, name):
        return json.loads((self.root / "configs" / f"{name}.json").read_text())

    def setup(self):
        bf = self.bf
        self.base = {name: self._load(name) for name in
                     ("mixture_reinjection", "quadratic_gd_bd", "relu_student_teacher")}
        for data in self.base.values():
            bf.harness.parse_config(copy.deepcopy(data))
        if self.tiny:
            self.base["mixture_reinjection"]["steps"] = 200
            self.base["relu_student_teacher"]["steps"] = 40
        # first-call warm-up: every configuration, a few steps, all outputs
        for label, data in self._cells(seed=0):
            data = copy.deepcopy(data)
            data.update(steps=20, record_every=5, rate_fit=None, snapshot_times=[0.1])
            bf.harness.run_experiment(bf.harness.parse_config(data),
                                      output_dir=self.out_dir / "warmup" / label)
        self.mixture_finals = {v: [] for v in self.mixture_variants}

    def _cells(self, seed):
        for variant in self.mixture_variants:
            data = copy.deepcopy(self.base["mixture_reinjection"])
            data["dynamics"]["variant"] = variant
            if variant != "gd-bd-reinjection":
                data["dynamics"].pop("reinjection", None)
            data["seed"] = seed
            yield f"mixture-{variant}", data
        for name in ("quadratic_gd_bd", "relu_student_teacher"):
            data = copy.deepcopy(self.base[name])
            data["seed"] = seed
            yield name, data

    def _run(self, label, data, out):
        bf = self.bf
        cfg = bf.harness.parse_config(data)
        summary = bf.harness.run_experiment(cfg, output_dir=out)
        if summary["status"] != "ok":
            return f"run {summary['status']}: {summary['error']}"
        if summary["final_step"] != cfg.steps:
            return f"stopped at step {summary['final_step']} of {cfg.steps}"
        traj = _read_csv(out / "trajectory.csv")
        if any(int(v) != cfg.n for v in traj["n"]):
            return "population size changed in the trajectory"
        if label.startswith("mixture-"):
            self.mixture_finals[label[len("mixture-"):]].append(summary["final_energy"])
        elif label == "quadratic_gd_bd":
            exponent = summary["rate_fit"]["exponent"]
            ref = self.refs.get("rate_exponent", self.rate_exponent)
            gap = abs(exponent / ref - 1.0)
            self.gaps["gap.rate_exponent"] = max(self.gaps.get("gap.rate_exponent", 0.0), gap)
            if gap > self.rate_rtol:
                return f"rate-fit exponent {exponent:.4f} is not within 5% of {ref}"
            if not summary["snapshots"]:
                return "no snapshot was written"
            for name in summary["snapshots"]:
                snap = _read_csv(out / name)
                if len(snap["weight"]) != cfg.n:
                    return f"snapshot {name} holds {len(snap['weight'])} rows, not {cfg.n}"
                mean_w = float(np.mean([float(w) for w in snap["weight"]]))
                if abs(mean_w - 1.0) > WEIGHT_ATOL:
                    return f"snapshot {name} mean weight {mean_w!r} is not 1"
        else:
            energy = [float(v) for v in traj["energy"]]
            ratio = energy[-1] / energy[0]
            self.gaps["gap.relu"] = max(self.gaps.get("gap.relu", 0.0), ratio)
            if not energy[-1] < energy[0]:
                return f"final energy {energy[-1]:.4g} is not below initial {energy[0]:.4g}"
        return ""

    def run_pass(self, k):
        for label, data in self._cells(seed=self.seeds(k, 0, 1)[0]):
            group = "c09" if label.startswith("mixture-") else label
            self.op(f"{label}/pass{k}", group, self._run, label, data,
                    self.out_dir / f"pass{k}" / label)

    def check(self):
        means = {v: float(np.mean(e)) for v, e in self.mixture_finals.items() if e}
        if len(means) == len(self.mixture_variants):
            best_other = min(means["gd-only"], means["gd-bd"])
            self.gaps["gap.c09"] = means["gd-bd-reinjection"] - best_other
            if not means["gd-bd-reinjection"] < best_other:
                self.fail_group("c09", f"c09 ordering broken: seed means {means}")


# ---------------------------------------------------------------------------


class FrozenLLN(Workload):
    name = "frozen-lln"
    why = ("c04: frozen two-bump mixture, gd-bd to t=1 at n=250/1000/4000 against the 2048-cell "
           "grid; the O(n^2) kernel dominates, so arithmetic gains show and overhead is noise.")
    code = 2
    pass_seconds = 4.2
    dt, t_end, grid_cells = 0.05, 1.0, 2048

    def setup(self):
        bf = self.bf
        self.model = bf.GaussianMixtureModel(
            target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]], target_sigma=[0.8, 0.8],
            sigma=0.5, amplitude_mode="frozen", frozen_c=1.0,
        )
        self.init = bf.GaussianSampler(mean=[0.0], std=2.0)
        self.cfg = bf.DynamicsConfig(variant="gd-bd", dt=self.dt, alpha=1.0)
        # seeds per pass for each n: cheap sizes get more seeds so that the
        # strict ordering is decided by the n^-1/2 law, not by seed noise
        self.sizes = ((100, 4), (400, 2), (1600, 1)) if self.tiny else ((250, 24), (1000, 8), (4000, 1))
        self.sq = {n: [] for n, _ in self.sizes}
        # grid stepper with its interacting K cache, then one warm-up step per size
        bf.GridStepper(self.model, bf.grid_from_sampler(self.init, self.grid_cells), self.cfg).step()
        for n, _ in self.sizes:
            ens = bf.init_from_sampler(self.init, n, 1, 0)
            rng = np.random.default_rng(0)
            for _ in range(2):
                bf.run_step(self.model, ens, self.cfg, rng)

    def _grid(self):
        bf = self.bf
        g = bf.grid_from_sampler(self.init, self.grid_cells)
        bf.GridStepper(self.model, g, self.cfg).run_until(self.t_end)
        if abs(g.mass() - 1.0) > 1e-9:
            return f"grid mass {g.mass()!r} is not 1"
        self.ref = (g.moment(lambda x: x), g.moment(lambda x: x**2))
        if not np.all(np.isfinite(self.ref)):
            return "non-finite grid moments"
        return ""

    def _particles(self, n, init_seed, dyn_seed):
        bf = self.bf
        ens = bf.init_from_sampler(self.init, n, 1, init_seed)
        rng = np.random.default_rng(dyn_seed)
        for _ in range(round(self.t_end / self.dt)):
            bf.run_step(self.model, ens, self.cfg, rng)
        bad = self.check_population(ens, n)
        if bad:
            return bad
        th, w = ens.thetas[:, 0], ens.weights
        self.sq[n].append(((float(w @ th) / n - self.ref[0]) ** 2,
                           (float(w @ th**2) / n - self.ref[1]) ** 2))
        return ""

    def run_pass(self, k):
        if self.op(f"grid/pass{k}", "grid", self._grid).failed:
            return
        index = 1
        for n, count in self.sizes:
            for s in range(count):
                self.op(f"n{n}/pass{k}/seed{s}", "c04", self._particles, n, *self.seeds(k, index))
                index += 1

    def check(self):
        if any(not v for v in self.sq.values()):
            return
        rms = [np.sqrt(np.mean(self.sq[n], axis=0)) for n, _ in self.sizes]
        for phi, name in ((0, "gap.c04_x"), (1, "gap.c04_x2")):
            self.gaps[name] = max(float(rms[i + 1][phi] / rms[i][phi]) for i in range(len(rms) - 1))
        ordered = all(np.all(rms[i] > rms[i + 1]) for i in range(len(rms) - 1))
        if not ordered:
            table = {n: [round(float(v), 4) for v in r] for (n, _), r in zip(self.sizes, rms)}
            self.fail_group("c04", f"RMS gap does not fall strictly with n: {table}")


# ---------------------------------------------------------------------------


class QuadraticOracles(Workload):
    name = "quadratic-oracles"
    why = ("Non-interacting quadratic well: the c03 24576-cell grid past t=2, c01 KMC and c03 "
           "particles; zero pair evaluations, so kernel changes bypass it.")
    code = 3
    pass_seconds = 15.5
    kmc_times = (0.5, 1.0, 2.0, 5.0)
    grid_times = (2.0, 2.1)  # never stop before t=2: the slow subnormal regime starts there
    particle_times = (2.0, 3.0, 4.0)
    kmc_horizon = 5.0
    grid_rtol, kmc_rtol, particle_rtol = 0.05, 0.05, 0.25

    def setup(self):
        bf = self.bf
        self.model = bf.QuadraticWellModel(minimizer=[0.0], hessian=1.0)
        self.forms = bf.RateFormulas(hessian=np.eye(1), alpha=1.0)
        self.box = bf.UniformSampler(lo=[-6.0], hi=[6.0])
        self.kmc_init = bf.GaussianSampler(mean=[1.0], std=1.0)
        if self.tiny:
            self.grid_cells, self.kmc_n, self.kmc_per_pass = 2048, 2000, 1
            self.particle_n, self.particle_seeds = 1000, 1
        else:
            self.grid_cells, self.kmc_n, self.kmc_per_pass = 24576, 20000, 2
            self.particle_n, self.particle_seeds = 10000, 2
        self.particle_cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.01, alpha=1.0)
        self.kmc_cfg = bf.DynamicsConfig(variant="kmc-bd", dt=1.0)
        # oracle references
        grid = np.linspace(-7.0, 9.0, 40001)
        rho0 = lambda x: np.exp(-((np.asarray(x) - 1.0) ** 2) / 2.0) / np.sqrt(2.0 * np.pi)
        quad = lambda x: 0.5 * np.asarray(x, dtype=float) ** 2
        self.kmc_exact = [bf.pure_bd_mean_energy(quad, rho0, 1.0, t, grid)
                          for t in self.kmc_times]
        self.kmc_means, self.particle_energy = [], []
        # warm-up: grid stepper construction and steps, a short KMC run, particle steps
        self._stepper().step()
        ens = bf.init_from_sampler(self.kmc_init, self.kmc_n, 1, 0)
        bf.kmc_run(self.model, ens, self.kmc_cfg, 0.01, np.random.default_rng(0))
        ens = bf.init_from_sampler(self.box, self.particle_n, 1, 0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            bf.run_step(self.model, ens, self.particle_cfg, rng)

    def _stepper(self):
        bf = self.bf
        g = bf.grid_from_sampler(self.box, self.grid_cells)
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.9 * g.dx / 6.0, alpha=1.0)
        return bf.GridStepper(self.model, g, cfg)

    def _grid(self):
        stepper = self._stepper()
        worst = 0.0
        for t in self.grid_times:
            stepper.run_until(t)
            ratio = stepper.energy() / self.bf.transport_bd_asymptote(self.forms, t)
            worst = max(worst, abs(ratio - 1.0))
        self.gaps["gap.c03_grid"] = max(self.gaps.get("gap.c03_grid", 0.0), worst)
        if worst > self.grid_rtol:
            return f"grid energy misses the envelope by {worst:.2%} (> 5%)"
        return ""

    def _kmc(self, init_seed, dyn_seed):
        bf = self.bf
        ens = bf.init_from_sampler(self.kmc_init, self.kmc_n, 1, init_seed)
        log = bf.kmc_run(self.model, ens, self.kmc_cfg, self.kmc_horizon,
                         np.random.default_rng(dyn_seed))
        bad = self.check_population(ens, self.kmc_n)
        if bad:
            return bad
        self.kmc_means.append([log.mean_energy_at(t) for t in self.kmc_times])
        return ""

    def _particles(self, init_seed, dyn_seed):
        bf = self.bf
        ens = bf.init_from_sampler(self.box, self.particle_n, 1, init_seed)
        rng = np.random.default_rng(dyn_seed)
        energies, done = [], 0
        for t in self.particle_times:
            target = round(t / self.particle_cfg.dt)
            for _ in range(target - done):
                bf.run_step(self.model, ens, self.particle_cfg, rng)
            done = target
            energies.append(bf.ensemble_energy(self.model, ens))
        bad = self.check_population(ens, self.particle_n)
        if bad:
            return bad
        self.particle_energy.append(energies)
        return ""

    def run_pass(self, k):
        self.op(f"grid/pass{k}", "grid", self._grid)
        index = 0
        for s in range(self.kmc_per_pass):
            index += 1
            self.op(f"kmc/pass{k}/seed{s}", "c01", self._kmc, *self.seeds(k, index))
        for s in range(self.particle_seeds):
            index += 1
            self.op(f"particles/pass{k}/seed{s}", "c03p", self._particles, *self.seeds(k, index))

    def check(self):
        if self.kmc_means:
            rel = np.abs(np.mean(self.kmc_means, axis=0) / np.asarray(self.kmc_exact) - 1.0)
            self.gaps["gap.c01_kmc"] = float(rel.max())
            if rel.max() > self.kmc_rtol:
                self.fail_group("c01", f"KMC seed-mean energy misses the exact law by {rel.max():.2%}")
        if self.particle_energy:
            env = self.bf.transport_bd_asymptote(self.forms, np.asarray(self.particle_times))
            rel = np.abs(np.mean(self.particle_energy, axis=0) / env - 1.0)
            self.gaps["gap.c03_particles"] = float(rel.max())
            if rel.max() > self.particle_rtol:
                self.fail_group("c03p", f"particle seed-mean energy misses the envelope by {rel.max():.2%}")


WORKLOADS = {cls.name: cls for cls in (ConfigRuns, FrozenLLN, QuadraticOracles)}
