"""Observables: energies, field moments, optimality residuals, fluctuation
scaling against the grid reference, and rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import DynamicsConfig, run_replicas
from .ensemble import Ensemble
from .errors import ConfigurationError, FitError, require_int, require_number
from .meanfield import GridStepper, grid_from_sampler
from .potentials import PotentialModel, field

RATE_FIT_FORMS = ("power-law", "exponential")
RATE_FIT_MIN_RECORDS = 10


@dataclass
class TrajectoryRecord:
    step: int
    time: float
    energy: float
    mean_V: float
    var_V: float
    grad_norm_sq: float
    births: int
    deaths: int
    n: int

    def to_row(self) -> list[str]:
        """TRAJECTORY_COLUMNS' values: ints via str, reals with 17 significant digits."""
        values = (getattr(self, c) for c in TRAJECTORY_COLUMNS)
        return [str(v) if isinstance(v, int) else format(v, ".17g") for v in values]


TRAJECTORY_COLUMNS = tuple(f.name for f in fields(TrajectoryRecord))


def ensemble_energy(model: PotentialModel, ens: Ensemble) -> float:
    """E = n^-1 sum w_i F_i + (2 n^2)^-1 sum_ij w_i w_j K_ij; an interacting
    model reads the pair term as (2n)^-1 sum_i w_i (V_i - F_i) from `field`."""
    n = ens.n
    f = model.single(ens.thetas)[0]
    e = float(ens.weights @ f) / n
    if model.is_interacting:
        e += 0.5 * float(ens.weights @ (field(model, ens)[0] - f)) / n
    return e


def field_moments(ens: Ensemble, v: np.ndarray, grad: np.ndarray) -> tuple[float, float, float]:
    """(Vbar, integral (V - Vbar)^2 dmu, integral |grad V|^2 dmu) over the
    weighted empirical measure."""
    n, w = ens.n, ens.weights
    vbar = float(w @ v) / n
    return vbar, float(w @ (v - vbar) ** 2) / n, float(w @ np.sum(grad**2, axis=1)) / n


def euler_lagrange_residual(model: PotentialModel, ens: Ensemble,
                            probe_points: np.ndarray) -> tuple[float, float]:
    """Optimality diagnostics at a candidate minimizer.

    support_residual: max_i |V(theta_i) - Vbar| over the particles.
    exterior_violation: max(0, Vbar - min V(probe)) over the probe points,
    with probe potentials evaluated against the empirical measure by
    `field` at the probe points.  Both vanish at a global minimizer.
    """
    v = field(model, ens)[0]
    vbar = float(ens.weights @ v) / ens.n
    support_residual = float(np.max(np.abs(v - vbar)))
    probe_v = field(model, ens, points=probe_points)[0]
    exterior_violation = max(0.0, vbar - float(probe_v.min()))
    return support_residual, exterior_violation


# ---------------------------------------------------------------------------
# fluctuation scaling


@dataclass
class FluctuationReport:
    n_list: list
    checkpoints: list
    rms: np.ndarray  # (n_checkpoints, n_phis, n_populations)
    slope: float | None
    slope_checkpoint: float
    quench_ratios: np.ndarray  # per phi, at the largest population
    skipped_reason: str | None = None

    @property
    def quench_ratio(self) -> float:
        return float(np.max(self.quench_ratios))


def fluctuation_scaling(model: PotentialModel, cfg: DynamicsConfig, init_sampler,
                        n_list, seeds: int, test_fns, *,
                        checkpoints=(0.2, 1.0, 5.0), slope_checkpoint: float = 1.0,
                        grid_cells: int = 8192, seed: int = 0) -> FluctuationReport:
    """Root-mean-square gap between particle and grid moments across seeds.

    For every population size the same grid solution serves as reference;
    the returned slope is the pooled least-squares slope of log RMS against
    log n at `slope_checkpoint`, and quench ratios compare the last
    checkpoint to the first at the largest population.  Every checkpoint
    must be a whole number of steps dt, so particles and grid meet at it.
    """
    seeds = require_int(seeds, "seeds", 1)
    n_list = sorted(require_int(n, "n_list size", 1) for n in n_list)
    if len(n_list) < 3 or n_list[-1] < 10 * n_list[0]:
        raise ConfigurationError("n_list needs >= 3 sizes spanning at least one decade")
    checkpoints = sorted(require_number(t, "checkpoint", 0.0) for t in checkpoints)
    if slope_checkpoint not in checkpoints:
        raise ConfigurationError("slope_checkpoint must be one of the checkpoints")
    steps = [round(t / cfg.dt) for t in checkpoints]
    if not all(math.isclose(t / cfg.dt, k, rel_tol=1e-9) for t, k in zip(checkpoints, steps)):
        raise ConfigurationError(f"checkpoints {checkpoints} must be whole numbers of steps dt = {cfg.dt}")

    # deterministic grid reference, stepped at CFL 0.45 of the initial field
    grid = grid_from_sampler(init_sampler, grid_cells)
    stepper = GridStepper(model, grid, cfg)
    vmax = float(np.max(np.abs(np.diff(stepper.potential()))) / grid.dx)
    stepper.cfg = DynamicsConfig(variant=cfg.variant, alpha=cfg.alpha,
                                 dt=min(cfg.dt, 0.45 * grid.dx / max(vmax, 1e-12)))
    grid_moments = np.empty((len(checkpoints), len(test_fns)))
    for ci, t in enumerate(checkpoints):
        stepper.run_until(t)
        for pi, phi in enumerate(test_fns):
            grid_moments[ci, pi] = grid.moment(phi)

    # particle sweeps: each replica's test-function moments at every checkpoint
    def moments(ens):
        return [float(ens.weights @ np.asarray(phi(ens.thetas[:, 0]))) / ens.n for phi in test_fns]
    children = np.random.SeedSequence(seed).spawn(len(n_list) * seeds)
    rms = np.zeros((len(checkpoints), len(test_fns), len(n_list)))
    for ni, n in enumerate(n_list):
        pairs = [c.generate_state(2).tolist() for c in children[ni * seeds:(ni + 1) * seeds]]
        sq_sum = np.zeros((len(checkpoints), len(test_fns)))
        for obs in run_replicas(model, cfg, init_sampler, n, pairs, steps, moments):
            sq_sum += [[(m - g) ** 2 for m, g in zip(*row)] for row in zip(obs, grid_moments)]
        rms[:, :, ni] = np.sqrt(sq_sum / seeds)

    slope_idx = checkpoints.index(slope_checkpoint)
    slope_rms = rms[slope_idx]
    skipped = None
    slope = None
    if np.all(slope_rms < 1e-12):
        skipped = "no stochasticity: all RMS gaps vanish at the slope checkpoint"
    else:
        x = np.tile(np.log(np.asarray(n_list, dtype=float)), len(test_fns))
        y = np.log(np.maximum(slope_rms, 1e-300)).ravel()
        slope = float(np.polyfit(x, y, 1)[0])

    quench = rms[-1, :, -1] / np.maximum(rms[0, :, -1], 1e-300)
    return FluctuationReport(
        n_list=n_list,
        checkpoints=list(checkpoints),
        rms=rms,
        slope=slope,
        slope_checkpoint=slope_checkpoint,
        quench_ratios=quench,
        skipped_reason=skipped,
    )


# ---------------------------------------------------------------------------
# rate fits


@dataclass
class FitResult:
    form: str
    coefficient: float
    exponent: float  # power-law exponent or exponential rate
    r_squared: float
    window: tuple
    count: int


def rate_fit(records, window, form: str) -> FitResult:
    """Least-squares fit of log E against log t (power-law) or t (exponential)
    over the records whose time lies in the window."""
    if form not in RATE_FIT_FORMS:
        raise ConfigurationError(f"form must be power-law or exponential, got {form!r}")
    t0, t1 = window
    sel = [r for r in records if t0 <= r.time <= t1]
    if len(sel) < RATE_FIT_MIN_RECORDS:
        raise FitError(f"need >= {RATE_FIT_MIN_RECORDS} records in window, found {len(sel)}")
    t = np.array([r.time for r in sel])
    e = np.array([r.energy for r in sel])
    if np.any(e <= 0):
        raise FitError("nonpositive energies in the fit window")
    if form == "power-law":
        if np.any(t <= 0):
            raise FitError("power-law fits need strictly positive times")
        x = np.log(t)
    else:
        x = t
    y = np.log(e)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(
        coefficient=float(np.exp(intercept)),
        exponent=float(slope),
        r_squared=r2,
        form=form,
        window=(float(t0), float(t1)),
        count=len(sel),
    )
