"""Time-stepping schemes for the particle system.

Variants:

* ``gd-only``            forward-Euler transport along -grad V
* ``gd-bd``              transport + stochastic kill/duplicate pass with
                         strict population control
* ``gd-bd-fvariant``     same, rates passed through an odd nondecreasing f
* ``gd-bd-reinjection``  population deficits refilled from a prior with zero
                         output amplitude instead of cloning
* ``bd-only``            kill/duplicate pass alone (no transport)
* ``kmc-bd``             exact-event kinetic Monte Carlo for non-interacting
                         potentials, positions frozen between events
* ``proximal``           m transport steps, an implicit multiplicative
                         weight update, then systematic resampling

A particle is killed with probability 1 - exp(-alpha * vt * dt) when its
centered rate vt = V - mean(V) is positive, and duplicated with probability
1 - exp(-alpha * |vt| * dt) when negative.  Decisions within one pass use
rates frozen at the start of the pass and are independent Bernoulli draws;
the kinetic Monte Carlo path recomputes rates after every event instead.

For interacting exact models a step makes one pairwise pass: the rates read
(V, grad V) from ``potentials.field`` after transport, the birth-death pass
carries them to its new rows, and the next transport step reuses them.

RNG draw order per step is fixed (minibatch, then Bernoulli uniforms, then
population-control picks) so trajectories reproduce bitwise from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .errors import (
    ConfigurationError,
    ExtinctionError,
    NumericError,
    StepSizeError,
    require_int,
    require_number,
)
from .potentials import PotentialModel, field, potential

VARIANTS = (
    "gd-only",
    "gd-bd",
    "gd-bd-reinjection",
    "gd-bd-fvariant",
    "bd-only",
    "kmc-bd",
    "proximal",
)

RATE_SUM_ATOL = 1e-10
PROXIMAL_TOL = 1e-10  # max weight change that ends the proximal fixed-point sweeps


@dataclass(frozen=True)
class FVariant:
    """Odd nondecreasing rate transform; built-ins: identity, tanh(beta z)/beta."""

    kind: str = "identity"
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "tanh"):
            raise ConfigurationError(f"unknown f variant {self.kind!r}")
        object.__setattr__(self, "beta", require_number(self.beta, "f.beta"))
        if self.kind == "tanh" and not self.beta > 0:
            raise ConfigurationError("tanh f variant needs beta > 0")
        z = np.linspace(-10.0, 10.0, 1000)
        if np.any(z * self(z) < 0):
            raise ConfigurationError("f must satisfy z*f(z) >= 0 everywhere")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return z
        return np.tanh(self.beta * z) / self.beta


@dataclass
class StepReport:
    births: int = 0
    deaths: int = 0
    max_rate: float = 0.0
    population_corrections: int = 0


@dataclass
class DynamicsConfig:
    """One dynamics scheme and its step parameters.  `f_spec` is read only by
    gd-bd-fvariant, `reinjection_prior` only by gd-bd-reinjection, and `tau` and
    `proximal_inner_iters` only by proximal; every variant carries them
    unchanged, so one configuration can be swept over the variant."""

    variant: str
    dt: float
    alpha: float = 1.0
    f_spec: FVariant | None = None
    tau: float | None = None
    proximal_inner_iters: int = 100
    reinjection_prior: object | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        self.dt = require_number(self.dt, "dt", 0.0, exclusive=True)
        self.alpha = require_number(self.alpha, "alpha", 0.0)
        self.proximal_inner_iters = require_int(self.proximal_inner_iters, "proximal_inner_iters", 1)
        if self.variant == "proximal" and self.tau is None:
            # default proximal horizon: 10 transport steps per cycle
            self.tau = self.alpha * 10 * self.dt
        if self.tau is not None:
            self.tau = require_number(self.tau, "tau", 0.0, exclusive=True)
        if self.variant == "gd-bd-fvariant" and self.f_spec is None:
            raise ConfigurationError("gd-bd-fvariant requires f_spec")
        if self.variant == "gd-bd-reinjection" and self.reinjection_prior is None:
            raise ConfigurationError("gd-bd-reinjection requires reinjection_prior")

    @property
    def proximal_gd_steps(self) -> int:
        """Transport steps per proximal cycle, from tau = alpha * m * dt."""
        if self.alpha <= 0:
            return 1
        return max(1, round(self.tau / (self.alpha * self.dt)))


def check_model_support(model: PotentialModel, variant: str, prior=None) -> None:
    """The model/variant rules: kmc-bd and proximal need an exact model,
    kmc-bd also needs K = 0, and reinjection needs an amplitude channel plus a
    prior over the position space."""
    if variant in ("kmc-bd", "proximal") and not model.is_exact:
        raise ConfigurationError(f"variant {variant} requires an exact model")
    if variant == "kmc-bd" and model.is_interacting:
        raise ConfigurationError("kinetic Monte Carlo requires a non-interacting model")
    if variant == "gd-bd-reinjection":
        if not model.has_amplitude:
            raise ConfigurationError("reinjection needs a model with an amplitude channel")
        if prior is None:
            raise ConfigurationError("reinjection_prior is not configured")
        if prior.dim != model.position_dim:
            raise ConfigurationError(
                f"reinjection prior dimension {prior.dim} != position dimension {model.position_dim}"
            )


# ---------------------------------------------------------------------------
# rates


def centered_rate(model: PotentialModel, ens: Ensemble, batch: np.ndarray | None = None) -> np.ndarray:
    """vt_i = V(theta_i) - n^-1 sum_j V(theta_j); sums to zero by construction.
    The mean is unweighted, so the ensemble must carry unit weights."""
    if not np.all(ens.weights == 1.0):
        raise ConfigurationError("centered rates take the unweighted mean and need unit weights")
    v = potential(model, ens, batch=batch)
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NumericError(f"non-finite potential at particle {bad}")
    vt = v - v.mean()
    scale = max(1.0, float(np.max(np.abs(v)))) if v.size else 1.0
    if abs(float(vt.sum())) > RATE_SUM_ATOL * scale * max(1.0, ens.n / 1000):
        raise NumericError("centered rates failed to sum to zero")
    return vt


def fvariant_rate(model: PotentialModel, ens: Ensemble, f_spec: FVariant,
                  batch: np.ndarray | None = None) -> np.ndarray:
    """r_i = f(vt_i) - mean_j f(vt_j); the identity transform is a no-op so the
    base scheme is reproduced bitwise."""
    vt = centered_rate(model, ens, batch)
    if f_spec.kind == "identity":
        return vt
    fv = f_spec(vt)
    return fv - fv.mean()


def _effective_rates(model, ens, cfg, batch=None):
    if cfg.variant == "gd-bd-fvariant":
        return fvariant_rate(model, ens, cfg.f_spec, batch)
    return centered_rate(model, ens, batch)


# ---------------------------------------------------------------------------
# transport


def gd_step(model: PotentialModel, ens: Ensemble, dt: float, batch: np.ndarray | None = None) -> Ensemble:
    """Synchronous forward-Euler update theta_i <- theta_i - grad V(theta_i) dt."""
    if not dt > 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    # a non-interacting model needs only grad F, not the V that `field` also forms
    vel = field(model, ens, batch)[1] if model.is_interacting else model.grad_F(ens.thetas)
    if not np.all(np.isfinite(vel)):
        bad = int(np.flatnonzero(~np.isfinite(vel).all(axis=1))[0])
        raise NumericError(f"non-finite gradient at particle {bad}")
    ens.thetas = ens.thetas - dt * vel
    return ens


# ---------------------------------------------------------------------------
# birth-death pass


def bernoulli_phase(rates: np.ndarray, alpha: float, dt: float, rng: np.random.Generator):
    """Independent kill/duplicate draws from frozen rates.

    Returns boolean (kill, duplicate) masks; kill applies where rates > 0,
    duplication where rates < 0, each with probability 1 - exp(-alpha|r|dt).
    """
    rates = np.asarray(rates, dtype=float)
    p = -np.expm1(-alpha * np.abs(rates) * dt)
    u = rng.random(rates.size)
    kill = (rates > 0) & (u < p)
    dup = (rates < 0) & (u < p)
    return kill, dup


def _birth_death_pass(model: PotentialModel, ens: Ensemble, cfg: DynamicsConfig,
                      rng: np.random.Generator, rates: np.ndarray | None, prior) -> StepReport:
    """One Bernoulli kill/duplicate pass on frozen rates, then exact head-count
    control: excess is removed uniformly, and a deficit is refilled by uniform
    cloning or, when `prior` is given, by zero-amplitude rows whose positions
    are drawn from it.  A field carried on the ensemble is carried to the new
    rows."""
    if rates is None:
        rates = _effective_rates(model, ens, cfg)
    carried = ens._carried_field(model)
    kill, dup = bernoulli_phase(rates, cfg.alpha, cfg.dt, rng)
    n0 = ens.n
    surv = np.flatnonzero(~kill)
    if surv.size == 0:
        raise ExtinctionError("all particles were killed in one birth-death pass")
    dup_idx = np.flatnonzero(dup & ~kill)
    report = StepReport(births=int(dup_idx.size), deaths=int(n0 - surv.size))
    report.max_rate = float(cfg.alpha * np.max(np.abs(rates), initial=0.0) * cfg.dt)

    src = np.concatenate([surv, dup_idx])  # source row of each new row; -1 if reinjected
    bids = np.concatenate([ens.birth_ids[surv], ens.claim_birth_ids(dup_idx.size)])

    n1 = src.size
    report.population_corrections = abs(n1 - n0)
    if n1 > n0:
        drop = rng.choice(n1, size=n1 - n0, replace=False)
        keep = np.ones(n1, dtype=bool)
        keep[drop] = False
        src, bids = src[keep], bids[keep]
    elif n1 < n0:
        deficit = n0 - n1
        if prior is None:
            src = np.concatenate([src, src[rng.choice(n1, size=deficit, replace=True)]])
        else:
            src = np.concatenate([src, np.full(deficit, -1)])
        bids = np.concatenate([bids, ens.claim_birth_ids(deficit)])

    old_thetas, old_weights = ens.thetas, ens.weights
    fresh = np.flatnonzero(src < 0)
    thetas, weights = old_thetas[src], old_weights[src]  # fresh rows are filled below
    if fresh.size:
        thetas[fresh] = 0.0
        thetas[fresh, 1:] = prior.sample(rng, fresh.size)
        weights[fresh] = 1.0
    ens.thetas, ens.weights, ens.birth_ids = thetas, weights, bids
    if carried is not None:
        ens._carry_field(model, *_carry_across(model, ens, src, old_thetas, old_weights, *carried))
    return report


def _carry_across(model, ens, src, old_thetas, old_weights, v, grad):
    """(V, grad V) after a birth-death pass: a kept or cloned row takes its
    source's values plus the kernel sums against the old rows whose count
    changed (weight w * (count - 1)) and the reinjected rows, which are
    evaluated afresh.  Costs n pair evaluations per changed or reinjected row."""
    n = ens.n
    fresh = src < 0
    kept = np.flatnonzero(~fresh)
    count = np.bincount(src[kept], minlength=old_thetas.shape[0])
    changed = np.flatnonzero(count != 1)
    v, grad = v[src], grad[src]  # rows with source -1 are overwritten below
    if changed.size or fresh.any():
        b = np.vstack([old_thetas[changed], ens.thetas[fresh]])
        w = np.concatenate([old_weights[changed] * (count[changed] - 1), ens.weights[fresh]])
        vsum, fsum = model.kernel_weighted_sums(ens.thetas[kept], b, w)
        v[kept] += vsum / n
        grad[kept] += fsum / n
    if fresh.any():
        rows = ens.thetas[fresh]
        vsum, fsum = model.kernel_weighted_sums(rows, ens.thetas, ens.weights)
        v[fresh] = model.F(rows) + vsum / n
        grad[fresh] = model.grad_F(rows) + fsum / n
    return v, grad


def birth_death_step(model: PotentialModel, ens: Ensemble, cfg: DynamicsConfig,
                     rng: np.random.Generator, rates: np.ndarray | None = None) -> StepReport:
    """Birth-death pass whose deficit refill clones uniform survivors."""
    return _birth_death_pass(model, ens, cfg, rng, rates, prior=None)


def reinjection_step(model: PotentialModel, ens: Ensemble, cfg: DynamicsConfig,
                     rng: np.random.Generator, rates: np.ndarray | None = None) -> StepReport:
    """Birth-death pass whose deficit refill samples fresh particles with zero
    amplitude and positions from the configured prior."""
    check_model_support(model, "gd-bd-reinjection", cfg.reinjection_prior)
    return _birth_death_pass(model, ens, cfg, rng, rates, prior=cfg.reinjection_prior)


# ---------------------------------------------------------------------------
# exact-event simulation (no transport)


@dataclass
class KMCLog:
    times: np.ndarray
    mean_energy: np.ndarray  # population mean of F after each event
    initial_mean: float
    horizon: float

    @property
    def n_events(self) -> int:
        return self.times.size

    def mean_energy_at(self, t: float) -> float:
        """Population mean energy at time t since the start of the run
        (piecewise constant)."""
        i = int(np.searchsorted(self.times, t, side="right"))
        return self.initial_mean if i == 0 else float(self.mean_energy[i - 1])


def kmc_run(model: PotentialModel, ens: Ensemble, cfg: DynamicsConfig, horizon: float,
            rng: np.random.Generator) -> KMCLog:
    """Exact-in-time kill/duplicate simulation with positions frozen.

    Waiting times are exponential with the total rate alpha * sum_i |vt_i|;
    the event particle is chosen proportionally to |vt_i| and rates are
    recomputed after every event.  Requires K = 0 so V depends on a particle
    only through F.
    """
    check_model_support(model, "kmc-bd")
    if horizon < 0:
        raise ConfigurationError("horizon must be >= 0")
    n = ens.n
    f_vals = model.F(ens.thetas)
    if not np.all(np.isfinite(f_vals)):
        raise NumericError("non-finite potential in kmc_run")
    initial_mean = float(f_vals.mean())
    times, means = [], []
    t = 0.0
    while True:
        vt = f_vals - f_vals.mean()
        rates = cfg.alpha * np.abs(vt)
        total = float(rates.sum())
        if total <= 0.0:
            break
        wait = rng.exponential(1.0 / total)
        if t + wait > horizon:
            break
        t += wait
        cum = np.cumsum(rates)
        i = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), n - 1)
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        # kill i and duplicate the uniform survivor j into its slot, or
        # duplicate i into the slot of the uniform other j
        dst, src = (i, j) if vt[i] > 0 else (j, i)
        f_vals[dst] = f_vals[src]
        ens.thetas[dst] = ens.thetas[src]
        ens.birth_ids[dst] = ens.claim_birth_ids(1)[0]
        times.append(t)
        means.append(float(f_vals.mean()))
    ens.time += horizon
    return KMCLog(
        times=np.asarray(times),
        mean_energy=np.asarray(means),
        initial_mean=initial_mean,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# proximal weights


def proximal_weight_update(model: PotentialModel, ens: Ensemble, tau: float,
                           inner_iters: int = 100) -> Ensemble:
    """Implicit multiplicative weight update solved by fixed-point sweeps.

    Solves w_i = C^-1 w_i^prev exp(-tau V_i(w)) with V recomputed from the
    current iterate and C normalizing the mean weight to 1.  The exact loss
    never increases across a converged update.
    """
    if not model.is_exact:
        raise ConfigurationError("proximal weight updates need an exact model")
    if not tau > 0:
        raise ConfigurationError(f"tau must be > 0, got {tau}")
    thetas = ens.thetas
    f_vals = model.F(thetas)
    base = ens.weights.copy()
    w = base.copy()
    prev_change = math.inf
    grows = 0
    for _ in range(max(1, inner_iters)):
        if model.is_interacting:
            v = f_vals + model.kernel_weighted_sums(thetas, thetas, w)[0] / ens.n
        else:
            v = f_vals
        raw = base * np.exp(-tau * (v - v.min()))
        mean_raw = raw.mean()
        if not np.isfinite(mean_raw) or mean_raw <= 0:
            raise NumericError("proximal update produced a degenerate weight vector")
        w_new = raw / mean_raw
        change = float(np.max(np.abs(w_new - w)))
        w = w_new
        if change < PROXIMAL_TOL:
            break
        if change > prev_change:
            grows += 1
            if grows >= 3:
                raise StepSizeError(
                    "proximal iteration diverged for 3 consecutive sweeps; reduce tau"
                )
        else:
            grows = 0
        prev_change = change
    ens.weights = w
    return ens


def resample_weights(ens: Ensemble, rng: np.random.Generator) -> StepReport:
    """Systematic resampling to unit weights.

    Particle i appears N_i in {floor(w_i), ceil(w_i)} times with E[N_i] = w_i
    and sum N_i = n exactly; survivor order follows the original index order.
    """
    w = ens.weights
    if np.any(w < 0):
        raise ConfigurationError("weights must be nonnegative before resampling")
    total = float(w.sum())
    if total <= 0:
        raise ExtinctionError("all weights are zero; cannot resample")
    n = ens.n
    cum = np.cumsum(w)
    pos = (np.arange(n) + rng.random()) * (total / n)
    idx = np.searchsorted(cum, pos, side="right")
    np.clip(idx, 0, n - 1, out=idx)
    counts = np.bincount(idx, minlength=n)

    rep = np.repeat(np.arange(n), counts)
    new_bids = ens.birth_ids[rep].copy()
    starts = np.cumsum(counts) - counts
    first = np.zeros(rep.size, dtype=bool)
    first[starts[counts > 0]] = True
    new_bids[~first] = ens.claim_birth_ids(int((~first).sum()))

    ens.thetas = ens.thetas[rep]
    ens.weights = np.ones(n)
    ens.birth_ids = new_bids
    return StepReport(births=int((~first).sum()), deaths=int((counts == 0).sum()))


# ---------------------------------------------------------------------------
# orchestration


def run_step(model: PotentialModel, ens: Ensemble, cfg: DynamicsConfig,
             rng: np.random.Generator) -> StepReport:
    """Advance one full dynamics step: transport, then one birth-death pass on
    the post-transport rates.  The population size is exactly conserved."""
    n0 = ens.n
    variant = cfg.variant
    check_model_support(model, variant, cfg.reinjection_prior)
    batch = None if model.is_exact else model.sample_batch(rng)

    substeps = cfg.proximal_gd_steps if variant == "proximal" else 1
    if variant not in ("bd-only", "kmc-bd"):
        for _ in range(substeps):
            gd_step(model, ens, cfg.dt, batch)

    if variant == "gd-only":
        report = StepReport()
    elif variant == "kmc-bd":
        log = kmc_run(model, ens, cfg, cfg.dt, rng)
        report = StepReport(births=log.n_events, deaths=log.n_events)
    elif variant == "proximal":
        proximal_weight_update(model, ens, cfg.tau, cfg.proximal_inner_iters)
        report = resample_weights(ens, rng)
    else:
        rates = _effective_rates(model, ens, cfg, batch)
        bd_pass = reinjection_step if variant == "gd-bd-reinjection" else birth_death_step
        report = bd_pass(model, ens, cfg, rng, rates=rates)

    ens.step_count += substeps
    ens.time = ens.step_count * cfg.dt  # exact, no float accumulation drift
    if ens.n != n0:
        raise NumericError(f"population changed from {n0} to {ens.n} within one step")
    ens.validate()
    return report
