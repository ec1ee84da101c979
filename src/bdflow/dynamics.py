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
the kinetic Monte Carlo path draws each event from the current rates, which
Fenwick trees over the sorted initial F values update in O(log n) per event.

Every scheme that builds a new population from copies of old particles (the
birth-death pass, resampling and KMC) only chooses the source row of each new
row and which rows are copies; ``potentials.regroup_field``, the one rebuild,
builds the rows, weights and birth ids through ``Ensemble.regroup`` and moves
the (F, V, grad V) that ``potentials.field`` carried after transport to the
new rows, so for interacting exact models a step makes one pairwise pass and
the next transport step and the energy reuse it.  Only ``run_step`` forms
rates; a birth-death pass is arithmetic on the rates it is given, and one that
draws no kill and no clone rebuilds nothing, leaving the record as it is.

RNG draw order per step is fixed (minibatch, then Bernoulli uniforms, then
population-control picks) so trajectories reproduce bitwise from a seed.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, init_from_sampler
from .errors import (
    ConfigurationError,
    ExtinctionError,
    NumericError,
    StepSizeError,
    require_array,
    require_int,
    require_number,
)
from .potentials import PotentialModel, field, regroup_field

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
    gd-bd-fvariant, `reinjection_prior` only by gd-bd-reinjection, and
    `proximal_steps`, the m transport steps of one proximal step, only by
    proximal; every variant carries them unchanged, so one configuration can
    be swept over the variant."""

    variant: str
    dt: float
    alpha: float = 1.0
    f_spec: FVariant | None = None
    proximal_steps: int = 10
    reinjection_prior: object | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        self.dt = require_number(self.dt, "dt", 0.0, exclusive=True)
        self.alpha = require_number(self.alpha, "alpha", 0.0)
        self.proximal_steps = require_int(self.proximal_steps, "proximal_steps", 1)
        if self.variant == "proximal" and self.alpha == 0:
            raise ConfigurationError("proximal needs alpha > 0: its weight update runs for time tau / alpha")
        if self.variant == "gd-bd-fvariant" and self.f_spec is None:
            raise ConfigurationError("gd-bd-fvariant requires f_spec")
        if self.variant == "gd-bd-reinjection" and self.reinjection_prior is None:
            raise ConfigurationError("gd-bd-reinjection requires reinjection_prior")

    @property
    def tau(self) -> float:
        """The proximal weight update's tau = alpha * m * dt, for m = `proximal_steps`."""
        return self.alpha * self.proximal_steps * self.dt

    @property
    def substeps(self) -> int:
        """Transport steps per step: 1, or `proximal_steps` for proximal."""
        return self.proximal_steps if self.variant == "proximal" else 1


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


def _require_unit_weights(ens: Ensemble) -> None:
    if not (ens.weights == 1.0).all():
        raise ConfigurationError("centered rates take the unweighted mean and need unit weights")


def centered_rate(model: PotentialModel, ens: Ensemble, batch: np.ndarray | None = None) -> np.ndarray:
    """vt_i = V(theta_i) - n^-1 sum_j V(theta_j), V from `field`; sums to zero
    by construction.  The mean is unweighted, so the ensemble must carry unit weights."""
    _require_unit_weights(ens)
    v = field(model, ens, batch)[0]
    top = float(np.maximum.reduce(np.abs(v), initial=0.0))  # NaN if any V is NaN
    if not math.isfinite(top):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NumericError(f"non-finite potential at particle {bad}")
    vt = v - np.add.reduce(v) / v.size  # np.mean's sum and division
    if abs(float(np.add.reduce(vt))) > RATE_SUM_ATOL * max(1.0, top) * max(1.0, ens.n / 1000):
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


# ---------------------------------------------------------------------------
# transport


def gd_step(model: PotentialModel, ens: Ensemble, dt: float, batch: np.ndarray | None = None) -> Ensemble:
    """Synchronous forward-Euler update theta_i <- theta_i - grad V(theta_i) dt, dt finite and > 0."""
    dt = require_number(dt, "dt", 0.0, exclusive=True)
    vel = field(model, ens, batch)[1]
    if not np.isfinite(vel).all():
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
    Rates must be a vector of finite reals, alpha a finite real >= 0 and dt one > 0.
    """
    if not (isinstance(rates, np.ndarray) and rates.dtype == np.float64 and rates.ndim == 1):
        rates = require_array(rates, "rates", (1,))
    alpha, dt = require_number(alpha, "alpha", 0.0), require_number(dt, "dt", 0.0, exclusive=True)
    hit = _bernoulli_hits(rates, alpha, dt, rng)[0]
    kill = (rates > 0) & hit
    return kill, hit ^ kill


def _bernoulli_hits(rates: np.ndarray, alpha: float, dt: float, rng: np.random.Generator):
    """The rows where `bernoulli_phase` draws an event, a kill where the rate
    is positive and a clone where it is negative, and max |rate|, from one
    scan of |rates| that also rejects a rate that is not finite."""
    p = np.abs(rates)
    top = float(np.maximum.reduce(p, initial=0.0))  # NaN if any rate is NaN
    if not math.isfinite(top):
        raise ConfigurationError("rates must be finite")
    p *= -alpha  # p = -alpha |r| dt, whose event probability is -expm1(p)
    p *= dt
    return rng.random(rates.size) < -np.expm1(p, out=p), top  # a zero rate's probability is 0: no hit


def _birth_death_pass(ens: Ensemble, cfg: DynamicsConfig, rng: np.random.Generator,
                      rates: np.ndarray, prior) -> StepReport:
    """One Bernoulli kill/duplicate pass on frozen rates, then exact head-count
    control: excess is removed uniformly, and a deficit is refilled by uniform
    cloning or, when `prior` is given, by zero-amplitude rows whose positions
    are drawn from it.  `regroup_field` builds the new rows and moves the
    carried field; a pass that draws no event returns before it, leaving the
    population as it was.  Given `rates` must be one finite real per particle."""
    n0 = ens.n
    if not (isinstance(rates, np.ndarray) and rates.dtype == np.float64):
        rates = require_array(rates, "rates", (1,))
    if rates.shape != (n0,):
        raise ConfigurationError(f"rates must hold one entry per particle, shape ({n0},), got {rates.shape}")
    hit, top = _bernoulli_hits(rates, cfg.alpha, cfg.dt, rng)
    report = StepReport(max_rate=float(cfg.alpha * top * cfg.dt))
    if not hit.any():
        return report
    kill = (rates > 0) & hit
    surv = np.flatnonzero(~kill)
    if surv.size == 0:
        raise ExtinctionError("all particles were killed in one birth-death pass")
    dup_idx = np.flatnonzero(hit ^ kill)  # the other hits are clones
    report.births, report.deaths = int(dup_idx.size), int(n0 - surv.size)

    src = np.concatenate([surv, dup_idx])  # source row of each new row; -1 if reinjected
    n1 = src.size
    copies = np.zeros(max(n0, n1), dtype=bool)
    copies[surv.size:] = True  # clones and refills follow the survivors
    fresh = None
    report.population_corrections = abs(n1 - n0)
    if n1 > n0:
        drop = rng.choice(n1, size=n1 - n0, replace=False)
        keep = np.ones(n1, dtype=bool)
        keep[drop] = False
        src, copies = src[keep], copies[keep]
    elif n1 < n0:
        deficit = n0 - n1
        if prior is None:
            src = np.concatenate([src, src[rng.choice(n1, size=deficit, replace=True)]])
        else:
            src = np.concatenate([src, np.full(deficit, -1)])
            fresh = np.hstack([np.zeros((deficit, 1)), prior.sample(rng, deficit)])
    regroup_field(ens, src, copies, fresh)
    return report


def birth_death_step(ens: Ensemble, cfg: DynamicsConfig, rng: np.random.Generator,
                     rates: np.ndarray) -> StepReport:
    """Birth-death pass whose deficit refill clones uniform survivors."""
    return _birth_death_pass(ens, cfg, rng, rates, prior=None)


def reinjection_step(model: PotentialModel, ens: Ensemble, cfg: DynamicsConfig,
                     rng: np.random.Generator, rates: np.ndarray) -> StepReport:
    """Birth-death pass whose deficit refill samples fresh particles with zero
    amplitude and positions from the configured prior, in `model`'s row layout."""
    check_model_support(model, "gd-bd-reinjection", cfg.reinjection_prior)
    return _birth_death_pass(ens, cfg, rng, rates, prior=cfg.reinjection_prior)


# ---------------------------------------------------------------------------
# exact-event simulation (no transport)


@dataclass
class KMCLog:
    times: np.ndarray
    mean_energy: np.ndarray  # population mean of F after each event
    initial_mean: float

    @property
    def n_events(self) -> int:
        return self.times.size

    def mean_energy_at(self, t: float) -> float:
        """Population mean energy at time t since the start of the run
        (piecewise constant)."""
        i = int(np.searchsorted(self.times, t, side="right"))
        return self.initial_mean if i == 0 else float(self.mean_energy[i - 1])


def _fenwick(values: np.ndarray) -> list:
    """The Fenwick tree of `values` as a list: item i > 0 sums
    values[i & (i - 1) : i], and item 0 is 0."""
    node = np.arange(values.size + 1)
    sums = np.concatenate(([0], np.cumsum(values)))
    sums -= sums[node & (node - 1)]
    return sums.tolist()


class _RankPopulation:
    """A population over n sorted values `f`: `count[r]` particles hold f[r].

    Two Fenwick trees (Fenwick, Softw. Pract. Exp. 24(3), 1994) over the
    ranks hold count and count * f, so `weight`, `pick`, `_rank_holding` and
    `move` cost O(log n) each.  Copies of one value are the same mass, so the
    population keeps no per-particle state.  The trees and counts are lists,
    whose items update in place faster than those of arrays.
    """

    def __init__(self, f: np.ndarray, count: np.ndarray):
        n = self.n = f.size
        self._top = 1 << (n.bit_length() - 1)  # the largest power of two <= n
        self.c_tree, self.s_tree = _fenwick(count), _fenwick(count * f)
        self.s_tot = float(np.sum(count * f))
        self.f, self.count = array("d", f.tobytes()), count.tolist()
        self._cut = None

    @property
    def mean(self) -> float:
        """The mean of the particles' values from the running sum `s_tot`."""
        return self.s_tot / self.n

    def _prefix(self, p: int) -> tuple[int, float]:
        """(count, count * f) summed over the ranks below p."""
        c_tree, s_tree = self.c_tree, self.s_tree
        c, s = 0, 0.0
        while p:
            c += c_tree[p]
            s += s_tree[p]
            p &= p - 1
        return c, s

    def _rank_holding(self, m: int) -> int:
        """The rank of the m-th particle (1-based) in rank order."""
        c_tree, n = self.c_tree, self.n
        p, c, step = 0, 0, self._top
        while step:
            q = p + step
            if q <= n and c + c_tree[q] < m:
                p, c = q, c + c_tree[q]
            step >>= 1
        return p

    def weight(self) -> float:
        """The sum of |f - mean| over the particles.  It is 0 when every
        particle lies on one side of the mean, which only particles of one
        value allow (up to the mean's rounding).  `pick` draws from the cut at
        the mean made here."""
        n, mean = self.n, self.mean
        k = bisect_right(self.f, mean)  # ranks below k are at or below the mean
        c, s = self._prefix(k)
        below = mean * c - s
        self._cut = (mean, k, c, below)
        if c == 0 or c == n:
            return 0.0
        return max(below, 0.0) + max(self.s_tot - s - mean * (n - c), 0.0)

    def pick(self, u: float) -> int:
        """The rank r with W(r) <= u < W(r + 1), for u in [0, weight()], where
        W(p) is the weight of the particles of the ranks below p.  W rises by
        count * |f - mean| per rank: mean * C - S up to the cut and
        S - mean * C + 2 * below after it, so one greedy descent finds r.  The
        pick is never an empty rank or one at the mean."""
        mean, k, ck, below = self._cut
        n, c_tree, s_tree = self.n, self.c_tree, self.s_tree
        p, c, s, step = 0, 0, 0.0, self._top
        while step:
            q = p + step
            if q <= n:
                cq, sq = c + c_tree[q], s + s_tree[q]
                if (mean * cq - sq if q <= k else sq - mean * cq + 2.0 * below) <= u:
                    p, c, s = q, cq, sq
            step >>= 1
        if p < n and self.count[p] and self.f[p] != mean:
            return p
        # u lies within rounding of an edge of the shares: take the nearest
        # occupied rank off the mean on the same side
        if p < k:
            c_off = self._prefix(bisect_left(self.f, mean))[0]  # particles strictly below the mean
            return self._rank_holding(min(c + 1, c_off) if c_off else ck + 1)
        return self._rank_holding(min(c + 1, n))

    def move(self, frm: int, to: int) -> None:
        """Move one particle from rank `frm`, which must hold one, to rank `to`."""
        if frm == to:
            return
        self.count[frm] -= 1
        self.count[to] += 1
        n, c_tree, s_tree = self.n, self.c_tree, self.s_tree
        f_frm, f_to = self.f[frm], self.f[to]
        d = f_to - f_frm
        self.s_tot += d
        # walk the two update paths; past their meeting node the counts
        # cancel and the sums change by d
        a, b = frm + 1, to + 1
        while a != b:
            if a < b:
                if a > n:
                    return
                c_tree[a] -= 1
                s_tree[a] -= f_frm
                a += a & -a
            elif b > n:
                return
            else:
                c_tree[b] += 1
                s_tree[b] += f_to
                b += b & -b
        while a <= n:
            s_tree[a] += d
            a += a & -a


def kmc_run(model: PotentialModel, ens: Ensemble, cfg: DynamicsConfig, horizon: float,
            rng: np.random.Generator) -> KMCLog:
    """Exact-in-time kill/duplicate simulation with positions frozen.

    Waiting times are exponential with the total rate alpha * sum_i |vt_i|,
    and the event particle is chosen in proportion to |vt_i|.  Requires K = 0
    so V depends on a particle only through F, and unit weights, since the
    rates are centered on the unweighted mean.  An event only copies one
    particle's F onto another, so every F a particle holds is one of the n
    initial values, and copies of one value are the same mass: the values are
    sorted once, and a `_RankPopulation` keeps the count of each rank and
    Fenwick trees of the counts and of count * F.  An event costs O(log n):
    the total rate from one bisection of the running mean and one prefix sum,
    the event rank from one descent, the other particle's rank from one prefix
    sum and one descent, and two tree updates.

    Each event draws, in order: the exponential wait; one uniform for the
    event rank r; and `integers(n - 1)` for the other particle, a position in
    rank order among the other n - 1 particles, where the event particle
    counts as the last of rank r.  The mean is carried as a running sum, so
    the last logged mean is taken from the final population instead.

    The population is rebuilt once, at the end: a rank that still holds
    particles keeps its initial row and that row's birth id, and its extra
    copies overwrite, in rank order, the rows of the ranks left empty, which
    get new birth ids.  An initial id so stays on its row while its value
    survives.
    """
    check_model_support(model, "kmc-bd")
    horizon = require_number(horizon, "horizon", 0.0)
    _require_unit_weights(ens)
    n = ens.n
    f_vals = model.single(ens.thetas)[0]
    if not np.all(np.isfinite(f_vals)):
        raise NumericError("non-finite potential in kmc_run")
    initial_mean = float(f_vals.mean())
    order = np.argsort(f_vals, kind="stable")
    pop = _RankPopulation(f_vals[order], np.ones(n, dtype=np.int64))
    times, means = array("d"), array("d")
    t = 0.0
    while True:
        weight = pop.weight()
        rate = cfg.alpha * weight
        if rate <= 0.0:
            break
        wait = rng.exponential(1.0 / rate)
        if t + wait > horizon:
            break
        t += wait
        r = pop.pick(rng.random() * weight)
        m = int(rng.integers(n - 1)) + 1
        if m >= pop._prefix(r + 1)[0]:
            m += 1  # step past the event particle, the last of rank r
        other = pop._rank_holding(m)
        # kill the event particle and duplicate the uniform other, or
        # duplicate the event particle over the uniform other
        if pop.f[r] > pop.mean:
            pop.move(r, other)
        else:
            pop.move(other, r)
        times.append(t)
        means.append(pop.mean)  # after the overwrite: logged, and centers the next event
    count = np.array(pop.count)
    empty = order[count == 0]  # the rows of the emptied ranks, in rank order
    src = np.arange(n)
    src[empty] = order[np.repeat(np.arange(n), np.maximum(count - 1, 0))]
    if means:
        means[-1] = float(f_vals[src].mean())
    regroup_field(ens, src, src != np.arange(n))
    ens.time += horizon
    return KMCLog(times=np.asarray(times), mean_energy=np.asarray(means), initial_mean=initial_mean)


# ---------------------------------------------------------------------------
# proximal weights


def proximal_weight_update(model: PotentialModel, ens: Ensemble, tau: float,
                           inner_iters: int = 100) -> Ensemble:
    """Implicit multiplicative weight update solved by fixed-point sweeps.

    Solves w_i = C^-1 w_i^prev exp(-tau V_i(w)) with V from `field` at the
    current iterate and C normalizing the mean weight to 1.  The sweeps run on
    a copy, so `ens` is unchanged when they raise.  The exact loss never
    increases across a converged update.
    """
    if not model.is_exact:
        raise ConfigurationError("proximal weight updates need an exact model")
    tau = require_number(tau, "tau", 0.0, exclusive=True)
    inner_iters = require_int(inner_iters, "inner_iters", 1)
    trial = ens.copy()
    base = w = trial.weights
    prev_change = math.inf
    grows = 0
    for _ in range(inner_iters):
        trial.weights = w
        v = field(model, trial)[0]
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
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ConfigurationError("weights must be finite nonnegative numbers before resampling")
    total = float(w.sum())
    if total <= 0:
        raise ExtinctionError("all weights are zero; cannot resample")
    n = ens.n
    cum = np.cumsum(w)
    pos = (np.arange(n) + rng.random()) * (total / n)
    idx = np.searchsorted(cum, pos, side="right")
    np.clip(idx, 0, n - 1, out=idx)
    counts = np.bincount(idx, minlength=n)
    copies = np.concatenate([[False], idx[1:] == idx[:-1]])  # idx is sorted; a source's first row is kept
    regroup_field(ens, idx, copies)
    ens.weights = np.ones(n)
    return StepReport(births=int(copies.sum()), deaths=int((counts == 0).sum()))


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

    if variant not in ("bd-only", "kmc-bd"):
        for _ in range(cfg.substeps):
            gd_step(model, ens, cfg.dt, batch)

    if variant == "gd-only":
        report = StepReport()
    elif variant == "kmc-bd":
        log = kmc_run(model, ens, cfg, cfg.dt, rng)
        report = StepReport(births=log.n_events, deaths=log.n_events)
    elif variant == "proximal":
        proximal_weight_update(model, ens, cfg.tau)
        report = resample_weights(ens, rng)
    elif variant == "gd-bd-reinjection":
        report = reinjection_step(model, ens, cfg, rng, centered_rate(model, ens, batch))
    elif variant == "gd-bd-fvariant":
        report = birth_death_step(ens, cfg, rng, fvariant_rate(model, ens, cfg.f_spec, batch))
    else:
        report = birth_death_step(ens, cfg, rng, centered_rate(model, ens, batch))

    ens.step_count += cfg.substeps
    ens.time = ens.step_count * cfg.dt  # exact, no float accumulation drift
    if ens.n != n0:
        raise NumericError(f"population changed from {n0} to {ens.n} within one step")
    ens.validate()
    return report


def run_replicas(model: PotentialModel, cfg: DynamicsConfig, init, n: int, seeds, steps,
                 observe) -> list[list]:
    """Replica s draws n particles from `init` on `seeds[s][0]` and steps them on its own
    `default_rng(seeds[s][1])`; its row holds `observe(ens)` after each of the nondecreasing `steps`."""
    steps = [require_int(s, "step count", 0) for s in steps]
    if any(b < a for a, b in zip(steps, steps[1:])):
        raise ConfigurationError(f"step counts must be nondecreasing, got {steps}")
    out = []
    for pair in seeds:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ConfigurationError(f"each seed must be an (init seed, dynamics seed) pair, got {pair!r}")
        ens = init_from_sampler(init, n, model.theta_dim, pair[0])
        rng = np.random.default_rng(require_int(pair[1], "dynamics seed", 0))
        out.append([])
        for done, target in zip([0, *steps], steps):
            for _ in range(target - done):
                run_step(model, ens, cfg, rng)
            out[-1].append(observe(ens))
    return out
