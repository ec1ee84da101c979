"""Deterministic references: exact solutions without transport, asymptotic
rate formulas, and a 1D finite-volume solver for the conserved dynamics.

The solver starts from a 1D gaussian or uniform sampler, uses first-order
upwind fluxes with zero-flux walls for the transport term and an explicit
Euler reaction update, and renormalizes the mass to 1 every step.  V comes from
`potentials.field`, with the cells as nodes weighted by their mass.  Each step
first sets densities below the smallest normal double to 0, since arithmetic
on subnormal numbers is several times slower.  A step touches only the cells
within one cell of nonzero mass: a cell whose neighbours both hold 0 gets no
flux and stays 0, so the result equals a step over every cell.  It is a
law-of-large-numbers reference at desk scale, not a production PDE code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import DynamicsConfig
from .ensemble import Ensemble
from .errors import (ConfigurationError, NumericError, StepSizeError, require_array, require_int,
                     require_number, require_spd)
from .potentials import PotentialModel, ensemble_energy, field as potential_field
from .samplers import GaussianSampler, UniformSampler

CFL_LIMIT = 0.9
CLIP_WARN_MASS = 1e-6
CLIP_ESCALATE_AFTER = 100
VARIANCE_FLOOR = 1e-300
TINY = np.finfo(float).tiny  # smallest normal double; grid cells below it are flushed to 0
GAUSSIAN_SUPPORT_STD = 8.0  # a gaussian start is truncated at mean +- 8 std


# ---------------------------------------------------------------------------
# exact solutions without transport


def _reaction_only(f, rho0, alpha: float, t: float, grid):
    """F on `grid`, its grid minimum, the unnormalized reaction-only density
    e^{-alpha t (F - min F)} rho0 on `grid`, and its trapezoidal normalizer Z.
    The grid must be a finite, strictly increasing vector of at least 2 points."""
    alpha, t = require_number(alpha, "alpha", 0.0), require_number(t, "t", 0.0)
    grid = require_array(grid, "grid", (1,))
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ConfigurationError(
            f"grid must be strictly increasing with at least 2 points, got {grid!r}")
    fg = np.asarray(f(grid), dtype=float)
    base = float(fg.min())
    w = np.exp(-alpha * t * (fg - base)) * np.asarray(rho0(grid), dtype=float)
    z = np.trapezoid(w, grid)
    if not np.isfinite(z) or z <= 0:
        raise NumericError("normalizer of the reaction-only density is degenerate")
    return fg, base, w, z


def pure_bd_density(f, rho0, alpha: float, t: float, theta, grid: np.ndarray):
    """Exact reaction-only density e^{-alpha t F} rho0 / Z at the points `theta`.

    `f` and `rho0` are vectorized scalar callables; Z is computed by
    trapezoidal quadrature on `grid`.  F is internally offset by its grid
    minimum, so the result is invariant under F -> F + const and the
    normalizer cannot underflow.
    """
    _, base, _, z = _reaction_only(f, rho0, alpha, t, grid)
    pts = require_array(theta, "theta")
    out = np.exp(-alpha * t * (np.asarray(f(pts), dtype=float) - base)) * np.asarray(
        rho0(pts), dtype=float
    ) / z
    return out if pts.ndim else float(out)


def pure_bd_mean_energy(f, rho0, alpha: float, t: float, grid: np.ndarray) -> float:
    """Mean energy integral F rho_t under the exact reaction-only solution."""
    fg, _, w, z = _reaction_only(f, rho0, alpha, t, grid)
    return float(np.trapezoid(fg * w, grid) / z)


# ---------------------------------------------------------------------------
# asymptotic rate formulas


@dataclass(frozen=True)
class RateFormulas:
    hessian: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "hessian", require_spd(self.hessian, "hessian"))
        object.__setattr__(self, "alpha", require_number(self.alpha, "alpha", 0.0, exclusive=True))


def transport_bd_asymptote(formulas: RateFormulas, t):
    """Late-time energy envelope alpha^-1 tr(H e^{-2 H t}) via eigenvalues."""
    t_arr = require_array(t, "t", (0, 1))
    if np.any(t_arr < 0):
        raise ConfigurationError(f"t must be >= 0, got {t!r}")
    evals = np.linalg.eigvalsh(formulas.hessian)
    out = np.sum(evals * np.exp(-2.0 * np.outer(t_arr.ravel(), evals)), axis=1) / formulas.alpha
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def _require_vector(value, name: str, k: int) -> np.ndarray:
    """`value` as a finite float vector of length k; a scalar counts when k = 1."""
    v = np.atleast_1d(require_array(value, name))
    if v.shape != (k,):
        raise ConfigurationError(f"{name} must have length {k} like the hessian, got {value!r}")
    return v


def characteristics_density_quadratic(hessian, minimizer, rho0_mean, rho0_cov,
                                      alpha: float, t: float, theta):
    """Exact density for quadratic F and gaussian initial data.

    Flowing the reaction-transport solution along the linear characteristics
    keeps everything gaussian: the result has precision
    (alpha/2)(e^{2Ht} - I) + e^{Ht} Cov0^-1 e^{Ht} around a mean that relaxes
    to the minimizer.  Covariance eigenvalues are floored at 1e-300 once the
    contraction underflows.  A 1 x 1 `rho0_cov` (a scalar) is isotropic.
    """
    h = require_spd(hessian, "hessian")
    k = h.shape[0]
    mstar = _require_vector(minimizer, "minimizer", k)
    m0 = _require_vector(rho0_mean, "rho0_mean", k)
    cov0 = require_spd(rho0_cov, "rho0_cov")
    if cov0.shape == (1, 1):
        cov0 = cov0[0, 0] * np.eye(k)
    if cov0.shape != h.shape:
        raise ConfigurationError(f"rho0_cov must be {k} x {k} like the hessian, got {cov0.shape}")
    alpha, t = require_number(alpha, "alpha", 0.0), require_number(t, "t", 0.0)
    pts = require_array(theta, "theta", (0, 1, 2))
    if pts.shape[-1:] != (k,) and not (k == 1 and pts.ndim < 2):
        raise ConfigurationError(f"theta must be points of length {k} like the hessian, got {theta!r}")
    evals, vecs = np.linalg.eigh(h)
    # clamp the exponent so e^{2 lambda t} cannot overflow; the floored
    # covariance below is the documented behavior at extreme times
    lam_t = np.minimum(evals * t, 350.0)
    exp_ht = (vecs * np.exp(lam_t)) @ vecs.T
    exp_2ht = (vecs * np.exp(2.0 * lam_t)) @ vecs.T
    prec0 = np.linalg.inv(cov0)
    prec = 0.5 * alpha * (exp_2ht - np.eye(k)) + exp_ht @ prec0 @ exp_ht
    pe, pv = np.linalg.eigh(prec)
    if pe.min() <= 0:
        raise NumericError("characteristic-solution precision lost positive definiteness")
    cov_evals = np.maximum(1.0 / pe, VARIANCE_FLOOR)
    cov = (pv * cov_evals) @ pv.T
    mean = mstar + cov @ (exp_ht @ prec0 @ (m0 - mstar))

    scalar_in = pts.ndim == 0 or (pts.ndim == 1 and k > 1)
    flat = pts.reshape(-1, k)
    diff = flat - mean
    quad = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(cov), diff)
    logdet = float(np.sum(np.log(cov_evals)))
    out = np.exp(-0.5 * (quad + logdet + k * np.log(2.0 * np.pi)))
    return float(out[0]) if scalar_in else out


# ---------------------------------------------------------------------------
# 1D finite-volume solver


@dataclass
class Grid1D:
    lo: float
    hi: float
    density: np.ndarray
    time: float = 0.0
    centers: np.ndarray = field(init=False)
    dx: float = field(init=False)

    def __post_init__(self):
        self.lo, self.hi = require_number(self.lo, "lo"), require_number(self.hi, "hi")
        m = self.density.size
        if m < 2 or not self.hi > self.lo:
            raise ConfigurationError("grid needs at least 2 cells and hi > lo")
        self.dx = (self.hi - self.lo) / m
        self.centers = self.lo + (np.arange(m) + 0.5) * self.dx
        self.renormalize()

    def __setattr__(self, name, value):
        # the constructor's density and any assigned later take this one check, without renormalizing
        if name == "density":
            value = require_array(value, "density", (1,))
            if np.any(value < 0):
                raise ConfigurationError("density must be nonnegative")
            if "centers" in self.__dict__ and value.size != self.centers.size:
                raise ConfigurationError(f"density must hold {self.centers.size} cells, got {value.size}")
        super().__setattr__(name, value)

    @property
    def cells(self) -> int:
        return self.density.size

    def mass(self) -> float:
        return float(self.density.sum() * self.dx)

    def renormalize(self, cells: slice = slice(None)):
        """Divide the density by its mass; only the `cells` slice is divided,
        so every cell outside it must hold 0."""
        m = self.mass()
        if not np.isfinite(m) or m <= 0:
            raise NumericError("grid mass is degenerate")
        self.density[cells] /= m

    def moment(self, phi) -> float:
        """Integral of phi against the grid density."""
        return float(np.sum(np.asarray(phi(self.centers)) * self.density) * self.dx)


def grid_from_sampler(sampler, cells: int) -> Grid1D:
    """The grid's initial density, renormalized to mass 1: a 1D
    `UniformSampler` is constant on its box, and a 1D `GaussianSampler` is its
    normal density at the cell centers of [mean - 8 std, mean + 8 std].  Any
    other sampler (a point mass, a product, d > 1) raises `ConfigurationError`,
    as does a `cells` that is not an integer >= 2."""
    cells = require_int(cells, "cells", 2)
    if isinstance(sampler, UniformSampler) and sampler.dim == 1:
        lo, hi = float(sampler.lo[0]), float(sampler.hi[0])
        return Grid1D(lo, hi, np.full(cells, 1.0 / (hi - lo)))
    if not (isinstance(sampler, GaussianSampler) and sampler.dim == 1):
        raise ConfigurationError(f"the grid starts from a 1D gaussian or uniform sampler, got {sampler!r}")
    m, s = float(sampler.mean[0]), sampler.std
    lo, hi = m - GAUSSIAN_SUPPORT_STD * s, m + GAUSSIAN_SUPPORT_STD * s
    centers = lo + (np.arange(cells) + 0.5) * (hi - lo) / cells
    q = (centers - m) ** 2 / (2.0 * s**2)
    return Grid1D(lo, hi, np.exp(-q) / (2.0 * np.pi * s**2) ** 0.5)


def _upwind_stencil(v: np.ndarray, dx: float):
    """Advection speed a = -dV/dx at the interior interfaces, max |a|, and the
    mask of interfaces whose donor is the left cell (a > 0); the rest take the
    right cell."""
    a = -np.diff(v) / dx
    return a, float(np.max(np.abs(a), initial=0.0)), a > 0


class GridStepper:
    """Explicit upwind/reaction stepper for one 1D model without amplitude
    channel on one `grid_from_sampler` grid.  Its cells are nodes at the centers
    weighted by their mass: V is `field` and the energy `ensemble_energy` on them.

    The config variant selects the terms: gd-only (transport), bd-only
    (reaction), gd-bd (both).  V is recomputed from the incoming density each
    step; negative cells are clipped to zero (clipped mass is tracked and
    escalates to an error if it exceeds 1e-6 in more than 100 steps).  Each
    step flushes cells below `np.finfo(float).tiny` to 0 before reading the
    density, so only the cells that underflowed in the last step are ever
    held subnormal.  A step updates `grid.density` in place and touches only
    the cells within one cell of nonzero mass, found afresh each step; the
    mass, Vbar and the CFL check still read every cell, so each result equals
    that of a step over the whole grid.
    """

    def __init__(self, model: PotentialModel, grid: Grid1D, cfg: DynamicsConfig):
        if model.has_amplitude or model.theta_dim != 1:
            raise ConfigurationError("the grid solver needs a 1D model without amplitude channel")
        if cfg.variant not in ("gd-only", "bd-only", "gd-bd"):
            raise ConfigurationError(
                f"grid solver supports variants gd-only, bd-only, gd-bd; got {cfg.variant!r}"
            )
        self.model = model
        self.grid = grid
        self.cfg = cfg
        self.transport = cfg.variant in ("gd-only", "gd-bd")
        self.reaction = cfg.variant in ("bd-only", "gd-bd")
        self.steps_taken = 0
        self.heavy_clips = 0
        self.total_clip_mass = 0.0
        if not model.is_interacting:  # V = F is static: one stencil serves every step
            self._f = model.single(grid.centers[:, None])[0]
            self._stencil = _upwind_stencil(self._f, grid.dx)
        self._flux = np.zeros(grid.cells + 1)  # zero-flux walls stay zero
        self._buf = np.empty(grid.cells)

    def _nodes(self) -> Ensemble:
        """The cells as nodes of weight rho dx cells: n^-1 sum_j w_j g(x_j) = sum_j rho_j dx g(x_j)."""
        g = self.grid
        return Ensemble(g.centers[:, None], g.density * (g.dx * g.cells), np.arange(g.cells))

    def potential(self) -> np.ndarray:
        """V = F + sum_j rho_j dx K(., x_j): `field` on the nodes, at them as points so nothing is carried."""
        nodes = self._nodes()
        return potential_field(self.model, nodes, points=nodes.thetas)[0]

    def step(self, dt: float | None = None) -> float:
        """Advance one step; returns the mass clipped from negative cells."""
        dt = self.cfg.dt if dt is None else dt
        if type(dt) is not float or not 0.0 < dt < np.inf:  # require_number costs µs; a solve is ~10^4 steps
            dt = require_number(dt, "dt", 0.0, exclusive=True)
        g = self.grid
        rho = g.density
        # the window [lo, hi) holds every nonzero cell and one more on each side; a
        # cell outside it has two empty neighbours, so no flux reaches it and it
        # stays 0.  The mass, Vbar and the CFL check stay full length, so every value
        # equals that of a step over all cells.  bytes.find and rfind locate the ends
        # with memchr (argmax on a reversed view takes ~15 µs at 24,576 cells)
        nz = (rho != 0).tobytes()
        lo = max(nz.find(1) - 1, 0)
        hi = min(nz.rfind(1) + 2, rho.size)
        w = rho[lo:hi]
        # flush subnormals before any arithmetic reads them; leaving out the
        # zeros keeps the indexed write to the few cells that underflowed
        low = w < TINY
        low &= w > 0
        w[low] = 0.0
        if not self.model.is_interacting:
            v, (a, a_max, up) = self._f, self._stencil
        else:
            v = self.potential()
            a, a_max, up = _upwind_stencil(v, g.dx)
        if self.reaction:
            vbar = float(np.dot(v, rho)) * g.dx  # from the incoming density, like v
        if self.transport:
            cfl = dt * a_max / g.dx
            if cfl > CFL_LIMIT + 1e-12:
                raise StepSizeError(
                    f"CFL violation: dt*max|v|/dx = {cfl:.3g} > {CFL_LIMIT}; reduce dt"
                )
            flux = self._flux[lo:hi + 1]  # _flux[i] is the interface of cells i - 1 and i
            flux[0] = flux[-1] = 0.0  # a wall, or two empty cells
            np.copyto(flux[1:-1], w[1:])  # donor-cell (upwind) density: the right cell,
            np.copyto(flux[1:-1], w[:-1], where=up[lo:hi - 1])  # the left one where a > 0
            flux[1:-1] *= a[lo:hi - 1]
            buf = np.subtract(flux[1:], flux[:-1], out=self._buf[lo:hi])
            buf *= dt / g.dx
            w -= buf
        if self.reaction:
            factor = np.multiply(v[lo:hi], -self.cfg.alpha * dt, out=self._buf[lo:hi])
            factor += 1.0 + self.cfg.alpha * dt * vbar
            w *= factor
        clip = 0.0
        if float(w.min()) < 0.0:
            neg = w < 0
            clip = -float(w[neg].sum()) * g.dx
            np.maximum(w, 0.0, out=w)
            if clip > CLIP_WARN_MASS:
                self.heavy_clips += 1
                if self.heavy_clips > CLIP_ESCALATE_AFTER:
                    raise NumericError(
                        f"clipped mass exceeded {CLIP_WARN_MASS} in more than "
                        f"{CLIP_ESCALATE_AFTER} steps; the solve is unstable"
                    )
        g.renormalize(slice(lo, hi))
        g.time += dt
        self.steps_taken += 1
        self.total_clip_mass += clip
        return clip

    def run_until(self, t_end: float):
        """Step with the configured dt, shortening only the final step."""
        t_end = require_number(t_end, "t_end")
        while True:
            remaining = t_end - self.grid.time
            if remaining < 1e-12:
                break
            self.step(min(self.cfg.dt, remaining))
        return self.grid

    def energy(self) -> float:
        """sum_i rho_i dx F_i + 0.5 sum_ij rho_i rho_j dx^2 K_ij: `ensemble_energy` on the nodes."""
        return ensemble_energy(self.model, self._nodes())
