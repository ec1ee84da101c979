"""Deterministic references: exact solutions without transport, asymptotic
rate formulas, and a 1D finite-volume solver for the conserved dynamics.

The solver uses first-order upwind fluxes with zero-flux walls for the
transport term and an explicit Euler reaction update, renormalizing the mass
to 1 every step.  It is a law-of-large-numbers reference at desk scale, not a
production PDE code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import DynamicsConfig
from .errors import ConfigurationError, NumericError, StepSizeError
from .potentials import PotentialModel

CFL_LIMIT = 0.9
CLIP_WARN_MASS = 1e-6
CLIP_ESCALATE_AFTER = 100
VARIANCE_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# exact solutions without transport


def _reaction_only(f, rho0, alpha: float, t: float, grid):
    """F on `grid`, its grid minimum, the unnormalized reaction-only density
    e^{-alpha t (F - min F)} rho0 on `grid`, and its trapezoidal normalizer Z."""
    if t < 0:
        raise ConfigurationError("t must be >= 0")
    grid = np.asarray(grid, dtype=float)
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
    pts = np.asarray(theta, dtype=float)
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
        h = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        if h.shape[0] != h.shape[1] or not np.allclose(h, h.T, atol=1e-12):
            raise ConfigurationError("hessian must be square and symmetric")
        if np.linalg.eigvalsh(h).min() <= 0:
            raise ConfigurationError("hessian must be positive definite")
        if not self.alpha > 0:
            raise ConfigurationError("alpha must be > 0")
        object.__setattr__(self, "hessian", h)

    @property
    def dimension(self) -> int:
        return self.hessian.shape[0]


def transport_bd_asymptote(formulas: RateFormulas, t):
    """Late-time energy envelope alpha^-1 tr(H e^{-2 H t}) via eigenvalues."""
    evals = np.linalg.eigvalsh(formulas.hessian)
    t_arr = np.asarray(t, dtype=float)
    out = np.sum(evals * np.exp(-2.0 * np.outer(t_arr.ravel(), evals)), axis=1) / formulas.alpha
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def characteristics_density_quadratic(hessian, minimizer, rho0_mean, rho0_cov,
                                      alpha: float, t: float, theta):
    """Exact density for quadratic F and gaussian initial data.

    Flowing the reaction-transport solution along the linear characteristics
    keeps everything gaussian: the result has precision
    (alpha/2)(e^{2Ht} - I) + e^{Ht} Cov0^-1 e^{Ht} around a mean that relaxes
    to the minimizer.  Covariance eigenvalues are floored at 1e-300 once the
    contraction underflows.
    """
    h = np.atleast_2d(np.asarray(hessian, dtype=float))
    k = h.shape[0]
    mstar = np.atleast_1d(np.asarray(minimizer, dtype=float))
    m0 = np.atleast_1d(np.asarray(rho0_mean, dtype=float))
    cov0 = np.atleast_2d(np.asarray(rho0_cov, dtype=float))
    if cov0.shape == (1, 1) and k > 1:
        cov0 = cov0[0, 0] * np.eye(k)
    if t < 0:
        raise ConfigurationError("t must be >= 0")
    evals, vecs = np.linalg.eigh(h)
    if evals.min() <= 0:
        raise ConfigurationError("hessian must be positive definite")
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

    pts = np.asarray(theta, dtype=float)
    scalar_in = pts.ndim == 0 or (pts.ndim == 1 and k > 1 and pts.size == k)
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
        self.density = np.asarray(self.density, dtype=float)
        m = self.density.size
        if m < 2 or not self.hi > self.lo:
            raise ConfigurationError("grid needs at least 2 cells and hi > lo")
        self.dx = (self.hi - self.lo) / m
        self.centers = self.lo + (np.arange(m) + 0.5) * self.dx
        if np.any(self.density < 0):
            raise ConfigurationError("density must be nonnegative")
        self.renormalize()

    @property
    def cells(self) -> int:
        return self.density.size

    def mass(self) -> float:
        return float(self.density.sum() * self.dx)

    def renormalize(self):
        m = self.mass()
        if not np.isfinite(m) or m <= 0:
            raise NumericError("grid mass is degenerate")
        self.density /= m

    def moment(self, phi) -> float:
        """Integral of phi against the grid density."""
        return float(np.sum(np.asarray(phi(self.centers)) * self.density) * self.dx)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("theta,density\n")
            for x, r in zip(self.centers, self.density):
                fh.write(f"{x:.17g},{r:.17g}\n")


def grid_from_sampler(sampler, cells: int) -> Grid1D:
    """Cell-centered density on `sampler.support_1d()`: a gaussian is truncated
    at mean +- 8 standard deviations, a box uses its own support."""
    lo, hi = sampler.support_1d()
    centers = lo + (np.arange(cells) + 0.5) * (hi - lo) / cells
    return Grid1D(lo, hi, sampler.pdf(centers[:, None]))


def _upwind_stencil(v: np.ndarray, dx: float):
    """Advection speed a = -dV/dx at the interior interfaces, max |a|, and the
    donor cell of each interface: the left cell where a > 0, else the right."""
    a = -np.diff(v) / dx
    cells = np.arange(a.size)
    return a, float(np.max(np.abs(a), initial=0.0)), np.where(a > 0, cells, cells + 1)


class GridStepper:
    """Explicit upwind/reaction stepper for one 1D model on one grid.

    The config variant selects the terms: gd-only (transport), bd-only
    (reaction), gd-bd (both).  V is recomputed from the incoming density each
    step; negative cells are clipped to zero (clipped mass is tracked and
    escalates to an error if it exceeds 1e-6 in more than 100 steps).
    """

    _K_CACHE_MAX_CELLS = 3000

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
        self._f = model.F(grid.centers[:, None])
        self._k = None
        if model.is_interacting:
            if grid.cells > self._K_CACHE_MAX_CELLS:
                raise ConfigurationError(
                    f"interacting grid solve needs cells <= {self._K_CACHE_MAX_CELLS}"
                )
            self._k = model.K_block(grid.centers[:, None], grid.centers[:, None])
        else:
            self._stencil = _upwind_stencil(self._f, grid.dx)  # V is static without interactions
        self._flux = np.zeros(grid.cells + 1)  # zero-flux walls stay zero
        self._buf = np.empty(grid.cells)

    def potential(self) -> np.ndarray:
        v = self._f.copy()
        if self._k is not None:
            v += self._k @ self.grid.density * self.grid.dx
        return v

    def step(self, dt: float | None = None) -> float:
        """Advance one step; returns the mass clipped from negative cells."""
        dt = self.cfg.dt if dt is None else dt
        g = self.grid
        rho = g.density
        vbar = None
        if self._k is None:
            v, (a, a_max, src) = self._f, self._stencil
        else:
            v = self.potential()
            a, a_max, src = _upwind_stencil(v, g.dx)
        if self.reaction:
            vbar = float(np.dot(v, rho)) * g.dx  # from the incoming density, like v
        if self.transport:
            cfl = dt * a_max / g.dx
            if cfl > CFL_LIMIT + 1e-12:
                raise StepSizeError(
                    f"CFL violation: dt*max|v|/dx = {cfl:.3g} > {CFL_LIMIT}; reduce dt"
                )
            flux = self._flux
            np.take(rho, src, out=flux[1:-1])  # donor-cell (upwind) density
            flux[1:-1] *= a
            np.subtract(flux[1:], flux[:-1], out=self._buf)
            self._buf *= dt / g.dx
            rho = rho - self._buf
        if self.reaction:
            factor = np.multiply(v, -self.cfg.alpha * dt, out=self._buf)
            factor += 1.0 + self.cfg.alpha * dt * vbar
            rho = rho * factor if rho is g.density else np.multiply(rho, factor, out=rho)
        clip = 0.0
        if float(rho.min()) < 0.0:
            neg = rho < 0
            clip = -float(rho[neg].sum()) * g.dx
            np.maximum(rho, 0.0, out=rho)
            if clip > CLIP_WARN_MASS:
                self.heavy_clips += 1
                if self.heavy_clips > CLIP_ESCALATE_AFTER:
                    raise NumericError(
                        f"clipped mass exceeded {CLIP_WARN_MASS} in more than "
                        f"{CLIP_ESCALATE_AFTER} steps; the solve is unstable"
                    )
        g.density = rho if rho is not g.density else rho.copy()
        g.renormalize()
        g.time += dt
        self.steps_taken += 1
        self.total_clip_mass += clip
        return clip

    def run_until(self, t_end: float):
        """Step with the configured dt, shortening only the final step."""
        while True:
            remaining = t_end - self.grid.time
            if remaining < 1e-12:
                break
            self.step(min(self.cfg.dt, remaining))
        return self.grid

    def energy(self) -> float:
        rho_dx = self.grid.density * self.grid.dx
        e = float(self._f @ rho_dx)
        if self._k is not None:
            e += 0.5 * float(rho_dx @ (self._k @ rho_dx))
        return e
