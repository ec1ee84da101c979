"""Potential models supplying the single-particle term F, its gradient, and
the pairwise interaction kernel K.

Four kinds are implemented:

* ``quadratic-well``  -- F(theta) = 0.5 <theta - t*, H (theta - t*)>, K = 0.
* ``double-well``     -- 1D tilted quartic, shifted so min F = 0, K = 0.
* ``gaussian-mixture``-- radial-basis regression onto a gaussian mixture
  target; F, K and the squared-error loss are exact gaussian convolutions.
* ``relu-student-teacher`` -- F and K are expectations over data and are only
  available through minibatch estimates.

Parameter rows are ``(c, y_1..y_d)`` for amplitude models and plain
positions otherwise.  All closed-form gradients are hand-derived and checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    UnsupportedOperationError,
    check_keys,
    check_kind,
    require_array,
    require_int,
    require_list,
    require_number,
)

_CHUNK_ELEMS = 1 << 22  # bound pairwise temporaries to ~32 MB of float64


def _gauss_block(a: np.ndarray, b: np.ndarray, var: float) -> np.ndarray:
    """Gaussian density N(a_i; b_j, var*I) as an (na, nb) matrix."""
    d = a.shape[1]
    if d == 1:
        d2 = a[:, 0, None] - b[None, :, 0]
        np.multiply(d2, d2, out=d2)
    else:
        d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
        np.maximum(d2, 0.0, out=d2)
    d2 *= -1.0 / (2.0 * var)
    np.exp(d2, out=d2)
    d2 *= (2.0 * np.pi * var) ** (-d / 2.0)
    return d2


def _row_chunks(n_rows: int, n_cols: int):
    step = max(1, min(n_rows, _CHUNK_ELEMS // max(1, n_cols)))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


class PotentialModel:
    """Shared interface; concrete models override the pieces they support."""

    kind: str = ""
    is_interacting: bool = False
    is_exact: bool = True
    has_amplitude: bool = False
    theta_dim: int = 0

    @property
    def position_dim(self) -> int:
        return self.theta_dim - (1 if self.has_amplitude else 0)

    def _check(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.theta_dim:
            raise ConfigurationError(
                f"expected (m, {self.theta_dim}) parameter rows, got shape {thetas.shape}"
            )
        return thetas

    def F(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_F(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def K_block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Kernel matrix [K(a_i, b_j)]; identically zero for K = 0 models."""
        a, b = self._check(a), self._check(b)
        return np.zeros((a.shape[0], b.shape[0]))

    def kernel_weighted_sums(self, a: np.ndarray, b: np.ndarray, w: np.ndarray):
        """Return (sum_j w_j K(a_i, b_j), sum_j w_j grad_1 K(a_i, b_j)).

        Zero for non-interacting models (documented behavior, not an error).
        """
        a = self._check(a)
        return np.zeros(a.shape[0]), np.zeros((a.shape[0], self.theta_dim))


@dataclass
class QuadraticWellModel(PotentialModel):
    """F(theta) = 0.5 <theta - minimizer, hessian (theta - minimizer)>; a scalar
    hessian means that multiple of the identity."""

    minimizer: np.ndarray = (0.0,)
    hessian: np.ndarray = 1.0

    kind = "quadratic-well"
    is_interacting = False

    def __post_init__(self):
        self.minimizer = np.atleast_1d(require_array(self.minimizer, "minimizer"))
        h = require_array(self.hessian, "hessian", ndims=(0, 2))
        if h.ndim == 0:
            h = h * np.eye(self.minimizer.size)
        if h.shape != (self.minimizer.size, self.minimizer.size):
            raise ConfigurationError("hessian shape must match the minimizer length")
        if not np.allclose(h, h.T, atol=1e-12):
            raise ConfigurationError("hessian must be symmetric")
        if np.linalg.eigvalsh(h).min() <= 0:
            raise ConfigurationError("hessian must be positive definite")
        self.hessian = h
        self.theta_dim = self.minimizer.size

    def F(self, thetas):
        d = self._check(thetas) - self.minimizer
        return 0.5 * np.einsum("ij,jk,ik->i", d, self.hessian, d)

    def grad_F(self, thetas):
        d = self._check(thetas) - self.minimizer
        return d @ self.hessian


@dataclass
class DoubleWellModel(PotentialModel):
    """1D tilted quartic height*(x^2-1)^2 + tilt*x, shifted so min F = 0.

    A nonzero tilt makes the global minimum unique (Morse, coercive).
    """

    height: float = 1.0
    tilt: float = 0.5

    kind = "double-well"
    is_interacting = False

    def __post_init__(self):
        self.height = require_number(self.height, "height", 0.0, exclusive=True)
        self.tilt = require_number(self.tilt, "tilt")
        if self.tilt == 0:
            raise ConfigurationError("tilt must be nonzero so the global minimum is unique")
        self.theta_dim = 1
        roots = np.roots([4.0 * self.height, 0.0, -4.0 * self.height, self.tilt])
        crit = np.real(roots[np.abs(np.imag(roots)) < 1e-9])
        vals = self.height * (crit**2 - 1.0) ** 2 + self.tilt * crit
        self.minimizer = np.array([crit[np.argmin(vals)]])
        self._offset = float(vals.min())

    def F(self, thetas):
        x = self._check(thetas)[:, 0]
        return self.height * (x**2 - 1.0) ** 2 + self.tilt * x - self._offset

    def grad_F(self, thetas):
        x = self._check(thetas)[:, 0]
        return (4.0 * self.height * x * (x**2 - 1.0) + self.tilt)[:, None]


@dataclass
class GaussianMixtureModel(PotentialModel):
    """Gaussian radial-basis regression onto a fixed gaussian mixture target.

    The target is f(x) = (1/m) sum_j cbar_j N(x; ybar_j, sj^2 I) and each unit
    contributes c * N(x; y, sigma^2 I), so every data expectation reduces to a
    gaussian convolution:

        F(c, y)      = -(c/m) sum_j cbar_j N(y; ybar_j, (sigma^2 + sj^2) I)
        K(th, th')   = c c' N(y; y', 2 sigma^2 I)

    With ``amplitude_mode="frozen"`` the amplitude is pinned to ``frozen_c``
    and the parameter row is the position alone, which keeps the state 1D for
    the grid oracle.
    """

    target_c: np.ndarray
    target_y: np.ndarray
    target_sigma: np.ndarray
    sigma: float
    amplitude_mode: str = "dynamic"
    frozen_c: float = 1.0

    kind = "gaussian-mixture"
    is_interacting = True

    def __post_init__(self):
        self.target_c = np.atleast_1d(require_array(self.target_c, "component amplitudes c"))
        self.target_y = np.atleast_2d(require_array(self.target_y, "component means y", (1, 2)))
        if self.target_y.shape[0] != self.target_c.size:
            self.target_y = self.target_y.T
        self.target_sigma = np.atleast_1d(require_array(self.target_sigma, "component widths sigma"))
        self.sigma = require_number(self.sigma, "sigma")
        self.frozen_c = require_number(self.frozen_c, "frozen_c")
        m = self.target_c.size
        if self.target_y.shape[0] != m or self.target_sigma.size != m:
            raise ConfigurationError("target component arrays must share one length")
        if np.any(self.target_sigma <= 0):
            raise ConfigurationError("target component widths must be > 0")
        if not 0 < self.sigma < self.target_sigma.min():
            raise ConfigurationError(
                f"unit bandwidth must satisfy 0 < sigma < min component width "
                f"({self.sigma} vs {self.target_sigma.min()})"
            )
        if self.amplitude_mode not in ("dynamic", "frozen"):
            raise ConfigurationError("amplitude_mode must be 'dynamic' or 'frozen'")
        self.has_amplitude = self.amplitude_mode == "dynamic"
        d = self.target_y.shape[1]
        self.theta_dim = d + (1 if self.has_amplitude else 0)

    # -- layout helpers ---------------------------------------------------
    def _split(self, thetas):
        if self.has_amplitude:
            return thetas[:, 0], thetas[:, 1:]
        return np.full(thetas.shape[0], self.frozen_c), thetas

    # -- single-particle term ---------------------------------------------
    def _target_response(self, y: np.ndarray) -> np.ndarray:
        """(1/m) sum_j cbar_j N(y; ybar_j, (sigma^2+sj^2) I)."""
        out = np.zeros(y.shape[0])
        for j in range(self.target_c.size):
            var = self.sigma**2 + self.target_sigma[j] ** 2
            out += self.target_c[j] * _gauss_block(y, self.target_y[j : j + 1], var)[:, 0]
        return out / self.target_c.size

    def F(self, thetas):
        c, y = self._split(self._check(thetas))
        return -c * self._target_response(y)

    def grad_F(self, thetas):
        thetas = self._check(thetas)
        c, y = self._split(thetas)
        m = self.target_c.size
        grad_y = np.zeros_like(y)
        resp = np.zeros(y.shape[0])
        for j in range(m):
            var = self.sigma**2 + self.target_sigma[j] ** 2
            g = self.target_c[j] * _gauss_block(y, self.target_y[j : j + 1], var)[:, 0]
            resp += g
            grad_y += (g / var)[:, None] * (self.target_y[j] - y)
        resp /= m
        grad_y *= -(c / m)[:, None]
        if not self.has_amplitude:
            return grad_y
        return np.hstack([-resp[:, None], grad_y])

    # -- interaction kernel -------------------------------------------------
    def K_block(self, a, b):
        ca, ya = self._split(self._check(a))
        cb, yb = self._split(self._check(b))
        return (ca[:, None] * cb[None, :]) * _gauss_block(ya, yb, 2.0 * self.sigma**2)

    def kernel_weighted_sums(self, a, b, w):
        a, b = self._check(a), self._check(b)
        ca, ya = self._split(a)
        cb, yb = self._split(b)
        w = np.asarray(w, dtype=float)
        var = 2.0 * self.sigma**2
        wc = w * cb
        wcy = wc[:, None] * yb
        vsum = np.empty(a.shape[0])
        fsum = np.empty((a.shape[0], self.theta_dim))
        off = 1 if self.has_amplitude else 0
        for rows in _row_chunks(a.shape[0], b.shape[0]):
            n_mat = _gauss_block(ya[rows], yb, var)
            base = n_mat @ wc  # sum_j w_j c_j N_ij
            vsum[rows] = ca[rows] * base
            if self.has_amplitude:
                fsum[rows, 0] = base
            mom = n_mat @ wcy  # (rows, d)
            fsum[rows, off:] = (ca[rows] / var)[:, None] * (mom - ya[rows] * base[:, None])
            del n_mat  # freed before the next chunk is built, so one chunk is alive at a time
        return vsum, fsum

    # -- exact squared-error loss -------------------------------------------
    @property
    def target_self_energy(self) -> float:
        """0.5 * integral of the target squared, in closed form."""
        m = self.target_c.size
        total = 0.0
        for j in range(m):
            for l in range(m):
                var = self.target_sigma[j] ** 2 + self.target_sigma[l] ** 2
                total += (
                    self.target_c[j]
                    * self.target_c[l]
                    * _gauss_block(self.target_y[j : j + 1], self.target_y[l : l + 1], var)[0, 0]
                )
        return 0.5 * total / m**2


@dataclass
class ReLUStudentTeacherModel(PotentialModel):
    """Student-teacher regression with single-layer ReLU units.

    The teacher has fixed random parameters (amplitudes +-1, unit-norm
    gaussian inner weights); data are fresh standard-gaussian batches drawn
    per step.  F and K have no closed form here, so the model exposes batch
    estimators of the potential, its gradient, and the squared-error loss.
    """

    input_dim: int = 50
    teacher_units: int = 10
    batch_size: int = 64
    teacher_seed: int = 0

    kind = "relu-student-teacher"
    is_interacting = True
    is_exact = False
    has_amplitude = True

    def __post_init__(self):
        self.input_dim = require_int(self.input_dim, "input_dim", 1)
        self.teacher_units = require_int(self.teacher_units, "teacher_units", 1)
        self.batch_size = require_int(self.batch_size, "batch_size", 1)
        self.teacher_seed = require_int(self.teacher_seed, "teacher_seed", 0)
        rng = np.random.default_rng(self.teacher_seed)
        self.teacher_c = rng.choice([-1.0, 1.0], size=self.teacher_units)
        y = rng.standard_normal((self.teacher_units, self.input_dim))
        self.teacher_y = y / np.linalg.norm(y, axis=1, keepdims=True)
        self.theta_dim = self.input_dim + 1

    def F(self, thetas):
        raise UnsupportedOperationError("relu-student-teacher has no exact F; use batch estimates")

    def grad_F(self, thetas):
        raise UnsupportedOperationError("relu-student-teacher has no exact grad F; use batch estimates")

    def K_block(self, a, b):
        raise UnsupportedOperationError("relu-student-teacher has no exact K; use batch estimates")

    def kernel_weighted_sums(self, a, b, w):
        raise UnsupportedOperationError("relu-student-teacher has no exact K; use batch estimates")

    # -- batch machinery -----------------------------------------------------
    def sample_batch(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        p = self.batch_size if size is None else size
        if p < 1:
            raise ConfigurationError("batch size must be >= 1")
        return rng.standard_normal((p, self.input_dim))

    def teacher_eval(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x @ self.teacher_y.T, 0.0) @ self.teacher_c / self.teacher_units

    def _batch_pass(self, thetas, weights, x):
        """One forward pass on a batch: (pre-activations x y^T, activations,
        student-minus-teacher residual)."""
        thetas = self._check(thetas)
        if x is None or x.shape[0] < 1:
            raise ConfigurationError(f"{self.kind} estimates need a batch with at least one sample")
        pre = x @ thetas[:, 1:].T  # (P, n)
        act = np.maximum(pre, 0.0)
        resid = act @ (weights * thetas[:, 0]) / thetas.shape[0] - self.teacher_eval(x)
        return pre, act, resid

    def batch_potential_hat(self, thetas, weights, x) -> np.ndarray:
        """vhat_i = mean_p relu(<y_i, x_p>) * residual(x_p); V_i = c_i vhat_i."""
        _, act, resid = self._batch_pass(thetas, weights, x)
        return act.T @ resid / x.shape[0]

    def batch_grad_V(self, thetas, weights, x) -> np.ndarray:
        """Batch estimate of the field gradient at each particle.

        The amplitude component equals vhat (the loss gradient in the output
        layer, times n); the position component is the matching ReLU
        subgradient term.
        """
        pre, act, resid = self._batch_pass(thetas, weights, x)
        vhat = act.T @ resid / x.shape[0]
        c = self._check(thetas)[:, 0]
        grad_y = ((pre > 0) * resid[:, None]).T @ x * (c / x.shape[0])[:, None]
        return np.hstack([vhat[:, None], grad_y])

    def batch_loss(self, thetas, weights, x) -> float:
        resid = self._batch_pass(thetas, weights, x)[2]
        return 0.5 * float(np.mean(resid**2))

    def dump_teacher_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["unit", "amplitude"] + [f"y_{j}" for j in range(self.input_dim)])
            for j in range(self.teacher_units):
                w.writerow(
                    [j, format(self.teacher_c[j], ".17g")]
                    + [format(v, ".17g") for v in self.teacher_y[j]]
                )


# -- ensemble-level potentials ---------------------------------------------


def potential(model: PotentialModel, ens, points=None, batch=None) -> np.ndarray:
    """V(x) = F(x) + n^-1 sum_j w_j K(x, theta_j) against the empirical measure.

    `points` are parameter rows to evaluate at; they default to the particles,
    where an interacting model reads V from `field`.  A minibatch model
    estimates V = c * vhat at the particles only, on the given `batch`.
    """
    if not model.is_exact:
        if points is not None:
            raise ConfigurationError(f"{model.kind} estimates V only at the particles")
        return ens.thetas[:, 0] * model.batch_potential_hat(ens.thetas, ens.weights, batch)
    if points is None and model.is_interacting:
        return field(model, ens)[0]
    x = ens.thetas if points is None else np.atleast_2d(np.asarray(points, dtype=float))
    v = model.F(x)
    if model.is_interacting:
        v += model.kernel_weighted_sums(x, ens.thetas, ens.weights)[0] / ens.n
    return v


def field(model: PotentialModel, ens, batch=None) -> tuple[np.ndarray, np.ndarray]:
    """(V, grad V) at every particle from a single pairwise pass.  An
    interacting model's result is carried on the ensemble and returned without
    a pass while the model is the same object and the rows and weights equal
    the stored copies; the birth-death pass carries it to its new rows.  A
    minibatch model estimates both from one pass over the given `batch`."""
    if not model.is_exact:
        grad = model.batch_grad_V(ens.thetas, ens.weights, batch)
        return ens.thetas[:, 0] * grad[:, 0], grad
    if (carried := ens._carried_field(model)) is not None:
        return carried
    v = model.F(ens.thetas)
    grad = model.grad_F(ens.thetas)
    if model.is_interacting:
        vsum, fsum = model.kernel_weighted_sums(ens.thetas, ens.thetas, ens.weights)
        v += vsum / ens.n
        grad = grad + fsum / ens.n
        ens._carry_field(model, v, grad)
    return v, grad


def exact_mixture_loss(model: GaussianMixtureModel, ens) -> float:
    """0.5 * integral |target - representation|^2, assembled in closed form."""
    if not isinstance(model, GaussianMixtureModel):
        raise ConfigurationError("exact_mixture_loss requires the gaussian-mixture model")
    n = ens.n
    w = ens.weights
    single = float(w @ model.F(ens.thetas)) / n
    pair = 0.5 * float(w @ model.kernel_weighted_sums(ens.thetas, ens.thetas, w)[0]) / n**2
    return model.target_self_energy + single + pair


# -- construction from config ------------------------------------------------


# per kind: the model class and its (required, optional) spec keys, which are
# constructor arguments, except that the mixture's components become target_*
_MODELS = {
    "quadratic-well": (QuadraticWellModel, (), ("minimizer", "hessian")),
    "double-well": (DoubleWellModel, (), ("height", "tilt")),
    "gaussian-mixture": (GaussianMixtureModel, ("components", "sigma"), ("amplitude_mode", "frozen_c")),
    "relu-student-teacher": (
        ReLUStudentTeacherModel, (), ("input_dim", "teacher_units", "batch_size", "teacher_seed")
    ),
}


def build_model(spec: dict) -> PotentialModel:
    kind = check_kind(spec, "model", _MODELS)
    cls, required, optional = _MODELS[kind]
    args = dict(check_keys(spec, kind, ("kind", *required), optional))
    del args["kind"]
    if kind == "gaussian-mixture":
        comps = [check_keys(c, "component", ("c", "y", "sigma"))
                 for c in require_list(args.pop("components"), "components")]
        args.update(target_c=[c["c"] for c in comps], target_y=[c["y"] for c in comps],
                    target_sigma=[c["sigma"] for c in comps])
    return cls(**args)
