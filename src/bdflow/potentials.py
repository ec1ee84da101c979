"""Potential models supplying the single-particle term F, its gradient, and
the pairwise interaction kernel K.

Four kinds are implemented:

* ``quadratic-well``  -- F(theta) = 0.5 <theta - t*, H (theta - t*)>, K = 0.
* ``double-well``     -- 1D tilted quartic, shifted so min F = 0, K = 0.
* ``gaussian-mixture``-- radial-basis regression onto a gaussian mixture
  target; F, K and the squared-error loss are exact gaussian convolutions.
* ``relu-student-teacher`` -- F and K are expectations over data and are only
  available through minibatch estimates.

An exact model's one single-particle method, ``single(thetas)``, returns F
and grad F together, since every step reads both; only ``field`` and
``regroup_field`` add the interaction, and ``ensemble_energy`` is the one
energy E = int F dmu + 1/2 iint K dmu dmu, of particles and grid nodes alike.
Only this module keys, reads, writes and moves the carried (F, V, grad V).
Parameter rows are ``(c, y_1..y_d)`` for amplitude models and plain positions
otherwise.  All closed-form gradients are hand-derived and checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import functools
import math
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
    require_spd,
)

_TILE = 256  # pairwise tiles are 256 x 256: 512 KB of float64, resident in L2
_BROADCAST_ROWS = 8  # up to here a Gaussian block's operand build costs more than its differences
_scalar_pow = np.frompyfunc(pow, 2, 1)  # x ** y element by element, as scalars

# The Hermite Gauss transform for 1D positions (Greengard & Strain, SIAM J. Sci.
# Stat. Comput. 12(1), 1991) puts sources and targets in boxes of width w, the
# power of two in (h/2, h] for h = sqrt(2 var), so a point lies within h/2 of
# its box centre.  Cramer's bound |h_k(t)| <= 1.0865 2^(k/2) sqrt(k!) e^(-t^2/2)
# on the Hermite functions bounds what order 28 drops, as a share of a box's
# summed |weight|: 1.4e-19 from the Hermite series of the sources, 7.1e-18 from
# the Taylor series at the targets, and 5.8e-17 (h/2) from the Taylor series of
# the position-weighted sums (order 24 allows 1.5e-14 and 1.2e-13 (h/2)).  Box
# pairs with no two points within _HERMITE_CUTOFF h are skipped: e^(-6.5^2)
# = 4.5e-19.
_HERMITE_ORDER = 28
_HERMITE_CUTOFF = 6.5
_INV_FACT = np.cumprod(np.r_[1.0, 1.0 / np.arange(1, _HERMITE_ORDER + 1)])  # 1 / k!


def _gauss_block(a: np.ndarray, b: np.ndarray, var) -> np.ndarray:
    """Gaussian density N(a_i; b_j, var_ij I) as an (na, nb) matrix; `var` is
    a scalar or broadcasts to (na, nb).  Each coordinate's differences
    a_ik - b_jk are one BLAS product [a_k, 1] @ [1; -b_k].  That is exact:
    both products by 1.0 are exact and their two-term sum is rounded once, so
    every entry is IEEE a - b bit for bit, in either order and under any BLAS
    thread count.  A block of at most `_BROADCAST_ROWS` rows (a model's
    targets) subtracts by broadcast: the same bits without the operand build.
    Squared differences are summed per coordinate, so distances are never
    negative and need no clamp."""
    d = a.shape[1]
    if a.shape[0] <= _BROADCAST_ROWS:
        diff = a.T[:, :, None] - b.T[:, None, :]
    else:
        lhs = np.ones((d, a.shape[0], 2))
        lhs[:, :, 0] = a.T
        rhs = np.ones((d, 2, b.shape[0]))
        np.negative(b.T, out=rhs[:, 1])
        diff = lhs @ rhs
    d2 = diff[0]
    d2 *= d2
    for k in range(1, d):
        diff[k] *= diff[k]
        d2 += diff[k]
    var = np.asarray(var, dtype=float)
    scale, norm = _gauss_factors(var.tobytes(), var.shape, d)
    d2 *= scale
    np.exp(d2, out=d2)
    d2 *= norm
    return d2


@functools.lru_cache(maxsize=16)
def _gauss_factors(var: bytes, shape: tuple, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponent's factor -1 / (2 var) and the normaliser (2 pi var)^(-d/2)
    for the float64 variances with these bytes and shape, formed once per
    distinct variance.  The normaliser takes scalar `**` per variance: numpy's
    SIMD power (AVX-512) rounds it 1 ulp off for about 5% of variances, where
    the scalar power is correctly rounded."""
    var = np.frombuffer(var).reshape(shape)
    scale = np.asarray(-1.0 / (2.0 * var))
    norm = np.asarray(_scalar_pow(2.0 * np.pi * var, -d / 2.0), dtype=float)
    scale.flags.writeable = norm.flags.writeable = False  # shared by every later call
    return scale, norm


@functools.lru_cache(maxsize=8)
def _box_map(r: float) -> tuple[np.ndarray, np.ndarray]:
    """For boxes of width r h: the offsets d, target box minus source box, of
    the box pairs that hold two points within `_HERMITE_CUTOFF` h, and the map
    from a box's moments to the Taylor coefficients d boxes away, with
    ((-1)^b / b!) h_(a+b)(d r) at row (offset, a) and column b.  The Hermite
    functions h_k(t) = H_k(t) exp(-t^2) follow h_(k+1) = 2t h_k - 2k h_(k-1)."""
    p, reach = _HERMITE_ORDER, math.ceil(_HERMITE_CUTOFF / r)
    offsets = np.arange(-reach, reach + 1)
    t = offsets * r
    hk = np.empty((2 * p, t.size))
    hk[0] = np.exp(-t * t)
    hk[1] = 2.0 * t * hk[0]
    for k in range(1, 2 * p - 1):
        hk[k + 1] = 2.0 * t * hk[k] - (2.0 * k) * hk[k - 1]
    b = np.arange(p + 1)
    table = hk[np.arange(p)[:, None] + b].transpose(2, 0, 1) * ((-1.0) ** b * _INV_FACT)
    table = table.reshape(-1, p + 1)
    table.flags.writeable = False
    return offsets, table


def _hermite_sums(x: np.ndarray, y: np.ndarray, q: np.ndarray, var: float):
    """(sum_j q_j N_ij, sum_j q_j N_ij (y_j - x_i)) with N_ij = N(x_i; y_j, var)
    for 1D targets x and sources y, in O(len(x) + len(y)) time and memory.

    In units of h = sqrt(2 var), a source at u from its box centre and a
    target at v from its own, d box widths r away, give exp(-(d r + v - u)^2)
    = sum_a u^a / a! h_a(d r + v) = sum_b v^b (-1)^b / b! sum_a u^a / a! h_(a+b)(d r).
    So each non-empty source box carries the moments A_a = sum q u^a / a!, each
    non-empty target box gathers the Taylor coefficients L_b from the source
    boxes within the cutoff, one matrix product per `_TILE` target boxes, and
    each target sums L_b v^b.  The position-weighted sums are the derivative
    series (h/2) sum_b (b+1) L_(b+1) v^b, so no y_j - x_i is formed from large
    positions.  Positions are divided by the power-of-two box width, which is
    exact, so the box offsets are exact wherever the points lie.

    Each point set is sorted once (`_hermite_layout`); a self call (`x is y`)
    reuses the sources' layout for the targets.  Powers run order by order,
    so besides the per-box tables a call holds the two layouts (a sort order
    and offsets each), three source vectors while the moments form, and
    eight target vectors (base and position sums interleaved) while the
    series sum, never a (`_HERMITE_ORDER` x n) array.  Each sum still takes
    its products in the order of whole power tables and one einsum, so the
    results are those of the whole-table transform bit for bit.
    """
    p, h = _HERMITE_ORDER, math.sqrt(2.0 * var)
    width = math.ldexp(1.0, math.frexp(h)[1] - 1)
    r = width / h
    sorder, sstarts, sbox, u = sources = _hermite_layout(y, width, r)
    order, starts, tbox, v = sources if x is y else _hermite_layout(x, width, r)
    moments = _hermite_moments(q[sorder], sstarts, u)
    offsets, trans = _box_map(r)
    local = np.empty((p + 1, tbox.size))
    for c0 in range(0, tbox.size, _TILE):
        near = tbox[c0 : c0 + _TILE, None] - offsets  # the source box at each offset
        j = np.minimum(np.searchsorted(sbox, near), sbox.size - 1)
        near = moments[j] * (sbox[j] == near)[:, :, None]
        local[:, c0 : c0 + _TILE] = (near.reshape(near.shape[0], -1) @ trans).T

    # per order, each box's (base, position) coefficient pair as one complex,
    # so one `repeat` gives every sorted target its box's pair
    norm = float(_scalar_pow(2.0 * np.pi * var, -0.5))
    coef = np.empty((p, tbox.size), dtype=complex)
    pairs = coef.view(float)
    pairs[:, 0::2] = local[:p] * norm
    pairs[:, 1::2] = local[1:] * (np.arange(1, p + 1) * (0.5 * h * norm))[:, None]
    counts = np.diff(starts, append=v.size)
    total = coef[0].repeat(counts).view(float)
    v = v.repeat(2)
    power = v.copy()
    for c in coef[1:]:
        term = c.repeat(counts).view(float)
        term *= power
        total += term
        power *= v
    sums = np.empty((2, order.size))
    sums[:, order] = total.reshape(-1, 2).T
    return sums[0], sums[1]


def _hermite_layout(x: np.ndarray, width: float, r: float):
    """The 1D points x in boxes of `width` (a power of two) = r h: their
    stable sort order, the first sorted point of each non-empty box, those
    boxes (in widths) and each sorted point's offset from its box centre, in
    units of h.  It depends on the positions only."""
    order = np.argsort(x, kind="stable")
    xs = x[order] / width
    box = np.floor(xs)
    starts = np.flatnonzero(np.diff(box, prepend=box[0] - 1.0))
    return order, starts, box[starts], (xs - box - 0.5) * r


def _hermite_moments(q: np.ndarray, starts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each box's moments sum q u^a / a! for a < `_HERMITE_ORDER`, as a
    (boxes, order) table, for sorted weights q and offsets u and the boxes'
    first points `starts`, from a running power of u."""
    moments = np.empty((_HERMITE_ORDER, starts.size))
    np.add.reduceat(q, starts, out=moments[0])
    power = u.copy()
    for row in moments[1:]:
        np.add.reduceat(power * q, starts, out=row)
        power *= u
    moments *= _INV_FACT[:_HERMITE_ORDER, None]
    return moments.T


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
        """(m, theta_dim) rows; a float64 array passes unscanned and uncopied, so
        transport's non-finite rows reach the callers' `NumericError` checks."""
        if not (isinstance(thetas, np.ndarray) and thetas.dtype == np.float64):
            thetas = require_array(thetas, "parameter rows", (2,))
        if thetas.ndim != 2 or thetas.shape[1] != self.theta_dim:
            raise ConfigurationError(
                f"expected (m, {self.theta_dim}) parameter rows, got shape {thetas.shape}"
            )
        return thetas

    def single(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F, grad F) at the rows `thetas`, from one pass over what they share."""
        raise UnsupportedOperationError(f"{self.kind} has no exact F")

    def K_block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise UnsupportedOperationError(f"{self.kind} has no exact K")

    def kernel_weighted_sums(self, a: np.ndarray, b: np.ndarray, w: np.ndarray):
        raise UnsupportedOperationError(f"{self.kind} has no exact K")


@dataclass
class QuadraticWellModel(PotentialModel):
    """F(theta) = 0.5 <theta - minimizer, hessian (theta - minimizer)>; a 1 x 1
    hessian (a scalar) means that multiple of the identity."""

    minimizer: np.ndarray = (0.0,)
    hessian: np.ndarray = 1.0

    kind = "quadratic-well"
    is_interacting = False

    def __post_init__(self):
        self.minimizer = np.atleast_1d(require_array(self.minimizer, "minimizer"))
        h = require_spd(self.hessian, "hessian")
        if h.shape == (1, 1):
            h = h[0, 0] * np.eye(self.minimizer.size)
        if h.shape != (self.minimizer.size, self.minimizer.size):
            raise ConfigurationError("hessian shape must match the minimizer length")
        self.hessian = h
        self.theta_dim = self.minimizer.size

    def single(self, thetas):
        d = self._check(thetas) - self.minimizer
        g = np.einsum("ij,jk->ik", d, self.hessian)  # faster than d @ H on (n, 1) rows
        return 0.5 * np.einsum("ij,ij->i", d, g), g


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

    def single(self, thetas):
        x = self._check(thetas)[:, 0]
        u = x**2 - 1.0
        f = self.height * u**2 + self.tilt * x - self._offset
        return f, (4.0 * self.height * x * u + self.tilt)[:, None]


@dataclass
class GaussianMixtureModel(PotentialModel):
    """Gaussian radial-basis regression onto a fixed gaussian mixture target.

    The target is f(x) = (1/m) sum_j cbar_j N(x; ybar_j, sj^2 I) and each unit
    contributes c * N(x; y, sigma^2 I), so every data expectation reduces to a
    gaussian convolution:

        F(c, y)      = -(c/m) sum_j cbar_j N(y; ybar_j, (sigma^2 + sj^2) I)
        K(th, th')   = c c' N(y; y', 2 sigma^2 I)

    With ``amplitude_mode="frozen"`` the amplitude is pinned to ``frozen_c``
    (1.0 when it is None) and the parameter row is the position alone, which
    keeps the state 1D for the grid oracle; dynamic amplitudes take no
    ``frozen_c``.
    """

    target_c: np.ndarray
    target_y: np.ndarray
    target_sigma: np.ndarray
    sigma: float
    amplitude_mode: str = "dynamic"
    frozen_c: float | None = None

    kind = "gaussian-mixture"
    is_interacting = True

    def __post_init__(self):
        self.target_c = np.atleast_1d(require_array(self.target_c, "component amplitudes c"))
        self.target_y = np.atleast_2d(require_array(self.target_y, "component means y", (1, 2)))
        self.target_sigma = np.atleast_1d(require_array(self.target_sigma, "component widths sigma"))
        self.sigma = require_number(self.sigma, "sigma")
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
        if not self.has_amplitude:
            self.frozen_c = require_number(1.0 if self.frozen_c is None else self.frozen_c, "frozen_c")
        elif self.frozen_c is not None:
            raise ConfigurationError("frozen_c applies only to amplitude_mode 'frozen'")
        d = self.target_y.shape[1]
        self.theta_dim = d + (1 if self.has_amplitude else 0)
        # `single`'s per-component constants, which no row changes
        self._target_var = (self.sigma * self.sigma + self.target_sigma**2)[:, None]
        self._target_c = self.target_c[:, None]
        self._target_y = self.target_y[:, None]

    # -- layout helpers ---------------------------------------------------
    def _split(self, thetas):
        if self.has_amplitude:
            return thetas[:, 0], thetas[:, 1:]
        return np.full(thetas.shape[0], self.frozen_c), thetas

    # -- single-particle term ---------------------------------------------
    def single(self, thetas):
        """F and grad F from one (m, n) block cbar_j N(y_i; ybar_j, (sigma^2 + sj^2) I);
        components are rows, so each pass runs along n.  Its mean over the
        components is -F / c and the amplitude column of grad F."""
        c, y = self._split(self._check(thetas))
        m = self.target_c.size
        block = self._target_c * _gauss_block(self.target_y, y, self._target_var)
        resp = np.add.reduce(block, axis=0) / m
        diff = self._target_y - y  # (m, n, d): ybar_j - y_i
        diff *= (block / self._target_var)[:, :, None]
        grad = np.empty((y.shape[0], self.theta_dim))
        pos = np.add.reduce(diff, axis=0, out=grad[:, -y.shape[1]:])  # the position columns
        pos *= (c / -m)[:, None]  # -(c / m), in one division
        if self.has_amplitude:
            np.negative(resp, out=grad[:, 0])
        return -c * resp, grad

    # -- interaction kernel -------------------------------------------------
    def K_block(self, a, b):
        """Kernel matrix [K(a_i, b_j)]."""
        ca, ya = self._split(self._check(a))
        cb, yb = self._split(self._check(b))
        return (ca[:, None] * cb[None, :]) * _gauss_block(ya, yb, 2.0 * self.sigma * self.sigma)

    def kernel_weighted_sums(self, a, b, w):
        """Return (sum_j w_j K(a_i, b_j), sum_j w_j grad_1 K(a_i, b_j)).

        With 1D positions and at least 2 `_TILE` rows on each side the sums
        come from the Hermite Gauss transform `_hermite_sums`.  Otherwise the
        pairs are visited in tiles of `_TILE` rows of `a` by `_TILE` rows of
        `b`, so a call with at most `_TILE` rows on each side is one tile; a
        `b` of at most `_TILE` rows meets `a` in blocks of `_TILE^2 // len(b)`
        rows.
        """
        same = b is a
        a = self._check(a)
        b = a if same else self._check(b)
        w = np.asarray(w, dtype=float)
        if w.shape != (b.shape[0],):
            raise ConfigurationError(
                f"expected {b.shape[0]} weights, one per row of b, got shape {w.shape}")
        ca, ya = self._split(a)
        cb, yb = (ca, ya) if same else self._split(b)
        var = 2.0 * self.sigma * self.sigma
        wc = w * cb
        if ya.shape[1] == 1 and min(a.shape[0], b.shape[0]) >= 2 * _TILE:
            x = ya[:, 0]  # one object for a self call, whose targets reuse its sources' sort
            base, dev = _hermite_sums(x, x if same else yb[:, 0], wc, var)
            dev = dev[:, None]
        else:
            wcy = wc[:, None] * yb
            base = np.empty(a.shape[0])  # sum_j w_j c_j N_ij
            mom = np.empty(ya.shape)  # sum_j w_j c_j N_ij y_j
            step = max(_TILE, _TILE * _TILE // max(b.shape[0], 1))
            for i0 in range(0, a.shape[0], step):
                rows = slice(i0, i0 + step)
                blk = _gauss_block(ya[rows], yb[:_TILE], var)  # the first tile sets the sums
                np.matmul(blk, wc[:_TILE], out=base[rows])
                np.matmul(blk, wcy[:_TILE], out=mom[rows])
                for j0 in range(_TILE, b.shape[0], _TILE):
                    cols = slice(j0, j0 + _TILE)
                    blk = _gauss_block(ya[rows], yb[cols], var)
                    base[rows] += blk @ wc[cols]
                    mom[rows] += blk @ wcy[cols]
            dev = mom
            dev -= ya * base[:, None]  # sum_j w_j c_j N_ij (y_j - y_i)
        fsum = np.empty((a.shape[0], self.theta_dim))
        if self.has_amplitude:
            fsum[:, 0] = base
        np.multiply((ca / var)[:, None], dev, out=fsum[:, -ya.shape[1]:])
        return ca * base, fsum

    # -- exact squared-error loss -------------------------------------------
    @property
    def target_self_energy(self) -> float:
        """0.5 * integral of the target squared, in closed form."""
        c, s2 = self.target_c, self.target_sigma**2
        terms = (c[:, None] * c[None, :]) * _gauss_block(
            self.target_y, self.target_y, s2[:, None] + s2[None, :])
        total = float(np.cumsum(terms)[-1])  # sequential in row order, not np.sum's pairs
        return 0.5 * total / c.size**2


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

    # -- batch machinery -----------------------------------------------------
    def sample_batch(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        p = self.batch_size if size is None else require_int(size, "batch size", 1)
        return rng.standard_normal((p, self.input_dim))

    def _batch_pass(self, thetas, weights, x):
        """One forward pass on a batch: (pre-activations x y^T, activations,
        student-minus-teacher residual)."""
        thetas = self._check(thetas)
        if x is None or x.shape[0] < 1:
            raise ConfigurationError(f"{self.kind} estimates need a batch with at least one sample")
        pre = x @ thetas[:, 1:].T  # (P, n)
        act = np.maximum(pre, 0.0)
        teacher = np.maximum(x @ self.teacher_y.T, 0.0) @ self.teacher_c / self.teacher_units
        resid = act @ (weights * thetas[:, 0]) / thetas.shape[0] - teacher
        return pre, act, resid

    def batch_grad_V(self, thetas, weights, x) -> np.ndarray:
        """Batch estimate of the field gradient at each particle.

        The amplitude component is vhat_i = mean_p relu(<y_i, x_p>) *
        residual(x_p), the loss gradient in the output layer times n, and
        V_i = c_i vhat_i; the position component is the matching ReLU
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


# -- ensemble-level potentials ---------------------------------------------


def field(model: PotentialModel, ens, batch=None, points=None) -> tuple[np.ndarray, np.ndarray]:
    """(V, grad V), V = F + n^-1 sum_j w_j K(., theta_j), from one pairwise pass.

    At the particles an interacting model's (F, V, grad V) is carried on the
    ensemble and read while the model is the same object and the rows and
    weights hold the stored copies' bits; `regroup_field` moves it to new rows.
    `points`, finite rows of rank 1 (one row) or 2, are evaluated instead,
    without reading or writing the carry.  A minibatch model estimates both at
    the particles only, from `batch`.
    """
    if not model.is_exact:
        if points is not None:
            raise ConfigurationError(f"{model.kind} estimates V only at the particles")
        grad = model.batch_grad_V(ens.thetas, ens.weights, batch)
        return ens.thetas[:, 0] * grad[:, 0], grad
    if points is None and (record := _carried(ens, model)):
        return record[4:]
    x = ens.thetas if points is None else np.atleast_2d(require_array(points, "points", (1, 2)))
    return _evaluate(model, ens, x)[1:]


def _carried(ens, model: PotentialModel | None = None) -> tuple | None:
    """The carried (model, rows, weights, F, V, grad V) if it is for `model` (any
    if None) and `ens` holds its rows and weights bit for bit; else it is dropped."""
    c = getattr(ens, "_field", None)
    if not (c is not None and (model is None or c[0] is model) and c[1].shape == ens.thetas.shape
            and c[1].tobytes() == ens.thetas.tobytes() and c[2].tobytes() == ens.weights.tobytes()):
        ens._field = c = None
    return c


def _carry(model: PotentialModel, ens, f: np.ndarray, v: np.ndarray, grad: np.ndarray) -> None:
    """Carry (F, V, grad V) for the rows and weights of `ens`, read-only as it is shared."""
    f.flags.writeable = v.flags.writeable = grad.flags.writeable = False
    ens._field = (model, ens.thetas.copy(), ens.weights.copy(), f, v, grad)


def _evaluate(model: PotentialModel, ens, x: np.ndarray):
    """(F, V, grad V) at the rows `x` from one `single` pass and, for an
    interacting model, one pairwise pass, carried when `x` is `ens.thetas`."""
    f, grad = model.single(x)
    if not model.is_interacting:
        return f, f, grad
    v, grad_v = model.kernel_weighted_sums(x, ens.thetas, ens.weights)
    v /= ens.n  # fresh sums, so V = F + vsum / n and grad V = grad F + fsum / n in place
    v += f
    grad_v /= ens.n
    grad_v += grad
    if x is ens.thetas:
        _carry(model, ens, f, v, grad_v)
    return f, v, grad_v


def regroup_field(ens, src: np.ndarray, copies: np.ndarray, fresh: np.ndarray | None = None) -> None:
    """Rebuild `ens` through `Ensemble.regroup(src, copies, fresh)` and move
    the record carried for the old rows, if any and n is unchanged, to the new
    ones.  A kept or copied row takes its source's F, V and grad V, the last
    two plus the kernel sums against the old rows whose count changed (weight
    w * (count - 1)) and the fresh rows, which take all three from
    `_evaluate`: n pair evaluations per changed or fresh row."""
    record = _carried(ens)
    ens.regroup(src, copies, fresh)
    if record is None or src.size != record[1].shape[0]:
        return
    model, old_thetas, old_weights, f, v, grad = record
    n = ens.n
    kept = slice(None) if fresh is None else np.flatnonzero(src >= 0)
    count = np.bincount(src[kept], minlength=n)
    changed = np.flatnonzero(count != 1)
    b, w = old_thetas[changed], old_weights[changed] * (count[changed] - 1)
    f, v, grad = f[src], v[src], grad[src]
    if fresh is not None:
        new = src < 0
        f[new], v[new], grad[new] = _evaluate(model, ens, fresh)
        b, w = np.vstack([b, fresh]), np.concatenate([w, np.ones(len(fresh))])
    if b.shape[0]:
        vsum, fsum = model.kernel_weighted_sums(ens.thetas[kept], b, w)
        v[kept] += vsum / n
        grad[kept] += fsum / n
    _carry(model, ens, f, v, grad)


def ensemble_energy(model: PotentialModel, ens) -> float:
    """E = n^-1 sum w_i F_i + (2 n^2)^-1 sum_ij w_i w_j K_ij; an interacting
    model reads the pair term as (2n)^-1 sum_i w_i (V_i - F_i).  F and V are
    read from the carried record or else come from one `_evaluate`, which
    carries them.  The weights must hold one entry per row."""
    ens.check_rows()
    record = _carried(ens, model)
    f, v, _ = record[3:] if record else _evaluate(model, ens, ens.thetas)
    n = ens.n
    e = float(ens.weights @ f) / n
    if model.is_interacting:
        e += 0.5 * float(ens.weights @ (v - f)) / n
    return e


def exact_mixture_loss(model: GaussianMixtureModel, ens) -> float:
    """0.5 * integral |target - representation|^2: the target's closed-form
    self-energy plus the particle energy `ensemble_energy`."""
    if not isinstance(model, GaussianMixtureModel):
        raise ConfigurationError("exact_mixture_loss requires the gaussian-mixture model")
    return model.target_self_energy + ensemble_energy(model, ens)


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
