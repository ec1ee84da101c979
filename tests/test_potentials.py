import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import bdflow as bf
from bdflow.harness import cli
from bdflow.potentials import (_BROADCAST_ROWS, _HERMITE_ORDER, _INV_FACT, _TILE, _box_map,
                               _gauss_block, _hermite_sums, _scalar_pow)

from conftest import at, make_ensemble, numerical_grad_F, numerical_grad_K1


def target_density(model, x):
    """Mixture target evaluated pointwise (independent of the model code path)."""
    total = 0.0
    for c, y, s in zip(model.target_c, model.target_y[:, 0], model.target_sigma):
        total += c * np.exp(-((x - y) ** 2) / (2 * s**2)) / np.sqrt(2 * np.pi * s**2)
    return total / model.target_c.size


def unit_response(model, x, c, y):
    return c * np.exp(-((x - y) ** 2) / (2 * model.sigma**2)) / np.sqrt(
        2 * np.pi * model.sigma**2
    )


class TestQuadraticWell:
    def test_minimum(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        m = bf.QuadraticWellModel(minimizer=[1.0, -1.0], hessian=h)
        assert m.single(at([1.0, -1.0]))[0][0] == 0.0
        np.testing.assert_array_equal(m.single(at([1.0, -1.0]))[1][0], [0.0, 0.0])

    def test_quadratic_form_value(self):
        h = np.array([[2.0, 0.3], [0.3, 1.0]])
        m = bf.QuadraticWellModel(minimizer=[0.0, 0.0], hessian=h)
        th = np.array([0.7, -0.2])
        assert m.single(at(th))[0][0] == pytest.approx(0.5 * th @ h @ th, rel=1e-14)

    def test_requires_spd_hessian(self):
        with pytest.raises(bf.ConfigurationError):
            bf.QuadraticWellModel(minimizer=[0.0], hessian=-1.0)


class TestSingleClosedForms:
    """At d = 1 each value of `single` is one product per row, so it equals the
    closed form written out here bitwise."""

    X = np.random.default_rng(21).normal(scale=3.0, size=(500, 1))

    @pytest.mark.parametrize("spec", [
        dict(minimizer=[0.0], hessian=1.0), dict(minimizer=[0.37], hessian=1.7),
        dict(minimizer=[-2.5], hessian=[[0.3]]),
    ], ids=str)
    def test_quadratic_well(self, spec):
        m = bf.QuadraticWellModel(**spec)
        h, d = m.hessian[0, 0], self.X - m.minimizer
        f, grad = m.single(self.X)
        assert np.array_equal(f, 0.5 * d[:, 0] * (h * d[:, 0])) and np.array_equal(grad, h * d)

    @pytest.mark.parametrize("height, tilt", [(1.0, 0.5), (2.0, -0.3), (0.25, 1.5)], ids=str)
    def test_double_well(self, height, tilt):
        m = bf.DoubleWellModel(height=height, tilt=tilt)
        x = self.X[:, 0]
        f, grad = m.single(self.X)
        assert np.array_equal(f, height * (x**2 - 1.0) ** 2 + tilt * x - m._offset)
        assert np.array_equal(grad[:, 0], 4.0 * height * x * (x**2 - 1.0) + tilt)


class TestDoubleWell:
    def test_global_minimum_is_zero(self):
        m = bf.DoubleWellModel(height=1.0, tilt=0.5)
        assert m.single(at(m.minimizer))[0][0] == pytest.approx(0.0, abs=1e-14)
        assert np.linalg.norm(m.single(at(m.minimizer))[1][0]) < 1e-10
        # tilted well: the other basin sits strictly higher
        assert m.single(at([-m.minimizer[0]]))[0][0] > 0.1

    def test_one_dimensional_only(self):
        m = bf.DoubleWellModel()
        with pytest.raises(bf.ConfigurationError):
            m.single(np.zeros((2, 2)))


class TestParameterRows:
    """Model methods take finite numeric rows; a float64 array passes as is."""

    @pytest.mark.parametrize("model, rows", [
        ("quad_1d", [["1"]]),
        ("quad_1d", [[True]]),
        ("mixture_frozen", [[np.nan]]),
        ("quad_1d", "ab"),
        ("quad_1d", None),
        ("mixture_frozen", [[0.0], [1.0, 2.0]]),
    ], ids=["string", "bool", "nan", "text", "none", "ragged"])
    def test_junk_rows_rejected(self, request, model, rows):
        m = request.getfixturevalue(model)
        with pytest.raises(bf.ConfigurationError, match="parameter rows"):
            m.single(rows)

    def test_int_rows_accepted(self, quad_1d, mixture_frozen):
        assert quad_1d.single(np.array([[1]]))[0][0] == 0.5
        rows = np.array([[-1], [2]])
        assert np.array_equal(mixture_frozen.single(rows)[1], mixture_frozen.single(rows.astype(float))[1])

    def test_float_rows_pass_uncopied(self, mixture_frozen):
        # non-finite rows from transport reach the callers' NumericError checks
        rows = np.array([[0.5], [np.nan]])
        assert mixture_frozen._check(rows) is rows
        assert np.isnan(mixture_frozen.single(rows)[0][1])


class TestMixtureClosedForms:
    def test_zero_amplitude_zeroes_f(self, mixture_1c):
        assert mixture_1c.single(at([0.0, 1.3]))[0][0] == 0.0

    def test_f_against_quadrature(self, mixture_1c):
        theta = [1.0, 0.0]  # amplitude 1 at position 0
        val = mixture_1c.single(at(theta))[0][0]
        oracle, err = quad(
            lambda x: -target_density(mixture_1c, x) * unit_response(mixture_1c, x, 1.0, 0.0),
            -12.0, 12.0, epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-10
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_k_against_quadrature(self, mixture_1c):
        a, b = [1.0, 0.0], [1.0, 1.0]
        val = mixture_1c.K_block(at(a), at(b))[0, 0]
        oracle, err = quad(
            lambda x: unit_response(mixture_1c, x, 1.0, 0.0) * unit_response(mixture_1c, x, 1.0, 1.0),
            -12.0, 12.0, epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-10
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_k_symmetry_random_pairs(self, mixture_3c):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            assert mixture_3c.K_block(at(a), at(b))[0, 0] == pytest.approx(
                mixture_3c.K_block(at(b), at(a))[0, 0], rel=1e-13
            )

    def test_k_vanishes_with_zero_amplitude(self, mixture_3c):
        assert mixture_3c.K_block(at([0.0, 0.5]), at([2.0, 0.6]))[0, 0] == 0.0
        assert mixture_3c.K_block(at([2.0, 0.5]), at([0.0, 0.6]))[0, 0] == 0.0

    def test_gram_matrix_positive_semidefinite(self, mixture_3c):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            thetas = np.column_stack([np.ones(k), rng.normal(scale=2.0, size=k)])
            gram = mixture_3c.K_block(thetas, thetas)
            assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_bandwidth_constraint_enforced(self):
        with pytest.raises(bf.ConfigurationError):
            bf.GaussianMixtureModel(
                target_c=[1.0], target_y=[[0.0]], target_sigma=[0.3], sigma=0.4
            )

    @pytest.mark.parametrize("target_y", [[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0.0, 1.0, 2.0]],
                             ids=["2x3", "flat"])
    def test_means_not_one_row_per_component_rejected(self, target_y):
        # a (2, 3) array once became three 2D components at (0, 1), (0, 1), (0, 1)
        with pytest.raises(bf.ConfigurationError, match="share one length"):
            bf.GaussianMixtureModel(target_c=[1.0, 1.0, 1.0], target_y=target_y,
                                    target_sigma=[1.0, 1.0, 1.0], sigma=0.4)


def component_gauss(y, ybar, var):
    """N(y_i; ybar, var I) for one component: the squared difference at
    d = 1, |y|^2 + |ybar|^2 - 2 y.ybar clamped at 0 for d > 1, and a scalar
    normaliser."""
    d = y.shape[1]
    if d == 1:
        d2 = (y[:, 0] - ybar[0]) ** 2
    else:
        d2 = np.maximum(np.sum(y * y, axis=1) + ybar @ ybar - 2.0 * (y @ ybar), 0.0)
    return np.exp(d2 * (-1.0 / (2.0 * var))) * (2.0 * np.pi * var) ** (-d / 2.0)


def loop_target_terms(model, thetas, term=lambda t: t):
    """(F, grad F, target self-energy) summed one component at a time, in
    component order.  A width is squared as `s * s`: the vectorised square
    is exact, where scalar `s ** 2` goes through C `pow`, which can land 1 ulp
    off (0.07% of random widths on an x86-64 Linux build).  `term=np.abs`
    sums the magnitudes of the terms instead, the scale of their rounding."""
    c, y = model._split(thetas)
    cbar, ybar, s, m = model.target_c, model.target_y, model.target_sigma, model.target_c.size
    resp, grad_y = np.zeros(y.shape[0]), np.zeros_like(y)
    for j in range(m):
        var = model.sigma * model.sigma + s[j] * s[j]
        g = term(cbar[j] * component_gauss(y, ybar[j], var))
        resp += g
        grad_y += term((g / var)[:, None] * (ybar[j] - y))
    resp /= m
    grad_y *= -(term(c) / m)[:, None]
    grad = np.hstack([-resp[:, None], grad_y]) if model.has_amplitude else grad_y
    total = 0.0
    for j in range(m):
        for l in range(m):
            var = s[j] * s[j] + s[l] * s[l]
            total += term(cbar[j] * cbar[l] * component_gauss(ybar[j : j + 1], ybar[l], var)[0])
    return -term(c) * resp, grad, 0.5 * total / m**2


class TestTargetBlock:
    """F, grad F and the target self-energy from one (m, n) Gaussian block
    against the per-component loops: bitwise with 1D positions, and within
    the rounding of the loops' expanded squared distance at d = 2."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(m=st.integers(1, 6), d=st.sampled_from([1, 2]), n=st.sampled_from([1, 5, 300]),
           frozen=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_component_loop(self, m, d, n, frozen, seed):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.2, 0.8)
        target_c, target_y = rng.uniform(-2.0, 2.0, m), rng.uniform(-2.0, 2.0, (m, d))
        target_sigma, frozen_c = sigma * rng.uniform(1.05, 3.0, m), rng.uniform(-2.0, 2.0)
        amplitudes = dict(amplitude_mode="frozen", frozen_c=frozen_c) if frozen else {}
        model = bf.GaussianMixtureModel(target_c=target_c, target_y=target_y, target_sigma=target_sigma,
                                        sigma=sigma, **amplitudes)
        thetas = rng.normal(scale=1.5, size=(n, model.theta_dim))
        new = (*model.single(thetas), model.target_self_energy)
        ref = loop_target_terms(model, thetas)
        if d == 1:
            for got, want in zip(new, ref):
                assert np.array_equal(got, want)
        else:
            # the expansion's rounding grows with |y|^2 / var: over 3,000 draws
            # of n = 300 it lost 2.1e-14 of the summed magnitudes at the 99th
            # percentile and 5.7e-14 at most
            for got, want, scale in zip(new, ref, loop_target_terms(model, thetas, np.abs)):
                assert np.all(np.abs(got - want) <= 2e-13 * np.abs(scale))


def test_one_target_block_per_field_call(mixture_3c, monkeypatch):
    """F and grad F share the one Gaussian block against the target means."""
    calls = []

    def spy(a, b, var):
        calls.append(a is mixture_3c.target_y)
        return _gauss_block(a, b, var)

    monkeypatch.setattr(bf.potentials, "_gauss_block", spy)
    ens = make_ensemble(np.random.default_rng(9).normal(size=(6, 2)))
    bf.field(mixture_3c, ens)
    assert calls.count(True) == 1


def test_one_target_block_per_uncarried_energy_call(mixture_3c, monkeypatch):
    """An energy call on an ensemble that carries no field forms F once: the
    same `single` pass gives F and the V it reads the pair term from."""
    calls = []

    def spy(a, b, var):
        calls.append(a is mixture_3c.target_y)
        return _gauss_block(a, b, var)

    rng = np.random.default_rng(9)
    ens = make_ensemble(rng.normal(size=(6, 2)), rng.uniform(0.5, 1.5, 6))
    ens.weights /= ens.weights.mean()
    f = mixture_3c.single(ens.thetas)[0]
    v = bf.field(mixture_3c, make_ensemble(ens.thetas, ens.weights))[0]
    want = float(ens.weights @ f) / 6 + 0.5 * float(ens.weights @ (v - f)) / 6
    monkeypatch.setattr(bf.potentials, "_gauss_block", spy)
    assert bf.ensemble_energy(mixture_3c, ens) == want
    assert calls.count(True) == 1


def test_no_target_block_per_carried_energy_call(mixture_3c, monkeypatch):
    """An energy call on an ensemble that carries a field reads F from the
    record beside V, so it builds no Gaussian block at all."""
    calls = []

    def spy(a, b, var):
        calls.append(a is mixture_3c.target_y)
        return _gauss_block(a, b, var)

    rng = np.random.default_rng(9)
    ens = make_ensemble(rng.normal(size=(6, 2)), rng.uniform(0.5, 1.5, 6))
    ens.weights /= ens.weights.mean()
    want = bf.ensemble_energy(mixture_3c, make_ensemble(ens.thetas, ens.weights))
    bf.field(mixture_3c, ens)  # carry (F, V, grad V)
    monkeypatch.setattr(bf.potentials, "_gauss_block", spy)
    assert bf.ensemble_energy(mixture_3c, ens) == want
    assert calls == []


class TestGradientChecks:
    """Analytic gradients vs central differences (h = 1e-5, rel err < 1e-6)."""

    H = 1e-5

    def _check_grad_f(self, model, rng, scale=1.0):
        for _ in range(50):
            th = rng.normal(scale=scale, size=model.theta_dim)
            ana = model.single(at(th))[1][0]
            num = np.array(
                [
                    (model.single(at(th + self.H * e))[0][0] - model.single(at(th - self.H * e))[0][0])
                    / (2 * self.H)
                    for e in np.eye(model.theta_dim)
                ]
            )
            assert np.linalg.norm(num - ana) <= 1e-6 * max(1.0, np.linalg.norm(ana))

    def test_quadratic(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        m = bf.QuadraticWellModel(minimizer=rng.normal(size=3), hessian=a @ a.T + np.eye(3))
        self._check_grad_f(m, rng)

    def test_double_well(self):
        self._check_grad_f(bf.DoubleWellModel(), np.random.default_rng(3), scale=1.5)

    def test_mixture_dynamic(self, mixture_3c):
        self._check_grad_f(mixture_3c, np.random.default_rng(4), scale=2.0)

    def test_mixture_frozen(self, mixture_frozen):
        self._check_grad_f(mixture_frozen, np.random.default_rng(5), scale=2.0)

    def test_kernel_gradient_first_slot(self, mixture_3c):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.normal(scale=1.5, size=2)
            b = rng.normal(scale=1.5, size=2)
            _, fsum = mixture_3c.kernel_weighted_sums(at(a), at(b), np.ones(1))
            ana = fsum[0]
            num = numerical_grad_K1(mixture_3c, a, b, h=self.H)
            assert np.linalg.norm(num - ana) <= 1e-6 * max(1.0, np.linalg.norm(ana))


def single_block_sums(model, a, b, w):
    """The pairwise sums as one (len(a), len(b)) block: one Gaussian matrix
    and two mat-vecs, the arithmetic of every tile of `kernel_weighted_sums`."""
    ca, ya = model._split(a)
    cb, yb = model._split(b)
    var = 2.0 * model.sigma * model.sigma
    n_mat = _gauss_block(ya, yb, var)
    wc = w * cb
    base = n_mat @ wc
    mom = n_mat @ (wc[:, None] * yb)
    fsum = (ca / var)[:, None] * (mom - ya * base[:, None])
    if model.has_amplitude:
        fsum = np.hstack([base[:, None], fsum])
    return ca * base, fsum


def per_row_gradient(model, a, b, w):
    """sum_j w_j grad_1 K(a_i, b_j) one row at a time from `K_block`:
    K c_i^-1 for the amplitude and K (y_j - y_i) / (2 sigma^2) for the position."""
    off = 1 if model.has_amplitude else 0
    out = np.empty((a.shape[0], model.theta_dim))
    for i in range(a.shape[0]):
        wk = w * model.K_block(a[i : i + 1], b)[0]
        out[i, off:] = wk @ (b[:, off:] - a[i, off:]) / (2.0 * model.sigma**2)
        if model.has_amplitude:
            unit = np.hstack([1.0, a[i, 1:]])[None]
            out[i, 0] = w @ model.K_block(unit, b)[0]  # sum_j w_j c_j N_ij
    return out


class TestTiledKernel:
    """`kernel_weighted_sums` over tiles of `_TILE` rows per side against the
    dense kernel matrix, with b distinct from a and with b a itself, across
    the tile boundaries."""

    MODES = {
        "frozen": dict(amplitude_mode="frozen", frozen_c=0.7),
        "dynamic": dict(),
    }

    @classmethod
    def model(cls, mode, d):
        targets = [[-1.0, 0.5], [1.0, 0.0]]
        return bf.GaussianMixtureModel(
            target_c=[1.0, -0.5], target_y=[y[:d] for y in targets], target_sigma=[0.6, 0.7],
            sigma=0.4, **cls.MODES[mode])

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.sampled_from([1, 255, 256, 257, 513, 700]), mode=st.sampled_from(sorted(MODES)),
           d=st.sampled_from([1, 2]), same=st.booleans(), m=st.sampled_from([1, 200, 256, 300]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_kernel(self, n, mode, d, same, m, seed):
        model = self.model(mode, d)
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=1.5, size=(n, model.theta_dim))
        b = a if same else rng.normal(scale=1.5, size=(m, model.theta_dim))
        w = rng.uniform(0.2, 2.0, b.shape[0])
        vsum, fsum = model.kernel_weighted_sums(a, b, w)
        dense = model.K_block(a, b) @ w
        ref = per_row_gradient(model, a, b, w)
        tol = 1e-12 * max(np.abs(dense).max(), np.abs(ref).max())  # of the largest value
        assert np.abs(vsum - dense).max() <= tol
        assert np.abs(fsum - ref).max() <= tol
        if max(a.shape[0], b.shape[0]) <= _TILE:  # one tile: the single-block arithmetic
            one_v, one_f = single_block_sums(model, a, b, w)
            assert np.array_equal(vsum, one_v) and np.array_equal(fsum, one_f)

    @pytest.mark.parametrize("shape", [(1,), (2,), (4,), (3, 1), ()], ids=str)
    def test_weights_must_be_one_per_row_of_b(self, mixture_3c, shape):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(3, 2))
        with pytest.raises(bf.ConfigurationError):
            mixture_3c.kernel_weighted_sums(a, b, np.ones(shape))

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_few_columns_meet_the_rows_in_one_block(self, mode, monkeypatch):
        """A `b` of at most `_TILE` rows meets `a` in blocks of `_TILE^2 // len(b)`
        rows: 3,000 rows against 20 are one block, the single-block sums."""
        model = self.model(mode, 1)
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(3000, model.theta_dim)), rng.normal(size=(20, model.theta_dim))
        w = rng.uniform(0.2, 2.0, 20)
        shapes = []

        def spy(x, y, var):
            shapes.append((x.shape[0], y.shape[0]))
            return _gauss_block(x, y, var)

        monkeypatch.setattr(bf.potentials, "_gauss_block", spy)
        got = model.kernel_weighted_sums(a, b, w)
        assert shapes == [(3000, 20)]
        for got_part, want in zip(got, single_block_sums(model, a, b, w)):
            assert np.array_equal(got_part, want)


def broadcast_gauss_block(a, b, var):
    """The Gaussian block with each coordinate's differences formed by
    broadcast subtraction, the formula `_gauss_block` replaced."""
    d = a.shape[1]
    d2 = a[:, 0, None] - b[None, :, 0]
    d2 *= d2
    for k in range(1, d):
        diff = a[:, k, None] - b[None, :, k]
        diff *= diff
        d2 += diff
    d2 *= -1.0 / (2.0 * var)
    np.exp(d2, out=d2)
    d2 *= np.asarray(np.frompyfunc(pow, 2, 1)(2.0 * np.pi * var, -d / 2.0), dtype=float)
    return d2


BLOCK_BYTES = """
import hashlib
import numpy as np
from bdflow.potentials import _gauss_block
rng = np.random.default_rng(19)
blocks = [_gauss_block(rng.normal(scale=2.0, size=(192, d)), rng.normal(scale=2.0, size=(192, d)), 0.32)
          for d in (1, 2)]
print(hashlib.sha256(b"".join(blk.tobytes() for blk in blocks)).hexdigest())
"""


class TestGaussBlock:
    """`_gauss_block` forms each coordinate's differences as a BLAS product,
    which is exact, or by broadcast for at most `_BROADCAST_ROWS` rows, so it
    equals the broadcast formula bit for bit on both sides of that row count:
    at any magnitude, with repeated and shared rows, for every shape of `var`,
    and under any BLAS thread count."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(na=st.one_of(st.integers(1, _BROADCAST_ROWS), st.integers(_BROADCAST_ROWS + 1, 300)),
           nb=st.integers(1, 300), d=st.integers(1, 3),
           magnitude=st.integers(-8, 8), spread=st.integers(-8, 8),
           var_shape=st.sampled_from(["scalar", "column", "full"]),
           repeated=st.booleans(), shared=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_broadcast_formula(self, na, nb, d, magnitude, spread, var_shape,
                                          repeated, shared, seed):
        # rows within 10^spread of a centre 10^magnitude out, so a - b cancels
        # up to 16 digits, with variances on the scale of the spread
        rng = np.random.default_rng(seed)
        spread = min(spread, magnitude)
        centre = rng.uniform(-1.0, 1.0, d) * 10.0**magnitude
        a = centre + rng.normal(scale=10.0**spread, size=(na, d))
        b = centre + rng.normal(scale=10.0**spread, size=(nb, d))
        if repeated:
            a = a[rng.integers(0, na, na)]
        if shared:
            b[rng.random(nb) < 0.5] = a[0]
        scale = 10.0 ** (2 * spread)
        var = {"scalar": scale * rng.uniform(0.2, 5.0),
               "column": scale * rng.uniform(0.2, 5.0, (na, 1)),
               "full": scale * rng.uniform(0.2, 5.0, (na, nb))}[var_shape]
        got = _gauss_block(a, b, var)
        assert got.shape == (na, nb)
        assert got.tobytes() == broadcast_gauss_block(a, b, var).tobytes()

    def test_same_bytes_under_one_and_two_blas_threads(self):
        path = str(Path(bf.__file__).resolve().parents[1])
        digests = {
            threads: subprocess.run(
                [sys.executable, "-c", BLOCK_BYTES], capture_output=True, text=True, check=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            ).stdout
            for threads in ("1", "2")
        }
        assert digests["1"] == digests["2"] and len(digests["1"].strip()) == 64


def formula_single(model, thetas):
    """`GaussianMixtureModel.single` as one expression per quantity: the
    target block, the gradient by broadcast over (components, rows,
    coordinates) and the amplitude column joined by `hstack`."""
    c, y = model._split(thetas)
    m = model.target_c.size
    var = (model.sigma * model.sigma + model.target_sigma**2)[:, None]
    block = model.target_c[:, None] * broadcast_gauss_block(model.target_y, y, var)
    resp = block.sum(axis=0) / m
    grad = ((block / var)[:, :, None] * (model.target_y[:, None] - y[None])).sum(axis=0)
    grad *= -(c / m)[:, None]
    if model.has_amplitude:
        grad = np.hstack([-resp[:, None], grad])
    return -c * resp, grad


class TestSingle:
    """`GaussianMixtureModel.single` equals `formula_single` byte for byte:
    for 1 to 6 components, 1 to 300 rows in 1 to 3 dimensions, dynamic and
    frozen amplitudes, targets and rows up to 1e8 from the origin, and
    repeated rows."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(m=st.integers(1, 6), n=st.integers(1, 300), d=st.integers(1, 3), frozen=st.booleans(),
           magnitude=st.integers(0, 8), repeated=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_formula(self, m, n, d, frozen, magnitude, repeated, seed):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.2, 0.8)
        centre = rng.uniform(-1.0, 1.0, d) * 10.0**magnitude
        amplitudes = dict(amplitude_mode="frozen", frozen_c=rng.uniform(-2.0, 2.0)) if frozen else {}
        model = bf.GaussianMixtureModel(
            target_c=rng.uniform(-2.0, 2.0, m), target_y=centre + rng.uniform(-2.0, 2.0, (m, d)),
            target_sigma=sigma * rng.uniform(1.05, 3.0, m), sigma=sigma, **amplitudes)
        thetas = rng.normal(scale=1.5, size=(n, model.theta_dim))
        thetas[:, model.theta_dim - d:] += centre
        if repeated:
            thetas = thetas[rng.integers(0, n, n)]
        for got, want in zip(model.single(thetas), formula_single(model, thetas)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def tiled_sums(model, a, b, w):
    """The pairwise sums over `_TILE` x `_TILE` tiles."""
    ca, ya = model._split(a)
    cb, yb = model._split(b)
    var = 2.0 * model.sigma * model.sigma
    wc = w * cb
    wcy = wc[:, None] * yb
    base, mom = np.zeros(a.shape[0]), np.zeros(ya.shape)
    for i0 in range(0, a.shape[0], _TILE):
        rows = slice(i0, i0 + _TILE)
        for j0 in range(0, b.shape[0], _TILE):
            cols = slice(j0, j0 + _TILE)
            blk = _gauss_block(ya[rows], yb[cols], var)
            base[rows] += blk @ wc[cols]
            mom[rows] += blk @ wcy[cols]
    fsum = (ca / var)[:, None] * (mom - ya * base[:, None])
    if model.has_amplitude:
        fsum = np.hstack([base[:, None], fsum])
    return ca * base, fsum


def dense_sums(model, a, b, w):
    """`K_block(a, b) @ w` in blocks of 256 rows, and `per_row_gradient`."""
    vsum = np.concatenate([model.K_block(a[i : i + 256], b) @ w for i in range(0, a.shape[0], 256)])
    return vsum, per_row_gradient(model, a, b, w)


class TestHermiteTransform:
    """With 1D positions and at least 2 `_TILE` rows on each side,
    `kernel_weighted_sums` takes the Hermite Gauss transform.  Against the
    dense sums it stays within 1e-12 of the largest value, on any spread of
    positions: far-apart clusters, one shared position, points on the box
    edges (multiples of the power-of-two box width 0.5 at sigma = 0.4) and
    uniform over [0, 1e6].  Its error is a share of the summed |weight|, not
    of each value, so a distinct `b` shares half its rows with `a`: the
    largest value then has a source next to its target."""

    SPREADS = {
        "normal": lambda rng, n: rng.normal(scale=2.0, size=n),
        "clusters": lambda rng, n: rng.normal(size=n) + rng.choice([-1e6, 1e6], n),
        "one-point": lambda rng, n: np.full(n, rng.uniform(-3.0, 3.0)),
        "box-edges": lambda rng, n: 0.5 * rng.integers(-30, 30, n),
        "uniform-wide": lambda rng, n: rng.uniform(0.0, 1e6, n),
    }

    @staticmethod
    def rows(model, pos, rng):
        if model.has_amplitude:
            return np.column_stack([rng.uniform(-2.0, 2.0, pos.size), pos])
        return pos[:, None]

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.sampled_from([300, 511, 512, 1000, 2500, 5000]),
           mode=st.sampled_from(sorted(TestTiledKernel.MODES)), same=st.booleans(),
           m=st.sampled_from([512, 700, 1500]), spread=st.sampled_from(sorted(SPREADS)),
           zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_sums(self, n, mode, same, m, spread, zeros, seed):
        model = TestTiledKernel.model(mode, 1)
        rng = np.random.default_rng(seed)
        if n < 2 * _TILE:
            # the tiles form the position sums as mom - y base, which loses |y| eps
            # (test_tiles_lose_position_sums_far_out); they see the normal spread
            spread = "normal"
        pos = self.SPREADS[spread](rng, n)
        a = self.rows(model, pos, rng)
        if same:
            b = a
        else:
            b = self.rows(model, np.concatenate([rng.permutation(pos)[: m // 2],
                                                 self.SPREADS[spread](rng, m - m // 2)]), rng)
        w = rng.uniform(0.2, 2.0, b.shape[0])
        if zeros:
            w[rng.random(w.size) < 0.3] = 0.0
        vsum, fsum = model.kernel_weighted_sums(a, b, w)
        dense, ref = dense_sums(model, a, b, w)
        tol = 1e-12 * max(np.abs(dense).max(), np.abs(ref).max())
        assert np.abs(vsum - dense).max() <= tol
        assert np.abs(fsum - ref).max() <= tol

    @pytest.mark.xfail(strict=True, reason="the tiles' mom - y base cancels at |y| ~ 1e6")
    def test_tiles_lose_position_sums_far_out(self):
        model = TestTiledKernel.model("frozen", 1)
        rng = np.random.default_rng(15)
        a = self.SPREADS["clusters"](rng, 300)[:, None]
        w = rng.uniform(0.2, 2.0, 300)
        _, fsum = model.kernel_weighted_sums(a, a, w)
        dense, ref = dense_sums(model, a, a, w)
        assert np.abs(fsum - ref).max() <= 1e-12 * max(np.abs(dense).max(), np.abs(ref).max())

    def test_sources_beyond_the_cutoff_are_dropped(self):
        """Sources 8 h from every target lie beyond the cutoff and add nothing,
        where the dense sums hold e^-64 of their weight: the transform's error
        is a share of the summed |weight|, not of each value."""
        model = TestTiledKernel.model("frozen", 1)
        h = 2.0 * model.sigma
        rng = np.random.default_rng(18)
        a = rng.uniform(0.0, 1.0, (600, 1))
        b = rng.uniform(1.0 + 8.0 * h, 2.0 + 8.0 * h, (600, 1))
        w = rng.uniform(0.2, 2.0, 600)
        vsum, fsum = model.kernel_weighted_sums(a, b, w)
        dense, ref = dense_sums(model, a, b, w)
        assert np.all(vsum == 0.0) and np.all(fsum == 0.0)
        total = model.frozen_c**2 * w.sum() / np.sqrt(2.0 * np.pi * h * h / 2.0)  # sum_j |w_j c c_j| N(0; 0, var)
        assert 0.0 < dense.max() <= 4.5e-19 * total

    def test_a_1d_field_call_builds_no_pairwise_block(self, monkeypatch):
        model = TestTiledKernel.model("frozen", 1)
        blocks = []

        def spy(x, y, var):
            if x is not model.target_y:  # the target block of `single`
                blocks.append((x.shape[0], y.shape[0]))
            return _gauss_block(x, y, var)

        monkeypatch.setattr(bf.potentials, "_gauss_block", spy)
        ens = make_ensemble(np.random.default_rng(16).normal(scale=2.0, size=(4000, 1)))
        bf.field(model, ens)
        assert blocks == []

    @pytest.mark.parametrize("same", [True, False])
    def test_d2_calls_keep_the_tiles_bitwise(self, same):
        model = TestTiledKernel.model("dynamic", 2)
        rng = np.random.default_rng(17)
        a = rng.normal(scale=1.5, size=(600, model.theta_dim))
        b = a if same else rng.normal(scale=1.5, size=(700, model.theta_dim))
        w = rng.uniform(0.2, 2.0, b.shape[0])
        for got, want in zip(model.kernel_weighted_sums(a, b, w), tiled_sums(model, a, b, w)):
            assert np.array_equal(got, want)


def whole_table_hermite_sums(x, y, q, var):
    """The Hermite Gauss transform with whole (`_HERMITE_ORDER` x n) power
    tables: the sources' and the targets' powers each formed at once, the
    target boxes found by `np.unique` (a second sort) and every target's
    series summed by one einsum over its box's gathered coefficients."""
    p, h = _HERMITE_ORDER, math.sqrt(2.0 * var)
    width = math.ldexp(1.0, math.frexp(h)[1] - 1)
    r = width / h
    order = np.argsort(y, kind="stable")
    ys = y[order] / width
    sbox = np.floor(ys)
    starts = np.flatnonzero(np.diff(sbox, prepend=sbox[0] - 1.0))
    terms = whole_powers((ys - sbox - 0.5) * r)
    terms *= q[order]
    moments = (np.add.reduceat(terms, starts, axis=1) * _INV_FACT[:p, None]).T
    sbox = sbox[starts]
    xs = x / width
    tbox = np.floor(xs)
    powers = whole_powers((xs - tbox - 0.5) * r)
    tbox, t_inv = np.unique(tbox, return_inverse=True)
    offsets, trans = _box_map(r)
    local = np.empty((p + 1, tbox.size))
    for c0 in range(0, tbox.size, _TILE):
        near = tbox[c0 : c0 + _TILE, None] - offsets
        j = np.minimum(np.searchsorted(sbox, near), sbox.size - 1)
        near = moments[j] * (sbox[j] == near)[:, :, None]
        local[:, c0 : c0 + _TILE] = (near.reshape(near.shape[0], -1) @ trans).T
    norm = float(_scalar_pow(2.0 * np.pi * var, -0.5))
    coef = np.empty((2, p, tbox.size))
    coef[0] = local[:p] * norm
    coef[1] = local[1:] * (np.arange(1, p + 1) * (0.5 * h * norm))[:, None]
    base, dev = np.einsum("ckn,kn->cn", coef[:, :, t_inv], powers)
    return base, dev


def whole_powers(v):
    """v^k for k < `_HERMITE_ORDER`, as one (k, len(v)) table."""
    out = np.empty((_HERMITE_ORDER, v.size))
    out[0] = 1.0
    for k in range(1, _HERMITE_ORDER):
        np.multiply(out[k - 1], v, out=out[k])
    return out


class TestHermiteLayout:
    """`_hermite_sums` sorts each point set once, runs its powers order by
    order and holds a few n-vectors, and still gives the sums of the
    whole-table transform byte for byte."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.sampled_from([512, 1000, 2500, 5000]), same=st.booleans(),
           m=st.sampled_from([512, 700, 1500]), spread=st.sampled_from(sorted(TestHermiteTransform.SPREADS)),
           zeros=st.booleans(), var=st.sampled_from([0.05, 0.32, 0.98, 3.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_whole_table_transform(self, n, same, m, spread, zeros, var, seed):
        rng = np.random.default_rng(seed)
        draw = TestHermiteTransform.SPREADS[spread]
        x = draw(rng, n)
        y = x if same else np.concatenate([rng.permutation(x)[: m // 2], draw(rng, m - m // 2)])
        q = rng.uniform(-2.0, 2.0, y.size)  # negative weights, as signed amplitudes give
        if zeros:
            q[rng.random(q.size) < 0.3] = 0.0
        for got, want in zip(_hermite_sums(x, y, q, var), whole_table_hermite_sums(x, y, q, var)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_self_call_holds_a_few_vectors(self):
        """One `kernel_weighted_sums(theta, theta, w)` call at n = 16,000 with
        1D positions peaks under tracemalloc at no more than 24 n-vectors
        (3.07 MB).  It reads 15.6 (2.00 MB), a margin of 1.5x; with whole
        power tables it read 121.6 (15.6 MB)."""
        model = TestTiledKernel.model("frozen", 1)
        rng = np.random.default_rng(19)
        n = 16_000
        theta = rng.normal(scale=2.0, size=(n, 1))
        w = rng.uniform(0.2, 2.0, n)
        model.kernel_weighted_sums(theta, theta, w)  # the box map and factors are cached
        tracemalloc.start()
        try:
            model.kernel_weighted_sums(theta, theta, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 8 * n


class TestBandwidthSquare:
    """The unit bandwidth is squared as `sigma * sigma`.  At this sigma C
    `pow(sigma, 2)` lands 1 ulp off that square on an x86-64 Linux build,
    which moved a `K_block` value by 1 ulp."""

    SIGMA = 0.8483837238129177

    def test_terms_match_the_exact_square_bitwise(self):
        model = bf.GaussianMixtureModel(target_c=[1.0, -0.5], target_y=[[-1.0], [1.0]],
                                        target_sigma=[0.9, 1.1], sigma=self.SIGMA)
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=(23, 2)), rng.normal(size=(9, 2))
        w = rng.uniform(0.5, 1.5, 9)
        var = 2.0 * self.SIGMA * self.SIGMA
        gauss = np.column_stack([component_gauss(a[:, 1:], y, var) for y in b[:, 1:]])
        assert np.array_equal(model.K_block(a, b), (a[:, 0, None] * b[None, :, 0]) * gauss)
        for got, want in zip(model.kernel_weighted_sums(a, b, w), single_block_sums(model, a, b, w)):
            assert np.array_equal(got, want)
        f, grad_f, _ = loop_target_terms(model, a)
        got_f, got_grad = model.single(a)
        assert np.array_equal(got_f, f) and np.array_equal(got_grad, grad_f)


class TestParticlePotential:
    def test_reduces_to_f_without_interaction(self, quad_1d):
        ens = make_ensemble([[1.0], [3.0]])
        np.testing.assert_array_equal(bf.field(quad_1d, ens)[0], quad_1d.single(ens.thetas)[0])
        assert bf.field(quad_1d, ens, points=[[1.0]])[0][0] == quad_1d.single(at([1.0]))[0][0]

    def test_single_particle_at_minimum(self, quad_1d):
        ens = make_ensemble([[0.0]])
        assert bf.field(quad_1d, ens)[0][0] == 0.0

    def test_three_particle_mixture_against_direct_sum(self, mixture_3c):
        rng = np.random.default_rng(7)
        ens = make_ensemble(rng.normal(size=(3, 2)))
        v = bf.field(mixture_3c, ens)[0]
        for i in range(3):
            direct = mixture_3c.single(at(ens.thetas[i]))[0][0] + sum(
                ens.weights[j] * mixture_3c.K_block(at(ens.thetas[i]), at(ens.thetas[j]))[0, 0]
                for j in range(3)
            ) / 3.0
            assert v[i] == pytest.approx(direct, rel=1e-12)
            assert bf.field(mixture_3c, ens, points=ens.thetas[i])[0][0] == pytest.approx(v[i], rel=1e-13)

    @pytest.mark.parametrize("points", ["ab", [[np.nan]], [[np.inf]]], ids=["string", "nan", "inf"])
    def test_malformed_points_rejected(self, mixture_frozen, points):
        ens = make_ensemble([[-1.0], [1.0]])
        with pytest.raises(bf.ConfigurationError, match="points"):
            bf.field(mixture_frozen, ens, points=points)

    def test_particles_reach_the_kernel_uncopied(self, mixture_frozen, monkeypatch):
        # the particle rows go to the kernel as they are, with no copy per pass
        ens = make_ensemble([[-1.0], [0.5], [1.0]])
        seen = []
        kernel = bf.GaussianMixtureModel.kernel_weighted_sums

        def spy(self, a, b, w):
            seen.append((a, b))
            return kernel(self, a, b, w)

        monkeypatch.setattr(bf.GaussianMixtureModel, "kernel_weighted_sums", spy)
        bf.field(mixture_frozen, ens)
        assert len(seen) == 1 and seen[0][0] is ens.thetas and seen[0][1] is ens.thetas


class TestField:
    MODELS = {
        "dynamic-1d": dict(target_c=[1.0, -0.5], target_y=[[-1.0], [1.0]],
                           target_sigma=[0.6, 0.6], sigma=0.4),
        "frozen-1d": dict(target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]],
                          target_sigma=[0.8, 0.8], sigma=0.5, amplitude_mode="frozen"),
        "dynamic-2d": dict(target_c=[1.0, -0.5], target_y=[[-1.0, 0.5], [1.0, 0.0]],
                           target_sigma=[0.6, 0.7], sigma=0.4),
        "frozen-2d": dict(target_c=[1.0, 1.0], target_y=[[-1.5, 0.0], [1.5, 1.0]],
                          target_sigma=[0.8, 0.8], sigma=0.5, amplitude_mode="frozen",
                          frozen_c=0.7),
    }

    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("n", [23, 300])
    def test_points_at_the_particles_match_the_particle_field(self, kind, n):
        """Bitwise: at n = 23 one tile, at n = 300 the same tiles in the same
        order either way."""
        model = bf.GaussianMixtureModel(**self.MODELS[kind])
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.5, n)
        ens = make_ensemble(rng.normal(size=(n, model.theta_dim)), weights=w / w.mean())
        particles = bf.field(model, ens)
        at_points = bf.field(model, ens, points=ens.thetas.copy())
        for got, want in zip(at_points, particles):
            assert np.array_equal(got, want)

    def test_points_leave_the_carry_alone(self, mixture_frozen):
        ens = make_ensemble([[-1.0], [0.5], [1.0]])
        v, grad = bf.field(mixture_frozen, ens)
        held = ens._field
        probe_v, _ = bf.field(mixture_frozen, ens, points=[[0.0], [2.0]])
        assert probe_v.shape == (2,) and ens._field is held
        again = bf.field(mixture_frozen, ens)  # the carried arrays themselves, no fresh pass
        assert again[0] is v and again[1] is grad

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_gradient_matches_finite_differences(self, kind):
        model = bf.GaussianMixtureModel(**self.MODELS[kind])
        rng = np.random.default_rng(12)
        thetas = rng.normal(size=(4, model.theta_dim))
        ens = make_ensemble(thetas)
        _, grad = bf.field(model, ens)
        for i in range(4):
            num = numerical_grad_F(model, thetas[i], h=1e-5)
            for j in range(4):
                num = num + numerical_grad_K1(model, thetas[i], thetas[j], h=1e-5) / 4.0
            np.testing.assert_allclose(grad[i], num, atol=1e-8)


class TestExactMixtureLoss:
    def test_nonnegative(self, mixture_3c):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ens = make_ensemble(rng.normal(size=(6, 2)))
            assert bf.exact_mixture_loss(mixture_3c, ens) >= 0.0

    def test_zero_amplitudes_give_target_self_energy(self, mixture_3c):
        thetas = np.column_stack([np.zeros(4), np.linspace(-2, 2, 4)])
        ens = make_ensemble(thetas)
        loss = bf.exact_mixture_loss(mixture_3c, ens)
        assert loss == pytest.approx(mixture_3c.target_self_energy, rel=1e-12)
        oracle, _ = quad(
            lambda x: 0.5 * target_density(mixture_3c, x) ** 2, -12.0, 12.0,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert loss == pytest.approx(oracle, rel=1e-8)

    def test_against_quadrature_random_config(self, mixture_1c):
        rng = np.random.default_rng(9)
        thetas = np.column_stack([rng.normal(size=5), rng.normal(size=5)])
        ens = make_ensemble(thetas)

        def residual_sq(x):
            fn = sum(
                ens.weights[i] * unit_response(mixture_1c, x, thetas[i, 0], thetas[i, 1])
                for i in range(5)
            ) / 5.0
            return 0.5 * (target_density(mixture_1c, x) - fn) ** 2

        oracle, err = quad(residual_sq, -14.0, 14.0, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert bf.exact_mixture_loss(mixture_1c, ens) == pytest.approx(oracle, rel=1e-6)

    def test_energy_decomposition_identity(self, mixture_3c):
        rng = np.random.default_rng(10)
        for _ in range(5):
            ens = make_ensemble(rng.normal(size=(7, 2)))
            lhs = bf.exact_mixture_loss(mixture_3c, ens)
            rhs = mixture_3c.target_self_energy + bf.ensemble_energy(mixture_3c, ens)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestReluStudentTeacher:
    def test_exact_operations_unavailable(self):
        relu = bf.ReLUStudentTeacherModel(input_dim=4, teacher_units=2, batch_size=8, teacher_seed=0)
        th = np.zeros((1, 5))
        calls = {"single": (th,), "K_block": (th, th),
                 "kernel_weighted_sums": (th, th, np.ones(1))}
        for name, args in calls.items():
            with pytest.raises(bf.UnsupportedOperationError, match="relu-student-teacher"):
                getattr(relu, name)(*args)
        quad = bf.QuadraticWellModel()  # no interaction kernel
        with pytest.raises(bf.UnsupportedOperationError, match="quadratic-well"):
            quad.K_block(th[:, :1], th[:, :1])
        with pytest.raises(bf.UnsupportedOperationError, match="quadratic-well"):
            quad.kernel_weighted_sums(th[:, :1], th[:, :1], np.ones(1))

    @pytest.mark.parametrize("size", [2.5, "8", True], ids=["float", "string", "bool"])
    def test_batch_size_must_be_an_integer(self, size):
        m = bf.ReLUStudentTeacherModel(input_dim=2, teacher_units=1, batch_size=4, teacher_seed=7)
        with pytest.raises(bf.ConfigurationError, match="batch size"):
            m.sample_batch(np.random.default_rng(0), size)

    def test_student_equals_teacher_zero_potential(self):
        m = bf.ReLUStudentTeacherModel(input_dim=6, teacher_units=4, batch_size=32, teacher_seed=1)
        thetas = np.column_stack([m.teacher_c, m.teacher_y])
        ens = make_ensemble(thetas)
        x = m.sample_batch(np.random.default_rng(2))
        vhat = m.batch_grad_V(ens.thetas, ens.weights, x)[:, 0]
        np.testing.assert_allclose(vhat, 0.0, atol=1e-14)

    def test_single_sample_hand_value(self):
        m = bf.ReLUStudentTeacherModel(input_dim=1, teacher_units=1, batch_size=1, teacher_seed=0)
        cbar, ybar = m.teacher_c[0], m.teacher_y[0, 0]
        c, y, x0 = 2.0, -0.3, 0.7
        ens = make_ensemble([[c, y]])
        x = np.array([[x0]])
        f_teacher = cbar * max(0.0, ybar * x0)
        f_student = c * max(0.0, y * x0)
        expected = max(0.0, y * x0) * (f_student - f_teacher)
        assert m.batch_grad_V(ens.thetas, ens.weights, x)[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_vhat_is_scaled_amplitude_gradient(self):
        # vhat equals n * d(batch loss)/dc_i on a fixed batch
        m = bf.ReLUStudentTeacherModel(input_dim=5, teacher_units=3, batch_size=16, teacher_seed=3)
        rng = np.random.default_rng(4)
        n = 7
        thetas = np.column_stack([rng.normal(size=n), rng.normal(size=(n, 5))])
        w = np.ones(n)
        x = m.sample_batch(rng)
        vhat = m.batch_grad_V(thetas, w, x)[:, 0]
        h = 1e-6
        for i in range(n):
            up, dn = thetas.copy(), thetas.copy()
            up[i, 0] += h
            dn[i, 0] -= h
            fd = n * (m.batch_loss(up, w, x) - m.batch_loss(dn, w, x)) / (2 * h)
            assert vhat[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_position_gradient_matches_batch_loss(self):
        m = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=8, teacher_seed=5)
        rng = np.random.default_rng(6)
        n = 4
        thetas = np.column_stack([rng.normal(size=n), rng.normal(size=(n, 3))])
        w = np.ones(n)
        x = m.sample_batch(rng)
        grad = m.batch_grad_V(thetas, w, x)
        h = 1e-6
        for i in range(n):
            for d in range(1, 4):
                up, dn = thetas.copy(), thetas.copy()
                up[i, d] += h
                dn[i, d] -= h
                fd = n * (m.batch_loss(up, w, x) - m.batch_loss(dn, w, x)) / (2 * h)
                assert grad[i, d] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("estimate", ["batch_grad_V", "batch_loss"])
    def test_empty_batch_rejected(self, estimate):
        m = bf.ReLUStudentTeacherModel(input_dim=2, teacher_units=1, batch_size=4, teacher_seed=7)
        ens = make_ensemble([[1.0, 0.0, 0.0]])
        with pytest.raises(bf.ConfigurationError):
            getattr(m, estimate)(ens.thetas, ens.weights, np.zeros((0, 2)))

    def test_teacher_dump(self, tmp_path):
        m = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=5, batch_size=4, teacher_seed=8)
        path = tmp_path / "teacher.csv"
        cli.write_teacher_csv(m, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 6
        amps = [float(r.split(",")[1]) for r in rows[1:]]
        assert set(amps) <= {-1.0, 1.0}
        norms = [np.linalg.norm([float(v) for v in r.split(",")[2:]]) for r in rows[1:]]
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_failed_dump_leaves_existing_file_unchanged(self, tmp_path):
        path = tmp_path / "teacher.csv"
        cli.write_teacher_csv(bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=5, teacher_seed=8), path)
        before = path.read_bytes()

        class FailsOnRead:
            def __getitem__(self, j):
                raise RuntimeError("write interrupted")

        other = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=5, teacher_seed=9)
        other.teacher_y = FailsOnRead()  # the header is written, then the first unit fails
        with pytest.raises(RuntimeError, match="write interrupted"):
            cli.write_teacher_csv(other, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["teacher.csv"]  # no temp file left


class TestReluHomogeneity:
    """The student unit c relu(y . x) has no bias, so it is 2-homogeneous in
    (c, y): on any minibatch Euler's identity gives y . grad_y V = c dV/dc
    (= V, as V = c vhat) at every particle, and gradient flow conserves
    q = c^2 - |y|^2, so one Euler step changes q by dt^2 (g_c^2 - |g_y|^2)."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 60), batch=st.integers(1, 128),
           scale=st.sampled_from([0.1, 1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
    def test_batch_gradient_obeys_eulers_identity(self, n, d, batch, scale, seed):
        rng = np.random.default_rng(seed)
        m = bf.ReLUStudentTeacherModel(input_dim=d, teacher_units=3, batch_size=batch,
                                       teacher_seed=seed % 1000)
        thetas = scale * rng.normal(size=(n, d + 1))
        grad = m.batch_grad_V(thetas, rng.uniform(0.2, 2.0, n), m.sample_batch(rng))
        v = thetas[:, 0] * grad[:, 0]  # c dV/dc
        radial = np.einsum("ij,ij->i", thetas[:, 1:], grad[:, 1:])  # y . grad_y V
        assert np.abs(radial - v).max() <= 1e-12 * np.abs(v).max()

    def test_one_step_changes_q_by_the_squared_step(self):
        m = bf.ReLUStudentTeacherModel(input_dim=8, teacher_units=3, batch_size=32, teacher_seed=2)
        rng = np.random.default_rng(20)
        ens = make_ensemble(np.column_stack([rng.normal(size=30), rng.normal(size=(30, 8))]))
        x, dt = m.sample_batch(rng), 0.1
        g = bf.field(m, ens, x)[1]
        before = ens.thetas.copy()
        bf.gd_step(m, ens, dt, x)

        def q(th):
            return th[:, 0] ** 2 - np.einsum("ij,ij->i", th[:, 1:], th[:, 1:])

        want = dt * dt * (g[:, 0] ** 2 - np.einsum("ij,ij->i", g[:, 1:], g[:, 1:]))
        tol = 1e-13 * np.einsum("ij,ij->i", before, before).max()  # rounding of q
        assert np.abs(want).max() > 1e6 * tol  # the step moves q far beyond rounding
        np.testing.assert_allclose(q(ens.thetas) - q(before), want, rtol=0, atol=tol)


class TestBuildModel:
    def test_unknown_keys_rejected(self):
        with pytest.raises(bf.ConfigurationError):
            bf.build_model({"kind": "quadratic-well", "minimizer": [0.0], "hesian": 1.0})
        with pytest.raises(bf.ConfigurationError):
            bf.build_model({"kind": "mystery"})

    def test_mixture_roundtrip(self):
        spec = {
            "kind": "gaussian-mixture",
            "components": [{"c": 1.0, "y": [0.0], "sigma": 1.0}],
            "sigma": 0.5,
        }
        m = bf.build_model(spec)
        assert isinstance(m, bf.GaussianMixtureModel)
        assert m.has_amplitude and m.theta_dim == 2

    def test_frozen_c_only_with_frozen_amplitudes(self):
        spec = {"kind": "gaussian-mixture", "components": [{"c": 1.0, "y": [0.0], "sigma": 1.0}],
                "sigma": 0.5}
        assert bf.build_model({**spec, "amplitude_mode": "frozen"}).frozen_c == 1.0
        # a dynamic model once took frozen_c and never read it
        for extra in ({"frozen_c": 0.3}, {"amplitude_mode": "dynamic", "frozen_c": 1.0}):
            with pytest.raises(bf.ConfigurationError, match="frozen_c"):
                bf.build_model({**spec, **extra})


class TestMinibatchEntryPoint:
    """`field` on the ReLU model: estimates on a given batch."""

    @pytest.fixture
    def relu_ens(self):
        m = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=8, teacher_seed=4)
        rng = np.random.default_rng(5)
        ens = make_ensemble(np.column_stack([rng.normal(size=6), rng.normal(size=(6, 3))]))
        return m, ens, m.sample_batch(rng)

    @pytest.mark.parametrize("call", [
        lambda m, ens: bf.field(m, ens),
        lambda m, ens: bf.centered_rate(m, ens),
        lambda m, ens: bf.gd_step(m, ens, 0.1),
    ], ids=["field", "centered_rate", "gd_step"])
    def test_missing_batch_rejected(self, relu_ens, call):
        m, ens, _ = relu_ens
        with pytest.raises(bf.ConfigurationError):
            call(m, ens)

    def test_probe_points_rejected(self, relu_ens):
        m, ens, x = relu_ens
        with pytest.raises(bf.ConfigurationError):
            bf.field(m, ens, x, points=ens.thetas)

    def test_field_is_the_batch_estimates(self, relu_ens):
        m, ens, x = relu_ens
        v, grad = bf.field(m, ens, x)
        vhat = m.batch_grad_V(ens.thetas, ens.weights, x)[:, 0]
        assert np.array_equal(v, ens.thetas[:, 0] * vhat)
        assert np.array_equal(grad, m.batch_grad_V(ens.thetas, ens.weights, x))
        assert np.array_equal(bf.field(m, ens, batch=x)[0], v)
