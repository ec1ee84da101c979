import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

import bdflow as bf
from bdflow.meanfield import (CFL_LIMIT, CLIP_ESCALATE_AFTER, CLIP_WARN_MASS, TINY, Grid1D,
                              _upwind_stencil)


def quad_f(x):
    return 0.5 * np.asarray(x, dtype=float) ** 2


def std_normal(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / 2.0) / np.sqrt(2.0 * np.pi)


QGRID = np.linspace(-8.0, 8.0, 20001)


class TestPureBirthDeath:
    def test_time_zero_returns_initial_density(self):
        pts = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            bf.pure_bd_density(quad_f, std_normal, 1.0, 0.0, pts, QGRID), std_normal(pts),
            rtol=1e-12,
        )

    def test_gaussian_contraction_closed_form(self):
        # e^{-a t x^2/2} N(0,1) renormalizes to N(0, 1/(1+a t))
        alpha, t = 1.0, 3.0
        pts = np.linspace(-2, 2, 21)
        var = 1.0 / (1.0 + alpha * t)
        expected = np.exp(-(pts**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        got = bf.pure_bd_density(quad_f, std_normal, alpha, t, pts, QGRID)
        np.testing.assert_allclose(got, expected, rtol=1e-7)

    def test_offset_invariance(self):
        pts = np.linspace(-3, 3, 13)
        base = bf.pure_bd_density(quad_f, std_normal, 1.0, 2.0, pts, QGRID)
        shifted = bf.pure_bd_density(lambda x: quad_f(x) + 7.0, std_normal, 1.0, 2.0, pts, QGRID)
        np.testing.assert_allclose(shifted, base, rtol=1e-12)

    def test_mean_energy_at_time_zero(self):
        val = bf.pure_bd_mean_energy(quad_f, std_normal, 1.0, 0.0, QGRID)
        assert val == pytest.approx(0.5, rel=1e-7)

    def test_late_time_landau_tail(self):
        # population mean approaches d / (2 alpha t) = 1/(2 t) here
        val = bf.pure_bd_mean_energy(quad_f, std_normal, 1.0, 100.0, QGRID)
        assert val * 2.0 * 100.0 == pytest.approx(1.0, abs=0.05)

    def test_double_well_concentrates_at_global_minimum(self):
        m = bf.DoubleWellModel(height=1.0, tilt=0.5)
        f = lambda x: m.single(np.asarray(x, dtype=float)[:, None])[0]
        r0 = lambda x: std_normal(np.asarray(x) / 1.5) / 1.5
        grid = np.linspace(-3.0, 3.0, 40001)
        val = bf.pure_bd_mean_energy(f, r0, 1.0, 200.0, grid)
        assert val * 2.0 * 200.0 == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1.0},  # once gave a mean energy of 10.67
        {"alpha": "x"},  # once raised TypeError
        {"alpha": float("nan")},  # once raised NumericError
        {"alpha": float("inf")},
        {"t": -1.0},
        {"t": float("nan")},
        {"t": float("inf")},
    ], ids=["negative-alpha", "string-alpha", "nan-alpha", "inf-alpha", "negative-t", "nan-t", "inf-t"])
    def test_malformed_inputs_rejected(self, kwargs):
        args = {"alpha": 1.0, "t": 0.5, **kwargs}
        with pytest.raises(bf.ConfigurationError):
            bf.pure_bd_mean_energy(quad_f, std_normal, args["alpha"], args["t"], QGRID)
        with pytest.raises(bf.ConfigurationError):
            bf.pure_bd_density(quad_f, std_normal, args["alpha"], args["t"], [0.0], QGRID)

    @pytest.mark.parametrize("theta", ["ab", [float("nan")], [0.0, float("inf")], [[0.0, 1.0]], []],
                             ids=["string", "nan", "inf", "2d", "empty"])
    def test_malformed_points_rejected(self, theta):
        with pytest.raises(bf.ConfigurationError):
            bf.pure_bd_density(quad_f, std_normal, 1.0, 0.5, theta, QGRID)

    @pytest.mark.parametrize("grid", [
        [1.0, 0.0, -1.0],  # once raised NumericError
        [0.0],  # once raised NumericError
        [0.0, 1.0, 1.0, 2.0],
        [[-1.0, 0.0, 1.0]],  # once raised "ambiguous truth value"
        [-1.0, float("nan"), 1.0],
        "ab",
    ], ids=["descending", "one-point", "repeated", "2d", "nan", "string"])
    def test_malformed_grid_rejected(self, grid):
        with pytest.raises(bf.ConfigurationError):
            bf.pure_bd_mean_energy(quad_f, std_normal, 1.0, 0.5, grid)
        with pytest.raises(bf.ConfigurationError):
            bf.pure_bd_density(quad_f, std_normal, 1.0, 0.5, [0.0], grid)


class TestTransportAsymptote:
    def test_isotropic_two_dim(self):
        forms = bf.RateFormulas(hessian=np.eye(2), alpha=1.0)
        assert bf.transport_bd_asymptote(forms, 1.5) == pytest.approx(2 * np.exp(-3.0), rel=1e-14)

    def test_diagonal_trace(self):
        forms = bf.RateFormulas(hessian=np.diag([1.0, 4.0]), alpha=2.0)
        t = 0.7
        expected = 0.5 * (np.exp(-2 * t) + 4 * np.exp(-8 * t))
        assert bf.transport_bd_asymptote(forms, t) == pytest.approx(expected, rel=1e-14)

    def test_generic_spd_against_matrix_exponential(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        h = a @ a.T + 0.5 * np.eye(3)
        forms = bf.RateFormulas(hessian=h, alpha=1.3)
        for t in (0.2, 1.0, 2.5):
            oracle = np.trace(h @ scipy.linalg.expm(-2.0 * h * t)) / 1.3
            assert bf.transport_bd_asymptote(forms, t) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("t", [np.nan, -1.0, "ab", [0.5, -0.1], [[1.0]]], ids=str)
    def test_malformed_time_rejected(self, t):
        # t = NaN once returned nan, t = -1 returned 7.39 and "ab" raised numpy's ValueError
        with pytest.raises(bf.ConfigurationError, match="t must be"):
            bf.transport_bd_asymptote(bf.RateFormulas(hessian=np.eye(1), alpha=1.0), t)

    def test_vector_of_times(self):
        forms = bf.RateFormulas(hessian=np.eye(1), alpha=1.0)
        t = np.array([0.0, 0.5, 2.0])
        np.testing.assert_array_equal(bf.transport_bd_asymptote(forms, t),
                                      [bf.transport_bd_asymptote(forms, v) for v in t])

    def test_non_spd_rejected(self):
        with pytest.raises(bf.ConfigurationError):
            bf.RateFormulas(hessian=np.diag([1.0, -1.0]), alpha=1.0)

    @pytest.mark.parametrize("kwargs", [{"hessian": "abc"}, {"alpha": "x"}], ids=str)
    def test_malformed_fields_rejected(self, kwargs):
        # these once raised ValueError and TypeError
        with pytest.raises(bf.ConfigurationError):
            bf.RateFormulas(**{"hessian": 1.0, "alpha": 1.0, **kwargs})


class TestCharacteristicsDensity:
    def test_time_zero_is_initial_gaussian(self):
        pts = np.linspace(-2, 2, 11)
        got = bf.characteristics_density_quadratic(np.eye(1), [0.0], [0.5], [[1.44]], 1.0, 0.0, pts)
        expected = np.exp(-((pts - 0.5) ** 2) / (2 * 1.44)) / np.sqrt(2 * np.pi * 1.44)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_late_time_covariance_forgets_broad_initial_density(self):
        # with a very flat start the density relaxes to N(t*, (2/alpha) e^{-2Ht})
        alpha, t = 1.5, 5.0
        var = (2.0 / alpha) * np.exp(-2.0 * t)
        pts = np.linspace(-3 * np.sqrt(var), 3 * np.sqrt(var), 9) + 1.0
        got = bf.characteristics_density_quadratic(
            np.eye(1), [1.0], [1.0], [[1e6]], alpha, t, pts
        )
        expected = np.exp(-((pts - 1.0) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        np.testing.assert_allclose(got, expected, rtol=1e-3)

    def test_multivariate_point_evaluation(self):
        h = np.diag([1.0, 2.0])
        val = bf.characteristics_density_quadratic(h, [0.0, 0.0], [0.1, -0.1], np.eye(2), 1.0, 0.5,
                                                   np.array([0.0, 0.0]))
        assert np.isscalar(val) and val > 0

    @pytest.mark.parametrize("hessian,cov", [
        (np.eye(2), 0.5), (np.eye(2), [[0.5]]), (2.0, 0.5), ([2.0], [[0.5]]), (np.diag([1.0, 2.0]), np.eye(2)),
    ], ids=["2d-scalar-cov", "2d-1x1-cov", "scalars", "vector-1x1", "2d-matrices"])
    def test_accepted_shapes(self, hessian, cov):
        # a 1 x 1 rho0_cov is isotropic in every dimension
        k = np.atleast_2d(hessian).shape[0]
        val = bf.characteristics_density_quadratic(hessian, [0.0] * k, [0.1] * k, cov, 1.0, 0.5, [0.2] * k)
        iso = bf.characteristics_density_quadratic(hessian, [0.0] * k, [0.1] * k, 0.5 * np.eye(k), 1.0, 0.5,
                                                   [0.2] * k)
        assert val > 0
        if np.size(cov) == 1:
            assert val == iso

    @pytest.mark.parametrize("kwargs", [
        {"hessian": [[1.0, 5.0], [0.0, 1.0]]},  # not symmetric: once gave a density of 0.57
        {"hessian": "abc"},  # once raised ValueError
        {"rho0_cov": -1.0},  # once raised NumericError
        {"rho0_cov": np.eye(3)},
        {"alpha": -1.0},  # once gave a density of 0.30
        {"t": float("nan")},  # once gave nan
        {"minimizer": [0.0, 0.0, 0.0]},  # once raised ValueError from broadcasting
        {"rho0_mean": [0.0, 0.0, 0.0]},
        {"minimizer": [float("nan"), 0.0]},  # once gave nan
        {"minimizer": [0.0, float("inf")]},
        {"rho0_mean": [float("nan"), 0.0]},
        {"rho0_mean": [0.0, float("-inf")]},
        {"theta": [0.0, 0.0, 0.0]},  # once raised ValueError from reshape
        {"theta": "ab"},  # once raised ValueError
        {"theta": [float("nan"), 0.0]},  # once gave nan
    ], ids=["non-symmetric", "string", "negative-cov", "cov-shape", "negative-alpha", "nan-t",
            "minimizer-length", "mean-length", "minimizer-nan", "minimizer-inf", "mean-nan", "mean-inf",
            "theta-length", "theta-string", "theta-nan"])
    def test_malformed_inputs_rejected(self, kwargs):
        args = {"hessian": np.eye(2), "minimizer": [0.0, 0.0], "rho0_mean": [0.0, 0.0],
                "rho0_cov": np.eye(2), "alpha": 1.0, "t": 0.5, "theta": [0.0, 0.0]}
        with pytest.raises(bf.ConfigurationError):
            bf.characteristics_density_quadratic(**{**args, **kwargs})

    def test_scalar_vectors_in_one_dimension(self):
        scalar = bf.characteristics_density_quadratic(1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 0.2)
        assert scalar == bf.characteristics_density_quadratic(1.0, [1.0], [0.5], 1.0, 1.0, 0.5, 0.2) > 0

    def test_extreme_time_hits_variance_floor_without_overflow(self):
        val = bf.characteristics_density_quadratic(np.eye(1), [0.0], [0.0], np.eye(1), 1.0, 500.0,
                                                   np.array([1.0]))
        assert np.isfinite(val) and val >= 0.0


class TestGridStepper:
    def test_constant_potential_leaves_density(self):
        # frozen amplitude 0 makes F and K vanish identically
        flat = bf.GaussianMixtureModel(
            target_c=[1.0], target_y=[[0.0]], target_sigma=[1.0], sigma=0.5,
            amplitude_mode="frozen", frozen_c=0.0,
        )
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 256)
        before = g.density.copy()
        st = bf.GridStepper(flat, g, bf.DynamicsConfig(variant="gd-bd", dt=0.01, alpha=1.0))
        st.step()
        np.testing.assert_allclose(g.density, before, rtol=1e-14)

    def test_reaction_only_matches_exact_law(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 2048)
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="bd-only", dt=1e-4, alpha=1.0))
        st.run_until(1.0)
        exact = bf.pure_bd_density(quad_f, std_normal, 1.0, 1.0, g.centers, QGRID)
        assert float(np.sum(np.abs(g.density - exact)) * g.dx) < 1e-3

    def test_mass_exactly_one_each_step(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 512)
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=1e-3, alpha=1.0))
        for _ in range(200):
            st.step()
            assert abs(g.mass() - 1.0) < 1e-12

    def test_energy_never_increases(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), 1024)
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=1e-3, alpha=1.0))
        prev = st.energy()
        for _ in range(1000):
            st.step()
            e = st.energy()
            assert e <= prev + 1e-10 * max(1.0, abs(prev))
            prev = e

    def test_late_regime_holds_no_more_than_the_fresh_subnormal_cells(self, quad_1d):
        # past t ~ 1 the box's tails underflow; a subnormal cell slows every multiply on it.
        # Each step flushes them first, so after a step only the cells that underflowed in it,
        # one per tail, are subnormal (2238 at t = 3 without the flush).
        # 6144 cells keep the upwind diffusion inside c03's 5% at t = 3 (1024 cells: 23%)
        g = bf.grid_from_sampler(bf.UniformSampler(lo=[-6.0], hi=[6.0]), 6144)
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.9 * g.dx / 6.0, alpha=1.0)
        st = bf.GridStepper(quad_1d, g, cfg)
        while 3.0 - g.time > 1e-12:
            st.step(min(cfg.dt, 3.0 - g.time))
            assert np.count_nonzero((g.density > 0.0) & (g.density < np.finfo(float).tiny)) <= 2
        envelope = bf.transport_bd_asymptote(bf.RateFormulas(hessian=np.eye(1), alpha=1.0), 3.0)
        assert abs(st.energy() / envelope - 1.0) <= 0.05

    def test_cfl_violation_raises(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 512)
        with pytest.raises(bf.StepSizeError):
            bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=0.1, alpha=1.0)).step()

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf"), "x"], ids=str)
    def test_run_until_rejects_non_finite_end(self, quad_1d, t_end):
        # nan and inf once looped forever
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 64)
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="bd-only", dt=0.01, alpha=1.0))
        with pytest.raises(bf.ConfigurationError, match="t_end"):
            st.run_until(t_end)
        assert g.time == 0.0

    @pytest.mark.parametrize("dt", [-0.01, 0.0, float("nan"), float("inf"), "x"], ids=str)
    def test_step_rejects_malformed_dt(self, quad_1d, dt):
        # step(-0.01) once ran and moved the grid time back to -0.01
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 64)
        before = g.density.copy()
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="bd-only", dt=0.01, alpha=1.0))
        with pytest.raises(bf.ConfigurationError, match="dt"):
            st.step(dt)
        assert g.time == 0.0 and st.steps_taken == 0
        np.testing.assert_array_equal(g.density, before)

    def test_interacting_potential_on_grid(self, mixture_frozen):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=2.0), 512)
        st = bf.GridStepper(mixture_frozen, g, bf.DynamicsConfig(variant="gd-bd", dt=0.005, alpha=1.0))
        v = st.potential()
        centers = g.centers[:, None]
        direct = (mixture_frozen.single(centers)[0]
                  + mixture_frozen.K_block(centers, centers) @ g.density * g.dx)
        np.testing.assert_allclose(v, direct, rtol=1e-12)
        prev = st.energy()
        for _ in range(100):
            st.step()
            e = st.energy()
            assert e <= prev + 1e-10 * max(1.0, abs(prev))
            prev = e

    def test_interacting_grid_has_no_cell_cap(self, mixture_frozen):
        # a cells x cells kernel cache once capped interacting grids at 3000 cells
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=2.0), 4096)
        st = bf.GridStepper(mixture_frozen, g, bf.DynamicsConfig(variant="gd-bd", dt=0.001, alpha=1.0))
        for _ in range(5):
            st.step()
        assert g.mass() == pytest.approx(1.0, abs=1e-12)
        v = st.potential()
        rows = g.centers[::64, None]
        direct = (mixture_frozen.single(rows)[0]
                  + mixture_frozen.K_block(rows, g.centers[:, None]) @ g.density * g.dx)
        assert np.max(np.abs(v[::64] - direct)) <= 1e-12 * np.max(np.abs(v))

    def test_interacting_grid_holds_no_kernel_matrix(self, mixture_frozen):
        # the 2048 x 2048 kernel cache took 32 MB and its build 64 MB at the peak
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=2.0), 2048)
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.05, alpha=1.0)
        bf.GridStepper(mixture_frozen, copy.deepcopy(g), cfg).step()  # first-call allocations
        tracemalloc.start()
        try:
            st = bf.GridStepper(mixture_frozen, g, cfg)
            st.step()
            st.energy()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("bad", ["zero", "nan"])
    def test_degenerate_density_raises(self, quad_1d, bad):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 128)
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=1e-3, alpha=1.0))
        if bad == "zero":
            g.density = np.zeros(128)
        else:
            g.density[40] = np.nan
        with pytest.raises(bf.NumericError, match="grid mass is degenerate"):
            st.step()

    def test_cfl_checked_at_empty_interfaces(self, quad_1d):
        # mass only on [-1, 1], where dt * |x| / dx stays <= 0.5; the empty cells out to
        # |x| = 8 still set the CFL number
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 512)
        g.density = np.where(np.abs(g.centers) < 1.0, 1.0, 0.0)
        dt = 0.5 * g.dx
        assert dt * np.max(np.abs(g.centers[g.density > 0])) / g.dx < CFL_LIMIT
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=dt, alpha=1.0))
        with pytest.raises(bf.StepSizeError, match="CFL"):
            st.step()

    def test_flush_comes_before_the_step(self, quad_1d):
        # a cell that underflows in a step is still subnormal after it, and the next
        # step flushes it before reading it
        g = Grid1D(-1.0, 1.0, np.ones(16))
        rho = np.ones(16)
        rho[-1] = 4.0 * TINY
        g.density = rho
        v = 0.5 * g.centers**2
        vbar = float(np.dot(v, rho)) * g.dx
        dt = 0.9 / (v[-1] - vbar)  # the last cell's reaction factor is 0.1
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="bd-only", dt=dt, alpha=1.0))
        st.step()
        assert 0.0 < g.density[-1] < TINY
        st.step()
        assert g.density[-1] == 0.0


def reference_step(v, rho, dx, dt, alpha, transport, reaction):
    """One explicit step written out: donor-cell upwind fluxes between zero-flux
    walls, Euler reaction on V - Vbar, clipping, then unit mass."""
    new = rho.copy()
    if transport:
        flux = np.zeros(rho.size + 1)
        for i in range(1, rho.size):  # the interface between cells i - 1 and i
            a = -(v[i] - v[i - 1]) / dx
            flux[i] = a * (rho[i - 1] if a > 0 else rho[i])
        new = new - dt / dx * (flux[1:] - flux[:-1])
    if reaction:
        vbar = float(np.sum(v * rho)) * dx
        new = new * (1.0 - alpha * dt * (v - vbar))
    new = np.maximum(new, 0.0)
    return new / (new.sum() * dx)


class TestGridStepReference:
    @pytest.mark.parametrize("variant", ["gd-only", "bd-only", "gd-bd"])
    @pytest.mark.parametrize("model_name", ["mixture_frozen", "quad_1d"])
    def test_step_matches_written_out_update(self, request, model_name, variant):
        # the frozen mixture takes the interacting path, the quadratic well the frozen stencil
        model = request.getfixturevalue(model_name)
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.5], std=1.5), 200)
        dt, alpha = 0.005, 0.7
        st = bf.GridStepper(model, g, bf.DynamicsConfig(variant=variant, dt=dt, alpha=alpha))
        centers = g.centers[:, None]
        rho = g.density.copy()
        for _ in range(3):
            v = model.single(centers)[0]
            if model.is_interacting:
                v = v + model.K_block(centers, centers) @ rho * g.dx
            rho = reference_step(v, rho, g.dx, dt, alpha, variant != "bd-only", variant != "gd-only")
            st.step()
            np.testing.assert_allclose(g.density, rho, rtol=1e-12, atol=1e-14 * rho.max())


class FullGridStepper(bf.GridStepper):
    """`GridStepper` with the step that runs every elementwise pass over all
    cells, the reference that the windowed step must equal bitwise."""

    def step(self, dt=None):
        dt = self.cfg.dt if dt is None else dt
        g = self.grid
        rho = g.density
        low = rho < TINY
        low &= rho > 0
        rho[low] = 0.0
        if not self.model.is_interacting:
            v, (a, a_max, up) = self._f, self._stencil
        else:
            v = self.potential()
            a, a_max, up = _upwind_stencil(v, g.dx)
        if self.reaction:
            vbar = float(np.dot(v, rho)) * g.dx
        if self.transport:
            cfl = dt * a_max / g.dx
            if cfl > CFL_LIMIT + 1e-12:
                raise bf.StepSizeError(f"CFL violation: {cfl:.3g}")
            flux = self._flux
            np.copyto(flux[1:-1], rho[1:])
            np.copyto(flux[1:-1], rho[:-1], where=up)
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
                    raise bf.NumericError("clipped mass escalated")
        g.density = rho
        g.renormalize()
        g.time += dt
        self.steps_taken += 1
        self.total_clip_mass += clip
        return clip


def stepper_pair(model, grid, variant, dt, alpha=1.0):
    """A windowed stepper on `grid` and the full-grid reference on a copy of it."""
    cfg = bf.DynamicsConfig(variant=variant, dt=dt, alpha=alpha)
    return bf.GridStepper(model, grid, cfg), FullGridStepper(model, copy.deepcopy(grid), cfg)


def step_both(st, ref, steps):
    """Step both `steps` times, asserting bitwise-equal state after every step."""
    for _ in range(steps):
        assert st.step() == ref.step()
        assert np.array_equal(st.grid.density, ref.grid.density)
        assert (st.heavy_clips, st.total_clip_mass, st.grid.time) == (
            ref.heavy_clips, ref.total_clip_mass, ref.grid.time)


def support(g):
    nz = np.flatnonzero(g.density)
    return int(nz[0]), int(nz[-1])


def band(g, lo, hi):
    """A density that is 1 on the cells with centers in (lo, hi) and 0 elsewhere."""
    return np.where((g.centers > lo) & (g.centers < hi), 1.0, 0.0)


class TestWindowedStepIsBitwise:
    def test_quadratic_box_to_the_subnormal_regime(self, quad_1d):
        # c03's shape on fewer cells: transport empties the walls, so the window shrinks
        g = bf.grid_from_sampler(bf.UniformSampler(lo=[-6.0], hi=[6.0]), 1536)
        st, ref = stepper_pair(quad_1d, g, "gd-bd", 0.9 * g.dx / 6.0)
        step_both(st, ref, round(2.1 / st.cfg.dt))
        first, last = support(g)
        assert first > 0 and last < g.cells - 1

    def test_reaction_only_gaussian(self, quad_1d):
        # c02's shape; at dt = 0.1 the tails' factor goes negative, so cells clip (once
        # by more than CLIP_WARN_MASS), and the tails underflow to 0
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), 512)
        st, ref = stepper_pair(quad_1d, g, "bd-only", 0.1)
        step_both(st, ref, 300)
        assert st.heavy_clips > 0
        first, last = support(g)
        assert first > 0 and last < g.cells - 1

    def test_double_well_band_spreads_from_its_local_maximum(self):
        # transport leaves the local maximum both ways, so the window grows every step
        model = bf.DoubleWellModel(height=1.0, tilt=0.5)
        g = bf.grid_from_sampler(bf.UniformSampler(lo=[-2.0], hi=[2.0]), 800)
        g.density = band(g, 0.10, 0.15)
        g.renormalize()
        a_max = _upwind_stencil(model.single(g.centers[:, None])[0], g.dx)[1]
        st, ref = stepper_pair(model, g, "gd-only", 0.9 * g.dx / a_max)
        before = support(g)
        for _ in range(20):
            step_both(st, ref, 1)
            after = support(g)
            assert after[0] < before[0] and after[1] > before[1]
            before = after
        step_both(st, ref, 300)

    def test_mass_pressed_against_both_walls(self):
        # on [-0.5, 0.5] the double well's velocity points into both walls
        model = bf.DoubleWellModel(height=1.0, tilt=0.5)
        g = bf.grid_from_sampler(bf.UniformSampler(lo=[-0.5], hi=[0.5]), 200)
        a_max = _upwind_stencil(model.single(g.centers[:, None])[0], g.dx)[1]
        st, ref = stepper_pair(model, g, "gd-bd", 0.9 * g.dx / a_max)
        step_both(st, ref, 300)
        assert g.density[0] > 0.0 and g.density[-1] > 0.0

    def test_interacting_mixture_from_a_band(self, mixture_frozen):
        # V and the stencil come from `field` over all cells, the update from the window
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=2.0), 512)
        g.density = band(g, -2.0, -1.0)
        g.renormalize()
        st, ref = stepper_pair(mixture_frozen, g, "gd-bd", 0.005)
        step_both(st, ref, 200)

    def test_density_reassigned_between_steps(self, quad_1d):
        # a wider support must widen the window, and a narrower one must not read the
        # fluxes left at the old window's interfaces
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 512)
        g.density = band(g, -0.5, 0.5)
        g.renormalize()
        st, ref = stepper_pair(quad_1d, g, "gd-bd", 0.9 * g.dx / 8.0)
        step_both(st, ref, 50)
        narrow = support(g)
        wider = band(g, -4.0, 3.0)
        st.grid.density, ref.grid.density = wider.copy(), wider.copy()
        step_both(st, ref, 50)
        assert support(g)[0] < narrow[0] and support(g)[1] > narrow[1]
        st.grid.density, ref.grid.density = band(g, 1.0, 1.5), band(g, 1.0, 1.5)
        step_both(st, ref, 50)


SUBNORMALS = (5e-324, 1e-310, TINY / 2.0)
FROZEN_MIXTURE = bf.GaussianMixtureModel(
    target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]], target_sigma=[0.8, 0.8], sigma=0.5,
    amplitude_mode="frozen", frozen_c=1.0,
)


def max_speed(model, g):
    """max |dV/dx| over the interfaces of `g` for its current density."""
    probe = FullGridStepper(model, g, bf.DynamicsConfig(variant="gd-only", dt=1.0))
    return _upwind_stencil(probe.potential(), g.dx)[1]


@hst.composite
def sparse_densities(draw):
    """Nonnegative cells with zero runs at both ends and inside, and a few subnormals."""
    cell = hst.one_of(hst.floats(1e-3, 10.0), hst.sampled_from(SUBNORMALS), hst.just(0.0))
    body = draw(hst.lists(cell, min_size=2, max_size=30))
    at = draw(hst.integers(0, len(body)))
    left, gap, right = (draw(hst.integers(0, 12)) for _ in range(3))
    return np.array([0.0] * left + body[:at] + [0.0] * gap + body[at:] + [0.0] * right)


class TestWindowedStepProperty:
    @settings(max_examples=150, deadline=None, database=None)
    @given(density=sparse_densities(), variant=hst.sampled_from(["gd-only", "bd-only", "gd-bd"]),
           interacting=hst.booleans(), cfl=hst.floats(0.05, CFL_LIMIT), alpha=hst.floats(0.1, 40.0))
    def test_one_step_equals_the_full_grid_step(self, density, variant, interacting, cfl, alpha):
        # a first step on a density that fills the grid leaves a flux at every interface;
        # the step on the sparse density must read none of them
        model = FROZEN_MIXTURE if interacting else bf.QuadraticWellModel(minimizer=[0.3], hessian=1.0)
        g = Grid1D(-3.0, 3.0, np.ones(density.size))
        sparse = copy.deepcopy(g)
        sparse.density = density  # unnormalized, subnormals kept
        dt = cfl * g.dx / (max(max_speed(model, g), max_speed(model, sparse)) + 1.0)
        st, ref = stepper_pair(model, g, variant, dt, alpha)
        step_both(st, ref, 1)
        st.grid.density, ref.grid.density = density.copy(), density.copy()
        outcomes = []
        for stepper in (ref, st):
            try:
                outcomes.append(stepper.step())
            except bf.NumericError:
                outcomes.append("degenerate")
        assert outcomes[0] == outcomes[1]
        assert np.array_equal(st.grid.density, ref.grid.density)
        assert (st.heavy_clips, st.total_clip_mass, st.grid.time) == (
            ref.heavy_clips, ref.total_clip_mass, ref.grid.time)


class TestGridSolverVsCharacteristics:
    def test_first_order_convergence(self, quad_1d):
        errs = []
        for cells in (1024, 2048, 4096):
            g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), cells)
            dt = 0.9 * g.dx / 8.0
            st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=dt, alpha=1.0))
            st.run_until(1.0)
            exact = bf.characteristics_density_quadratic(
                np.eye(1), [0.0], [0.0], np.eye(1), 1.0, 1.0, g.centers
            )
            errs.append(float(np.sum(np.abs(g.density - exact)) * g.dx))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 0.8)

    @pytest.mark.slow
    def test_density_error_below_tolerance(self, quad_1d):
        # first-order upwind needs 16384 cells to push the L1 gap under 1e-3
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 16384)
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=0.9 * g.dx / 8.0,
                                                          alpha=1.0))
        st.run_until(1.0)
        exact = bf.characteristics_density_quadratic(
            np.eye(1), [0.0], [0.0], np.eye(1), 1.0, 1.0, g.centers
        )
        assert float(np.sum(np.abs(g.density - exact)) * g.dx) < 1e-3


def stepper_energy(model, grid):
    return bf.GridStepper(model, grid, bf.DynamicsConfig(variant="gd-bd", dt=1e-3)).energy()


class TestGridEnergy:
    def test_point_mass_cell_at_minimum(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 512)
        rho = np.zeros(512)
        rho[np.argmin(np.abs(g.centers))] = 1.0
        g.density = rho
        g.renormalize()
        max_cell_f = 0.5 * g.dx**2  # F maximum over the occupied cell
        assert 0.0 <= stepper_energy(quad_1d, g) <= 0.5 * max_cell_f + 1e-15

    def test_reduces_to_single_particle_term(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 2048)
        expected = float(np.sum(quad_f(g.centers) * g.density) * g.dx)
        assert stepper_energy(quad_1d, g) == pytest.approx(expected, rel=1e-14)

    def test_interacting_energy_against_double_sum(self, mixture_frozen):
        check_interacting_energy(mixture_frozen, 64)  # the kernel sums take the tiles

    def test_interacting_energy_against_double_sum_transform(self, mixture_frozen):
        check_interacting_energy(mixture_frozen, 512)  # the kernel sums take the transform

    @pytest.mark.parametrize("model_name, cells", [("quad_1d", 24576), ("mixture_frozen", 64),
                                                   ("mixture_frozen", 1024)])
    def test_energy_is_the_node_ensemble_energy(self, request, model_name, cells):
        """The grid's energy is `ensemble_energy` on its cells as nodes of weight
        rho dx cells, bitwise, and within 1e-15 relative of the grid's former own
        formula 0.5 sum_i rho_i dx (F_i + V_i), which it replaced.  The mixture's
        64 cells take the tiled kernel sums and its 1,024 the transform."""
        model = request.getfixturevalue(model_name)
        init = (bf.UniformSampler(lo=[-6.0], hi=[6.0]) if model_name == "quad_1d"  # c03's grid
                else bf.GaussianSampler(mean=[0.0], std=2.0))
        g = bf.grid_from_sampler(init, cells)
        st = bf.GridStepper(model, g, bf.DynamicsConfig(variant="gd-bd", dt=0.1 * g.dx, alpha=1.0))
        for _ in range(20):
            st.step()
            nodes = bf.Ensemble(g.centers[:, None], g.density * (g.dx * cells), np.arange(cells))
            e = st.energy()
            assert e == bf.ensemble_energy(model, nodes)
            former = 0.5 * float((model.single(g.centers[:, None])[0] + st.potential()) @ (g.density * g.dx))
            assert e == pytest.approx(former, rel=1e-15, abs=0.0)


def check_interacting_energy(mixture_frozen, cells):
    g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), cells)
    rng = np.random.default_rng(1)
    g.density = rng.uniform(0.1, 1.0, size=cells)
    g.renormalize()
    centers, rho_dx = g.centers[:, None], g.density * g.dx
    total = float(mixture_frozen.single(centers)[0] @ rho_dx)
    total += 0.5 * float(rho_dx @ mixture_frozen.K_block(centers, centers) @ rho_dx)
    assert stepper_energy(mixture_frozen, g) == pytest.approx(total, rel=1e-10)


class TestGridConstruction:
    def test_gaussian_bounds_are_eight_sigmas(self):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[1.0], std=0.5), 128)
        assert (g.lo, g.hi) == (-3.0, 5.0)

    def test_uniform_bounds_are_the_box(self):
        g = bf.grid_from_sampler(bf.UniformSampler(lo=[-2.0], hi=[3.0]), 128)
        assert (g.lo, g.hi) == (-2.0, 3.0)
        np.testing.assert_allclose(g.density, 0.2, rtol=1e-12)

    @pytest.mark.parametrize("sampler", [
        bf.PointSampler(at=[0.0]),
        bf.GaussianSampler(mean=[0.0, 0.0], std=1.0),
        bf.UniformSampler(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
        bf.ProductSampler(factors=(bf.GaussianSampler(mean=[0.0], std=1.0),)),  # once built a grid
    ], ids=["point", "gaussian-2d", "box-2d", "product-1d"])
    def test_point_sampler_rejected(self, sampler):
        # the grid starts only from a 1D gaussian or a 1D box
        with pytest.raises(bf.ConfigurationError):
            bf.grid_from_sampler(sampler, 64)

    @pytest.mark.parametrize("cells", [2.5, True, "8", 1], ids=str)
    def test_malformed_cells_rejected(self, cells):
        # 2.5 once built a 3-cell grid from densities at a 2.5-cell spacing,
        # and "8" raised TypeError
        for sampler in (bf.GaussianSampler(mean=[0.0], std=1.0), bf.UniformSampler(lo=[0.0], hi=[1.0])):
            with pytest.raises(bf.ConfigurationError):
                bf.grid_from_sampler(sampler, cells)

    @pytest.mark.parametrize("lo,hi,density", [
        (0.0, 1.0, [[1.0, 1.0], [1.0, 1.0]]),  # once built a grid of 4 cells
        (0.0, 1.0, ["1", "1"]),  # once coerced to [1, 1]
        (0.0, 1.0, [True, True]),  # once coerced to [1, 1]
        (0.0, 1.0, [1.0, float("nan")]),  # once raised NumericError
        (0.0, 1.0, [1.0, float("inf")]),  # once raised NumericError
        (0.0, float("inf"), [1.0, 1.0]),  # once raised NumericError
        ("0", 1.0, [1.0, 1.0]),  # once raised TypeError
    ], ids=["2d", "string", "bool", "nan", "inf", "inf-hi", "string-lo"])
    def test_malformed_grid_rejected(self, lo, hi, density):
        with pytest.raises(bf.ConfigurationError):
            Grid1D(lo, hi, density)

    @pytest.mark.parametrize("density", [
        np.full(16, -1.0), np.ones((4, 4)), np.ones(15), ["1"] * 16,
    ], ids=["negative", "2d", "wrong-length", "string"])
    def test_malformed_assigned_density_rejected(self, density):
        # each was once taken as it was, to fail later in the step or not at all
        g = Grid1D(0.0, 1.0, np.ones(16))
        with pytest.raises(bf.ConfigurationError):
            g.density = density

    def test_assigned_integer_density_steps(self, quad_1d):
        # an integer array once failed the first in-place step with a casting error
        g = Grid1D(0.0, 1.0, np.ones(16))
        g.density = np.arange(16)
        assert g.density.dtype == np.float64 and g.density.sum() == 120.0  # not renormalized
        bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=1e-3)).step()
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_models_rejected(self, mixture_3c):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 64)
        with pytest.raises(bf.ConfigurationError):
            bf.GridStepper(mixture_3c, g, bf.DynamicsConfig(variant="gd-bd", dt=1e-3))
