import numpy as np
import pytest
import scipy.linalg

import bdflow as bf


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
        f = lambda x: m.F(np.asarray(x, dtype=float)[:, None])
        r0 = lambda x: std_normal(np.asarray(x) / 1.5) / 1.5
        grid = np.linspace(-3.0, 3.0, 40001)
        val = bf.pure_bd_mean_energy(f, r0, 1.0, 200.0, grid)
        assert val * 2.0 * 200.0 == pytest.approx(1.0, abs=0.1)


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

    def test_non_spd_rejected(self):
        with pytest.raises(bf.ConfigurationError):
            bf.RateFormulas(hessian=np.diag([1.0, -1.0]), alpha=1.0)


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

    def test_cfl_violation_raises(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 512)
        with pytest.raises(bf.StepSizeError):
            bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="gd-bd", dt=0.1, alpha=1.0)).step()

    def test_interacting_potential_on_grid(self, mixture_frozen):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=2.0), 512)
        st = bf.GridStepper(mixture_frozen, g, bf.DynamicsConfig(variant="gd-bd", dt=0.005, alpha=1.0))
        v = st.potential()
        centers = g.centers[:, None]
        direct = mixture_frozen.F(centers) + mixture_frozen.K_block(centers, centers) @ g.density * g.dx
        np.testing.assert_allclose(v, direct, rtol=1e-12)
        prev = st.energy()
        for _ in range(100):
            st.step()
            e = st.energy()
            assert e <= prev + 1e-10 * max(1.0, abs(prev))
            prev = e


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
            v = model.F(centers)
            if model.is_interacting:
                v = v + model.K_block(centers, centers) @ rho * g.dx
            rho = reference_step(v, rho, g.dx, dt, alpha, variant != "bd-only", variant != "gd-only")
            st.step()
            np.testing.assert_allclose(g.density, rho, rtol=1e-12, atol=1e-14 * rho.max())


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
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 64)
        rng = np.random.default_rng(1)
        g.density = rng.uniform(0.1, 1.0, size=64)
        g.renormalize()
        total = float(np.sum(mixture_frozen.F(g.centers[:, None]) * g.density) * g.dx)
        for i in range(64):
            for j in range(64):
                total += 0.5 * (
                    mixture_frozen.K_block(g.centers[i : i + 1, None], g.centers[j : j + 1, None])[0, 0]
                    * g.density[i] * g.density[j] * g.dx**2
                )
        assert stepper_energy(mixture_frozen, g) == pytest.approx(total, rel=1e-10)


class TestGridCsv:
    def test_roundtrip(self, tmp_path):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 64)
        path = tmp_path / "grid.csv"
        g.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,density"
        vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(vals[:, 0], g.centers)
        np.testing.assert_array_equal(vals[:, 1], g.density)


class TestGridConstruction:
    def test_gaussian_bounds_are_eight_sigmas(self):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[1.0], std=0.5), 128)
        assert (g.lo, g.hi) == (-3.0, 5.0)

    def test_uniform_bounds_are_the_box(self):
        g = bf.grid_from_sampler(bf.UniformSampler(lo=[-2.0], hi=[3.0]), 128)
        assert (g.lo, g.hi) == (-2.0, 3.0)
        np.testing.assert_allclose(g.density, 0.2, rtol=1e-12)

    def test_point_sampler_rejected(self):
        with pytest.raises(bf.ConfigurationError):
            bf.grid_from_sampler(bf.PointSampler(at=[0.0]), 64)

    def test_amplitude_models_rejected(self, mixture_3c):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 64)
        with pytest.raises(bf.ConfigurationError):
            bf.GridStepper(mixture_3c, g, bf.DynamicsConfig(variant="gd-bd", dt=1e-3))
