import numpy as np
import pytest

import bdflow as bf

from conftest import at, make_ensemble


class TestEnsembleEnergy:
    def test_zero_at_minimum_without_interaction(self, quad_1d):
        ens = make_ensemble([[0.0], [0.0], [0.0]])
        assert bf.ensemble_energy(quad_1d, ens) == 0.0

    def test_single_particle_includes_half_self_interaction(self, mixture_1c):
        theta = np.array([0.8, 0.3])
        ens = make_ensemble([theta])
        expected = mixture_1c.single(at(theta))[0][0] + 0.5 * mixture_1c.K_block(at(theta), at(theta))[0, 0]
        assert bf.ensemble_energy(mixture_1c, ens) == pytest.approx(expected, rel=1e-13)

    def test_matches_exact_loss_minus_constant(self, mixture_3c):
        rng = np.random.default_rng(0)
        ens = make_ensemble(rng.normal(size=(9, 2)))
        lhs = bf.ensemble_energy(mixture_3c, ens)
        rhs = bf.exact_mixture_loss(mixture_3c, ens) - mixture_3c.target_self_energy
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_weighted_energy(self, quad_1d):
        ens = make_ensemble([[1.0], [2.0]], weights=[1.5, 0.5])
        assert bf.ensemble_energy(quad_1d, ens) == pytest.approx(
            (1.5 * 0.5 + 0.5 * 2.0) / 2.0, rel=1e-14
        )


class TestEnergyDecayTerms:
    """The decay terms integral |grad V|^2 dmu and integral (V - Vbar)^2 dmu,
    as `field_moments` computes them for the trajectory's grad_norm_sq and var_V."""

    def test_zero_at_common_critical_point(self, quad_1d):
        ens = make_ensemble([[0.0], [0.0]])
        _, var_term, grad_term = bf.diagnostics.field_moments(ens, *bf.field(quad_1d, ens))
        assert (grad_term, var_term) == (0.0, 0.0)

    def test_symmetric_pair_has_unit_gradient_term(self, quad_1d):
        ens = make_ensemble([[1.0], [-1.0]])
        _, var_term, grad_term = bf.diagnostics.field_moments(ens, *bf.field(quad_1d, ens))
        assert grad_term == pytest.approx(1.0, rel=1e-14)
        assert var_term == pytest.approx(0.0, abs=1e-14)

    def test_both_terms_nonnegative(self, mixture_3c):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ens = make_ensemble(rng.normal(size=(8, 2)))
            _, var_term, grad_term = bf.diagnostics.field_moments(ens, *bf.field(mixture_3c, ens))
            assert grad_term >= 0.0 and var_term >= 0.0

    def test_predicts_energy_drop_of_combined_step(self, mixture_3c):
        """A transport step plus a small implicit weight update drains energy
        at rate grad_term + alpha * var_term, up to O(dt^2)."""
        rng = np.random.default_rng(2)
        alpha = 1.0
        ens0 = make_ensemble(rng.normal(size=(12, 2)))
        _, var_term, grad_term = bf.diagnostics.field_moments(ens0, *bf.field(mixture_3c, ens0))
        expected_rate = grad_term + alpha * var_term
        gaps = []
        for dt in (2e-3, 1e-3):
            ens = ens0.copy()
            e0 = bf.ensemble_energy(mixture_3c, ens)
            bf.gd_step(mixture_3c, ens, dt)
            bf.proximal_weight_update(mixture_3c, ens, tau=alpha * dt, inner_iters=200)
            e1 = bf.ensemble_energy(mixture_3c, ens)
            gaps.append(abs((e0 - e1) / dt - expected_rate))
        assert gaps[0] < 0.05 * expected_rate
        assert gaps[1] < 0.6 * gaps[0]  # shrinks roughly linearly in dt


class TestEulerLagrangeResidual:
    def test_single_particle_probed_at_itself(self, quad_1d):
        ens = make_ensemble([[0.7]])
        sup, ext = bf.euler_lagrange_residual(quad_1d, ens, np.array([[0.7]]))
        assert sup == 0.0 and ext == 0.0

    def test_probe_below_mean_flags_violation(self, quad_1d):
        ens = make_ensemble([[1.0], [-1.0]])  # Vbar = 0.5
        sup, ext = bf.euler_lagrange_residual(quad_1d, ens, np.array([[0.0]]))
        assert ext == pytest.approx(0.5, rel=1e-14)  # V(0) = 0 sits below the mean

    def test_displacement_raises_support_residual(self, mixture_3c):
        rng = np.random.default_rng(3)
        ens = make_ensemble(rng.normal(size=(10, 2)))
        probes = np.column_stack([np.ones(8), np.linspace(-3, 3, 8)])
        base, _ = bf.euler_lagrange_residual(mixture_3c, ens, probes)
        ens.thetas[0] += np.array([3.0, 2.5])
        moved, _ = bf.euler_lagrange_residual(mixture_3c, ens, probes)
        assert moved > base

    def test_empty_probes_rejected(self, quad_1d):
        ens = make_ensemble([[0.0]])
        with pytest.raises(bf.ConfigurationError):
            bf.euler_lagrange_residual(quad_1d, ens, np.zeros((0, 1)))


class TestRateFit:
    @staticmethod
    def _records(times, energies):
        return [
            bf.TrajectoryRecord(step=i, time=float(t), energy=float(e), mean_V=0.0,
                                var_V=0.0, grad_norm_sq=0.0, births=0, deaths=0, n=1)
            for i, (t, e) in enumerate(zip(times, energies))
        ]

    def test_power_law_recovered_exactly(self):
        t = np.linspace(1.0, 10.0, 40)
        fit = bf.rate_fit(self._records(t, 3.0 / t), (1.0, 10.0), "power-law")
        assert fit.exponent == pytest.approx(-1.0, abs=1e-6)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared > 0.999999

    def test_exponential_recovered_exactly(self):
        t = np.linspace(0.0, 3.0, 40)
        fit = bf.rate_fit(self._records(t, 2.0 * np.exp(-4.0 * t)), (0.0, 3.0), "exponential")
        assert fit.exponent == pytest.approx(-4.0, abs=1e-6)
        assert fit.coefficient == pytest.approx(2.0, rel=1e-6)

    def test_window_filters_records(self):
        t = np.linspace(1.0, 10.0, 50)
        e = 3.0 / t
        e[:10] = 100.0  # out-of-window garbage must not affect the fit
        fit = bf.rate_fit(self._records(t, e), (3.0, 10.0), "power-law")
        assert fit.exponent == pytest.approx(-1.0, abs=1e-6)

    def test_too_few_records(self):
        t = np.linspace(1.0, 2.0, 5)
        with pytest.raises(bf.FitError):
            bf.rate_fit(self._records(t, 1.0 / t), (1.0, 2.0), "power-law")

    def test_nonpositive_energy_rejected(self):
        t = np.linspace(1.0, 2.0, 12)
        e = 1.0 / t
        e[5] = 0.0
        with pytest.raises(bf.FitError):
            bf.rate_fit(self._records(t, e), (1.0, 2.0), "power-law")

    def test_pure_birth_death_grid_decays_like_one_over_t(self, quad_1d):
        g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 1024)
        st = bf.GridStepper(quad_1d, g, bf.DynamicsConfig(variant="bd-only", dt=5e-3, alpha=1.0))
        records = []
        step = 0
        while g.time < 60.0 - 1e-9:
            st.step()
            step += 1
            if step % 100 == 0:
                records.append(
                    bf.TrajectoryRecord(step=step, time=g.time, energy=st.energy(), mean_V=0.0,
                                        var_V=0.0, grad_norm_sq=0.0, births=0, deaths=0, n=0)
                )
        fit = bf.rate_fit(records, (20.0, 60.0), "power-law")
        assert fit.exponent == pytest.approx(-1.0, abs=0.1)


class TestFluctuationScaling:
    def test_small_sweep_has_sane_slope(self, quad_1d):
        model = bf.QuadraticWellModel(minimizer=[1.0], hessian=1.0)
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        rep = bf.fluctuation_scaling(
            model, cfg, bf.GaussianSampler(mean=[0.0], std=1.0),
            [30, 100, 300], 16, [lambda x: x, lambda x: x**2],
            checkpoints=(0.2, 1.0), slope_checkpoint=1.0, grid_cells=2048, seed=5,
        )
        assert rep.slope == pytest.approx(-0.5, abs=0.25)
        assert rep.rms.shape == (2, 2, 3)

    def test_zero_test_function_triggers_sentinel(self, quad_1d):
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        rep = bf.fluctuation_scaling(
            quad_1d, cfg, bf.GaussianSampler(mean=[0.0], std=1.0),
            [30, 100, 300], 4, [lambda x: np.zeros_like(x)],
            checkpoints=(0.2,), slope_checkpoint=0.2, grid_cells=512, seed=6,
        )
        assert rep.slope is None
        assert rep.skipped_reason is not None

    def test_validates_population_spread(self, quad_1d):
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        with pytest.raises(bf.ConfigurationError):
            bf.fluctuation_scaling(
                quad_1d, cfg, bf.GaussianSampler(mean=[0.0], std=1.0),
                [100, 200, 400], 4, [lambda x: x],
            )

    @pytest.mark.parametrize("n_list, seeds", [([30, 100, 300], 0), ([30.7, 100.2, 300.9], 4)], ids=str)
    def test_counts_must_be_integers(self, quad_1d, n_list, seeds):
        # seeds=0 once gave NaN RMS with a RuntimeWarning, and int() truncated the sizes
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        with pytest.raises(bf.ConfigurationError, match="seeds|n_list"):
            bf.fluctuation_scaling(
                quad_1d, cfg, bf.GaussianSampler(mean=[0.0], std=1.0),
                n_list, seeds, [lambda x: x], checkpoints=(0.2,), slope_checkpoint=0.2, grid_cells=64,
            )

    @pytest.mark.parametrize("checkpoints", [("a",), (-0.2, 0.2), (None,)], ids=str)
    def test_checkpoints_must_be_nonnegative_numbers(self, quad_1d, checkpoints):
        # ("a",) once raised TypeError, and a negative checkpoint surfaced as a bad step count
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        with pytest.raises(bf.ConfigurationError, match="checkpoint must be"):
            bf.fluctuation_scaling(
                quad_1d, cfg, bf.GaussianSampler(mean=[0.0], std=1.0),
                [30, 100, 300], 4, [lambda x: x], checkpoints=checkpoints, slope_checkpoint=0.2,
            )

    def test_checkpoints_must_fall_on_the_step_grid(self, quad_1d):
        # with dt = 0.03 particles once stopped at t = 0.21, 0.99 and 5.01 and were
        # compared with the grid at 0.2, 1 and 5
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.03, alpha=1.0)
        with pytest.raises(bf.ConfigurationError, match="whole numbers of steps"):
            bf.fluctuation_scaling(
                quad_1d, cfg, bf.GaussianSampler(mean=[0.0], std=1.0),
                [30, 100, 300], 4, [lambda x: x], checkpoints=(0.2, 1.0, 5.0),
            )
