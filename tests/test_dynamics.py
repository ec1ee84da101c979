import numpy as np
import pytest
import scipy.stats as st

import bdflow as bf

from conftest import make_ensemble, numerical_grad_F, numerical_grad_K1


class TestGdStep:
    def test_fixed_point_at_minimum(self, quad_1d):
        ens = make_ensemble([[0.0], [0.0]])
        bf.gd_step(quad_1d, ens, 0.5)
        np.testing.assert_array_equal(ens.thetas, np.zeros((2, 1)))

    def test_linear_contraction(self, quad_1d):
        ens = make_ensemble([[1.0]])
        bf.gd_step(quad_1d, ens, 0.1)
        assert ens.thetas[0, 0] == pytest.approx(0.9, rel=1e-15)

    def test_mixture_step_matches_numerical_gradient_update(self, mixture_3c):
        rng = np.random.default_rng(0)
        thetas = rng.normal(size=(3, 2))
        ens = make_ensemble(thetas.copy(), has_amplitude=True)
        dt = 0.05
        bf.gd_step(mixture_3c, ens, dt)
        for i in range(3):
            vel = numerical_grad_F(mixture_3c, thetas[i])
            for j in range(3):
                vel = vel + numerical_grad_K1(mixture_3c, thetas[i], thetas[j]) / 3.0
            np.testing.assert_allclose(ens.thetas[i], thetas[i] - dt * vel, atol=1e-8)

    def test_synchronous_update_uses_prestep_configuration(self, mixture_frozen):
        # the interaction force on particle 0 must come from the old particle 1
        thetas = np.array([[0.3], [0.8]])
        ens = make_ensemble(thetas.copy())
        dt = 0.25
        bf.gd_step(mixture_frozen, ens, dt)
        for i in range(2):
            vel = numerical_grad_F(mixture_frozen, thetas[i])
            for j in range(2):
                vel = vel + numerical_grad_K1(mixture_frozen, thetas[i], thetas[j]) / 2.0
            np.testing.assert_allclose(ens.thetas[i], thetas[i] - dt * vel, atol=1e-8)

    def test_nonfinite_gradient_reported(self, quad_1d):
        ens = make_ensemble([[0.0], [np.inf]])
        with pytest.raises(bf.NumericError):
            bf.gd_step(quad_1d, ens, 0.1)


class TestCenteredRate:
    def test_single_particle_self_centers(self, quad_1d):
        ens = make_ensemble([[3.0]])
        np.testing.assert_array_equal(bf.centered_rate(quad_1d, ens), [0.0])

    def test_two_particle_mean_subtraction(self, quad_1d):
        ens = make_ensemble([[2.0], [0.0]])  # F = (2, 0)
        np.testing.assert_allclose(bf.centered_rate(quad_1d, ens), [1.0, -1.0], atol=1e-15)

    def test_mixture_matches_direct_sum(self, mixture_3c):
        rng = np.random.default_rng(1)
        ens = make_ensemble(rng.normal(size=(4, 2)), has_amplitude=True)
        v = mixture_3c.F(ens.thetas) + mixture_3c.K_block(ens.thetas, ens.thetas) @ ens.weights / 4
        np.testing.assert_allclose(
            bf.centered_rate(mixture_3c, ens), v - v.mean(), atol=1e-13
        )

    def test_sum_is_zero(self, mixture_3c):
        rng = np.random.default_rng(2)
        ens = make_ensemble(rng.normal(size=(50, 2)), has_amplitude=True)
        vt = bf.centered_rate(mixture_3c, ens)
        assert abs(vt.sum()) <= 1e-10 * max(1.0, np.abs(vt).max())

    def test_weighted_ensemble_rejected(self, quad_1d):
        # the unweighted mean would give rates whose weighted sum is not zero
        ens = make_ensemble([[0.0], [1.0]], weights=[0.5, 1.5])
        with pytest.raises(bf.ConfigurationError, match="unit weights"):
            bf.centered_rate(quad_1d, ens)


class TestBernoulliPhase:
    def test_zero_rates_no_events(self):
        kill, dup = bf.bernoulli_phase(np.zeros(100), 1.0, 0.1, np.random.default_rng(0))
        assert not kill.any() and not dup.any()

    def test_kill_frequency_matches_probability(self):
        # alpha*vt*dt = ln 2 -> kill probability exactly 1/2
        trials = 100_000
        rates = np.full(trials, np.log(2.0))
        kill, dup = bf.bernoulli_phase(rates, 1.0, 1.0, np.random.default_rng(3))
        assert not dup.any()
        sigma = np.sqrt(0.25 / trials)
        assert abs(kill.mean() - 0.5) < 3 * sigma

    def test_duplication_frequency_matches_probability(self):
        trials = 100_000
        rates = np.full(trials, -2.0)
        p = 1.0 - np.exp(-2.0)
        kill, dup = bf.bernoulli_phase(rates, 1.0, 1.0, np.random.default_rng(4))
        assert not kill.any()
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(dup.mean() - p) < 3 * sigma


class TestBirthDeathStep:
    def test_zero_rate_leaves_population_alone(self, quad_1d):
        ens = make_ensemble([[1.0], [1.0], [1.0]])  # identical -> vt = 0
        before = ens.thetas.copy()
        rep = bf.birth_death_step(quad_1d, ens, bf.DynamicsConfig(variant="bd-only", dt=0.1),
                                  np.random.default_rng(5))
        assert rep.births == rep.deaths == 0
        np.testing.assert_array_equal(ens.thetas, before)

    def test_population_restored_every_step(self, mixture_frozen):
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.05, alpha=2.0)
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[0.0], std=2.0), 64, 1, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(40):
            bf.run_step(mixture_frozen, ens, cfg, rng)
            assert ens.n == 64

    def test_event_frequencies_follow_exponential_law(self, quad_1d):
        # one kill-prone and one duplication-prone particle with known rates
        ens0 = make_ensemble([[2.0], [0.0]])  # vt = (1, -1)
        cfg = bf.DynamicsConfig(variant="bd-only", dt=0.3, alpha=1.0)
        p = 1.0 - np.exp(-0.3)
        rng = np.random.default_rng(8)
        trials = 10_000
        kills = dups = 0
        for _ in range(trials):
            ens = ens0.copy()
            rep = bf.birth_death_step(quad_1d, ens, cfg, rng)
            kills += rep.deaths
            dups += rep.births
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(kills / trials - p) < 4 * sigma
        assert abs(dups / trials - p) < 4 * sigma

    def test_kill_sign_convention_is_load_bearing(self, quad_1d):
        """Killing where the centered rate is positive drains energy on seed
        average; feeding negated rates (the wrong sign) pumps energy in."""
        init = bf.GaussianSampler(mean=[1.0], std=1.0)
        cfg = bf.DynamicsConfig(variant="bd-only", dt=0.1, alpha=1.0)
        drift = {}
        for flip in (1.0, -1.0):
            total = 0.0
            for s in range(40):
                ens = bf.init_from_sampler(init, 64, 1, seed=200 + s)
                rng = np.random.default_rng(300 + s)
                e0 = bf.ensemble_energy(quad_1d, ens)
                for _ in range(10):
                    rates = flip * bf.centered_rate(quad_1d, ens)
                    bf.birth_death_step(quad_1d, ens, cfg, rng, rates=rates)
                total += bf.ensemble_energy(quad_1d, ens) - e0
            drift[flip] = total / 40
        assert drift[1.0] < 0.0 < drift[-1.0]

    def test_deficit_refilled_by_cloning_survivors(self, quad_1d):
        # force a kill with certainty: huge positive rate on particle 0
        ens = make_ensemble([[10.0], [0.1], [0.0]])
        cfg = bf.DynamicsConfig(variant="bd-only", dt=5.0, alpha=10.0)
        rep = bf.birth_death_step(quad_1d, ens, cfg, np.random.default_rng(9))
        assert ens.n == 3
        assert rep.deaths >= 1
        assert not np.any(ens.thetas[:, 0] == 10.0)


class TestFVariant:
    def test_identity_is_bitwise_noop(self, mixture_frozen):
        init = bf.GaussianSampler(mean=[0.0], std=2.0)
        base_cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        f_cfg = bf.DynamicsConfig(
            variant="gd-bd-fvariant", dt=0.02, alpha=1.0, f_spec=bf.FVariant(kind="identity")
        )
        a = bf.init_from_sampler(init, 48, 1, seed=10)
        b = bf.init_from_sampler(init, 48, 1, seed=10)
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(25):
            bf.run_step(mixture_frozen, a, base_cfg, rng_a)
            bf.run_step(mixture_frozen, b, f_cfg, rng_b)
            assert np.array_equal(a.thetas, b.thetas)
            assert np.array_equal(a.birth_ids, b.birth_ids)

    def test_f_read_only_by_fvariant(self, mixture_frozen):
        # a sweep over the variant carries f into its gd-bd cell, which must stay plain gd-bd
        init = bf.GaussianSampler(mean=[0.0], std=2.0)
        base_cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        f_cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0,
                                  f_spec=bf.FVariant(kind="tanh", beta=3.0))
        a = bf.init_from_sampler(init, 48, 1, seed=10)
        b = bf.init_from_sampler(init, 48, 1, seed=10)
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(25):
            assert bf.run_step(mixture_frozen, a, base_cfg, rng_a) == bf.run_step(mixture_frozen, b, f_cfg, rng_b)
            assert np.array_equal(a.thetas, b.thetas)
            assert np.array_equal(a.birth_ids, b.birth_ids)

    def test_tanh_preserves_odd_pairs(self, quad_1d):
        ens = make_ensemble([[2.0], [0.0]])  # vt = (1, -1)
        r = bf.fvariant_rate(quad_1d, ens, bf.FVariant(kind="tanh", beta=1.0))
        np.testing.assert_allclose(r, [np.tanh(1.0), -np.tanh(1.0)], atol=1e-14)

    def test_transformed_rates_still_sum_to_zero(self, mixture_frozen):
        rng = np.random.default_rng(12)
        ens = make_ensemble(rng.normal(scale=2.0, size=(5, 1)))
        r = bf.fvariant_rate(mixture_frozen, ens, bf.FVariant(kind="tanh", beta=2.0))
        assert abs(r.sum()) < 1e-12

    def test_sign_condition_validated(self):
        with pytest.raises(bf.ConfigurationError):
            bf.FVariant(kind="tanh", beta=-1.0)
        with pytest.raises(bf.ConfigurationError):
            bf.FVariant(kind="sigmoid")
        with pytest.raises(bf.ConfigurationError):
            bf.FVariant(kind="tanh", beta="abc")


class TestReinjection:
    def _config(self):
        return bf.DynamicsConfig(
            variant="gd-bd-reinjection", dt=0.05, alpha=1.0,
            reinjection_prior=bf.GaussianSampler(mean=[0.0], std=2.0),
        )

    def test_reinjected_particles_have_zero_amplitude(self, mixture_3c):
        # deterministic deficit: certain kill of particle 0, no duplications
        thetas = np.array([[4.0, -2.0], [0.1, 0.0], [0.1, 0.2], [0.1, -0.2]])
        ens = make_ensemble(thetas, has_amplitude=True)
        cfg = self._config()
        rates = np.array([1e9, -1e-12, -1e-12, -1e-12])
        rng = np.random.default_rng(13)
        rep = bf.reinjection_step(mixture_3c, ens, cfg, rng, rates=rates)
        assert ens.n == 4
        assert (rep.births, rep.deaths) == (0, 1)
        new = ens.birth_ids >= 4
        assert new.sum() == 1  # exactly the refill is a fresh particle
        assert ens.thetas[new, 0] == 0.0  # amplitude exactly zero
        assert not np.any(ens.thetas[:, 0] == 4.0)

    def test_zero_amplitude_contributes_zero_potential(self, mixture_3c):
        rng = np.random.default_rng(14)
        ens = make_ensemble(rng.normal(size=(6, 2)), has_amplitude=True)
        probes = np.array([[0.0, -1.0], [0.0, 2.0]])
        np.testing.assert_array_equal(bf.potential(mixture_3c, ens, probes), [0.0, 0.0])

    def test_needs_amplitude_channel(self, mixture_frozen):
        ens = make_ensemble([[0.0], [1.0]])
        with pytest.raises(bf.ConfigurationError):
            bf.reinjection_step(mixture_frozen, ens, self._config(), np.random.default_rng(15))


class TestKMC:
    def test_constant_potential_no_events(self, quad_1d):
        ens = make_ensemble([[1.0], [1.0], [1.0]])
        log = bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 10.0,
                         np.random.default_rng(16))
        assert log.n_events == 0
        assert ens.time == 10.0

    def test_population_constant_and_energy_decreases(self, quad_1d):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), 500, 1, seed=17)
        e0 = quad_1d.F(ens.thetas).mean()
        log = bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 2.0,
                         np.random.default_rng(18))
        assert ens.n == 500
        assert log.n_events > 50
        assert log.mean_energy_at(2.0) < e0

    def test_first_event_time_is_exponential(self, quad_1d):
        # two frozen particles: total rate alpha * (|1| + |-1|) = 2
        base = make_ensemble([[2.0], [0.0]])
        total_rate = 2.0
        rng = np.random.default_rng(19)
        samples = np.empty(10_000)
        for i in range(samples.size):
            ens = base.copy()
            log = bf.kmc_run(ens=ens, model=quad_1d,
                             cfg=bf.DynamicsConfig(variant="kmc-bd", dt=1.0),
                             horizon=100.0, rng=rng)
            samples[i] = log.times[0]
        res = st.kstest(samples, "expon", args=(0.0, 1.0 / total_rate))
        assert res.pvalue > 0.01

    def test_interacting_model_rejected(self, mixture_frozen):
        ens = make_ensemble([[0.0], [1.0]])
        with pytest.raises(bf.ConfigurationError):
            bf.kmc_run(mixture_frozen, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 1.0,
                       np.random.default_rng(20))


class TestProximalWeights:
    def test_uniform_potential_leaves_weights(self, quad_1d):
        ens = make_ensemble([[1.0], [1.0], [1.0]])
        bf.proximal_weight_update(quad_1d, ens, tau=2.0)
        np.testing.assert_allclose(ens.weights, 1.0, atol=1e-14)

    def test_non_interacting_closed_form(self, quad_1d):
        # F = (1, 0): weights (2 e^-1, 2) / (1 + e^-1)
        ens = make_ensemble([[np.sqrt(2.0)], [0.0]])
        bf.proximal_weight_update(quad_1d, ens, tau=1.0)
        denom = 1.0 + np.exp(-1.0)
        np.testing.assert_allclose(
            ens.weights, [2.0 * np.exp(-1.0) / denom, 2.0 / denom], rtol=1e-12
        )

    def test_exact_loss_never_increases(self, mixture_3c):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(4, 24))
            ens = make_ensemble(rng.normal(size=(n, 2)), has_amplitude=True)
            before = bf.exact_mixture_loss(mixture_3c, ens)
            bf.proximal_weight_update(mixture_3c, ens, tau=0.2, inner_iters=200)
            after = bf.exact_mixture_loss(mixture_3c, ens)
            assert after <= before + 1e-13

    def test_mean_weight_stays_one(self, mixture_3c):
        rng = np.random.default_rng(22)
        ens = make_ensemble(rng.normal(size=(12, 2)), has_amplitude=True)
        bf.proximal_weight_update(mixture_3c, ens, tau=0.5)
        assert ens.weights.mean() == pytest.approx(1.0, rel=1e-12)

    def test_divergent_tau_raises_step_size_error(self):
        # two tight clusters and a strong short-range kernel: the implicit
        # update overshoots and the sweep-to-sweep change keeps growing
        gm = bf.GaussianMixtureModel(
            target_c=[1.0], target_y=[[0.5]], target_sigma=[0.3], sigma=0.05
        )
        thetas = np.array([[3.0, 0.0], [3.0, 0.001], [3.0, 1.0], [3.0, 1.001]])
        ens = make_ensemble(thetas, has_amplitude=True)
        with pytest.raises(bf.StepSizeError, match="tau"):
            bf.proximal_weight_update(gm, ens, tau=2.0, inner_iters=400)


class TestResampleWeights:
    def test_unit_weights_identity(self):
        rng = np.random.default_rng(23)
        ens = make_ensemble(rng.normal(size=(6, 1)))
        thetas = ens.thetas.copy()
        bids = ens.birth_ids.copy()
        rep = bf.resample_weights(ens, np.random.default_rng(24))
        assert rep.births == rep.deaths == 0
        np.testing.assert_array_equal(ens.thetas, thetas)
        np.testing.assert_array_equal(ens.birth_ids, bids)

    def test_integer_weights_exact_counts(self):
        ens = make_ensemble([[0.0], [1.0], [2.0], [3.0]], weights=[2.0, 0.0, 1.0, 1.0])
        bf.resample_weights(ens, np.random.default_rng(25))
        assert ens.thetas[:, 0].tolist() == [0.0, 0.0, 2.0, 3.0]
        np.testing.assert_array_equal(ens.weights, np.ones(4))

    def test_expected_counts_unbiased(self):
        trials = 10_000
        rng = np.random.default_rng(26)
        count0 = 0
        for _ in range(trials):
            ens = make_ensemble([[0.0], [1.0]], weights=[1.5, 0.5])
            bf.resample_weights(ens, rng)
            count0 += int(np.sum(ens.thetas[:, 0] == 0.0))
        sigma = np.sqrt(0.25 / trials)  # per-trial count in {1, 2}
        assert abs(count0 / trials - 1.5) < 3 * sigma

    def test_all_zero_weights_extinct(self):
        ens = make_ensemble([[0.0], [1.0]], weights=[0.0, 0.0])
        with pytest.raises(bf.ExtinctionError):
            bf.resample_weights(ens, np.random.default_rng(27))


class TestRunStep:
    def test_gd_only_equals_plain_gd_step(self, quad_1d):
        a = make_ensemble([[1.0], [2.0]])
        b = make_ensemble([[1.0], [2.0]])
        bf.run_step(quad_1d, a, bf.DynamicsConfig(variant="gd-only", dt=0.1),
                    np.random.default_rng(28))
        bf.gd_step(quad_1d, b, 0.1)
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_population_invariance_all_variants(self, mixture_3c):
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=2.0))
        )
        variants = {
            "gd-only": {},
            "gd-bd": {},
            "bd-only": {},
            "gd-bd-fvariant": {"f_spec": bf.FVariant(kind="tanh")},
            "gd-bd-reinjection": {"reinjection_prior": bf.GaussianSampler(mean=[0.0], std=2.0)},
            "proximal": {"tau": 0.1},
        }
        for variant, extra in variants.items():
            cfg = bf.DynamicsConfig(variant=variant, dt=0.01, alpha=1.0, **extra)
            ens = bf.init_from_sampler(init, 32, 1, seed=29, has_amplitude=True)
            rng = np.random.default_rng(30)
            for _ in range(10):
                bf.run_step(mixture_3c, ens, cfg, rng)
                assert ens.n == 32
                assert ens.weights.mean() == pytest.approx(1.0, rel=1e-12)

    def test_trajectories_deterministic_given_seed(self, mixture_3c):
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=2.0))
        )
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
        ends = []
        for _ in range(2):
            ens = bf.init_from_sampler(init, 40, 1, seed=31, has_amplitude=True)
            rng = np.random.default_rng(32)
            for _ in range(30):
                bf.run_step(mixture_3c, ens, cfg, rng)
            ends.append(ens.thetas.copy())
        assert np.array_equal(ends[0], ends[1])

    def test_proximal_cycle_advances_m_substeps(self, mixture_3c):
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=2.0))
        )
        cfg = bf.DynamicsConfig(variant="proximal", dt=0.01, alpha=1.0, tau=0.1)
        assert cfg.proximal_gd_steps == 10
        ens = bf.init_from_sampler(init, 16, 1, seed=33, has_amplitude=True)
        bf.run_step(mixture_3c, ens, cfg, np.random.default_rng(34))
        assert ens.step_count == 10
        assert ens.time == pytest.approx(0.1)

    def test_proximal_strict_resampling_matches_birth_death_in_distribution(self, mixture_3c):
        """One proximal cycle with m = 1 and a single implicit sweep should
        reproduce one transport+birth-death step at the level of seed-averaged
        energies (they agree to first order in dt)."""
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=2.0))
        )
        dt, n, seeds = 0.05, 64, 100
        means = {}
        for variant, extra in (
            ("gd-bd", {}),
            ("proximal", {"tau": dt, "proximal_inner_iters": 1}),
        ):
            cfg = bf.DynamicsConfig(variant=variant, dt=dt, alpha=1.0, **extra)
            vals = np.empty(seeds)
            for s in range(seeds):
                ens = bf.init_from_sampler(init, n, 1, seed=1000 + s, has_amplitude=True)
                bf.run_step(mixture_3c, ens, cfg, np.random.default_rng(2000 + s))
                vals[s] = bf.ensemble_energy(mixture_3c, ens)
            means[variant] = (vals.mean(), vals.std(ddof=1))
        gap = abs(means["gd-bd"][0] - means["proximal"][0])
        combined = np.hypot(means["gd-bd"][1], means["proximal"][1]) / np.sqrt(seeds)
        assert gap <= 3.0 * combined

    def test_batch_variants_require_exactness(self):
        relu = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=4, teacher_seed=0)
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0),
                     bf.GaussianSampler(mean=[0.0] * 3, std=1.0)),
        )
        ens = bf.init_from_sampler(init, 8, 3, seed=35, has_amplitude=True)
        cfg = bf.DynamicsConfig(variant="proximal", dt=0.1, tau=1.0)
        with pytest.raises(bf.ConfigurationError):
            bf.run_step(relu, ens, cfg, np.random.default_rng(36))

    def test_relu_gd_bd_runs_and_conserves_population(self):
        relu = bf.ReLUStudentTeacherModel(input_dim=4, teacher_units=2, batch_size=8, teacher_seed=1)
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=2.0),
                     bf.GaussianSampler(mean=[0.0] * 4, std=0.5)),
        )
        ens = bf.init_from_sampler(init, 12, 4, seed=37, has_amplitude=True)
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.2, alpha=1.0)
        rng = np.random.default_rng(38)
        for _ in range(20):
            bf.run_step(relu, ens, cfg, rng)
            assert ens.n == 12


class TestDynamicsConfig:
    def test_variant_validation(self):
        with pytest.raises(bf.ConfigurationError):
            bf.DynamicsConfig(variant="warp", dt=0.1)
        with pytest.raises(bf.ConfigurationError):
            bf.DynamicsConfig(variant="gd-only", dt=0.0)
        with pytest.raises(bf.ConfigurationError):
            bf.DynamicsConfig(variant="gd-bd-fvariant", dt=0.1)
        with pytest.raises(bf.ConfigurationError):
            bf.DynamicsConfig(variant="gd-bd-reinjection", dt=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"dt": np.inf}, {"alpha": np.nan}, {"dt": "abc"}, {"dt": True}, {"alpha": -1.0},
        {"variant": "proximal", "proximal_inner_iters": 0}, {"proximal_inner_iters": 2.5},
        {"tau": 0.0},
    ], ids=str)
    def test_malformed_fields_rejected(self, kwargs):
        with pytest.raises(bf.ConfigurationError):
            bf.DynamicsConfig(**{"variant": "gd-bd", "dt": 0.1, **kwargs})

    def test_proximal_default_tau(self):
        cfg = bf.DynamicsConfig(variant="proximal", dt=0.01, alpha=2.0)
        assert cfg.tau == pytest.approx(2.0 * 10 * 0.01)
        assert cfg.proximal_gd_steps == 10
