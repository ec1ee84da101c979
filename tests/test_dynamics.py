import json
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

import bdflow as bf
from bdflow.dynamics import _RankPopulation
from bdflow.harness import parse_config
from bdflow.potentials import _carried

from conftest import make_ensemble, numerical_grad_F, numerical_grad_K1

CERTAIN = bf.DynamicsConfig(variant="bd-only", dt=1.0, alpha=1.0)  # rates of +-1e9 fire surely


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
        ens = make_ensemble(thetas.copy())
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

    # inf once moved every particle to +-inf without an error, and "0.1" raised TypeError
    @pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan, "0.1", True, None, 0.0, -0.1, [0.1]], ids=str)
    def test_dt_is_a_finite_real_above_zero(self, quad_1d, dt):
        ens = make_ensemble([[1.0], [2.0]])
        with pytest.raises(bf.ConfigurationError, match="dt"):
            bf.gd_step(quad_1d, ens, dt)
        np.testing.assert_array_equal(ens.thetas, [[1.0], [2.0]])

    @pytest.mark.parametrize("dt", [1, np.float64(1.0)], ids=str)
    def test_integer_and_numpy_dt_step_as_floats(self, quad_1d, dt):
        a, b = make_ensemble([[1.0], [2.0]]), make_ensemble([[1.0], [2.0]])
        bf.gd_step(quad_1d, a, dt)
        bf.gd_step(quad_1d, b, 1.0)
        assert np.array_equal(a.thetas, b.thetas)


class TestCenteredRate:
    def test_single_particle_self_centers(self, quad_1d):
        ens = make_ensemble([[3.0]])
        np.testing.assert_array_equal(bf.centered_rate(quad_1d, ens), [0.0])

    def test_two_particle_mean_subtraction(self, quad_1d):
        ens = make_ensemble([[2.0], [0.0]])  # F = (2, 0)
        np.testing.assert_allclose(bf.centered_rate(quad_1d, ens), [1.0, -1.0], atol=1e-15)

    def test_mixture_matches_direct_sum(self, mixture_3c):
        rng = np.random.default_rng(1)
        ens = make_ensemble(rng.normal(size=(4, 2)))
        v = mixture_3c.single(ens.thetas)[0] + mixture_3c.K_block(ens.thetas, ens.thetas) @ ens.weights / 4
        np.testing.assert_allclose(
            bf.centered_rate(mixture_3c, ens), v - v.mean(), atol=1e-13
        )

    def test_sum_is_zero(self, mixture_3c):
        rng = np.random.default_rng(2)
        ens = make_ensemble(rng.normal(size=(50, 2)))
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

    # a NaN rate once drew no event, a negative alpha never fired, and a (1, 2)
    # array raised numpy's ValueError
    @pytest.mark.parametrize("rates, alpha, dt", [
        ([0.5, np.nan], 1.0, 0.1), ([np.inf, -1.0], 1.0, 0.1), ([-np.inf, 1.0], 1.0, 0.1),
        (["a", "b"], 1.0, 0.1), ([[0.5, -0.5]], 1.0, 0.1), ([0.5, -0.5], -1.0, 0.1), ([0.5, -0.5], np.nan, 0.1),
        ([0.5, -0.5], np.inf, 0.1), ([0.5, -0.5], 1.0, 0.0), ([0.5, -0.5], 1.0, -0.1),
        ([0.5, -0.5], 1.0, np.inf), ([0.5, -0.5], 1.0, np.nan), ([0.5, -0.5], True, 0.1),
    ], ids=str)
    def test_malformed_inputs_rejected_before_any_draw(self, rates, alpha, dt):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(bf.ConfigurationError):
            bf.bernoulli_phase(np.array(rates), alpha, dt, rng)
        assert rng.bit_generator.state == state

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
        rep = bf.birth_death_step(ens, bf.DynamicsConfig(variant="bd-only", dt=0.1),
                                  np.random.default_rng(5), rates=bf.centered_rate(quad_1d, ens))
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
            rep = bf.birth_death_step(ens, cfg, rng, rates=bf.centered_rate(quad_1d, ens))
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
                    bf.birth_death_step(ens, cfg, rng, rates=rates)
                total += bf.ensemble_energy(quad_1d, ens) - e0
            drift[flip] = total / 40
        assert drift[1.0] < 0.0 < drift[-1.0]

    def test_deficit_refilled_by_cloning_survivors(self, quad_1d):
        # force a kill with certainty: huge positive rate on particle 0
        ens = make_ensemble([[10.0], [0.1], [0.0]])
        cfg = bf.DynamicsConfig(variant="bd-only", dt=5.0, alpha=10.0)
        rep = bf.birth_death_step(ens, cfg, np.random.default_rng(9), rates=bf.centered_rate(quad_1d, ens))
        assert ens.n == 3
        assert rep.deaths >= 1
        assert not np.any(ens.thetas[:, 0] == 10.0)

    def test_event_free_pass_rebuilds_nothing(self, mixture_3c, monkeypatch):
        calls = []
        regroup = bf.Ensemble.regroup
        monkeypatch.setattr(bf.Ensemble, "regroup",
                            lambda ens, *args: calls.append(ens.n) or regroup(ens, *args))
        ens = make_ensemble(np.random.default_rng(16).normal(size=(6, 2)))
        bf.field(mixture_3c, ens)  # carry (F, V, grad V)
        thetas, carried = ens.thetas, _carried(ens, mixture_3c)
        rep = bf.birth_death_step(ens, CERTAIN, np.random.default_rng(17), rates=np.zeros(6))
        assert rep == bf.StepReport() and calls == []
        assert ens.thetas is thetas and _carried(ens, mixture_3c) is carried
        rates = np.zeros(6)
        rates[2] = -1e9  # a certain clone
        rep = bf.birth_death_step(ens, CERTAIN, np.random.default_rng(17), rates=rates)
        assert (rep.births, rep.deaths, rep.population_corrections, calls) == (1, 0, 1, [6])

    # 4 rates for 6 rows once cloned over rows 4-5 and reported 2 deaths, 8 raised a bare
    # IndexError, and NaN rates drew no event and reported max_rate = nan
    @pytest.mark.parametrize("rates, match", [
        (np.zeros(4), "one entry per particle"), (np.zeros(8), "one entry per particle"),
        (np.zeros((1, 6)), "one entry per particle"), ([0.0] * 4, "one entry per particle"),
        (np.full(6, np.nan), "finite"), (np.array([0, 0, np.inf, 0, 0, 0.0]), "finite"),
        ([0.0, 0.0, np.nan, 0.0, 0.0, 0.0], "finite"), (["a"] * 6, "finite numbers"),
    ], ids=["4", "8", "1x6", "list-4", "nan", "inf", "nan-list", "strings"])
    @pytest.mark.parametrize("step", [lambda model, *args, **kw: bf.birth_death_step(*args, **kw),
                                      bf.reinjection_step], ids=["clone", "reinject"])
    def test_rates_are_one_finite_real_per_particle(self, mixture_3c, step, rates, match):
        cfg = bf.DynamicsConfig(variant="gd-bd-reinjection", dt=0.05,
                                reinjection_prior=bf.GaussianSampler(mean=[0.0], std=2.0))
        ens = make_ensemble(np.random.default_rng(18).normal(size=(6, 2)))
        rng = np.random.default_rng(19)
        state = rng.bit_generator.state
        with pytest.raises(bf.ConfigurationError, match=match):
            step(mixture_3c, ens, cfg, rng, rates=rates)
        assert rng.bit_generator.state == state  # rejected before any draw


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

    def test_identity_takes_no_beta(self):
        # identity with beta 3 was once accepted and its beta ignored
        with pytest.raises(bf.ConfigurationError, match="beta"):
            bf.FVariant(kind="identity", beta=3.0)
        assert bf.FVariant(kind="identity", beta=1.0) == bf.FVariant()


# an exact model once ignored a batch given to any of these
EXACT_BATCH_CALLS = {
    "field": lambda model, ens, batch: bf.field(model, ens, batch),
    "gd_step": lambda model, ens, batch: bf.gd_step(model, ens, 0.1, batch),
    "centered_rate": lambda model, ens, batch: bf.centered_rate(model, ens, batch),
    "fvariant_rate": lambda model, ens, batch: bf.fvariant_rate(model, ens, bf.FVariant(kind="tanh"), batch),
}


@pytest.mark.parametrize("name", sorted(EXACT_BATCH_CALLS))
def test_exact_model_takes_no_batch(mixture_3c, name):
    ens = make_ensemble(np.random.default_rng(13).normal(size=(6, 2)))
    rows, weights = ens.thetas.copy(), ens.weights.copy()
    with pytest.raises(bf.ConfigurationError, match="takes no minibatch"):
        EXACT_BATCH_CALLS[name](mixture_3c, ens, np.zeros((4, 1)))
    assert ens.thetas.tobytes() == rows.tobytes() and ens.weights.tobytes() == weights.tobytes()


class TestReinjection:
    def _config(self):
        return bf.DynamicsConfig(
            variant="gd-bd-reinjection", dt=0.05, alpha=1.0,
            reinjection_prior=bf.GaussianSampler(mean=[0.0], std=2.0),
        )

    def test_reinjected_particles_have_zero_amplitude(self, mixture_3c):
        # deterministic deficit: certain kill of particle 0, no duplications
        thetas = np.array([[4.0, -2.0], [0.1, 0.0], [0.1, 0.2], [0.1, -0.2]])
        ens = make_ensemble(thetas)
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
        ens = make_ensemble(rng.normal(size=(6, 2)))
        probes = np.array([[0.0, -1.0], [0.0, 2.0]])
        np.testing.assert_array_equal(bf.field(mixture_3c, ens, points=probes)[0], [0.0, 0.0])

    def test_needs_amplitude_channel(self, mixture_frozen):
        ens = make_ensemble([[0.0], [1.0]])
        with pytest.raises(bf.ConfigurationError):
            bf.reinjection_step(mixture_frozen, ens, self._config(), np.random.default_rng(15),
                                rates=bf.centered_rate(mixture_frozen, ens))


class TestKMC:
    def test_constant_potential_no_events(self, quad_1d):
        ens = make_ensemble([[1.0], [1.0], [1.0]])
        log = bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 10.0,
                         np.random.default_rng(16))
        assert log.n_events == 0

    def test_population_constant_and_energy_decreases(self, quad_1d):
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), 500, 1, seed=17)
        e0 = quad_1d.single(ens.thetas)[0].mean()
        log = bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 2.0,
                         np.random.default_rng(18))
        assert ens.n == 500
        assert log.n_events > 50
        assert log.mean_energy_at(2.0) < e0
        # the mean is carried from event to event; a stale one would be logged here
        assert log.mean_energy[-1] == quad_1d.single(ens.thetas)[0].mean()

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

    @pytest.mark.parametrize("horizon", [float("nan"), "x"])
    def test_malformed_horizon_rejected(self, quad_1d, horizon):
        # a NaN horizon once ran to fixation and left ens.time = nan; "x" raised TypeError
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), 50, 1, seed=21)
        with pytest.raises(bf.ConfigurationError, match="horizon"):
            bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), horizon,
                       np.random.default_rng(22))

    def test_single_particle_no_events(self, quad_1d):
        ens = make_ensemble([[0.7]])
        log = bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 2.5,
                         np.random.default_rng(23))
        assert log.n_events == 0
        assert np.array_equal(ens.thetas, [[0.7]]) and np.array_equal(ens.birth_ids, [0])

    @pytest.mark.parametrize("x", [0.3, 1.7])
    def test_equal_values_never_fire(self, quad_1d, x):
        # the mean of three equal F lands 1 ulp above (0.3) or below (1.7) them,
        # a rate of about 1e-16 that once fired every 1e15 or so time units
        ens = make_ensemble([[x]] * 3)
        f = quad_1d.single(ens.thetas)[0]
        assert f.mean() != f[0]
        log = bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 1e18,
                         np.random.default_rng(24))
        assert log.n_events == 0

    def test_weighted_ensemble_rejected_before_any_draw(self, quad_1d):
        # weights [0.5, 1.5, 1, 1] once came back as four 0.5s, and only run_step's
        # validate objected afterwards, with "mean weight must be 1"
        ens = make_ensemble([[0.0], [1.0], [2.0], [3.0]], weights=[0.5, 1.5, 1.0, 1.0])
        rng = np.random.default_rng(25)
        state = rng.bit_generator.state
        with pytest.raises(bf.ConfigurationError, match="unit weights"):
            bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 1.0, rng)
        assert rng.bit_generator.state == state
        assert ens.weights.tolist() == [0.5, 1.5, 1.0, 1.0]

    @pytest.mark.parametrize("seed", range(20))
    def test_two_particles_fix_after_one_event(self, quad_1d, seed):
        # the running sum of F keeps a rounding residue after the event, so
        # the mean may not equal the one value left
        ens = make_ensemble(np.random.default_rng(seed).normal(size=(2, 1)))
        log = bf.kmc_run(quad_1d, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 1e18,
                         np.random.default_rng(seed))
        assert log.n_events == 1
        assert ens.thetas[0, 0] == ens.thetas[1, 0]
        assert log.mean_energy[-1] == quad_1d.single(ens.thetas)[0].mean()
        assert sorted(ens.birth_ids.tolist()) in ([0, 2], [1, 2])  # one survivor, one copy

    def test_first_event_follows_the_pair_law(self, quad_1d):
        # F = 0, 1, 5 about the mean 2: the event particle is F = 5, 0 or 1 with
        # probability 3/6, 2/6, 1/6, and the other is uniform over the other two.
        # The mean after the event names the pair: 1/3 = {0, 0, 1}, 2/3 = {0, 1, 1},
        # 5/3 = {0, 0, 5}, 7/3 = {1, 1, 5}
        base = make_ensemble(np.sqrt([[0.0], [2.0], [10.0]]))
        cfg = bf.DynamicsConfig(variant="kmc-bd", dt=1.0)
        rng = np.random.default_rng(25)
        means = np.array([1 / 3, 2 / 3, 5 / 3, 7 / 3])
        seen = np.zeros(4)
        for _ in range(3000):
            log = bf.kmc_run(quad_1d, base.copy(), cfg, 1e18, rng)
            seen[np.argmin(np.abs(means - log.mean_energy[0]))] += 1
        res = st.chisquare(seen, seen.sum() * np.array([5, 4, 2, 1]) / 12)
        assert res.pvalue > 0.01


class TestRankPopulation:
    """The KMC sampler against brute force: the weight is sum c |f - mean|
    and a pick of u in [0, weight] is `searchsorted(cumsum(c |f - mean|), u,
    side="right")`, except within rounding of an edge, where it must still
    be a rank of its own share that holds particles off the mean."""

    @staticmethod
    def check(f, count, us):
        pop = _RankPopulation(f, count)
        mean = pop.mean
        cum = np.cumsum(count * np.abs(f - mean))
        tol = 1e-12 * max(1.0, float(np.sum(count * np.abs(f))))
        weight = pop.weight()
        assert abs(weight - cum[-1]) <= tol
        if weight == 0.0:
            return
        edges = np.concatenate(([0.0], cum))
        near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        for u in [*(float(v) * weight for v in us), *near[(near >= 0) & (near <= weight)].tolist(), weight]:
            r = pop.pick(u)
            assert count[r] > 0 and f[r] != mean
            assert edges[r] - tol <= u <= edges[r + 1] + tol
            if np.abs(edges - u).min() > tol:
                assert r == np.searchsorted(cum, u, side="right")

    @pytest.mark.parametrize("seed", range(40))
    def test_random_counts_and_values(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        ties = seed % 2 == 1  # integer values: ties, and means on a value
        f = np.sort(rng.integers(-3, 4, n).astype(float) if ties else rng.normal(size=n))
        self.check(f, np.bincount(rng.integers(n, size=n), minlength=n), rng.random(200))

    def test_mean_on_an_occupied_value(self):
        # particles -2, -2, 0, 0, 2, 2: the mean 0 is two occupied ranks of zero rate
        f = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])
        self.check(f, np.array([2, 0, 1, 1, 0, 2]), np.linspace(0.0, 1.0, 101))

    def test_rounding_below_the_mean(self):
        # found by search: 1 ulp from an edge below the mean the descent stops
        # on an empty rank, whose tree sums differ from its neighbour's by rounding
        rng = np.random.default_rng(16641)
        n = int(rng.integers(2, 40))
        f = np.sort(rng.normal(size=n) * 10 ** rng.uniform(-3, 3))
        self.check(f, np.bincount(rng.integers(n, size=n), minlength=n), [])

    def test_top_edge_skips_empty_top_ranks(self):
        # at u = weight the descent runs past the last occupied rank, 2, onto empty ones
        f = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        pop = _RankPopulation(f, np.array([2, 0, 3, 0, 0]))
        assert pop.pick(pop.weight()) == 2


class TestProximalWeights:
    def test_batch_model_rejected(self):
        relu = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=4, teacher_seed=0)
        ens = make_ensemble(np.random.default_rng(14).normal(size=(8, 4)),
                            weights=np.linspace(0.5, 1.5, 8))
        rows, weights = ens.thetas.copy(), ens.weights.copy()
        with pytest.raises(bf.ConfigurationError, match="exact model"):
            bf.proximal_weight_update(relu, ens, tau=0.1)
        assert ens.thetas.tobytes() == rows.tobytes() and ens.weights.tobytes() == weights.tobytes()

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
            ens = make_ensemble(rng.normal(size=(n, 2)))
            before = bf.exact_mixture_loss(mixture_3c, ens)
            bf.proximal_weight_update(mixture_3c, ens, tau=0.2, inner_iters=200)
            after = bf.exact_mixture_loss(mixture_3c, ens)
            assert after <= before + 1e-13

    def test_mean_weight_stays_one(self, mixture_3c):
        rng = np.random.default_rng(22)
        ens = make_ensemble(rng.normal(size=(12, 2)))
        bf.proximal_weight_update(mixture_3c, ens, tau=0.5)
        assert ens.weights.mean() == pytest.approx(1.0, rel=1e-12)

    def test_divergent_tau_raises_step_size_error(self):
        # two tight clusters and a strong short-range kernel: the implicit
        # update overshoots and the sweep-to-sweep change keeps growing
        gm = bf.GaussianMixtureModel(
            target_c=[1.0], target_y=[[0.5]], target_sigma=[0.3], sigma=0.05
        )
        thetas = np.array([[3.0, 0.0], [3.0, 0.001], [3.0, 1.0], [3.0, 1.001]])
        ens = make_ensemble(thetas)
        with pytest.raises(bf.StepSizeError, match="tau"):
            bf.proximal_weight_update(gm, ens, tau=2.0, inner_iters=400)
        np.testing.assert_array_equal(ens.weights, 1.0)  # the failed sweeps ran on a copy

    @pytest.mark.parametrize("kwargs", [{"inner_iters": 0}, {"inner_iters": 2.5}, {"tau": "x"}],
                             ids=str)
    def test_malformed_arguments_rejected(self, quad_1d, kwargs):
        # inner_iters=0 once ran one sweep; 2.5 and "x" raised TypeError
        ens = make_ensemble([[1.0], [0.0]])
        with pytest.raises(bf.ConfigurationError):
            bf.proximal_weight_update(quad_1d, ens, **{"tau": 1.0, **kwargs})


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

    def test_nan_weight_rejected(self):
        # np.any(w < 0) let a NaN through, and the pass reported 4 births and 4 deaths
        ens = make_ensemble([[0.0], [1.0], [2.0], [3.0], [4.0]], weights=[1.0, np.nan, 1.0, 1.0, 1.0])
        with pytest.raises(bf.ConfigurationError, match="nonnegative"):
            bf.resample_weights(ens, np.random.default_rng(27))

    def test_infinite_weight_rejected_before_any_draw(self):
        # [1, inf, 1, 1] once gave four copies of the last row
        ens = make_ensemble([[0.0], [1.0], [2.0], [3.0]], weights=[1.0, np.inf, 1.0, 1.0])
        rng = np.random.default_rng(27)
        state = rng.bit_generator.state
        with pytest.raises(bf.ConfigurationError, match="finite"):
            bf.resample_weights(ens, rng)
        assert rng.bit_generator.state == state
        assert ens.thetas[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

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
            "proximal": {"proximal_steps": 10},
        }
        for variant, extra in variants.items():
            cfg = bf.DynamicsConfig(variant=variant, dt=0.01, alpha=1.0, **extra)
            ens = bf.init_from_sampler(init, 32, 2, seed=29)
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
            ens = bf.init_from_sampler(init, 40, 2, seed=31)
            rng = np.random.default_rng(32)
            for _ in range(30):
                bf.run_step(mixture_3c, ens, cfg, rng)
            ends.append(ens.thetas.copy())
        assert np.array_equal(ends[0], ends[1])

    def test_proximal_step_is_one_step_of_m_transport_steps(self, mixture_3c):
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=2.0))
        )
        cfg = bf.DynamicsConfig(variant="proximal", dt=0.01, alpha=1.0, proximal_steps=10)
        assert cfg.substeps == 10
        ens = bf.init_from_sampler(init, 16, 2, seed=33)
        bf.run_step(mixture_3c, ens, cfg, np.random.default_rng(34))
        assert cfg.time_of(1) == pytest.approx(0.1)

    def test_kmc_step_is_one_kmc_run_over_dt(self, quad_1d):
        cfg = bf.DynamicsConfig(variant="kmc-bd", dt=0.05)
        ens = bf.init_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), 200, 1, seed=35)
        direct = ens.copy()
        rng = np.random.default_rng(36)
        reports = [bf.run_step(quad_1d, ens, cfg, rng) for _ in range(10)]
        rng = np.random.default_rng(36)
        for _ in range(10):
            bf.kmc_run(quad_1d, direct, cfg, cfg.dt, rng)
        births, deaths = sum(r.births for r in reports), sum(r.deaths for r in reports)
        assert ens.n == 200 and births == deaths > 0
        assert ens.thetas.tobytes() == direct.thetas.tobytes()
        assert ens.birth_ids.tobytes() == direct.birth_ids.tobytes()

    def test_proximal_strict_resampling_matches_birth_death_in_distribution(self, mixture_3c):
        """One proximal cycle with m = 1 and a single implicit sweep should
        reproduce one transport+birth-death step at the level of seed-averaged
        energies (they agree to first order in dt)."""
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=2.0))
        )
        dt, n, seeds = 0.05, 64, 100
        pairs = [(1000 + s, 2000 + s) for s in range(seeds)]

        def proximal_single_sweep(init_seed, dyn_seed):  # run_step's proximal path with one sweep
            ens = bf.init_from_sampler(init, n, 2, init_seed)
            bf.gd_step(mixture_3c, ens, dt)
            bf.proximal_weight_update(mixture_3c, ens, dt, inner_iters=1)  # tau = alpha * 1 * dt
            bf.resample_weights(ens, np.random.default_rng(dyn_seed))
            return bf.ensemble_energy(mixture_3c, ens)

        cfg = bf.DynamicsConfig(variant="gd-bd", dt=dt, alpha=1.0)
        runs = {
            "gd-bd": np.ravel(bf.dynamics.run_replicas(
                mixture_3c, cfg, init, n, pairs, [1], lambda ens: bf.ensemble_energy(mixture_3c, ens))),
            "proximal": np.array([proximal_single_sweep(*p) for p in pairs]),
        }
        means = {variant: (vals.mean(), vals.std(ddof=1)) for variant, vals in runs.items()}
        gap = abs(means["gd-bd"][0] - means["proximal"][0])
        combined = np.hypot(means["gd-bd"][1], means["proximal"][1]) / np.sqrt(seeds)
        assert gap <= 3.0 * combined

    @pytest.mark.parametrize("pair", [(0, -1), (0, 1.5), (0,), (0, True), (0, 1, 2), 7], ids=str)
    def test_replica_seeds_are_pairs_of_integers(self, quad_1d, pair):
        # numpy once raised ValueError or TypeError for the first three, and (0, True) ran
        with pytest.raises(bf.ConfigurationError, match="seed"):
            bf.dynamics.run_replicas(quad_1d, bf.DynamicsConfig(variant="gd-only", dt=0.1),
                                     bf.GaussianSampler(mean=[0.0], std=1.0), 4, [pair], [1], lambda ens: ens.n)

    def test_batch_variants_require_exactness(self):
        relu = bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=4, teacher_seed=0)
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=1.0),
                     bf.GaussianSampler(mean=[0.0] * 3, std=1.0)),
        )
        ens = bf.init_from_sampler(init, 8, 4, seed=35)
        cfg = bf.DynamicsConfig(variant="proximal", dt=0.1)
        with pytest.raises(bf.ConfigurationError):
            bf.run_step(relu, ens, cfg, np.random.default_rng(36))

    def test_relu_gd_bd_runs_and_conserves_population(self):
        relu = bf.ReLUStudentTeacherModel(input_dim=4, teacher_units=2, batch_size=8, teacher_seed=1)
        init = bf.ProductSampler(
            factors=(bf.GaussianSampler(mean=[0.0], std=2.0),
                     bf.GaussianSampler(mean=[0.0] * 4, std=0.5)),
        )
        ens = bf.init_from_sampler(init, 12, 5, seed=37)
        cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.2, alpha=1.0)
        rng = np.random.default_rng(38)
        for _ in range(20):
            bf.run_step(relu, ens, cfg, rng)
            assert ens.n == 12


class TestOnePairwisePassPerStep:
    """On the committed mixture config at n = 192, a gd-only step and a gd-bd
    step whose pass draws no event each make one n x n pairwise call and one
    `single` call.  A gd-bd step carries the field of the rows it leaves, so an
    energy call after it makes neither; after a gd-only step the energy call
    makes the pass, and the next step's transport reads what it carried."""

    MIXTURE = Path(__file__).resolve().parents[1] / "configs" / "mixture_reinjection.json"

    def stepped(self, variant, monkeypatch):
        """(model, ensemble, config, rng, calls) one step into the run, with
        `calls` recording each later `single` and pairwise call."""
        data = json.loads(self.MIXTURE.read_text())
        data["dynamics"]["variant"] = variant
        del data["dynamics"]["reinjection"]
        cfg = parse_config(data)
        ens = bf.init_from_sampler(cfg.init, cfg.n, cfg.model.theta_dim, cfg.seed)
        rng = np.random.default_rng(cfg.seed)
        bf.run_step(cfg.model, ens, cfg.dynamics, rng)
        calls = []
        pairs, single = bf.GaussianMixtureModel.kernel_weighted_sums, bf.GaussianMixtureModel.single
        monkeypatch.setattr(bf.GaussianMixtureModel, "kernel_weighted_sums",
                            lambda m, a, b, w: calls.append(("pairs", len(a), len(b))) or pairs(m, a, b, w))
        monkeypatch.setattr(bf.GaussianMixtureModel, "single",
                            lambda m, x: calls.append(("single", len(x))) or single(m, x))
        return cfg.model, ens, cfg.dynamics, rng, calls

    def calls_of(self, calls, fn, *args):
        calls.clear()
        out = fn(*args)
        return out, list(calls)

    @pytest.mark.parametrize("variant", ["gd-only", "gd-bd"])
    def test_one_pass_per_step(self, variant, monkeypatch):
        model, ens, cfg, rng, calls = self.stepped(variant, monkeypatch)
        for _ in range(3):
            report, made = self.calls_of(calls, bf.run_step, model, ens, cfg, rng)
            assert report.births == report.deaths == 0  # an event-free pass
            assert made == [("single", 192), ("pairs", 192, 192)]

    @pytest.mark.parametrize("variant, by_step, by_energy", [
        ("gd-bd", [("single", 192), ("pairs", 192, 192)], []),
        ("gd-only", [], [("single", 192), ("pairs", 192, 192)]),
    ])
    def test_energy_between_steps(self, variant, by_step, by_energy, monkeypatch):
        model, ens, cfg, rng, calls = self.stepped(variant, monkeypatch)
        bf.ensemble_energy(model, ens)
        for _ in range(3):
            report, made = self.calls_of(calls, bf.run_step, model, ens, cfg, rng)
            assert report.births == report.deaths == 0 and made == by_step
            assert self.calls_of(calls, bf.ensemble_energy, model, ens)[1] == by_energy


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
        {"variant": "proximal", "proximal_steps": 0}, {"proximal_steps": 2.5}, {"proximal_steps": True},
        # tau = alpha * m * dt would be 0: weights would never move
        {"variant": "proximal", "alpha": 0.0},
    ], ids=str)
    def test_malformed_fields_rejected(self, kwargs):
        with pytest.raises(bf.ConfigurationError):
            bf.DynamicsConfig(**{"variant": "gd-bd", "dt": 0.1, **kwargs})

    def test_proximal_default_tau(self):
        cfg = bf.DynamicsConfig(variant="proximal", dt=0.01, alpha=2.0)
        assert cfg.tau == 2.0 * 10 * 0.01
        assert cfg.substeps == 10
        with pytest.raises(AttributeError):
            cfg.tau = 0.3  # derived from alpha, proximal_steps and dt
