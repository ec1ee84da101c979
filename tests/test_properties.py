"""Property tests of run_step over random ensembles and every variant each
model supports: exact population conservation, unit mean weight, centered
rates summing to zero, and the f = identity variant reproducing gd-bd bitwise."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bdflow as bf

MODELS = {
    "quadratic": bf.QuadraticWellModel(minimizer=[0.5], hessian=1.5),
    "double-well": bf.DoubleWellModel(),
    "mixture": bf.GaussianMixtureModel(
        target_c=[1.0, -0.5, 1.0], target_y=[[-2.0], [0.0], [2.0]],
        target_sigma=[0.6, 0.6, 0.6], sigma=0.4,
    ),
    "mixture-frozen": bf.GaussianMixtureModel(
        target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]], target_sigma=[0.8, 0.8], sigma=0.5,
        amplitude_mode="frozen",
    ),
    "relu": bf.ReLUStudentTeacherModel(input_dim=3, teacher_units=2, batch_size=8, teacher_seed=0),
}


def prior_for(model):
    return bf.GaussianSampler(mean=[0.0] * model.position_dim, std=1.0)


def supported(name, variant):
    model = MODELS[name]
    try:
        bf.dynamics.check_model_support(model, variant, prior_for(model))
    except bf.ConfigurationError:
        return False
    return True


CASES = [(m, v) for m in sorted(MODELS) for v in bf.VARIANTS if supported(m, v)]

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


def random_ensemble(model, n, rng):
    thetas = rng.normal(scale=1.0, size=(n, model.theta_dim))
    return bf.Ensemble(thetas=thetas, weights=np.ones(n), birth_ids=np.arange(n),
                       has_amplitude=model.has_amplitude)


def potential_and_rates(model, ens, cfg, rng):
    batch = None
    if model.is_exact:
        v = bf.potential(model, ens)
    else:
        batch = model.sample_batch(rng)
        v = ens.thetas[:, 0] * model.batch_potential_hat(ens.thetas, ens.weights, batch)
    rates = bf.centered_rate(model, ens, batch)
    if cfg.f_spec is not None:
        rates = bf.fvariant_rate(model, ens, cfg.f_spec, batch)
    return v, rates


@PROPERTY_SETTINGS
@given(case=st.sampled_from(CASES), n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(0.002, 0.02), alpha=st.floats(0.1, 3.0), beta=st.floats(0.2, 4.0))
def test_run_step_conserves_population_weight_and_centered_rates(case, n, seed, dt, alpha, beta):
    name, variant = case
    model = MODELS[name]
    cfg = bf.DynamicsConfig(variant=variant, dt=dt, alpha=alpha,
                            f_spec=bf.FVariant(kind="tanh", beta=beta)
                            if variant == "gd-bd-fvariant" else None,
                            reinjection_prior=prior_for(model))
    rng = np.random.default_rng(seed)
    ens = random_ensemble(model, n, rng)
    probe_rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        v, rates = potential_and_rates(model, ens, cfg, probe_rng)
        assert abs(rates.sum()) <= 1e-12 * n * max(1.0, float(np.abs(v).max()))
        bf.run_step(model, ens, cfg, rng)
        assert ens.n == n
        assert abs(ens.weights.mean() - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(MODELS)), n=st.integers(2, 24),
       seed=st.integers(0, 2**32 - 1), dt=st.floats(0.002, 0.02), alpha=st.floats(0.1, 3.0))
def test_identity_transform_is_bitwise_gd_bd(name, n, seed, dt, alpha):
    model = MODELS[name]
    base = bf.DynamicsConfig(variant="gd-bd", dt=dt, alpha=alpha)
    ident = bf.DynamicsConfig(variant="gd-bd-fvariant", dt=dt, alpha=alpha,
                              f_spec=bf.FVariant(kind="identity"))
    a = random_ensemble(model, n, np.random.default_rng(seed))
    b = a.copy()
    rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(3):
        rep_a = bf.run_step(model, a, base, rng_a)
        rep_b = bf.run_step(model, b, ident, rng_b)
        assert rep_a == rep_b
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.birth_ids, b.birth_ids)
