"""Property tests of run_step over random ensembles and every variant each
model supports: exact population conservation, unit mean weight, centered
rates summing to zero, and the f = identity variant reproducing gd-bd bitwise.
After a step, an interacting model's carried (V, grad V) matches a fresh
evaluation, and an edited ensemble is evaluated afresh.  Also: a committed
config with any one value replaced by a malformed one either parses, and then
round-trips through its echo, or raises ConfigurationError."""

import copy
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bdflow as bf
from bdflow.harness import parse_config

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
    batch = None if model.is_exact else model.sample_batch(rng)
    v = bf.potential(model, ens, batch=batch)
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


CONFIGS = {p.stem: json.loads(p.read_text())
           for p in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))}
MUTANTS = ["x", None, True, math.nan, 2.5, [], {}]


def node_paths(node, prefix=()):
    """Paths to every value below the root: object members and list items."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


PATHS = [(name, path) for name, data in CONFIGS.items() for path in node_paths(data)]


@settings(max_examples=1000, deadline=None, database=None)
@given(target=st.sampled_from(PATHS), mutant=st.sampled_from(MUTANTS))
def test_mutated_config_parses_or_raises_configuration_error(target, mutant):
    name, path = target
    data = copy.deepcopy(CONFIGS[name])
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(mutant)
    try:
        cfg = parse_config(data)
    except bf.ConfigurationError:
        return
    echo = cfg.normalized()
    assert parse_config(json.loads(json.dumps(echo))).normalized() == echo


# The field carried across a step must be the field of the rows the step left.
CARRY_MODELS = {
    "mixture": MODELS["mixture"],
    "mixture-frozen": MODELS["mixture-frozen"],
    "mixture-2d": bf.GaussianMixtureModel(
        target_c=[1.0, -0.5], target_y=[[-1.0, 0.5], [1.0, -0.5]], target_sigma=[0.7, 0.7],
        sigma=0.4,
    ),
    "mixture-2d-frozen": bf.GaussianMixtureModel(
        target_c=[1.0, 1.0], target_y=[[-1.0, 0.0], [1.0, 0.0]], target_sigma=[0.7, 0.7],
        sigma=0.5, amplitude_mode="frozen",
    ),
}
CARRY_CASES = [(m, v) for m in sorted(CARRY_MODELS)
               for v in ("gd-bd", "gd-bd-fvariant", "gd-bd-reinjection")
               if v != "gd-bd-reinjection" or CARRY_MODELS[m].has_amplitude]


def assert_close(carried, fresh):
    for c, f in zip(carried, fresh):
        assert np.abs(c - f).max() <= 1e-12 * np.abs(f).max()


@PROPERTY_SETTINGS
@given(case=st.sampled_from(CARRY_CASES), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(0.2, 3.0), dt=st.floats(0.01, 0.1), alpha=st.floats(0.5, 20.0))
def test_carried_field_matches_fresh_field(case, n, seed, spread, dt, alpha):
    name, variant = case
    model = CARRY_MODELS[name]
    cfg = bf.DynamicsConfig(variant=variant, dt=dt, alpha=alpha,
                            f_spec=bf.FVariant(kind="tanh", beta=1.0),
                            reinjection_prior=bf.GaussianSampler(mean=[0.0] * model.position_dim,
                                                                 std=spread))
    rng = np.random.default_rng(seed)
    ens = random_ensemble(model, n, rng)
    ens.thetas *= spread
    for _ in range(3):
        bf.run_step(model, ens, cfg, rng)
        carried = ens._carried_field(model)
        assert carried is not None
        assert_close(carried, bf.field(model, ens.copy()))


def test_edited_ensemble_is_evaluated_afresh():
    model = CARRY_MODELS["mixture-2d"]
    cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.05, alpha=10.0)
    rng = np.random.default_rng(0)
    ens = random_ensemble(model, 30, rng)
    bf.run_step(model, ens, cfg, rng)
    carried = ens._carried_field(model)
    assert carried is not None and bf.field(model, ens)[0] is carried[0]
    ens.thetas[0, 1] += 0.25  # in place: the rows no longer match the carried copy
    v, grad = bf.field(model, ens)
    fresh = bf.field(model, ens.copy())
    assert np.array_equal(v, fresh[0]) and np.array_equal(grad, fresh[1])
    assert v[0] != carried[0][0]
    ens.weights[:2] = [0.5, 1.5]  # a reweight with the same mean
    v, _ = bf.field(model, ens)
    assert np.array_equal(v, bf.field(model, ens.copy())[0])
    assert ens._carried_field(copy.deepcopy(model)) is None  # an equal model is not the same one
