"""Property tests of run_step over random ensembles and every variant each
model supports: exact population conservation, unit mean weight, centered
rates summing to zero, and the f = identity variant reproducing gd-bd bitwise.
After a step, an interacting model's carried (F, V, grad V) matches a fresh
evaluation, F bitwise, and an edited ensemble is evaluated afresh.
`run_replicas` equals a hand-written loop over seeds bitwise.
`potentials.regroup_field` moves rows, weights, birth ids and the carried
record, F bitwise, to any rebuilt population; a rebuild through
`Ensemble.regroup` alone that changes the rows or weights leaves no record
that can be read; and a birth-death pass, which skips the rebuild when it
draws no event, equals a pass that always rebuilds.  After
exact-event KMC every row is one of the initial rows, and its sampler's
counts, tree sums and rank descent stay exact across any moves.
Also: a committed config with any one value replaced by a malformed one
either parses, and then round-trips through its echo, or raises
ConfigurationError."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import bdflow as bf
from bdflow.dynamics import _RankPopulation
from bdflow.harness import parse_config
from bdflow.potentials import _carried, regroup_field

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
    return bf.Ensemble(thetas=thetas, weights=np.ones(n), birth_ids=np.arange(n))


def potential_and_rates(model, ens, cfg, rng):
    batch = None if model.is_exact else model.sample_batch(rng)
    v = bf.field(model, ens, batch)[0]
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


def population(ens):
    """What a replica leaves: rows, weights, birth ids and one moment."""
    return (ens.thetas.copy(), ens.weights.copy(), ens.birth_ids.copy(),
            float(ens.weights @ ens.thetas[:, -1]) / ens.n)


@PROPERTY_SETTINGS
@given(case=st.sampled_from(CASES), n=st.integers(2, 12),
       seeds=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=3),
       steps=st.lists(st.integers(0, 4), min_size=1, max_size=4).map(sorted),
       dt=st.floats(0.002, 0.02), alpha=st.floats(0.1, 3.0))
def test_run_replicas_is_a_loop_over_seeds(case, n, seeds, steps, dt, alpha):
    name, variant = case
    model = MODELS[name]
    cfg = bf.DynamicsConfig(variant=variant, dt=dt, alpha=alpha,
                            f_spec=bf.FVariant(kind="tanh"), reinjection_prior=prior_for(model))
    init = bf.GaussianSampler(mean=[0.0] * model.theta_dim, std=1.0)
    expected = []
    for init_seed, dyn_seed in seeds:
        ens = bf.init_from_sampler(init, n, model.theta_dim, init_seed)
        rng = np.random.default_rng(dyn_seed)
        done, observed = 0, []
        for target in steps:
            while done < target:
                bf.run_step(model, ens, cfg, rng)
                done += 1
            observed.append(population(ens))
        expected.append(observed)
    got = bf.dynamics.run_replicas(model, cfg, init, n, seeds, steps, population)
    assert len(got) == len(expected)
    for replica, hand in zip(got, expected):
        assert len(replica) == len(hand) == len(steps)
        for a, b in zip(replica, hand):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_run_replicas_rejects_decreasing_step_counts():
    model = MODELS["quadratic"]
    cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.01)
    with pytest.raises(bf.ConfigurationError, match="nondecreasing"):
        bf.dynamics.run_replicas(model, cfg, prior_for(model), 4, [(0, 1)], [2, 1], population)


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


# The record carried across a step must be the field of the rows the step left.
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
        carried = _carried(ens, model)
        assert carried is not None
        assert np.array_equal(carried[3], model.single(ens.thetas)[0])
        assert_close(carried[4:], bf.field(model, ens.copy()))


def test_edited_ensemble_is_evaluated_afresh():
    model = CARRY_MODELS["mixture-2d"]
    cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.05, alpha=10.0)
    rng = np.random.default_rng(0)
    ens = random_ensemble(model, 30, rng)
    bf.run_step(model, ens, cfg, rng)
    carried = _carried(ens, model)
    assert carried is not None and bf.field(model, ens)[0] is carried[4]
    ens.thetas[0, 1] += 0.25  # in place: the rows no longer match the carried copy
    v, grad = bf.field(model, ens)
    fresh = bf.field(model, ens.copy())
    assert np.array_equal(v, fresh[0]) and np.array_equal(grad, fresh[1])
    assert v[0] != carried[4][0]
    ens.weights[:2] = [0.5, 1.5]  # a reweight with the same mean
    v, _ = bf.field(model, ens)
    assert np.array_equal(v, bf.field(model, ens.copy())[0])
    assert _carried(ens, copy.deepcopy(model)) is None  # an equal model is not the same one


# regroup_field is the one entry that rebuilds a population from old rows.
@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(CARRY_MODELS)), n=st.integers(2, 30),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_regroup_moves_rows_birth_ids_and_carried_field(name, n, seed, data):
    model = CARRY_MODELS[name]
    rng = np.random.default_rng(seed)
    ens = random_ensemble(model, n, rng)
    ens.weights = rng.uniform(0.2, 2.0, n)
    ens.birth_ids = rng.permutation(3 * n)[:n]
    ens.next_birth_id = 3 * n
    bf.field(model, ens)  # carry (F, V, grad V) for the old rows
    old = ens.copy()
    src = np.array(data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)))
    copies = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    for i in range(n):  # a valid regroup keeps each source's id in at most one row
        if src[i] >= 0 and not copies[i] and src[i] in src[:i][~copies[:i]]:
            copies[i] = True
    new = src < 0
    fresh = rng.normal(size=(int(new.sum()), model.theta_dim)) if new.any() else None
    regroup_field(ens, src, copies, fresh)

    assert np.array_equal(ens.thetas[~new], old.thetas[src[~new]])
    assert np.array_equal(ens.weights[~new], old.weights[src[~new]])
    if fresh is not None:
        assert np.array_equal(ens.thetas[new], fresh) and np.all(ens.weights[new] == 1.0)
    kept = ~copies & ~new
    assert np.array_equal(ens.birth_ids[kept], old.birth_ids[src[kept]])
    assert len(set(ens.birth_ids.tolist())) == n
    assert ens.next_birth_id == old.next_birth_id + int(np.count_nonzero(copies | new))
    carried = _carried(ens, model)
    assert carried is not None
    assert np.array_equal(carried[3], model.single(ens.thetas)[0])  # F moves with its row
    assert_close(carried[4:], bf.field(model, ens.copy()))


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(CARRY_MODELS)), n=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_regroup_alone_leaves_no_stale_record(name, n, seed, data):
    """`Ensemble.regroup` called without `regroup_field` moves no record: one
    that no longer holds for the rows or weights is never read, and `field`
    gives the fresh evaluation bitwise."""
    model = CARRY_MODELS[name]
    rng = np.random.default_rng(seed)
    ens = random_ensemble(model, n, rng)
    ens.weights = rng.uniform(0.2, 2.0, n) if data.draw(st.booleans()) else np.ones(n)
    bf.field(model, ens)
    old = ens.copy()
    src = np.array(data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)))
    new = src < 0
    fresh = rng.normal(size=(int(new.sum()), model.theta_dim)) if new.any() else None
    copies = np.array([s < 0 or s in src[:i] for i, s in enumerate(src)])  # a source's first row is kept
    ens.regroup(src, copies, fresh)
    same = (ens.thetas.tobytes() == old.thetas.tobytes()
            and ens.weights.tobytes() == old.weights.tobytes())
    event("rows and weights unchanged" if same else "rows or weights changed")
    assert (_carried(ens, model) is not None) == same
    v, grad = bf.field(model, ens)
    fresh_v, fresh_grad = bf.field(model, ens.copy())
    assert np.array_equal(v, fresh_v) and np.array_equal(grad, fresh_grad)


def regrouping_pass(ens, cfg, rng, rates, prior):
    """The birth-death pass rebuilt through `regroup_field` on every pass,
    the identity rebuild of an event-free pass included: the reference that
    the pass must equal bitwise."""
    kill, dup = bf.bernoulli_phase(rates, cfg.alpha, cfg.dt, rng)
    n0 = ens.n
    surv, dup_idx = np.flatnonzero(~kill), np.flatnonzero(dup & ~kill)
    src = np.concatenate([surv, dup_idx])
    n1 = src.size
    report = bf.StepReport(births=int(dup_idx.size), deaths=int(n0 - surv.size),
                           max_rate=float(cfg.alpha * np.max(np.abs(rates), initial=0.0) * cfg.dt),
                           population_corrections=abs(n1 - n0))
    copies = np.zeros(max(n0, n1), dtype=bool)
    copies[surv.size:] = True
    fresh = None
    if n1 > n0:
        keep = np.ones(n1, dtype=bool)
        keep[rng.choice(n1, size=n1 - n0, replace=False)] = False
        src, copies = src[keep], copies[keep]
    elif n1 < n0:
        if prior is None:
            src = np.concatenate([src, src[rng.choice(n1, size=n0 - n1, replace=True)]])
        else:
            src = np.concatenate([src, np.full(n0 - n1, -1)])
            fresh = np.hstack([np.zeros((n0 - n1, 1)), prior.sample(rng, n0 - n1)])
    regroup_field(ens, src, copies, fresh)
    return report


PASS_CASES = [(m, v) for m in ("quadratic", "mixture", "mixture-frozen")
              for v in ("bd-only", "gd-bd", "gd-bd-reinjection") if supported(m, v)]


@PROPERTY_SETTINGS
@given(case=st.sampled_from(PASS_CASES), carry=st.booleans(), n=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-6.0, 0.0), alpha=st.floats(0.1, 5.0))
def test_pass_equals_a_pass_that_always_regroups(case, carry, n, seed, log_dt, alpha):
    name, variant = case
    model = MODELS[name]
    prior = prior_for(model) if variant == "gd-bd-reinjection" else None
    cfg = bf.DynamicsConfig(variant=variant, dt=10.0**log_dt, alpha=alpha, reinjection_prior=prior)
    rng = np.random.default_rng(seed)
    ens = random_ensemble(model, n, rng)
    ens.birth_ids = ens.birth_ids + 5
    if variant != "bd-only":
        bf.gd_step(model, ens, 0.05)
    if carry:
        bf.field(model, ens)  # an interacting model carries (F, V, grad V) for these rows
    rates = bf.centered_rate(model, ens if carry else ens.copy())
    a, b = (copy.deepcopy(ens, {id(model): model}) for _ in range(2))  # the carry stays on `model`
    rng_a, rng_b = (np.random.default_rng(seed + 1) for _ in range(2))
    if prior is not None:
        report = bf.reinjection_step(model, a, cfg, rng_a, rates=rates)
    else:
        report = bf.birth_death_step(a, cfg, rng_a, rates=rates)
    event("events" if report.births or report.deaths else "no event")
    assert report == regrouping_pass(b, cfg, rng_b, rates, prior)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    for x, y in [(a.thetas, b.thetas), (a.weights, b.weights), (a.birth_ids, b.birth_ids)]:
        assert np.array_equal(x, y)
    assert a.next_birth_id == b.next_birth_id
    carried_a, carried_b = _carried(a, model), _carried(b, model)
    assert (carried_a is None) == (carried_b is None) == (not (carry and model.is_interacting))
    if carried_a is not None:
        assert all(np.array_equal(x, y) for x, y in zip(carried_a[1:], carried_b[1:]))


@PROPERTY_SETTINGS
@given(name=st.sampled_from(["quadratic", "double-well"]), n=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1), horizon=st.floats(0.0, 3.0), alpha=st.floats(0.1, 5.0))
def test_kmc_rows_are_initial_rows(name, n, seed, horizon, alpha):
    model = MODELS[name]
    rng = np.random.default_rng(seed)
    ens = random_ensemble(model, n, rng)
    initial = ens.thetas.copy()
    bf.kmc_run(model, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0, alpha=alpha), horizon, rng)
    assert all(np.any(np.all(initial == row, axis=1)) for row in ens.thetas)
    assert len(set(ens.birth_ids.tolist())) == n
    kept = ens.birth_ids < n  # an initial id stays on its own row while its value survives
    assert np.array_equal(ens.thetas[kept], initial[ens.birth_ids[kept]])


@PROPERTY_SETTINGS
@given(n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_kmc_sampler_moves_keep_its_sums_and_slots(n, seed, ties):
    rng = np.random.default_rng(seed)
    f = np.sort(rng.integers(-3, 4, n).astype(float) if ties else rng.normal(size=n))
    rank = rng.integers(n, size=n)  # one rank per particle, kept here only
    pop = _RankPopulation(f, np.bincount(rank, minlength=n))
    for i, to in zip(rng.integers(n, size=1000).tolist(), rng.integers(n, size=1000).tolist()):
        pop.move(int(rank[i]), to)
        rank[i] = to
    count = np.bincount(rank, minlength=n)
    assert pop.count == count.tolist()
    cum = np.cumsum(count)
    assert [pop._rank_holding(m) for m in range(1, n + 1)] == np.searchsorted(cum, np.arange(1, n + 1)).tolist()
    tol = 1e-12 * max(1.0, float(np.sum(count * np.abs(f))))
    for p in range(n + 1):
        c, s = pop._prefix(p)
        assert c == count[:p].sum() and abs(s - np.sum(count[:p] * f[:p])) <= tol
    assert abs(pop.s_tot - np.sum(count * f)) <= tol
