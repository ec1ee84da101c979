"""The benchmark's traced run wraps package attributes by name, so deleting or
renaming one of them breaks it.  These tests install its tracer against the
package and drive a few steps through the wrapped functions."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import bdflow as bf
import bdflow.harness  # noqa: F401  (the tracer wraps harness functions too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_installs_and_removes():
    tracer = load_tracer_class()(bf)
    run_step = bf.dynamics.run_step
    tracer.install()
    try:
        assert bf.dynamics.run_step.__wrapped__ is run_step
        assert bf.run_step.__wrapped__ is run_step
    finally:
        tracer.remove()
    assert bf.dynamics.run_step is run_step and bf.run_step is run_step
    assert not hasattr(bf.harness.runner.observe, "__wrapped__")


def package_bindings() -> dict:
    """The id of every attribute of each loaded bdflow module and of its classes."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "bdflow" or modname.startswith("bdflow."):
            for key, value in vars(module).items():
                out[modname, key] = id(value)
                if isinstance(value, type):
                    out.update({(modname, key, attr): id(v) for attr, v in vars(value).items()})
    return out


def test_grid_energy_is_traced_through_the_one_energy_function():
    """`ensemble_energy` is one object under every name, so wrapping it by its
    `diagnostics` name reaches the grid's energy too; removal restores every binding."""
    energy = bf.potentials.ensemble_energy
    assert bf.ensemble_energy is energy and bf.diagnostics.ensemble_energy is energy
    g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 64)
    st = bf.GridStepper(bf.QuadraticWellModel(), g, bf.DynamicsConfig(variant="gd-bd", dt=0.01))
    before = package_bindings()
    tracer = load_tracer_class()(bf)
    tracer.install()
    try:
        assert bf.meanfield.ensemble_energy.__wrapped__ is energy
        st.energy()
        metrics = tracer.layer_metrics()
    finally:
        tracer.remove()
    outer, inner = [i for i, span in enumerate(tracer.spans) if span[0] == "diagnostics.energy"]
    assert tracer.spans[inner][3] == outer  # the function's span sits inside the method's
    assert metrics["diagnostics.energy_s"] > 0
    assert package_bindings() == before


def test_traced_steps_reach_every_phase():
    model = bf.GaussianMixtureModel(
        target_c=[1.0, -0.5], target_y=[[-1.0], [1.0]], target_sigma=[0.6, 0.6], sigma=0.4
    )
    init = bf.ProductSampler(
        factors=(bf.GaussianSampler(mean=[0.0], std=1.0), bf.GaussianSampler(mean=[0.0], std=2.0))
    )
    prior = bf.GaussianSampler(mean=[0.0], std=2.0)
    tracer = load_tracer_class()(bf)
    tracer.install()
    try:
        for variant in ("gd-bd", "gd-bd-reinjection"):
            cfg = bf.DynamicsConfig(variant=variant, dt=0.05, alpha=1.0, reinjection_prior=prior)
            ens = bf.init_from_sampler(init, 16, 2, seed=0)
            rng = np.random.default_rng(1)
            for _ in range(3):
                bf.run_step(model, ens, cfg, rng)
        metrics = tracer.layer_metrics()
    finally:
        tracer.remove()
    for name in ("dynamics.transport_s", "dynamics.rates_s", "dynamics.birth_death_s",
                 "potentials.pair_evals"):
        assert metrics[name] > 0, name
    assert metrics["dynamics.step_samples.gd-bd"] == 3
    assert metrics["dynamics.step_samples.gd-bd-reinjection"] == 3


def test_one_pairwise_pass_per_step():
    """A birth-death step makes one n^2 pass plus n pair evaluations per changed or
    reinjected row; an observation right after a step makes none."""
    frozen = bf.GaussianMixtureModel(
        target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]], target_sigma=[0.8, 0.8], sigma=0.5,
        amplitude_mode="frozen",
    )
    dynamic = bf.GaussianMixtureModel(
        target_c=[1.0, -0.5], target_y=[[-1.0], [1.0]], target_sigma=[0.6, 0.6], sigma=0.4
    )
    prior = bf.GaussianSampler(mean=[0.0], std=2.0)
    amp_init = bf.ProductSampler(factors=(bf.GaussianSampler(mean=[0.0], std=1.0), prior))
    n, steps = 400, 20
    for model, init, variant in ((frozen, prior, "gd-bd"),
                                 (dynamic, amp_init, "gd-bd-reinjection")):
        cfg = bf.DynamicsConfig(variant=variant, dt=0.05, alpha=1.0, reinjection_prior=prior)
        ens = bf.init_from_sampler(init, n, model.theta_dim, seed=0)
        rng = np.random.default_rng(1)
        tracer = load_tracer_class()(bf)
        tracer.install()
        try:
            for _ in range(steps):
                bf.run_step(model, ens, cfg, rng)
            stepped = tracer.counts["pair_evals"]
            bf.ensemble_energy(model, ens)
            bf.field(model, ens)
            observed = tracer.counts["pair_evals"] - stepped
        finally:
            tracer.remove()
        c = tracer.counts
        # reinjected rows refill a deficit, so there are at most as many as corrections
        reinjected = c["population_corrections"] if variant == "gd-bd-reinjection" else 0
        events = c["births"] + c["deaths"] + c["population_corrections"] + reinjected
        assert c["births"] + c["deaths"] > 0
        assert stepped <= (steps + 1) * n**2 + n * events, variant
        assert observed == 0


def test_traced_replicas_record_every_step():
    """Replicas initialise and step through the wrapped functions: one init per
    seed pair and one run_step span per step, up to the last count."""
    model = bf.QuadraticWellModel(minimizer=[0.5], hessian=1.0)
    cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.05, alpha=1.0)
    seeds, steps = [(0, 1), (2, 3), (4, 5)], [0, 2, 2, 5]
    tracer = load_tracer_class()(bf)
    tracer.install()
    try:
        bf.dynamics.run_replicas(model, cfg, bf.GaussianSampler(mean=[0.0], std=1.0), 8, seeds,
                                 steps, lambda ens: ens.n)
    finally:
        tracer.remove()
    calls = tracer.call_counts()
    assert calls["dynamics.run_step"] == len(seeds) * steps[-1]
    assert calls["ensemble.init"] == len(seeds)
