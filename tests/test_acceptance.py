"""Acceptance criteria, one test group per criterion.

Every quantitative check pins its tolerance here.  The harness `verify`
command runs this module (fast level excludes tests marked slow) and emits a
JSON verdict; measured values are attached through ``record_property``.
"""

import numpy as np
import pytest

import bdflow as bf

pytestmark = pytest.mark.acceptance

QUAD = bf.QuadraticWellModel(minimizer=[0.0], hessian=1.0)


def quad_f(x):
    return 0.5 * np.asarray(x, dtype=float) ** 2


def seeded(*entropy):
    root = np.random.SeedSequence(list(entropy))
    return (int(v) for v in root.generate_state(3))


def seed_pairs(seeds, *entropy):
    """The (init, dynamics) seeds of replicas 0 .. seeds - 1."""
    return [tuple(seeded(*entropy, s))[:2] for s in range(seeds)]


# ---------------------------------------------------------------------------
# criterion 1: exact-event simulation reproduces the closed-form reaction law


def test_c01_kinetic_monte_carlo_matches_exact_mean_energy(record_property):
    """n = 20000, quadratic well, gaussian(1,1) start: population mean energy
    within 5% of the closed-form value at t in {0.5, 1, 2, 5}; < 60 s."""
    import time

    t_start = time.perf_counter()
    n = 20_000
    ens = bf.init_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), n, 1, seed=11)
    log = bf.kmc_run(QUAD, ens, bf.DynamicsConfig(variant="kmc-bd", dt=1.0), 5.0,
                     np.random.default_rng(12))
    grid = np.linspace(-7.0, 9.0, 40001)
    rho0 = lambda x: np.exp(-((np.asarray(x) - 1.0) ** 2) / 2.0) / np.sqrt(2.0 * np.pi)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        exact = bf.pure_bd_mean_energy(quad_f, rho0, 1.0, t, grid)
        rel = abs(log.mean_energy_at(t) - exact) / exact
        worst = max(worst, rel)
        assert rel < 0.05, f"t={t}: relative gap {rel:.3%} exceeds 5%"
    record_property("max_relative_gap", worst)
    assert time.perf_counter() - t_start < 60.0


# ---------------------------------------------------------------------------
# criterion 2: without transport the mean energy decays like d/(2 alpha t)


def test_c02_reaction_only_linear_decay(record_property):
    g = bf.grid_from_sampler(bf.GaussianSampler(mean=[1.0], std=1.0), 4096)
    st = bf.GridStepper(QUAD, g, bf.DynamicsConfig(variant="bd-only", dt=2e-3, alpha=1.0))
    st.run_until(100.0)
    scaled = st.energy() * 2.0 * 1.0 * 100.0  # F * 2 alpha t / d
    record_property("scaled_energy", scaled)
    assert 0.9 <= scaled <= 1.1


# ---------------------------------------------------------------------------
# criterion 3: with transport the decay envelope is alpha^-1 tr(H e^{-2Ht})


@pytest.fixture(scope="module")
def exp_decay_setup():
    return {
        "init": bf.UniformSampler(lo=[-6.0], hi=[6.0]),
        "forms": bf.RateFormulas(hessian=np.eye(1), alpha=1.0),
        "times": (2.0, 2.5, 3.0, 3.5, 4.0),
    }


@pytest.mark.slow
def test_c03_exponential_decay_grid(exp_decay_setup, record_property):
    """Grid solution over t in [2, 4]: energy within 5% of the envelope."""
    g = bf.grid_from_sampler(exp_decay_setup["init"], 24576)
    st = bf.GridStepper(QUAD, g, bf.DynamicsConfig(variant="gd-bd", dt=0.9 * g.dx / 6.0, alpha=1.0))
    ratios = []
    for t in exp_decay_setup["times"]:
        st.run_until(t)
        ratios.append(st.energy() / bf.transport_bd_asymptote(exp_decay_setup["forms"], t))
    record_property("grid_ratios", [round(r, 4) for r in ratios])
    assert all(0.95 <= r <= 1.05 for r in ratios), ratios


@pytest.mark.slow
def test_c03_exponential_decay_particles(exp_decay_setup, record_property):
    """32-seed mean of the particle energy within 25% of the envelope."""
    times = (2.0, 3.0, 4.0)
    cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.01, alpha=1.0)
    sums = dict.fromkeys(times, 0.0)
    seeds = 32
    runs = bf.dynamics.run_replicas(
        QUAD, cfg, exp_decay_setup["init"], 10_000, seed_pairs(seeds, 55),
        [round(t / cfg.dt) for t in times],
        lambda ens: float(ens.weights @ QUAD.single(ens.thetas)[0]) / ens.n,
    )
    for energies in runs:
        for t, e in zip(times, energies):
            sums[t] += e
    ratios = [
        sums[t] / seeds / bf.transport_bd_asymptote(exp_decay_setup["forms"], t) for t in times
    ]
    record_property("particle_ratios", [round(r, 4) for r in ratios])
    assert all(0.75 <= r <= 1.25 for r in ratios), ratios


# ---------------------------------------------------------------------------
# criterion 4: moments of the particle system approach the grid solution


@pytest.mark.slow
def test_c04_law_of_large_numbers_mixture(record_property):
    """RMS gap over seeds between particle and grid moments shrinks
    monotonically across n in {250, 1000, 4000} at t = 1."""
    model = bf.GaussianMixtureModel(
        target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]], target_sigma=[0.8, 0.8],
        sigma=0.5, amplitude_mode="frozen", frozen_c=1.0,
    )
    init = bf.GaussianSampler(mean=[0.0], std=2.0)
    dt, t_check, seeds = 0.05, 1.0, 16
    cfg = bf.DynamicsConfig(variant="gd-bd", dt=dt, alpha=1.0)

    g = bf.grid_from_sampler(init, 2048)
    bf.GridStepper(model, g, bf.DynamicsConfig(variant="gd-bd", dt=dt, alpha=1.0)).run_until(t_check)
    ref = (g.moment(lambda x: x), g.moment(lambda x: x**2))

    rms = {}
    for n in (250, 1000, 4000):
        sq = np.zeros(2)
        moments = lambda ens: (float(ens.weights @ ens.thetas[:, 0]) / n,
                               float(ens.weights @ ens.thetas[:, 0] ** 2) / n)
        for ((m1, m2),) in bf.dynamics.run_replicas(model, cfg, init, n, seed_pairs(seeds, 777, n),
                                                     [round(t_check / dt)], moments):
            sq[0] += (m1 - ref[0]) ** 2
            sq[1] += (m2 - ref[1]) ** 2
        rms[n] = np.sqrt(sq / seeds)
    record_property("rms_theta", {n: float(v[0]) for n, v in rms.items()})
    record_property("rms_theta_sq", {n: float(v[1]) for n, v in rms.items()})
    for phi in (0, 1):
        assert rms[250][phi] > rms[1000][phi] > rms[4000][phi], (phi, rms)


# ---------------------------------------------------------------------------
# criterion 5: fluctuations scale like n^(-1/2) and quench over time


@pytest.mark.slow
def test_c05_fluctuation_scaling_and_self_quenching(record_property):
    model = bf.QuadraticWellModel(minimizer=[1.0], hessian=1.0)
    cfg = bf.DynamicsConfig(variant="gd-bd", dt=0.01, alpha=1.0)
    rep = bf.fluctuation_scaling(
        model, cfg, bf.GaussianSampler(mean=[0.0], std=1.0),
        [250, 1000, 4000], 64,
        [lambda x: x, lambda x: x**2, lambda x: (x > 0).astype(float)],
        checkpoints=(0.2, 1.0, 5.0), slope_checkpoint=1.0, grid_cells=8192, seed=1234,
    )
    record_property("slope", rep.slope)
    record_property("quench_ratio", rep.quench_ratio)
    assert rep.slope == pytest.approx(-0.5, abs=0.15)
    assert rep.quench_ratio < 1.0


# ---------------------------------------------------------------------------
# criterion 6: energy decay, grid per step and particles on seed average


MIXTURE_SPEC = dict(
    target_c=[1.0, -0.5, 1.0], target_y=[[-2.0], [0.0], [2.0]],
    target_sigma=[0.6, 0.6, 0.6], sigma=0.4,
)
GOOD_INIT = bf.ProductSampler(
    factors=(bf.GaussianSampler(mean=[0.0], std=0.5), bf.GaussianSampler(mean=[0.0], std=2.0))
)
BAD_INIT = bf.ProductSampler(
    factors=(bf.GaussianSampler(mean=[0.0], std=0.5), bf.GaussianSampler(mean=[-2.0], std=0.1))
)


def test_c06_grid_energy_monotone_every_step(record_property):
    """Per-step energy decrease with slack 1e-10, quadratic and mixture."""
    runs = []
    g1 = bf.grid_from_sampler(bf.UniformSampler(lo=[-6.0], hi=[6.0]), 4096)
    runs.append((bf.GridStepper(QUAD, g1, bf.DynamicsConfig(variant="gd-bd", dt=0.9 * g1.dx / 6.0)),
                 round(2.0 / (0.9 * g1.dx / 6.0))))
    frozen = bf.GaussianMixtureModel(
        target_c=[1.0, 1.0], target_y=[[-1.5], [1.5]], target_sigma=[0.8, 0.8],
        sigma=0.5, amplitude_mode="frozen", frozen_c=1.0,
    )
    g2 = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=2.0), 1024)
    runs.append((bf.GridStepper(frozen, g2, bf.DynamicsConfig(variant="gd-bd", dt=0.01)), 200))
    worst = -np.inf
    for stepper, steps in runs:
        prev = stepper.energy()
        for _ in range(steps):
            stepper.step()
            e = stepper.energy()
            worst = max(worst, e - prev)
            assert e <= prev + 1e-10 * max(1.0, abs(prev))
            prev = e
    record_property("worst_energy_increase", worst)


@pytest.mark.slow
def test_c06_particle_energy_decay_seed_average(record_property):
    """Seed-mean energy non-increasing between records for every birth-death
    variant (200 seeds for the main arm, 100 for the others), and the
    birth-death arm at or below plain descent with matched initial seeds."""
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    n, dt, steps, every = 96, 0.01, 200, 25
    arms = (
        ("gd-bd", 200, {}),
        ("gd-only", 200, {}),
        ("bd-only", 100, {}),
        ("gd-bd-fvariant", 100, {"f_spec": bf.FVariant(kind="tanh")}),
        ("gd-bd-reinjection", 100,
         {"reinjection_prior": bf.GaussianSampler(mean=[0.0], std=2.0)}),
    )
    curves = {}
    for variant, seeds, extra in arms:
        cfg = bf.DynamicsConfig(variant=variant, dt=dt, alpha=1.0, **extra)
        acc = np.zeros(steps // every + 1)
        for energies in bf.dynamics.run_replicas(model, cfg, GOOD_INIT, n, seed_pairs(seeds, 99),
                                                 range(0, steps + 1, every),
                                                 lambda ens: bf.ensemble_energy(model, ens)):
            acc += energies
        curves[variant] = acc / seeds
        if variant != "gd-only":
            assert np.all(np.diff(curves[variant]) <= 0.0), (variant, np.diff(curves[variant]))
    record_property("bd_mean_energy_diffs", [float(d) for d in np.diff(curves["gd-bd"])])
    assert np.all(curves["gd-bd"] <= curves["gd-only"] + 1e-12)


# ---------------------------------------------------------------------------
# criterion 7: the kill/duplication probabilities follow 1 - exp(-alpha|v|dt)


def test_c07_kill_and_duplication_law(record_property):
    trials = 100_000
    rng = np.random.default_rng(2024)
    measured = {}
    for target in (0.01, np.log(2.0), 2.0):
        p = 1.0 - np.exp(-target)
        sigma = np.sqrt(p * (1.0 - p) / trials)
        kill, _ = bf.bernoulli_phase(np.full(trials, target), 1.0, 1.0, rng)
        assert abs(kill.mean() - p) < 3.0 * sigma, f"kill rate at {target}"
        _, dup = bf.bernoulli_phase(np.full(trials, -target), 1.0, 1.0, rng)
        assert abs(dup.mean() - p) < 3.0 * sigma, f"duplication rate at {target}"
        measured[round(float(target), 4)] = (float(kill.mean()), float(dup.mean()), float(p))
    record_property("frequencies", measured)


# ---------------------------------------------------------------------------
# criterion 8: the implicit weight update never increases the exact loss


def test_c08_proximal_descent_monotone(record_property):
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    rng = np.random.default_rng(321)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(4, 32))
        thetas = np.column_stack([rng.normal(size=n), rng.normal(scale=2.0, size=n)])
        ens = bf.Ensemble(thetas=thetas, weights=np.ones(n), birth_ids=np.arange(n, dtype=np.int64))
        before = bf.exact_mixture_loss(model, ens)
        bf.proximal_weight_update(model, ens, tau=0.2, inner_iters=200)
        after = bf.exact_mixture_loss(model, ens)
        worst = max(worst, after - before)
        assert after <= before + 1e-13
    record_property("worst_loss_increase", worst)


# ---------------------------------------------------------------------------
# criteria 9 and 12: three-component mixture comparison runs


@pytest.fixture(scope="module")
def mixture_comparison():
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    prior = bf.GaussianSampler(mean=[0.0], std=2.0)
    n, dt, steps, seeds = 192, 0.01, 3000, 16
    out = {"model": model}
    for init_name, init in (("bad", BAD_INIT), ("good", GOOD_INIT)):
        for variant in ("gd-only", "gd-bd", "gd-bd-reinjection"):
            cfg = bf.DynamicsConfig(
                variant=variant, dt=dt, alpha=1.0,
                reinjection_prior=prior if variant == "gd-bd-reinjection" else None,
            )
            # each observation: the loss of the live population, and a copy of it
            runs = bf.dynamics.run_replicas(
                model, cfg, init, n, seed_pairs(seeds, 42), [0, steps],
                lambda ens: (bf.exact_mixture_loss(model, ens), ens.copy()),
            )
            if init_name == "good" and variant == "gd-bd":
                out["good_bd_end_state"] = runs[0][1][1]  # seed 0's copy after the last step
            out[(init_name, variant)] = {
                "initial_mean": float(np.mean([start[0] for start, _ in runs])),
                "final_mean": float(np.mean([end[0] for _, end in runs])),
            }
    return out


@pytest.mark.slow
def test_c09_reinjection_beats_cloning_on_bad_init(mixture_comparison, record_property):
    bad = {v: mixture_comparison[("bad", v)]["final_mean"]
           for v in ("gd-only", "gd-bd", "gd-bd-reinjection")}
    record_property("bad_init_final_losses", bad)
    assert bad["gd-bd-reinjection"] < bad["gd-bd"]
    assert bad["gd-bd-reinjection"] < bad["gd-only"]


@pytest.mark.slow
def test_c09_all_variants_converge_from_good_init(mixture_comparison, record_property):
    fractions = {}
    for variant in ("gd-only", "gd-bd", "gd-bd-reinjection"):
        cell = mixture_comparison[("good", variant)]
        fractions[variant] = cell["final_mean"] / cell["initial_mean"]
        assert fractions[variant] < 0.10, (variant, fractions[variant])
    record_property("good_init_loss_fractions", fractions)


@pytest.mark.slow
def test_c12_optimality_residuals_at_convergence(mixture_comparison, record_property):
    """At the end of the converged good-init run the particle potentials are
    flat (support residual < 1e-2 max(1, |Vbar|)) and no probe on a 64-point
    grid sits more than 1e-2 below the mean potential."""
    model = mixture_comparison["model"]
    ens = mixture_comparison["good_bd_end_state"]
    ys = np.linspace(-4.0, 4.0, 32)
    probes = np.array([[c, y] for c in (-1.0, 1.0) for y in ys])
    support, exterior = bf.euler_lagrange_residual(model, ens, probes)
    v = bf.field(model, ens)[0]
    vbar = float(ens.weights @ v) / ens.n
    record_property("support_residual", support)
    record_property("exterior_violation", exterior)
    assert support < 1e-2 * max(1.0, abs(vbar))
    assert exterior < 1e-2


# ---------------------------------------------------------------------------
# criterion 10: birth-death at or below plain sgd on the relu batch loss


@pytest.mark.slow
def test_c10_relu_student_teacher_bd_helps(record_property):
    model = bf.ReLUStudentTeacherModel(input_dim=50, teacher_units=10, batch_size=64,
                                       teacher_seed=3)
    init = bf.ProductSampler(
        factors=(bf.GaussianSampler(mean=[0.0], std=4.0),
                 bf.GaussianSampler(mean=[0.0] * 50, std=1.0 / np.sqrt(50.0))),
    )
    steps, seeds = 400, 12
    means = {}
    for variant in ("gd-only", "gd-bd"):
        cfg = bf.DynamicsConfig(variant=variant, dt=0.25, alpha=1.0)
        total = 0.0
        runs = bf.dynamics.run_replicas(model, cfg, init, 50, seed_pairs(seeds, 7), [steps],
                                        lambda ens: ens.copy())
        for s, (ens,) in enumerate(runs):
            _, _, eval_seed = seeded(7, s)
            x_eval = model.sample_batch(np.random.default_rng(eval_seed), 4096)
            total += model.batch_loss(ens.thetas, ens.weights, x_eval)
        means[variant] = total / seeds
    record_property("mean_batch_loss", means)
    assert means["gd-bd"] <= means["gd-only"], means


# ---------------------------------------------------------------------------
# criterion 11: invariant suite


def test_c11_centered_rates_sum_to_zero():
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        thetas = np.column_stack([rng.normal(size=n), rng.normal(scale=2.0, size=n)])
        ens = bf.Ensemble(thetas=thetas, weights=np.ones(n), birth_ids=np.arange(n, dtype=np.int64))
        vt = bf.centered_rate(model, ens)
        v = bf.field(model, ens)[0]
        assert abs(vt.sum()) <= 1e-10 * max(1.0, float(np.abs(v).max()))
        r = bf.fvariant_rate(model, ens, bf.FVariant(kind="tanh"))
        assert abs(r.sum()) <= 1e-10


def test_c11_population_conserved_every_variant():
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    prior = bf.GaussianSampler(mean=[0.0], std=2.0)
    variants = {
        "gd-only": {},
        "gd-bd": {},
        "bd-only": {},
        "gd-bd-fvariant": {"f_spec": bf.FVariant(kind="tanh")},
        "gd-bd-reinjection": {"reinjection_prior": prior},
        "proximal": {"proximal_steps": 3},
    }
    for variant, extra in variants.items():
        cfg = bf.DynamicsConfig(variant=variant, dt=0.02, alpha=1.5, **extra)
        ens = bf.init_from_sampler(GOOD_INIT, 48, 2, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(15):
            bf.run_step(model, ens, cfg, rng)
            assert ens.n == 48


def test_c11_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2))
    models = [
        bf.QuadraticWellModel(minimizer=[0.5, -0.5], hessian=a @ a.T + np.eye(2)),
        bf.DoubleWellModel(),
        bf.GaussianMixtureModel(**MIXTURE_SPEC),
    ]
    h = 1e-5
    for model in models:
        for _ in range(15):
            th = rng.normal(scale=1.5, size=model.theta_dim)
            ana = model.single(th[None])[1][0]
            num = np.array(
                [(model.single((th + h * e)[None])[0][0] - model.single((th - h * e)[None])[0][0]) / (2 * h)
                 for e in np.eye(model.theta_dim)]
            )
            assert np.linalg.norm(num - ana) <= 1e-6 * max(1.0, np.linalg.norm(ana))


def test_c11_kernel_symmetry_and_positive_semidefiniteness():
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        thetas = np.column_stack([np.ones(k), rng.normal(scale=2.0, size=k)])
        gram = model.K_block(thetas, thetas)
        np.testing.assert_allclose(gram, gram.T, rtol=1e-13)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10


def test_c11_grid_mass_stays_one():
    g = bf.grid_from_sampler(bf.GaussianSampler(mean=[0.0], std=1.0), 1024)
    st = bf.GridStepper(QUAD, g, bf.DynamicsConfig(variant="gd-bd", dt=1e-3, alpha=1.0))
    for _ in range(250):
        st.step()
        assert abs(g.mass() - 1.0) < 1e-12


def test_c11_identity_transform_reproduces_base_variant_bitwise():
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    base = bf.DynamicsConfig(variant="gd-bd", dt=0.02, alpha=1.0)
    ident = bf.DynamicsConfig(variant="gd-bd-fvariant", dt=0.02, alpha=1.0,
                              f_spec=bf.FVariant(kind="identity"))
    a = bf.init_from_sampler(GOOD_INIT, 40, 2, seed=8)
    b = bf.init_from_sampler(GOOD_INIT, 40, 2, seed=8)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(30):
        bf.run_step(model, a, base, rng_a)
        bf.run_step(model, b, ident, rng_b)
        assert np.array_equal(a.thetas, b.thetas)


def test_c11_determinism_under_fixed_seeds():
    model = bf.GaussianMixtureModel(**MIXTURE_SPEC)
    cfg = bf.DynamicsConfig(variant="gd-bd-reinjection", dt=0.02, alpha=1.0,
                            reinjection_prior=bf.GaussianSampler(mean=[0.0], std=2.0))
    ends = []
    for _ in range(2):
        ens = bf.init_from_sampler(BAD_INIT, 32, 2, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(40):
            bf.run_step(model, ens, cfg, rng)
        ends.append((ens.thetas.copy(), ens.birth_ids.copy()))
    assert np.array_equal(ends[0][0], ends[1][0])
    assert np.array_equal(ends[0][1], ends[1][1])
