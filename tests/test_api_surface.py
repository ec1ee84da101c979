"""The public names of the `bdflow` package, pinned: adding or removing one is
an API change that must show up here."""

import types

import bdflow as bf

PUBLIC_NAMES = [
    "ConfigurationError", "DoubleWellModel", "DynamicsConfig", "Ensemble", "ExtinctionError",
    "FVariant", "FitError", "FitResult", "FluctuationReport", "GaussianMixtureModel",
    "GaussianSampler", "Grid1D", "GridStepper", "KMCLog", "NumericError", "PointSampler",
    "PotentialModel", "ProductSampler", "QuadraticWellModel", "RateFormulas",
    "ReLUStudentTeacherModel", "StepReport", "StepSizeError", "TrajectoryRecord",
    "UniformSampler", "UnsupportedOperationError", "VARIANTS", "bernoulli_phase",
    "birth_death_step", "build_model", "build_sampler", "centered_rate",
    "characteristics_density_quadratic", "energy_decay_terms", "ensemble_energy",
    "euler_lagrange_residual", "exact_mixture_loss", "field", "fluctuation_scaling",
    "fvariant_rate", "gd_step", "grid_from_sampler", "init_from_sampler", "kmc_run", "potential",
    "proximal_weight_update", "pure_bd_density", "pure_bd_mean_energy", "rate_fit",
    "reinjection_step", "resample_weights", "run_step", "transport_bd_asymptote",
    "write_snapshot_csv",
]


def test_public_names_are_pinned():
    names = sorted(n for n, v in vars(bf).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 54
