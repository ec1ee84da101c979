"""Particle optimization with gradient-flow transport and birth-death
dynamics, together with 1D mean-field oracles used to verify convergence
rates and fluctuation scaling."""

from .diagnostics import (
    FitResult,
    FluctuationReport,
    TrajectoryRecord,
    euler_lagrange_residual,
    fluctuation_scaling,
    rate_fit,
)
from .dynamics import (
    VARIANTS,
    DynamicsConfig,
    FVariant,
    KMCLog,
    StepReport,
    bernoulli_phase,
    birth_death_step,
    centered_rate,
    fvariant_rate,
    gd_step,
    kmc_run,
    proximal_weight_update,
    reinjection_step,
    resample_weights,
    run_step,
)
from .ensemble import (
    Ensemble,
    init_from_sampler,
    write_snapshot_csv,
)
from .errors import (
    ConfigurationError,
    ExtinctionError,
    FitError,
    NumericError,
    StepSizeError,
    UnsupportedOperationError,
)
from .meanfield import (
    GridStepper,
    RateFormulas,
    characteristics_density_quadratic,
    grid_from_sampler,
    pure_bd_density,
    pure_bd_mean_energy,
    transport_bd_asymptote,
)
from .potentials import (
    DoubleWellModel,
    GaussianMixtureModel,
    PotentialModel,
    QuadraticWellModel,
    ReLUStudentTeacherModel,
    build_model,
    ensemble_energy,
    exact_mixture_loss,
    field,
)
from .samplers import (
    GaussianSampler,
    PointSampler,
    ProductSampler,
    UniformSampler,
    build_sampler,
)

__version__ = "0.1.0"
