"""The public names of the `bdflow` package, pinned: adding or removing one is
an API change that must show up here.  The carried (V, grad V) is private to
its owner: only `ensemble.py` and `potentials.py` may name it.  They are also
the only modules that sum the pairwise kernel, so `field` stays the one place
V = F + n^-1 sum_j w_j K(., theta_j) is formed, with `Ensemble.regroup`
moving it to new rows.  No module but `potentials.py` forms a kernel matrix
with `K_block` either: the grid reads V through `field` too, with its cells as
weighted nodes, and `K_block` is the tests' dense reference."""

import re
import types
from pathlib import Path

import bdflow as bf

PUBLIC_NAMES = [
    "ConfigurationError", "DoubleWellModel", "DynamicsConfig", "Ensemble", "ExtinctionError",
    "FVariant", "FitError", "FitResult", "FluctuationReport", "GaussianMixtureModel",
    "GaussianSampler", "GridStepper", "KMCLog", "NumericError", "PointSampler",
    "PotentialModel", "ProductSampler", "QuadraticWellModel", "RateFormulas",
    "ReLUStudentTeacherModel", "StepReport", "StepSizeError", "TrajectoryRecord",
    "UniformSampler", "UnsupportedOperationError", "VARIANTS", "bernoulli_phase",
    "birth_death_step", "build_model", "build_sampler", "centered_rate",
    "characteristics_density_quadratic", "ensemble_energy",
    "euler_lagrange_residual", "exact_mixture_loss", "field", "fluctuation_scaling",
    "fvariant_rate", "gd_step", "grid_from_sampler", "init_from_sampler", "kmc_run",
    "proximal_weight_update", "pure_bd_density", "pure_bd_mean_energy", "rate_fit",
    "reinjection_step", "resample_weights", "run_step", "transport_bd_asymptote",
    "write_snapshot_csv",
]


def test_public_names_are_pinned():
    names = sorted(n for n, v in vars(bf).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 51


CARRY_NAMES = re.compile(r"\b(_field|_carried_field|_carry_field)\b")
CARRY_OWNERS = {"ensemble.py", "potentials.py"}
KERNEL_CALL = re.compile(r"\.kernel_weighted_sums\(")
KERNEL_MATRIX = re.compile(r"\.K_block\(")


def package_sources() -> dict[str, str]:
    package = Path(bf.__file__).parent
    return {p.relative_to(package).as_posix(): p.read_text() for p in package.rglob("*.py")}


def test_carried_field_is_named_only_by_its_owners():
    offenders = sorted(name for name, text in package_sources().items()
                       if name not in CARRY_OWNERS and CARRY_NAMES.search(text))
    assert offenders == []


def test_pairwise_sums_are_called_only_by_the_field_owners():
    offenders = sorted(name for name, text in package_sources().items()
                       if name not in CARRY_OWNERS and KERNEL_CALL.search(text))
    assert offenders == []


def test_kernel_matrix_is_formed_only_by_its_owner():
    offenders = sorted(name for name, text in package_sources().items()
                       if name != "potentials.py" and KERNEL_MATRIX.search(text))
    assert offenders == []
