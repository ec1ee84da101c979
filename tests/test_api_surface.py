"""The public names of the `bdflow` package, pinned: adding or removing one is
an API change that must show up here.  The carried (F, V, grad V) is private
to its owner: only `potentials.py` keys, reads, writes or moves it, and only
`potentials.py` calls `Ensemble.regroup`, from `regroup_field`, so no rebuild
can skip the move.  Only `potentials.py` sums the pairwise kernel, so `field`
stays the one place V = F + n^-1 sum_j w_j K(., theta_j) is formed, with
`regroup_field` beside it moving the record to the rebuilt rows.  No module but
`potentials.py` forms a kernel matrix with `K_block` either: the grid reads V
through `field` too, with its cells as weighted nodes, and `K_block` is the
tests' dense reference.  The modules form a strict layering: each imports, at
module level only, modules before it in `LAYERS`, so the package's import
graph has no cycle."""

import ast
import dataclasses
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


def test_a_population_is_its_rows_weights_and_birth_ids():
    # the population once also stored a step count and a time that any step overwrote
    assert [f.name for f in dataclasses.fields(bf.Ensemble)] == [
        "thetas", "weights", "birth_ids", "next_birth_id"]


CARRY_NAMES = re.compile(r"\b(_field|_carried|_carry)\b")
REGROUP_CALL = re.compile(r"\.regroup\(")
KERNEL_CALL = re.compile(r"\.kernel_weighted_sums\(")
KERNEL_MATRIX = re.compile(r"\.K_block\(")
SINGLE_CALL = re.compile(r"\.single\(")


def package_sources() -> dict[str, str]:
    package = Path(bf.__file__).parent
    return {p.relative_to(package).as_posix(): p.read_text() for p in package.rglob("*.py")}


def test_carried_field_is_named_only_by_its_owners():
    offenders = sorted(name for name, text in package_sources().items()
                       if name != "potentials.py" and CARRY_NAMES.search(text))
    assert offenders == []


def test_populations_are_rebuilt_only_through_the_field_owner():
    offenders = sorted(name for name, text in package_sources().items()
                       if name != "potentials.py" and REGROUP_CALL.search(text))
    assert offenders == []


def test_pairwise_sums_are_called_only_by_the_field_owners():
    offenders = sorted(name for name, text in package_sources().items()
                       if name != "potentials.py" and KERNEL_CALL.search(text))
    assert offenders == []


def test_kernel_matrix_is_formed_only_by_its_owner():
    offenders = sorted(name for name, text in package_sources().items()
                       if name != "potentials.py" and KERNEL_MATRIX.search(text))
    assert offenders == []


def test_model_f_is_read_only_by_the_field_owner():
    offenders = sorted(name for name, text in package_sources().items()
                       if name != "potentials.py" and SINGLE_CALL.search(text))
    assert offenders == []


def exp_owners(node: ast.AST, owner: str | None = None):
    """The innermost function or class around each `np.exp(` call under `node`."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owner = node.name
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.exp":
        yield owner
    for child in ast.iter_child_nodes(node):
        yield from exp_owners(child, owner)


def test_gaussians_are_formed_only_by_the_gaussian_block():
    """`np.exp(` appears in `potentials.py` only inside `_gauss_block`, the one
    Gaussian primitive, and `_box_map`, the Hermite transform's table."""
    owners = set(exp_owners(ast.parse(package_sources()["potentials.py"])))
    assert owners == {"_gauss_block", "_box_map"}


LAYERS = ["errors", "samplers", "ensemble", "potentials", "dynamics", "meanfield", "diagnostics",
          "harness.config", "harness.runner", "harness.verify", "harness.cli"]


def package_imports(name: str, tree: ast.Module):
    """(line, imported package module, at module level) for each import of a
    `bdflow` module in the module `name` (dotted, relative to the package);
    `from . import x` imports the module x."""
    pkg = ["bdflow", *name.split(".")[:-1]]
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names if a.name.split(".")[0] == "bdflow"]
        elif isinstance(node, ast.ImportFrom):
            base = pkg[:len(pkg) - node.level + 1] if node.level else []
            parts = base + (node.module.split(".") if node.module else [])
            if not parts or parts[0] != "bdflow":
                continue
            targets = [".".join(parts)] if node.module else [".".join(parts + [a.name]) for a in node.names]
        else:
            continue
        for target in targets:
            yield node.lineno, target.removeprefix("bdflow").removeprefix("."), id(node) in top


def package_trees() -> dict[str, ast.Module]:
    return {name.removesuffix(".py").replace("/", "."): ast.parse(text)
            for name, text in package_sources().items()}


def test_no_package_import_below_module_level():
    offenders = sorted(f"{name}:{line} imports {target or 'bdflow'}"
                       for name, tree in package_trees().items()
                       for line, target, at_top in package_imports(name, tree) if not at_top)
    assert offenders == []


def test_modules_import_only_earlier_layers():
    """Every module but the package facades (`__init__`) has a layer, and
    imports only modules of earlier layers; a facade imports its own
    package's modules and no facade is imported."""
    trees = package_trees()
    facades = {name for name in trees if name.split(".")[-1] == "__init__"}
    assert sorted(set(trees) - facades) == sorted(LAYERS)
    offenders = []
    for name, tree in trees.items():
        for line, target, _ in package_imports(name, tree):
            if name in facades:
                ok = target in LAYERS and target.startswith(name.removesuffix("__init__"))
            else:
                ok = target in LAYERS and LAYERS.index(target) < LAYERS.index(name)
            if not ok:
                offenders.append(f"{name}:{line} imports {target or 'bdflow'}")
    assert offenders == []
