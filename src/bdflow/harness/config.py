"""Experiment configuration: one JSON document, strict schema, full echo.

Unknown keys anywhere are rejected so typos cannot silently change an
experiment.  ``ExperimentConfig.normalized()`` emits a canonical dict with
all defaults filled in; parsing that echo reproduces the config exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from ..diagnostics import RATE_FIT_FORMS
from ..dynamics import VARIANTS, DynamicsConfig, FVariant, check_model_support
from ..errors import ConfigurationError
from ..potentials import build_model
from ..samplers import build_sampler

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "model",
    "init",
    "dynamics",
    "n",
    "steps",
    "seed",
    "record_every",
    "snapshot_times",
    "output_dir",
    "rate_fit",
}
_DYNAMICS_KEYS = {"variant", "dt", "alpha", "f", "tau", "proximal_inner_iters", "reinjection"}
_RATE_FIT_KEYS = {"window", "form"}


def _require_int(value, name, minimum):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _require_number(value, name) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _require_numbers(values, name, length=None) -> list:
    if not isinstance(values, list) or (length is not None and len(values) != length):
        shape = "a list" if length is None else f"a list of {length}"
        raise ConfigurationError(f"{name} must be {shape} numbers, got {values!r}")
    return [_require_number(v, name) for v in values]


@dataclass
class ExperimentConfig:
    model: dict
    init: dict
    dynamics: dict
    n: int
    steps: int
    seed: int
    record_every: int = 1
    snapshot_times: tuple = ()
    output_dir: str = "."
    rate_fit: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def build_model(self):
        return build_model(self.model)

    def build_init_sampler(self):
        return build_sampler(self.init)

    def build_dynamics(self) -> DynamicsConfig:
        d = self.dynamics
        f_spec = None
        if d.get("f") is not None:
            fd = d["f"]
            if not isinstance(fd, dict) or "kind" not in fd:
                raise ConfigurationError(f"dynamics.f must be an object with a 'kind': {fd!r}")
            extra = set(fd) - {"kind", "beta"}
            if extra:
                raise ConfigurationError(f"unknown f keys {sorted(extra)}")
            f_spec = FVariant(kind=fd["kind"], beta=_require_number(fd.get("beta", 1.0), "f.beta"))
        prior = build_sampler(d["reinjection"]) if d.get("reinjection") is not None else None
        return DynamicsConfig(
            variant=d["variant"],
            dt=_require_number(d["dt"], "dynamics.dt"),
            alpha=_require_number(d.get("alpha", 1.0), "dynamics.alpha"),
            f_spec=f_spec,
            tau=_require_number(d["tau"], "dynamics.tau") if d.get("tau") is not None else None,
            proximal_inner_iters=_require_int(
                d.get("proximal_inner_iters", 100), "dynamics.proximal_inner_iters", 1
            ),
            reinjection_prior=prior,
        )

    def normalized(self) -> dict:
        """Canonical config echo; parsing it reproduces this config."""
        dyn = self.build_dynamics()
        d = {
            "variant": dyn.variant,
            "dt": dyn.dt,
            "alpha": dyn.alpha,
            "f": None if dyn.f_spec is None else {"kind": dyn.f_spec.kind, "beta": dyn.f_spec.beta},
            "tau": dyn.tau,
            "proximal_inner_iters": dyn.proximal_inner_iters,
            "reinjection": None if dyn.reinjection_prior is None else dyn.reinjection_prior.to_spec(),
        }
        return {
            "schema_version": self.schema_version,
            "model": self.model,
            "init": self.build_init_sampler().to_spec(),
            "dynamics": d,
            "n": self.n,
            "steps": self.steps,
            "seed": self.seed,
            "record_every": self.record_every,
            "snapshot_times": [float(t) for t in self.snapshot_times],
            "output_dir": self.output_dir,
            "rate_fit": self.rate_fit,
        }


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
    missing = {"model", "init", "dynamics", "n", "steps", "seed"} - set(data)
    if missing:
        raise ConfigurationError(f"missing config keys {sorted(missing)}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported schema_version {version!r}")
    dyn = data["dynamics"]
    if not isinstance(dyn, dict):
        raise ConfigurationError("dynamics must be an object")
    unknown = set(dyn) - _DYNAMICS_KEYS
    if unknown:
        raise ConfigurationError(f"unknown dynamics keys {sorted(unknown)}")
    if "variant" not in dyn or "dt" not in dyn:
        raise ConfigurationError("dynamics needs at least variant and dt")
    if dyn["variant"] not in VARIANTS:
        raise ConfigurationError(f"unknown variant {dyn['variant']!r}")
    rate_fit = data.get("rate_fit")
    if rate_fit is not None:
        if not isinstance(rate_fit, dict) or set(rate_fit) != _RATE_FIT_KEYS:
            raise ConfigurationError("rate_fit takes exactly the keys window, form")
        _require_numbers(rate_fit["window"], "rate_fit window [t0, t1]", length=2)
        if rate_fit["form"] not in RATE_FIT_FORMS:
            raise ConfigurationError(f"rate_fit form must be one of {RATE_FIT_FORMS}")
    snapshot_times = _require_numbers(data.get("snapshot_times", []), "snapshot_times")
    if any(t < 0 for t in snapshot_times):
        raise ConfigurationError("snapshot_times must be >= 0")

    cfg = ExperimentConfig(
        model=data["model"],
        init=data["init"],
        dynamics=dyn,
        n=_require_int(data["n"], "n", 1),
        steps=_require_int(data["steps"], "steps", 1),
        seed=_require_int(data["seed"], "seed", 0),
        record_every=_require_int(data.get("record_every", 1), "record_every", 1),
        snapshot_times=tuple(snapshot_times),
        output_dir=str(data.get("output_dir", ".")),
        rate_fit=rate_fit,
        schema_version=version,
    )
    # construct everything once so bad specs fail at parse time
    model = cfg.build_model()
    sampler = cfg.build_init_sampler()
    if sampler.dim != model.theta_dim:
        raise ConfigurationError(
            f"init sampler dimension {sampler.dim} does not match the model's "
            f"parameter dimension {model.theta_dim}"
        )
    dyn_cfg = cfg.build_dynamics()
    check_model_support(model, dyn_cfg.variant, dyn_cfg.reinjection_prior)
    return cfg


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {p}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    return parse_config(data)
