"""Experiment configuration: one JSON document, strict schema, full echo.

Unknown keys anywhere are rejected so typos cannot silently change an
experiment.  ``ExperimentConfig.normalized()`` emits a canonical dict with
all defaults filled in; parsing that echo reproduces the config exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..diagnostics import RATE_FIT_FORMS
from ..dynamics import DynamicsConfig, FVariant, check_model_support
from ..errors import (
    ConfigurationError,
    check_keys,
    require_array,
    require_int,
    require_list,
    require_number,
)
from ..potentials import PotentialModel, build_model
from ..samplers import build_sampler

SCHEMA_VERSION = 1

# (required, optional) keys of the config object and of its dynamics block
_TOP_KEYS = (("model", "init", "dynamics", "n", "steps", "seed"),
             ("schema_version", "record_every", "snapshot_times", "output_dir", "rate_fit"))
_DYNAMICS_KEYS = (("variant", "dt"), ("alpha", "f", "tau", "proximal_inner_iters", "reinjection"))


@dataclass
class ExperimentConfig:
    """One run: the model, init sampler and dynamics built from a config, the
    raw model spec they came from (for the echo), and the run controls."""

    model_spec: dict
    model: PotentialModel
    init: object
    dynamics: DynamicsConfig
    n: int
    steps: int
    seed: int
    record_every: int = 1
    snapshot_times: tuple = ()
    output_dir: str = "."
    rate_fit: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if require_int(self.schema_version, "schema_version", 0) != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported schema_version {self.schema_version!r}")
        self.n = require_int(self.n, "n", 1)
        self.steps = require_int(self.steps, "steps", 1)
        self.seed = require_int(self.seed, "seed", 0)
        self.record_every = require_int(self.record_every, "record_every", 1)
        self.snapshot_times = tuple(
            require_number(t, "snapshot_times", 0.0)
            for t in require_list(self.snapshot_times, "snapshot_times", 0)
        )
        if not isinstance(self.output_dir, str):
            raise ConfigurationError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.rate_fit is not None:
            check_keys(self.rate_fit, "rate_fit", ("window", "form"))
            window = require_array(self.rate_fit["window"], "rate_fit window", (1,))
            if window.size != 2 or not window[0] < window[1]:
                raise ConfigurationError(f"rate_fit window must be [t0, t1] with t0 < t1, got {window}")
            if self.rate_fit["form"] not in RATE_FIT_FORMS:
                raise ConfigurationError(f"rate_fit form must be one of {RATE_FIT_FORMS}")
        if self.init.dim != self.model.theta_dim:
            raise ConfigurationError(
                f"init sampler dimension {self.init.dim} does not match the model's "
                f"parameter dimension {self.model.theta_dim}"
            )
        check_model_support(self.model, self.dynamics.variant, self.dynamics.reinjection_prior)

    def normalized(self) -> dict:
        """Canonical config echo; parsing it reproduces this config."""
        dyn = self.dynamics
        return {
            "schema_version": self.schema_version,
            "model": self.model_spec,
            "init": self.init.to_spec(),
            "dynamics": {
                "variant": dyn.variant,
                "dt": dyn.dt,
                "alpha": dyn.alpha,
                "f": None if dyn.f_spec is None else {"kind": dyn.f_spec.kind, "beta": dyn.f_spec.beta},
                "tau": dyn.tau,
                "proximal_inner_iters": dyn.proximal_inner_iters,
                "reinjection": None if dyn.reinjection_prior is None else dyn.reinjection_prior.to_spec(),
            },
            "n": self.n,
            "steps": self.steps,
            "seed": self.seed,
            "record_every": self.record_every,
            "snapshot_times": list(self.snapshot_times),
            "output_dir": self.output_dir,
            "rate_fit": self.rate_fit,
        }


def _build_dynamics(spec) -> DynamicsConfig:
    args = dict(check_keys(spec, "dynamics", *_DYNAMICS_KEYS))
    f, prior = args.pop("f", None), args.pop("reinjection", None)
    if f is not None:
        args["f_spec"] = FVariant(**check_keys(f, "dynamics.f", ("kind",), ("beta",)))
    if prior is not None:
        args["reinjection_prior"] = build_sampler(prior)
    return DynamicsConfig(**args)


def parse_config(data: dict) -> ExperimentConfig:
    check_keys(data, "config", *_TOP_KEYS)
    return ExperimentConfig(
        model_spec=data["model"],
        model=build_model(data["model"]),
        init=build_sampler(data["init"]),
        dynamics=_build_dynamics(data["dynamics"]),
        **{k: v for k, v in data.items() if k not in ("model", "init", "dynamics")},
    )


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {p}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    return parse_config(data)
