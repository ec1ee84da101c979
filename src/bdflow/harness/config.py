"""Experiment configuration: one JSON document, strict schema, full echo.

Unknown keys anywhere are rejected so typos cannot silently change an
experiment.  ``ExperimentConfig.normalized()`` echoes the model block as
given and fills in every other default; parsing it reproduces the config.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from ..diagnostics import RATE_FIT_FORMS, RATE_FIT_MIN_RECORDS
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
_DYNAMICS_KEYS = (("variant", "dt"), ("alpha", "f", "proximal_steps", "reinjection"))


def snapshot_name(t: float) -> str:
    """The file a run writes its snapshot at time `t` to."""
    return f"snapshot_t{t:g}.csv"


@dataclass
class ExperimentConfig:
    """One run of `steps` steps: the model, init sampler and dynamics built from a config, the raw
    model spec (for the echo) and the run controls, whose times come from `dynamics.time_of`."""

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
        names = [snapshot_name(t) for t in self.snapshot_times]
        if len(set(names)) < len(names):
            raise ConfigurationError(f"snapshot_times {list(self.snapshot_times)} repeat a file name in {names}")
        end = self.dynamics.time_of(self.steps)  # a run snapshots t once its time reaches t - dt/2
        late = [t for t in self.snapshot_times if end < t - 0.5 * self.dynamics.dt]
        if late:
            raise ConfigurationError(f"snapshot_times {late} fall after the run ends at t = {end}")
        if not isinstance(self.output_dir, str):
            raise ConfigurationError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.rate_fit is not None:
            check_keys(self.rate_fit, "rate_fit", ("window", "form"))
            window = require_array(self.rate_fit["window"], "rate_fit window", (1,))
            if window.size != 2 or not window[0] < window[1]:
                raise ConfigurationError(f"rate_fit window must be [t0, t1] with t0 < t1, got {window}")
            if self.rate_fit["form"] not in RATE_FIT_FORMS:
                raise ConfigurationError(f"rate_fit form must be one of {RATE_FIT_FORMS}")
            if self.rate_fit["form"] == "power-law" and not window[0] > 0:
                raise ConfigurationError("a power-law rate_fit window needs t0 > 0: the record at t = 0 has no log")
            held = self._records_in(*window)
            if held < RATE_FIT_MIN_RECORDS:
                raise ConfigurationError(f"rate_fit window {window.tolist()} holds {held} records at this "
                                         f"steps, dt and record_every; the fit needs {RATE_FIT_MIN_RECORDS}")
        if self.init.dim != self.model.theta_dim:
            raise ConfigurationError(
                f"init sampler dimension {self.init.dim} does not match the model's "
                f"parameter dimension {self.model.theta_dim}"
            )
        check_model_support(self.model, self.dynamics.variant, self.dynamics.reinjection_prior)

    def _records_in(self, t0: float, t1: float) -> int:
        """Records a run puts in [t0, t1] (step 0, every record_every-th step,
        the last), at the times the run computes for them."""
        steps, time_of = range(0, self.steps + 1, self.record_every), self.dynamics.time_of
        last = self.steps % self.record_every != 0 and t0 <= time_of(self.steps) <= t1
        return bisect_right(steps, t1, key=time_of) - bisect_left(steps, t0, key=time_of) + last

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
                "proximal_steps": dyn.proximal_steps,
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
