"""Distribution specs used for particle initialization and reinjection priors.

Four families are supported: isotropic gaussian, uniform box, point mass,
and coordinate-wise products of the former three.  Every sampler knows its
dimension, can draw i.i.d. samples from a ``numpy.random.Generator``, and
echoes its config dict with ``to_spec``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_keys, check_kind, require_array, require_list, require_number


@dataclass(frozen=True)
class GaussianSampler:
    """Isotropic gaussian with scalar standard deviation."""

    mean: np.ndarray
    std: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(require_array(self.mean, "gaussian mean")))
        object.__setattr__(self, "std", require_number(self.std, "gaussian std", 0.0, exclusive=True))

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal((n, self.dim))

    def to_spec(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean.tolist(), "std": self.std}


@dataclass(frozen=True)
class UniformSampler:
    """Uniform distribution on an axis-aligned box."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(require_array(self.lo, "uniform lo"))
        hi = np.atleast_1d(require_array(self.hi, "uniform hi"))
        if lo.size != hi.size:
            raise ConfigurationError("lo and hi must have the same length")
        if np.any(lo >= hi):
            raise ConfigurationError("uniform box requires lo < hi in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def to_spec(self) -> dict:
        return {"kind": "uniform", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True)
class PointSampler:
    """Degenerate distribution placing every draw at one point."""

    at: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "at", np.atleast_1d(require_array(self.at, "point at")))

    @property
    def dim(self) -> int:
        return self.at.size

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.tile(self.at, (n, 1))

    def to_spec(self) -> dict:
        return {"kind": "point", "at": self.at.tolist()}


@dataclass(frozen=True)
class ProductSampler:
    """Independent product of lower-dimensional samplers, concatenated."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ConfigurationError("product sampler needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.concatenate([f.sample(rng, n) for f in self.factors], axis=1)

    def to_spec(self) -> dict:
        return {"kind": "product", "factors": [f.to_spec() for f in self.factors]}


_SAMPLERS = {
    "gaussian": (GaussianSampler, ("mean", "std")),
    "uniform": (UniformSampler, ("lo", "hi")),
    "point": (PointSampler, ("at",)),
    "product": (ProductSampler, ("factors",)),
}


def build_sampler(spec: dict):
    """Construct a sampler from its config dict; rejects unknown keys."""
    kind = check_kind(spec, "sampler", _SAMPLERS)
    cls, keys = _SAMPLERS[kind]
    check_keys(spec, f"{kind} sampler", ("kind", *keys))
    args = {k: spec[k] for k in keys}
    if kind == "product":
        args["factors"] = tuple(build_sampler(s) for s in require_list(args["factors"], "product factors"))
    return cls(**args)
