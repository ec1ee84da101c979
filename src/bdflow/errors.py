"""Exception types shared across the package, and the checkers that every
constructor applies to the values it is given (config values included), so a
malformed value raises `ConfigurationError` instead of being coerced."""

import math
import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Invalid configuration, sampler, or model parameters."""


class NumericError(RuntimeError):
    """A numeric quantity became non-finite or otherwise unusable."""


class ExtinctionError(RuntimeError):
    """The particle population (or total weight) died out."""


class StepSizeError(RuntimeError):
    """A step size (dt or tau) is too large for the requested operation."""


class UnsupportedOperationError(RuntimeError):
    """The operation is not available for this model kind."""


class FitError(RuntimeError):
    """Rate fitting could not be performed on the given records."""


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def require_array(value, name: str, ndims=(0, 1)) -> np.ndarray:
    """`value` as a nonempty float array of finite reals whose rank is in `ndims`.
    Strings, bools, None and ragged nestings are rejected, not coerced."""
    arr = None
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = value
    else:
        try:
            obj = np.asarray(value, dtype=object)
        except ValueError:  # a nesting numpy cannot lay out
            obj = None
        if obj is not None and all(_is_real(v) for v in obj.flat):
            arr = obj
    if arr is None or arr.ndim not in ndims or arr.size == 0:
        raise ConfigurationError(f"{name} must be finite numbers of rank {ndims}, got {value!r}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return arr


def require_int_array(value, name: str) -> np.ndarray:
    """`value` as an int64 array; an integer array, or numbers that are each an
    integer (not a bool, not a float).  Strings and ragged nestings are rejected."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        return value.astype(np.int64, copy=False)
    try:
        obj = np.asarray(value, dtype=object)
    except ValueError:  # a nesting numpy cannot lay out
        obj = None
    if obj is None or not all(isinstance(v, numbers.Integral) and not isinstance(v, (bool, np.bool_))
                              for v in obj.flat):
        raise ConfigurationError(f"{name} must be integers, got {value!r}")
    return obj.astype(np.int64)


def require_number(value, name: str, minimum: float = -math.inf, exclusive: bool = False) -> float:
    """`value` as a float; a finite real, and >= `minimum` (> when `exclusive`).
    A finite Python float is checked as a scalar, anything else as an array."""
    x = value if type(value) is float and math.isfinite(value) else float(require_array(value, name, (0,)))
    if x < minimum or (exclusive and x == minimum):
        raise ConfigurationError(f"{name} must be {'>' if exclusive else '>='} {minimum}, got {value!r}")
    return x


def require_spd(value, name: str) -> np.ndarray:
    """`value` as a square, symmetric, positive-definite float matrix; a scalar
    or a length-1 vector is the 1 x 1 matrix."""
    m = np.atleast_2d(require_array(value, name, (0, 1, 2)))
    if m.shape[0] != m.shape[1] or not np.allclose(m, m.T, atol=1e-12):
        raise ConfigurationError(f"{name} must be a square symmetric matrix, got {value!r}")
    if np.linalg.eigvalsh(m).min() <= 0:
        raise ConfigurationError(f"{name} must be positive definite, got {value!r}")
    return m


def require_int(value, name: str, minimum: int) -> int:
    """`value` as an int; an integer (not a bool, not an integral float) >= `minimum`."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_list(value, name: str, min_len: int = 1) -> list:
    """`value` itself; a list (or tuple) of at least `min_len` items."""
    if not isinstance(value, (list, tuple)) or len(value) < min_len:
        raise ConfigurationError(f"{name} must be a list of at least {min_len} items, got {value!r}")
    return value


def check_keys(spec, name: str, required=(), optional=()) -> dict:
    """`spec` itself; a JSON object holding every `required` key and no key
    outside `required` and `optional`."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{name} must be an object, got {spec!r}")
    unknown = set(spec) - {*required, *optional}
    if unknown:
        raise ConfigurationError(f"unknown {name} keys {sorted(unknown)}")
    missing = set(required) - set(spec)
    if missing:
        raise ConfigurationError(f"missing {name} keys {sorted(missing)}")
    return spec


def check_kind(spec, name: str, kinds) -> str:
    """The 'kind' of the config object `spec`, which must be one of `kinds`."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"{name} spec needs a 'kind' from {sorted(kinds)}, got {spec!r}")
    return kind
