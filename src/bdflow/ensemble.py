"""Particle population data model.

An :class:`Ensemble` holds the full parameter rows of ``n`` particles in a
contiguous ``(n, D)`` array.  For models with an output-amplitude channel the
amplitude ``c`` is stored as column 0 and the remaining ``k`` columns are the
position; otherwise all ``D = k`` columns are the position.  Each particle
also carries a nonnegative weight (mean 1 across the population) and a
monotone birth id assigned at creation, used only for lineage diagnostics.

All randomness is drawn from explicitly passed ``numpy.random.Generator``
instances (PCG64 via ``numpy.random.default_rng``), so runs are reproducible
bit-for-bit given a seed.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ExtinctionError, NumericError

WEIGHT_MEAN_RTOL = 1e-12


@dataclass
class Ensemble:
    thetas: np.ndarray  # (n, D) full parameter rows
    weights: np.ndarray  # (n,)
    birth_ids: np.ndarray  # (n,) int64
    has_amplitude: bool = False
    step_count: int = 0
    time: float = 0.0
    next_birth_id: int = field(default=0)
    # (model, thetas copy, weights copy, V, grad V) carried by potentials.field
    _field: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.birth_ids = np.asarray(self.birth_ids, dtype=np.int64)
        if self.thetas.ndim != 2:
            raise ConfigurationError("thetas must be a (n, D) array")
        if self.next_birth_id == 0:
            self.next_birth_id = int(self.birth_ids.max(initial=-1)) + 1

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    @property
    def theta_dim(self) -> int:
        return self.thetas.shape[1]

    @property
    def dimension(self) -> int:
        """Length k of the position vector (amplitude excluded)."""
        return self.theta_dim - (1 if self.has_amplitude else 0)

    @property
    def positions(self) -> np.ndarray:
        return self.thetas[:, 1:] if self.has_amplitude else self.thetas

    @property
    def amplitudes(self) -> np.ndarray | None:
        return self.thetas[:, 0] if self.has_amplitude else None

    def copy(self) -> "Ensemble":
        return Ensemble(
            thetas=self.thetas.copy(),
            weights=self.weights.copy(),
            birth_ids=self.birth_ids.copy(),
            has_amplitude=self.has_amplitude,
            step_count=self.step_count,
            time=self.time,
            next_birth_id=self.next_birth_id,
        )

    def validate(self):
        if self.n < 1:
            raise ExtinctionError("population must contain at least one particle")
        if not np.all(np.isfinite(self.thetas)):
            bad = int(np.flatnonzero(~np.isfinite(self.thetas).all(axis=1))[0])
            raise NumericError(f"non-finite parameters at particle {bad}")
        if np.any(self.weights < 0):
            raise ConfigurationError("weights must be nonnegative")
        mean_w = float(self.weights.mean())
        if abs(mean_w - 1.0) > WEIGHT_MEAN_RTOL * max(1.0, abs(mean_w)):
            raise ConfigurationError(f"mean weight must be 1, got {mean_w!r}")

    def _carried_field(self, model):
        """(V, grad V) if carried for `model` at exactly these rows and weights;
        a carry that does not match is dropped, so no stale copy is held."""
        c = self._field
        if (c is not None and c[0] is model and np.array_equal(c[1], self.thetas)
                and np.array_equal(c[2], self.weights)):
            return c[3], c[4]
        self._field = None
        return None

    def _carry_field(self, model, v: np.ndarray, grad: np.ndarray) -> None:
        """Carry (V, grad V) for these rows and weights, read-only as it is shared."""
        v.flags.writeable = grad.flags.writeable = False
        self._field = (model, self.thetas.copy(), self.weights.copy(), v, grad)

    def claim_birth_ids(self, count: int) -> np.ndarray:
        ids = np.arange(self.next_birth_id, self.next_birth_id + count, dtype=np.int64)
        self.next_birth_id += count
        return ids


def init_from_sampler(sampler, n: int, k: int, seed: int, has_amplitude: bool = False) -> Ensemble:
    """Draw n i.i.d. particles from `sampler`.

    `k` is the position dimension; for amplitude models the sampler must
    produce rows of length k+1 with the amplitude first.
    """
    if n < 1:
        raise ConfigurationError(f"population size must be >= 1, got {n}")
    if k < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {k}")
    want = k + (1 if has_amplitude else 0)
    if sampler.dim != want:
        raise ConfigurationError(
            f"sampler dimension {sampler.dim} does not match expected {want} "
            f"(k={k}, has_amplitude={has_amplitude})"
        )
    rng = np.random.default_rng(seed)
    thetas = sampler.sample(rng, n)
    ens = Ensemble(
        thetas=thetas,
        weights=np.ones(n),
        birth_ids=np.arange(n, dtype=np.int64),
        has_amplitude=has_amplitude,
    )
    ens.validate()
    return ens


@contextmanager
def atomic_open(path):
    """Text file handle on a sibling temp file that replaces `path` once the
    block completes; if the block raises, `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


SNAPSHOT_HEADER = ["id", "birth_id", "weight", "amplitude"]


def write_snapshot_csv(ens: Ensemble, path) -> None:
    """Dump the population as CSV: id,birth_id,weight,amplitude,theta_0,...

    Reals carry 17 significant digits so float64 values round-trip exactly.
    The amplitude column is left empty for models without that channel.
    The file is replaced atomically.
    """
    k = ens.dimension
    header = SNAPSHOT_HEADER + [f"theta_{j}" for j in range(k)]
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        amps = ens.amplitudes
        pos = ens.positions
        for i in range(ens.n):
            row = [
                i,
                int(ens.birth_ids[i]),
                format(ens.weights[i], ".17g"),
                format(amps[i], ".17g") if amps is not None else "",
            ]
            row.extend(format(x, ".17g") for x in pos[i])
            w.writerow(row)
