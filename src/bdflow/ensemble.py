"""Particle population data model.

An :class:`Ensemble` holds the full parameter rows of ``n`` particles in a
contiguous ``(n, D)`` array.  The model owns the row layout: for models with
an output-amplitude channel the amplitude ``c`` is column 0 and the remaining
columns are the position; otherwise all ``D`` columns are the position.  Each
particle also carries a nonnegative weight (mean 1 across the population) and a
monotone birth id assigned at creation, used only for lineage diagnostics.
A population carries no clock: the loop that steps it counts the steps.
`Ensemble.regroup` rebuilds a population from copies of its rows and is the
only code that assigns new birth ids.  The module imports only ``errors``.

All randomness is drawn from explicitly passed ``numpy.random.Generator``
instances (PCG64 via ``numpy.random.default_rng``), so runs are reproducible
bit-for-bit given a seed.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, ExtinctionError, NumericError, require_array, require_int,
                     require_int_array)

WEIGHT_MEAN_RTOL = 1e-12


@dataclass
class Ensemble:
    thetas: np.ndarray  # (n, D) full parameter rows
    weights: np.ndarray  # (n,)
    birth_ids: np.ndarray  # (n,) int64
    next_birth_id: int = field(default=0)

    def __post_init__(self):
        # a float64 array is taken unscanned, so `validate` reports its non-finite entries
        if not (isinstance(self.thetas, np.ndarray) and self.thetas.dtype == np.float64):
            self.thetas = require_array(self.thetas, "thetas", (2,))
        if not (isinstance(self.weights, np.ndarray) and self.weights.dtype == np.float64):
            self.weights = require_array(self.weights, "weights", (1,))
        self.birth_ids = require_int_array(self.birth_ids, "birth_ids")
        if self.thetas.ndim != 2:
            raise ConfigurationError("thetas must be a (n, D) array")
        self.check_rows()
        if self.next_birth_id == 0:
            self.next_birth_id = int(self.birth_ids.max(initial=-1)) + 1

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    def copy(self) -> "Ensemble":
        return Ensemble(
            thetas=self.thetas.copy(),
            weights=self.weights.copy(),
            birth_ids=self.birth_ids.copy(),
            next_birth_id=self.next_birth_id,
        )

    def check_rows(self) -> None:
        """Weights and birth ids hold one entry per row, else a configuration
        error, also when either was reassigned after construction."""
        if self.weights.shape != (self.n,) or self.birth_ids.shape != (self.n,):
            raise ConfigurationError(f"weights {self.weights.shape} and birth ids {self.birth_ids.shape} "
                                     f"must hold one entry per row, shape ({self.n},)")

    def validate(self):
        if self.n < 1:
            raise ExtinctionError("population must contain at least one particle")
        self.check_rows()
        if not np.isfinite(self.thetas).all():
            bad = int(np.flatnonzero(~np.isfinite(self.thetas).all(axis=1))[0])
            raise NumericError(f"non-finite parameters at particle {bad}")
        total = float(np.add.reduce(self.weights))  # finite unless an entry is not, or the sum overflows
        if not (math.isfinite(total) or np.isfinite(self.weights).all()):
            bad = int(np.flatnonzero(~np.isfinite(self.weights))[0])
            raise NumericError(f"non-finite weight at particle {bad}")
        if np.minimum.reduce(self.weights) < 0:
            raise ConfigurationError("weights must be nonnegative")
        mean_w = total / self.weights.size  # np.mean's sum and division
        if abs(mean_w - 1.0) > WEIGHT_MEAN_RTOL * max(1.0, abs(mean_w)):
            raise ConfigurationError(f"mean weight must be 1, got {mean_w!r}")

    def regroup(self, src: np.ndarray, copies: np.ndarray, fresh: np.ndarray | None = None) -> None:
        """Rebuild the population from the old rows.  New row i copies old row
        `src[i]` with its weight or, where `src[i] < 0`, takes the next row of
        `fresh` with weight 1.  Rows flagged in the boolean `copies`, and fresh
        rows, get new birth ids in row order; every other row keeps its
        source's id.  Only `potentials.regroup_field` calls this."""
        self.thetas, self.weights, self.birth_ids = self.thetas[src], self.weights[src], self.birth_ids[src]
        born = copies
        if fresh is not None:
            new = src < 0
            born = copies | new
            self.thetas[new] = fresh
            self.weights[new] = 1.0
        n_born = int(np.count_nonzero(born))
        self.birth_ids[born] = np.arange(self.next_birth_id, self.next_birth_id + n_born)
        self.next_birth_id += n_born


def init_from_sampler(sampler, n: int, k: int, seed: int) -> Ensemble:
    """Draw n i.i.d. rows of length k (the model's `theta_dim`) from `sampler`."""
    n = require_int(n, "population size n", 1)
    k = require_int(k, "row length k", 1)
    seed = require_int(seed, "seed", 0)
    if sampler.dim != k:
        raise ConfigurationError(f"sampler dimension {sampler.dim} does not match the row length {k}")
    rng = np.random.default_rng(seed)
    ens = Ensemble(thetas=sampler.sample(rng, n), weights=np.ones(n), birth_ids=np.arange(n, dtype=np.int64))
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


def write_snapshot_csv(ens: Ensemble, path, model) -> None:
    """Dump the population as CSV: id,birth_id,weight,amplitude,theta_0,...

    Reals carry 17 significant digits so float64 values round-trip exactly.
    The amplitude is row column 0 when `model.has_amplitude`; without that
    channel its column is left empty.  The file is replaced atomically.
    """
    if ens.thetas.shape[1] != model.theta_dim:
        raise ConfigurationError(f"row length {ens.thetas.shape[1]} is not the model's {model.theta_dim}")
    amps, pos = (ens.thetas[:, 0], ens.thetas[:, 1:]) if model.has_amplitude else (None, ens.thetas)
    header = SNAPSHOT_HEADER + [f"theta_{j}" for j in range(pos.shape[1])]
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(ens.n):
            row = [
                i,
                int(ens.birth_ids[i]),
                format(ens.weights[i], ".17g"),
                format(amps[i], ".17g") if amps is not None else "",
            ]
            row.extend(format(x, ".17g") for x in pos[i])
            w.writerow(row)
