import os

# one BLAS thread unless the caller chose otherwise, set before numpy loads:
# OpenBLAS sums float64 dot products longer than 10,000 entries differently
# under 1 and 2 threads, and the grid's V̄ over more than 10,000 cells is one
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

import bdflow as bf


@pytest.fixture
def quad_1d():
    return bf.QuadraticWellModel(minimizer=[0.0], hessian=1.0)


@pytest.fixture
def mixture_1c():
    """One-component target, the hand-checkable configuration."""
    return bf.GaussianMixtureModel(
        target_c=[1.0], target_y=[[0.0]], target_sigma=[1.0], sigma=0.5
    )


@pytest.fixture
def mixture_3c():
    """Three-component target used by the comparison experiments."""
    return bf.GaussianMixtureModel(
        target_c=[1.0, -0.5, 1.0],
        target_y=[[-2.0], [0.0], [2.0]],
        target_sigma=[0.6, 0.6, 0.6],
        sigma=0.4,
    )


@pytest.fixture
def mixture_frozen():
    """Frozen-amplitude two-component target (1D state, interacting)."""
    return bf.GaussianMixtureModel(
        target_c=[1.0, 1.0],
        target_y=[[-1.5], [1.5]],
        target_sigma=[0.8, 0.8],
        sigma=0.5,
        amplitude_mode="frozen",
        frozen_c=1.0,
    )


def make_ensemble(thetas, weights=None):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return bf.Ensemble(thetas=thetas, weights=w, birth_ids=np.arange(n, dtype=np.int64))


def at(theta):
    """One parameter row as a (1, D) array, the shape the model methods take."""
    return np.atleast_2d(np.asarray(theta, dtype=float))


def numerical_grad_F(model, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (model.single(at(up))[0] - model.single(at(dn))[0])[0] / (2 * h)
    return out


def numerical_grad_K1(model, a, b, h=1e-6):
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    for i in range(a.size):
        up, dn = a.copy(), a.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (model.K_block(at(up), at(b)) - model.K_block(at(dn), at(b)))[0, 0] / (2 * h)
    return out
