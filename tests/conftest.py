"""Shared helpers: cached state pipelines and random covariance generators."""

from __future__ import annotations

import functools

import numpy as np

from wigscale import fock_space, gaussian_cv, moments, phase_space


@functools.lru_cache(maxsize=None)
def fock_grid(n=0, lam=1.0, kappa=1.0, extent=None, points=512):
    """Sampled (and cached) analytic Fock-state grid."""
    state = phase_space.AnalyticWigner(n, lam, kappa)
    if extent is None:
        spec = phase_space.default_grid(state, points)
    else:
        spec = phase_space.GridSpec(extent, points)
    return phase_space.sample_to_grid(state, spec)


@functools.lru_cache(maxsize=None)
def fock_density(n=0, lam=1.0, kappa=1.0, extent=None, points=512):
    return phase_space.wigner_to_density(fock_grid(n, lam, kappa, extent, points))


@functools.lru_cache(maxsize=None)
def fock_projection(n=0, lam=1.0, dim=fock_space.DEFAULT_DIM, extent=None, points=512):
    return fock_space.project_state(fock_density(n, lam, 1.0, extent, points), dim)


def one_mode_uncertainty_matrix(m: moments.SecondMoments) -> moments.HermitianMatrix:
    """Sigma + iJ/2 of the one-mode covariance [[s_qq, s_qp], [s_qp, s_pp]] of `m`."""
    cov = gaussian_cv.CovarianceMatrix(1, [[m.sigma_qq, m.sigma_qp], [m.sigma_qp, m.sigma_pp]])
    return moments.multimode_uncertainty_matrix(cov)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_single_mode_sigma(rng: np.random.Generator) -> np.ndarray:
    """Random valid single-mode covariance: nu * S S^T with nu >= 1/2."""
    nu = 0.5 + rng.uniform(0.0, 1.5)
    r = rng.uniform(0.0, 1.0)
    sympl = rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([np.exp(r), np.exp(-r)])
    sympl = sympl @ rotation(rng.uniform(0, 2 * np.pi))
    return nu * (sympl @ sympl.T)


def product_sigma(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-mode product covariance in (q1, q2, p1, p2) block ordering."""
    out = np.zeros((4, 4))
    for (block, mode) in ((a, 0), (b, 1)):
        out[mode, mode] = block[0, 0]
        out[2 + mode, 2 + mode] = block[1, 1]
        out[mode, 2 + mode] = out[2 + mode, mode] = block[0, 1]
    return out
