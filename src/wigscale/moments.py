"""Second moments of phase-space distributions and uncertainty-matrix tests.

The central object is the Hermitian matrix of symmetrized second moments
plus (i/2) times the canonical commutators. Positivity of that matrix is the
multimode uncertainty relation; for one mode it reduces to
sigma_qq * sigma_pp - sigma_qp^2 >= 1/4 (hbar = 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._validated import check_tolerance, frozen, store_validated, whole_number

if TYPE_CHECKING:
    from .gaussian_cv import CovarianceMatrix
    from .phase_space import GridWigner

__all__ = [
    "SecondMoments",
    "HermitianMatrix",
    "moments_from_grid",
    "sr_value",
    "symplectic_form",
    "multimode_uncertainty_matrix",
    "det_bound",
    "is_psd",
]

#: relative positivity tolerance; saturated states sit exactly on the boundary
PSD_TOL = 1e-10


@dataclass(frozen=True)
class SecondMoments:
    """First and central second moments of a single mode."""

    mean_q: float
    mean_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_qp: float


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Dense Hermitian matrix with construction-time validation."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", whole_number(self.dim, "dim", 1))
        store_validated(self, "entries", (self.dim, self.dim), complex, "matrix", hermitian=True)

    def trace(self) -> float:
        """Sum of the diagonal, which is real for a Hermitian matrix."""
        return float(np.trace(self.entries).real)


def moments_from_grid(w: GridWigner) -> SecondMoments:
    """Quadrature averages of q, p and their central second moments.

    Args:
        w: normalized Wigner grid (norm within NORM_TOL of 1).

    Raises:
        ValueError: for unnormalized input.
    """
    w.require_normalized()
    x = w.spec.axis()
    weight = w.spec.quadrature_weight
    # rows index q and columns p: the means and variances are moments of the two marginals,
    # and the cross moment is the q moment of the row sums of W p
    marginal_q, marginal_p = w.values.sum(axis=1), w.values.sum(axis=0)
    mean_q, mean_p = _odd_moment(marginal_q, x, weight), _odd_moment(marginal_p, x, weight)
    sigma_qq = float(marginal_q @ (x * x) * weight) - mean_q**2
    sigma_pp = float(marginal_p @ (x * x) * weight) - mean_p**2
    sigma_qp = _odd_moment(w.values @ x, x, weight) - mean_q * mean_p
    return SecondMoments(mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp)


def _odd_moment(values: np.ndarray, x: np.ndarray, weight: float) -> float:
    """sum_i values_i x_i times weight, the cells at x and -x paired first.

    The axis is exactly antisymmetric (x[n - 1 - i] == -x[i]), so the moment of
    an even `values` is exactly 0, as the first moments of a symmetric state are.
    """
    half = len(x) // 2
    return float((values[half:] - values[half - 1::-1]) @ x[half:] * weight)


def sr_value(m: SecondMoments) -> float:
    """Determinant form s_qq * s_pp - s_qp^2; at least 1/4 for quantum states."""
    return m.sigma_qq * m.sigma_pp - m.sigma_qp**2


def symplectic_form(modes: int) -> np.ndarray:
    """Matrix J with [Q_a, Q_b] = i J_ab in (q_1..q_N, p_1..p_N) ordering, for N = modes >= 1."""
    modes = whole_number(modes, "modes", 1)
    eye = np.eye(modes)
    form = np.zeros((2 * modes, 2 * modes))
    form[:modes, modes:] = eye
    form[modes:, :modes] = -eye
    return form


def multimode_uncertainty_matrix(cov: CovarianceMatrix) -> HermitianMatrix:
    """Sigma + (i/2) J for an N-mode covariance matrix.

    Positivity of the result is the multimode uncertainty relation; its
    failure certifies that no quantum state has these second moments.
    """
    return HermitianMatrix(2 * cov.modes, frozen(cov.matrix + _half_i_form(cov.modes)))


@functools.lru_cache(maxsize=8)
def _half_i_form(modes: int) -> np.ndarray:
    """(i/2) J, built once per mode count and read-only, since every caller shares it."""
    form = 0.5j * symplectic_form(modes)
    form.setflags(write=False)
    return form


def det_bound(cov: CovarianceMatrix) -> tuple[float, float]:
    """(det Sigma, 1/4^N): the first must reach the second for valid states.

    This is the weaker, determinant-only consequence of the multimode
    uncertainty relation (the last leading minor of Sigma + iJ/2 reduces
    to it for Sigma alone).
    """
    return float(np.linalg.det(cov.matrix)), 0.25**cov.modes


def is_psd(h: HermitianMatrix, tol: float = PSD_TOL) -> tuple[bool, np.ndarray]:
    """Decide positive semidefiniteness by one symmetric eigendecomposition.

    Args:
        h: matrix under test.
        tol: finite, nonnegative relative tolerance; the verdict is
            eigenvalues[0] >= -tol * max(1, sup norm).

    Returns:
        (verdict, eigenvalues), ascending as np.linalg.eigvalsh returns them.

    Raises:
        ValueError: for a tolerance that is NaN, infinite or negative.
    """
    check_tolerance(tol)
    eigenvalues = np.linalg.eigvalsh(h.entries)
    scale = max(1.0, float(np.abs(h.entries).max()))
    return float(eigenvalues[0]) >= -tol * scale, eigenvalues
