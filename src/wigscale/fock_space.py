"""Operators in a truncated harmonic-oscillator number basis.

Projects position-representation density matrices into the Fock basis,
computes spectra (the place where nonpositivity of a trace-one Hermitian
operator becomes visible) and evaluates trace-pairing moment matrices
Tr(rho A_ij) for operator families A_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validated import HERMITICITY_TOL, hermiticity_residual, whole_number
from .moments import HermitianMatrix
from .phase_space import PositionDensity

__all__ = [
    "Spectrum",
    "ladder_operators",
    "quadrature_pair_operators",
    "project_state",
    "spectrum",
    "moment_matrix",
]

#: highest oscillator index that project_state evaluates
HERMITE_INDEX_LIMIT = 200

#: default Fock-space truncation used by the CLI
DEFAULT_DIM = 32


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a Fock-basis operator, sorted ascending."""

    eigenvalues: np.ndarray
    min_eigenvalue: float
    trace: float
    truncation_deficit: float


def _hermite_basis(dim: int, x: np.ndarray) -> np.ndarray:
    """Rows psi_0(x) .. psi_{dim-1}(x) of a 1-D `x`: the L2-normalized oscillator eigenfunctions.

    The normalized three-term recurrence keeps every value bounded (no factorial overflow).
    """
    out = np.empty((dim, x.size))
    out[0] = np.pi**-0.25 * np.exp(-x * x / 2.0)
    if dim > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(2, dim):
        out[k] = np.sqrt(2.0 / k) * x * out[k - 1] - np.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def ladder_operators(dim: int) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Position and momentum matrices q = (a + a^dag)/sqrt2, p = (a - a^dag)/(i sqrt2).

    Truncation makes the canonical commutator [q, p] = i exact only on the
    top-left (dim - 1) block.
    """
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # annihilation operator
    q = (lower + lower.T) / np.sqrt(2.0)
    p = (lower - lower.T) / (1j * np.sqrt(2.0))
    return HermitianMatrix(dim, q), HermitianMatrix(dim, p)


def quadrature_pair_operators(dim: int) -> list[list[np.ndarray]]:
    """Operator family A_ij = Q_i Q_j for (Q_1, Q_2) = (q, p).

    Trace-pairing a state against this family reproduces the 2x2
    uncertainty matrix: Q_i Q_j is the half-anticommutator plus the
    half-commutator. The off-diagonal products are not Hermitian, so the
    family is returned as plain matrices.
    """
    q, p = ladder_operators(dim)
    ops = [q.entries, p.entries]
    return [[ops[i] @ ops[j] for j in range(2)] for i in range(2)]


def project_state(rho: PositionDensity, dim: int) -> HermitianMatrix:
    """Number-basis matrix elements <m|rho|n> by double quadrature.

    Args:
        rho: position-representation density matrix on a grid.
        dim: truncation; the highest retained level must be resolvable on
            the grid (sampling guard) and its classical turning point must
            lie inside the extent (coverage guard).

    Raises:
        ValueError: if `dim` is too large for the grid.
    """
    dim = whole_number(dim, "dim", 1)
    if dim - 1 > HERMITE_INDEX_LIMIT:
        raise ValueError(f"dim {dim} exceeds supported limit {HERMITE_INDEX_LIMIT + 1}")
    # local wavevector of psi_{dim-1} peaks at sqrt(2 dim - 1)
    k_max = np.sqrt(2.0 * dim - 1.0)
    h = rho.spec.step
    if h > 2.0 / k_max:
        max_dim = int((2.0 / h) ** 2 + 1) // 2
        raise ValueError(
            f"grid too coarse for dim {dim}: step {h:.4g} > {2.0 / k_max:.4g}; "
            f"this grid resolves dim <= {max_dim}"
        )
    if rho.spec.extent < k_max:
        max_dim = int(rho.spec.extent**2 + 1) // 2
        raise ValueError(
            f"grid extent {rho.spec.extent:g} does not cover the turning point "
            f"{k_max:.4g} of level {dim - 1}; extent supports dim <= {max_dim}"
        )
    basis = _hermite_basis(dim, rho.spec.axis())
    return HermitianMatrix(dim, h * h * (basis @ rho.values @ basis.T))


def spectrum(rho: HermitianMatrix) -> Spectrum:
    """Full eigenvalue list of a Hermitian Fock-basis operator.

    min_eigenvalue is data: a clearly negative value means the operator is
    not a density operator, whatever its trace or moments. No threshold is
    applied here. For a projected state, truncation_deficit = |1 - trace| is
    the probability weight lost to the discarded levels.
    """
    eigenvalues = np.linalg.eigvalsh(rho.entries)
    trace = rho.trace()
    return Spectrum(
        eigenvalues=eigenvalues,
        min_eigenvalue=float(eigenvalues[0]),
        trace=trace,
        truncation_deficit=abs(1.0 - trace),
    )


def moment_matrix(rho: HermitianMatrix, ops: np.typing.ArrayLike) -> HermitianMatrix:
    """Numeric matrix of trace pairings M[i, j] = Tr(rho * A_ij).

    Args:
        rho: Hermitian operator (a state projection or any trace-class
            matrix) of dimension d.
        ops: the family A_ij as one array-like of shape (k, k, d, d), such as
            the nested list of :func:`quadrature_pair_operators`; it must
            satisfy A_ji = A_ij^dag so that M is Hermitian.

    Raises:
        ValueError: on a family of any other shape, or one whose pairing
            matrix is not Hermitian.
    """
    family = np.asarray(ops)
    size = family.shape[0] if family.ndim else 0
    if family.shape != (size, size, rho.dim, rho.dim):
        raise ValueError(f"operator family must have shape (k, k, {rho.dim}, {rho.dim}), got {family.shape}")
    entries = np.einsum("ji,abij->ab", rho.entries, family)
    if hermiticity_residual(entries) > HERMITICITY_TOL:
        raise ValueError(
            "trace pairings are not Hermitian; the operator family must satisfy "
            "A_ji = conj(transpose(A_ij))"
        )
    return HermitianMatrix(size, entries)
