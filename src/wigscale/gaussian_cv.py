"""Covariance-matrix formalism for N-mode Gaussian states.

Covariances are stored as real symmetric 2N x 2N matrices in
(q_1..q_N, p_1..p_N) ordering, zero means assumed (nonzero means can be
removed by local displacements, which do not affect entanglement).
The separability test applies the momentum scaling of a mode subset to the
second moments and checks whether the uncertainty matrix stays positive:
any violation at |lambda| <= 1 witnesses entanglement, while silence is
inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import moments
from ._validated import store_validated, whole_number

__all__ = [
    "CovarianceMatrix",
    "SeparabilityReport",
    "ScaleOverflowError",
    "vacuum",
    "two_mode_squeezed",
    "squeeze_symplectic",
    "partial_scale",
    "is_valid_state",
    "separability_scan",
    "default_lambda_grid",
    "interleaved_to_block",
]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Real symmetric second-moment matrix of an N-mode state.

    Symmetry is enforced at construction; whether the matrix describes a
    bona fide quantum state (Sigma + iJ/2 >= 0) is checked on demand by
    :func:`is_valid_state`.
    """

    modes: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", whole_number(self.modes, "modes", 1))
        size = 2 * self.modes
        store_validated(self, "matrix", (size, size), float, "covariance matrix", hermitian=True)


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of a partial-scaling scan over a lambda grid.

    `violations` lists the lambda values inside the guaranteed region
    |lambda| <= 1 whose scaled uncertainty matrix fails is_psd; only those
    drive the verdict. Grid points with |lambda| > 1 are permitted but the
    criterion proves nothing there (even the vacuum goes negative), so they
    are reported separately in `outside_criterion`.
    """

    lam_grid: list[float]
    min_eigenvalues: list[float]
    violations: list[float]
    verdict: str
    outside_criterion: list[float]
    tol: float

    def __post_init__(self):
        if len(self.lam_grid) != len(self.min_eigenvalues):
            raise ValueError("lam_grid and min_eigenvalues must have equal length")
        expected = "entanglement_detected" if self.violations else "no_violation"
        if self.verdict != expected:
            raise ValueError(f"verdict {self.verdict!r} inconsistent with violations")


class ScaleOverflowError(ValueError, ArithmeticError):
    """A scaling parameter so close to 0 that the scaled covariance matrix overflows.

    A ValueError, since the input is at fault, and an ArithmeticError, like
    numpy's own overflow errors.
    """


def vacuum(modes: int) -> CovarianceMatrix:
    """N-mode vacuum: Sigma = I/2, saturating the uncertainty relation."""
    modes = whole_number(modes, "modes", 1)
    return CovarianceMatrix(modes, 0.5 * np.eye(2 * modes))


def two_mode_squeezed(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with squeezing strength r; entangled for r != 0.

    Diagonal entries cosh(2r)/2, cross-mode correlations +sinh(2r)/2 in
    position and -sinh(2r)/2 in momentum.
    """
    if not abs(r) < 355.0:  # cosh(2r) and sinh(2r) overflow a float from |r| ~ 355.2 on
        raise ValueError(f"squeezing strength must be finite with |r| < 355, got {r}")
    c = 0.5 * np.cosh(2.0 * r)
    s = 0.5 * np.sinh(2.0 * r)
    sigma = np.array(
        [
            [c, s, 0.0, 0.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, c, -s],
            [0.0, 0.0, -s, c],
        ]
    )
    return CovarianceMatrix(2, sigma)


def _check_mode(cov: CovarianceMatrix, mode: int) -> int:
    if not (1 <= mode <= cov.modes and float(mode).is_integer()):
        raise ValueError(f"mode must be in 1..{cov.modes}, got {mode}")
    return int(mode) - 1


def _diagonal_congruence(cov: CovarianceMatrix, mode: int, dq: float, dp: float) -> CovarianceMatrix:
    """D Sigma D, with D the identity except dq and dp on the q and p of `mode` (1-based).

    The map W(x) -> |det A| W(A x) takes Sigma to A^-1 Sigma A^-T; for a diagonal A
    acting on one mode that is this congruence with D = A^-1.
    """
    idx = _check_mode(cov, mode)
    q, p = idx, cov.modes + idx
    diag = np.ones(2 * cov.modes)
    diag[q] = dq
    diag[p] = dp
    scaled = diag[:, None] * cov.matrix * diag[None, :]
    # (d_i S_ij) d_j and (d_j S_ji) d_i round apart only where both factors differ from 1,
    # off the diagonal that is the mode's q-p pair alone: mirror it, so D S D is exactly symmetric
    scaled[p, q] = scaled[q, p]
    return CovarianceMatrix(cov.modes, scaled)


def squeeze_symplectic(cov: CovarianceMatrix, mode: int, kappa: float) -> CovarianceMatrix:
    """Single-mode squeeze as a symplectic congruence Sigma -> S Sigma S^T.

    S scales q of `mode` (1-based) by 1/kappa and p by kappa, matching the
    second moments of W(kappa*q, p/kappa). Symplectic congruences preserve
    state validity for every kappa > 0.
    """
    if not kappa > 0:
        raise ValueError(f"squeeze parameter must be positive, got {kappa}")
    return _diagonal_congruence(cov, mode, 1.0 / kappa, kappa)


def partial_scale(cov: CovarianceMatrix, mode: int, lam: float) -> CovarianceMatrix:
    """Second moments after momentum-only scaling |lam| W(q, lam*p) of one mode.

    Every entry with exactly one p_mode factor picks up 1/lam and the
    (p_mode, p_mode) entry picks up 1/lam^2; nothing else changes. At
    lam = -1 this is exactly the partial transpose (one momentum mirrored).
    """
    if lam == 0:
        raise ValueError("scaling parameter must be nonzero")
    return _diagonal_congruence(cov, mode, 1.0, 1.0 / lam)


def is_valid_state(cov: CovarianceMatrix) -> tuple[bool, float]:
    """Whether Sigma + iJ/2 >= 0, plus its minimum eigenvalue."""
    return moments.is_psd(moments.multimode_uncertainty_matrix(cov))


def default_lambda_grid() -> np.ndarray:
    """41 evenly spaced points on [-1, 1] with the singular 0 dropped."""
    grid = np.linspace(-1.0, 1.0, 41)
    return grid[grid != 0.0]


def separability_scan(
    cov: CovarianceMatrix,
    mode_partition: set[int] | frozenset[int],
    lam_grid,
    tol: float = moments.PSD_TOL,
) -> SeparabilityReport:
    """Scan the partial-scaling separability criterion over a lambda grid.

    For each lambda, applies :func:`partial_scale` with that lambda to every
    mode in `mode_partition`; once every point is scaled (and the input state
    checked), records the minimum eigenvalue of each scaled uncertainty
    matrix. Separable states keep it nonnegative for all 0 < |lambda| <= 1, so
    any violation there certifies entanglement; no violation is inconclusive.

    Args:
        cov: covariance of a valid state (invalid input is an error, not
            "entangled").
        mode_partition: nonempty set of 1-based mode indices to scale.
        lam_grid: iterable of finite, nonzero scaling parameters.
        tol: relative tolerance of the :func:`moments.is_psd` test at each point.

    Raises:
        ValueError: invalid input state, empty grid, zero or non-finite
            lambda, mode indices outside 1..N or not whole, or a negative
            tolerance.
        ScaleOverflowError: naming the first lambda in grid order whose
            scaled covariance overflows; no eigenvalue is computed before it.
    """
    if not tol >= 0.0:  # a negative tolerance would flag every state, the vacuum included
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    lam_values = [float(lam) for lam in lam_grid]
    if not lam_values:
        raise ValueError("lambda grid must not be empty")
    if any(lam == 0.0 for lam in lam_values):
        raise ValueError("scaling parameters must be nonzero")
    for lam in lam_values:
        if not math.isfinite(lam):
            raise ValueError(f"scaling parameters must be finite, got {lam}")
    modes = sorted(set(mode_partition))
    if not modes:
        raise ValueError("mode partition must not be empty")
    for mode in modes:
        _check_mode(cov, mode)
    points = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in lam_values:
            scaled = cov
            try:
                for mode in modes:
                    scaled = partial_scale(scaled, mode, lam)
            except ValueError:  # lambda and the modes are checked above: only a non-finite entry is refused here
                raise ScaleOverflowError(f"scaling parameter {lam} overflows the scaled covariance matrix") from None
            points.append(scaled)
    ok, min_eig = is_valid_state(cov)
    if not ok:
        raise ValueError(
            f"input covariance is not a valid state (min eigenvalue {min_eig:.3e}); "
            "the criterion only applies to states"
        )

    min_eigenvalues = []
    violations = []
    outside = []
    for lam, scaled in zip(lam_values, points):
        ok, low = moments.is_psd(moments.multimode_uncertainty_matrix(scaled), tol)
        min_eigenvalues.append(low)
        if abs(lam) > 1.0:
            outside.append(lam)
        elif not ok:
            violations.append(lam)
    verdict = "entanglement_detected" if violations else "no_violation"
    return SeparabilityReport(
        lam_grid=lam_values,
        min_eigenvalues=min_eigenvalues,
        violations=violations,
        verdict=verdict,
        outside_criterion=outside,
        tol=tol,
    )


def interleaved_to_block(matrix: np.ndarray) -> np.ndarray:
    """Reorder a (q1, p1, q2, p2, ...) matrix into (q1..qN, p1..pN) blocks."""
    matrix = np.asarray(matrix)
    size = matrix.shape[0]
    if matrix.shape != (size, size) or size % 2:
        raise ValueError(f"expected an even-sized square matrix, got {matrix.shape}")
    idx = np.concatenate([np.arange(0, size, 2), np.arange(1, size, 2)])
    return matrix[np.ix_(idx, idx)]
