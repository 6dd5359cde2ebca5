"""Independent reference computations the benchmark checks wigscale against.

Nothing here imports wigscale: every expected value is a closed form or is
recomputed with plain numpy from the definitions (hbar = m = omega = 1,
covariances in (q_1..q_N, p_1..p_N) ordering).
"""

from __future__ import annotations

import numpy as np


def fock_overlap(n: int, lam: float) -> float:
    """Tr(rho_0 rho_n') for the Fock state n scaled by lam: 2 lam^2 (lam^2-1)^n / (1+lam^2)^(n+1)."""
    return 2.0 * lam**2 * (lam**2 - 1.0) ** n / (1.0 + lam**2) ** (n + 1)


def scaled_fock_variance(n: int, lam: float) -> float:
    """sigma_qq = sigma_pp of lam^2 W_n(lam q, lam p): (n + 1/2) / lam^2."""
    return (n + 0.5) / lam**2


def scaled_ground(lam: float, axis: np.ndarray) -> np.ndarray:
    """lam^2 W_0(lam q, lam p) = 2 lam^2 exp(-lam^2 (q^2 + p^2)) on the grid of `axis`."""
    r2 = axis[:, None] ** 2 + axis[None, :] ** 2
    return 2.0 * lam**2 * np.exp(-(lam**2) * r2)


def interpolation_bound(lam: float, step: float) -> float:
    """Bound on the bilinear-interpolation error of lam^2 W_0(lam q, lam p).

    |f - I f| <= h^2/8 (max|f_qq| + max|f_pp|), and max|d^2 W_0 / dq^2| = 4, so
    resampling the unscaled ground state at lam * x is off by at most lam^2 h^2.
    """
    return lam**2 * step**2


def hermite_basis(dim: int, x: np.ndarray) -> np.ndarray:
    """Rows psi_0(x) .. psi_{dim-1}(x), L2-normalised oscillator eigenfunctions."""
    out = np.empty((dim, x.size))
    out[0] = np.pi**-0.25 * np.exp(-x * x / 2.0)
    if dim > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(2, dim):
        out[k] = np.sqrt(2.0 / k) * x * out[k - 1] - np.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def scaled_fock1_projection(lam: float, axis: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """Eigenvalues and trace of the scaled first excited state in the number basis.

    The state with Wigner function lam^2 W_1(lam q, lam p) has the kernel
    rho(x, x') = lam psi_1(lam m + d / 2 lam) psi_1(lam m - d / 2 lam), with m
    the midpoint and d the difference of x and x'. It is projected onto
    psi_0 .. psi_{dim-1} by the midpoint rule on `axis`. The kernel is built
    64 rows at a time, so this check's memory stays far below that of the
    transforms it checks and the process's peak remains the program's.
    """
    h = axis[1] - axis[0]
    psi1 = np.pi**-0.25 * np.sqrt(2.0)
    basis = hermite_basis(dim, axis)
    half_projected = np.zeros((dim, axis.size))  # basis @ kernel
    for start in range(0, axis.size, 64):
        rows = slice(start, start + 64)
        x = axis[rows, None]
        m = 0.5 * (x + axis[None, :])
        d = x - axis[None, :]
        a = lam * m + d / (2.0 * lam)
        b = lam * m - d / (2.0 * lam)
        kernel_rows = lam * psi1**2 * a * b * np.exp(-(a * a + b * b) / 2.0)
        half_projected += basis[:, rows] @ kernel_rows
    entries = h * h * (half_projected @ basis.T)
    entries = 0.5 * (entries + entries.T)
    return np.linalg.eigvalsh(entries), float(np.trace(entries))


def symplectic_form(modes: int) -> np.ndarray:
    eye = np.eye(modes)
    zero = np.zeros((modes, modes))
    return np.block([[zero, eye], [-eye, zero]])


def partial_transpose_min_eigenvalue(sigma: np.ndarray, partition) -> float:
    """Minimum eigenvalue of D sigma D + iJ/2, D flipping the momenta of `partition`.

    This is Simon's partial-transpose test: a negative value certifies that
    the Gaussian state is entangled across the partition (1-based modes).
    """
    modes = sigma.shape[0] // 2
    flip = np.ones(2 * modes)
    for mode in partition:
        flip[modes + mode - 1] = -1.0
    matrix = flip[:, None] * sigma * flip[None, :] + 0.5j * symplectic_form(modes)
    return float(np.linalg.eigvalsh(matrix)[0])


def tmsv_matrix(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum covariance: cosh(2r)/2 diagonal, +-sinh(2r)/2 correlations."""
    c = 0.5 * np.cosh(2.0 * r)
    s = 0.5 * np.sinh(2.0 * r)
    return np.array([[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]], dtype=float)


def random_symplectic(rng: np.random.Generator, modes: int, max_squeeze: float) -> np.ndarray:
    """Passive x squeeze x passive symplectic matrix in q-block-p-block ordering."""

    def passive():
        z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    r = rng.uniform(0.0, max_squeeze, size=modes)
    squeeze = np.diag(np.concatenate([np.exp(-r), np.exp(r)]))
    return passive() @ squeeze @ passive()


def random_gaussian_state(rng: np.random.Generator, modes: int, max_squeeze: float) -> np.ndarray:
    """S diag(nu, nu) S^T with symplectic eigenvalues nu in [0.6, 1.2], so it is a valid state."""
    nu = rng.uniform(0.6, 1.2, size=modes)
    s = random_symplectic(rng, modes, max_squeeze)
    sigma = s @ np.diag(np.concatenate([nu, nu])) @ s.T
    return 0.5 * (sigma + sigma.T)


def product_state(rng: np.random.Generator, modes: int, partition, max_squeeze: float) -> np.ndarray:
    """A state that is a product across `partition` and the remaining modes, so separable."""
    sigma = np.zeros((2 * modes, 2 * modes))
    inside = sorted(partition)
    outside = [m for m in range(1, modes + 1) if m not in partition]
    for block in (inside, outside):
        idx = [m - 1 for m in block] + [modes + m - 1 for m in block]
        sigma[np.ix_(idx, idx)] = random_gaussian_state(rng, len(block), max_squeeze)
    return sigma
