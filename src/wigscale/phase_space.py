"""Single-mode Wigner functions on phase space and the maps acting on them.

Conventions used throughout: hbar = m = omega = 1, and Wigner functions are
normalized so that the phase-space integral of W(q, p) dq dp / (2 pi) is 1.
Grids are uniform cell-center samplings of the square [-extent, extent]^2,
integrated with the midpoint rule (spectrally accurate for the
Gaussian-decaying integrands handled here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._validated import NORM_TOL, store_validated

__all__ = [
    "GridSpec",
    "AnalyticWigner",
    "GridWigner",
    "PositionDensity",
    "default_grid",
    "eval_fock_wigner",
    "sample_to_grid",
    "apply_scaling",
    "apply_partial_scaling",
    "overlap",
    "wigner_to_density",
    "density_to_wigner",
]

#: default number of samples per axis for generated grids
DEFAULT_POINTS = 512

#: largest grid accepted; wigner_to_density, the larger transform, needs ~1.0 GB here
MAX_POINTS = 4096

#: peak bytes per grid point of wigner_to_density: its buffers grow as n^2, and its
#: tracemalloc peak at 1024 points is 60 MiB, i.e. 60 bytes for each of the 1024^2 points
_TRANSFORM_BYTES_PER_POINT = 60

#: sampling rejects extents below this multiple of max(1, 1/|scale|)
_MIN_EXTENT_FACTOR = 4.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform square phase-space grid covering q, p in [-extent, extent].

    Sample points sit at cell centers, so the midpoint rule is just a scaled
    sum over the grid values.
    """

    extent: float
    points_per_axis: int = DEFAULT_POINTS

    def __post_init__(self):
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")
        if self.points_per_axis < 16 or self.points_per_axis % 2:
            raise ValueError(
                f"points_per_axis must be even and >= 16, got {self.points_per_axis}"
            )
        if (n := self.points_per_axis) > MAX_POINTS:
            raise ValueError(f"points_per_axis {n} exceeds the limit {MAX_POINTS}: the Wigner-to-density "
                             f"transform alone would need {1e-9 * _TRANSFORM_BYTES_PER_POINT * n * n:.3g} GB")

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.points_per_axis

    def axis(self) -> np.ndarray:
        """Cell-center coordinates shared by the q and p axes."""
        h = self.step
        return -self.extent + (np.arange(self.points_per_axis) + 0.5) * h

    @property
    def quadrature_weight(self) -> float:
        """Weight of one cell in the integral dq dp / (2 pi)."""
        return self.step**2 / (2.0 * np.pi)


@dataclass(frozen=True)
class AnalyticWigner:
    """Closed-form Wigner function of a Fock state, optionally scaled/squeezed.

    Evaluates scale^2 * W_n(scale*squeeze*q, scale*p/squeeze): the state is
    first squeezed (a unitary, state-preserving map) and then scaled (a
    trace-preserving but nonpositive map unless |scale| = 1).
    """

    fock_index: int
    scale: float = 1.0
    squeeze: float = 1.0

    def __post_init__(self):
        if self.fock_index < 0 or int(self.fock_index) != self.fock_index:
            raise ValueError(f"fock_index must be a nonnegative integer, got {self.fock_index}")
        if self.scale == 0:
            raise ValueError("scale must be nonzero")
        if not self.squeeze > 0:
            raise ValueError(f"squeeze must be positive, got {self.squeeze}")


@dataclass(frozen=True, eq=False)
class GridWigner:
    """Real Wigner-function samples on a :class:`GridSpec`."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.spec.points_per_axis
        store_validated(self, "values", (n, n), float, "Wigner grid")

    def norm(self) -> float:
        """Quadrature value of the normalization integral."""
        return float(self.values.sum() * self.spec.quadrature_weight)

    def require_normalized(self) -> None:
        """Raise ValueError unless the quadrature norm is within NORM_TOL of 1."""
        norm = self.norm()
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"input grid is not normalized: quadrature norm {norm:.6f}")


@dataclass(frozen=True, eq=False)
class PositionDensity:
    """Density matrix rho(x, x') sampled on the q axis of a :class:`GridSpec`."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.spec.points_per_axis
        store_validated(self, "values", (n, n), complex, "density matrix", hermitian=True)

    def trace(self) -> float:
        """Quadrature trace, the integral of rho(x, x) dx."""
        return float(np.trace(self.values).real * self.spec.step)


def default_grid(state: AnalyticWigner, points_per_axis: int = DEFAULT_POINTS) -> GridSpec:
    """Grid sized for `state`.

    Scaling by |scale| < 1 spreads the state as 1/|scale|, and the squeeze
    stretches one axis by max(squeeze, 1/squeeze).
    """
    return GridSpec(8.0 * max(1.0, 1.0 / abs(state.scale)) * max(state.squeeze, 1.0 / state.squeeze), points_per_axis)


def eval_fock_wigner(state: AnalyticWigner, q, p):
    """Evaluate the (scaled, squeezed) Fock-state Wigner function at (q, p).

    Args:
        state: analytic state description.
        q, p: scalars or broadcastable arrays of phase-space coordinates.

    Returns:
        scale^2 * W_n at the squeezed-and-scaled arguments, where
        W_0 = 2 exp(-q^2 - p^2), W_1 = 2 (2q^2 + 2p^2 - 1) exp(-q^2 - p^2),
        and W_n = 2 (-1)^n L_n(2q^2 + 2p^2) exp(-q^2 - p^2) for n >= 2: an
        array of the broadcast shape of q and p, or a numpy scalar for scalars.
    """
    lam = state.scale
    qq = lam * state.squeeze * np.asarray(q, dtype=float)
    pp = lam * np.asarray(p, dtype=float) / state.squeeze
    # the closed forms' operations in their order, in place in two buffers of the broadcast
    # shape: a column q and a row p then allocate no coordinate mesh and no temporary
    r2 = np.add(qq * qq, pp * pp, out=np.empty(np.broadcast_shapes(qq.shape, pp.shape)))
    gauss = np.negative(r2, out=np.empty_like(r2))
    np.exp(gauss, out=gauss)
    n = state.fock_index
    if n == 0:
        base = gauss
        base *= 2.0
    elif n == 1:
        base = r2
        base *= 2.0
        base -= 1.0
        base *= 2.0
        base *= gauss
    else:
        r2 *= 2.0
        base = _laguerre(n, r2)
        base *= 2.0 * (-1.0) ** n
        base *= gauss
    base *= lam * lam
    return base[()]


def _laguerre(n: int, x: np.ndarray) -> np.ndarray:
    """Laguerre polynomial L_n(x), n >= 1, by the recurrence (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}."""
    # three buffers in rotation, updated in place: a new temporary per operation doubles the time
    prev, cur, nxt = np.ones_like(x), np.subtract(1.0, x, out=np.empty_like(x)), np.empty_like(x)
    for k in range(1, n):
        np.subtract(2 * k + 1, x, out=nxt)
        nxt *= cur
        prev *= k
        nxt -= prev
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
    return cur


def sample_to_grid(state: AnalyticWigner, spec: GridSpec | None = None) -> GridWigner:
    """Sample an analytic state at the cell centers of `spec`.

    Rows index q and columns index p. The state is evaluated on the axis as a
    column and a row, which :func:`eval_fock_wigner` broadcasts to the grid.

    Args:
        state: analytic state description.
        spec: target grid; defaults to :func:`default_grid` for the state.

    Raises:
        ValueError: if the extent cannot hold the state (normalization of a
            state scaled by |scale| < 1 needs extent >= 4 / |scale|), or if the
            Fock index exceeds the points per axis N. No grid of N points
            resolves such a state: W_n's outer ring sits at radius
            sqrt(2n + 1) / |scale|, which the extent must cover, and its radial
            wavenumber reaches 2 sqrt(2n + 1) |scale|, which the step
            2 extent / N must Nyquist-sample; both hold only if
            2n + 1 <= pi N / 4, so n <= N is a generous bound, checked before
            any N x N work.
    """
    if spec is None:
        spec = default_grid(state)
    if state.fock_index > spec.points_per_axis:
        raise ValueError(
            f"fock index {state.fock_index} exceeds the {spec.points_per_axis} points per axis: "
            f"no grid of that size resolves W_n (it needs 2n + 1 <= pi N / 4)"
        )
    required = _MIN_EXTENT_FACTOR * max(1.0, 1.0 / abs(state.scale))
    if spec.extent < required * (1.0 - 1e-12):
        raise ValueError(
            f"grid too small: extent {spec.extent:g} < required {required:g} "
            f"for scale {state.scale:g}"
        )
    x = spec.axis()
    return GridWigner(spec, eval_fock_wigner(state, x[:, None], x))


def _interpolate(w: GridWigner, fi: np.ndarray, fj: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the grid at fractional cell indices (fi, fj); zero outside it.

    fi is an (n, 1) column of row indices and fj a (1, n) row of column indices, which
    broadcast to the (n, n) output. Only the flat corner indices ia + ja are n x n (a
    broadcast sum, which `take` reads faster than an advanced index of the padded grid),
    and the weights are the per-axis fractions, the same floats as in full arrays. When
    every fraction is 0 (the identity, the reflections, -I) only the first corner is
    gathered.
    """
    n = w.spec.points_per_axis
    i0, j0 = np.floor(fi), np.floor(fj)
    ti, tj = fi - i0, fj - j0
    # one ring of zeros around the grid; indices clipped onto the ring read 0
    flat = np.pad(w.values, 1).ravel()
    ia, ib = (np.clip(i, 0, n + 1).astype(np.intp) * (n + 2) for i in (i0 + 1, i0 + 2))
    ja, jb = (np.clip(j, 0, n + 1).astype(np.intp) for j in (j0 + 1, j0 + 2))
    corner = flat.take(ia + ja) * (1 - ti) * (1 - tj)
    if not (ti.any() or tj.any()):
        # every source is a cell center: the other three weights are 0, and their terms
        # add +-0, which changes no bit unless the grid holds -0.0 (then the sum reads +0.0)
        return corner
    corner += flat.take(ib + ja) * ti * (1 - tj)
    corner += flat.take(ia + jb) * (1 - ti) * tj
    corner += flat.take(ib + jb) * ti * tj
    return corner


def _diagonal_map(w: GridWigner, a: float, b: float) -> GridWigner:
    """Map W(q, p) -> |ab| W(aq, bp), resampled on the same grid.

    Trace-preserving for every finite nonzero a and b; sources outside the extent
    read 0. The grid is symmetric about the origin, so the map acts on cell indices
    counted from the center (exact half-integers): the step cancels, and the identity
    and the reflections a, b = +-1 reproduce the grid exactly. The row index depends
    on the row alone and the column index on the column alone, so no n x n float
    index array is built.
    """
    det = abs(float(a) * float(b))
    if not 0.0 < det < np.inf:
        raise ValueError(f"map parameters must be finite with a nonzero product, got a = {a}, b = {b}")
    center = 0.5 * (w.spec.points_per_axis - 1)
    k = np.arange(w.spec.points_per_axis) - center
    return GridWigner(w.spec, det * _interpolate(w, a * k[:, None] + center, b * k + center))


def apply_scaling(w: GridWigner, lam: float) -> GridWigner:
    """Scaling map W(q, p) -> |lam|^2 W(lam*q, lam*p); nonpositive for |lam| != 1."""
    return _diagonal_map(w, lam, lam)


def apply_partial_scaling(w: GridWigner, lam: float) -> GridWigner:
    """Momentum-only scaling W(q, p) -> |lam| W(q, lam*p).

    For lam > 0 this is the squeeze kappa = lam^-1/2 followed by the scaling
    sqrt(lam); lam = -1 is momentum reflection, the transpose of the mode.
    """
    return _diagonal_map(w, 1.0, lam)


def overlap(a: GridWigner, b: GridWigner) -> float:
    """Phase-space overlap integral a * b dq dp / (2 pi); equals Tr(rho_a rho_b)."""
    if a.spec != b.spec:
        raise ValueError("overlap requires both grids to share one GridSpec")
    return float((a.values * b.values).sum() * a.spec.quadrature_weight)


def _midpoint_resample(values: np.ndarray) -> np.ndarray:
    """FFT-upsample rows by 2x so that all pairwise q-midpoints become samples.

    Row m of the result sits at coordinate origin + (m + 1) * h/2 where
    origin = -extent + h/2; the midpoint of cells i and j is row i + j.
    Trigonometric interpolation is spectrally accurate here because the
    sampled functions decay to ~0 well inside the extent.
    """
    n = values.shape[0]
    spectrum = np.fft.rfft(values, axis=0)
    spectrum[n // 2] *= 0.5  # the Nyquist bin splits evenly between +/- n/2
    return 2.0 * np.fft.irfft(spectrum, 2 * n, axis=0)


def wigner_to_density(w: GridWigner) -> PositionDensity:
    """Invert the grid to the position-representation density matrix.

    Computes rho(x, x') = (1/2 pi) * integral of W((x+x')/2, p) e^{i p (x-x')} dp
    by midpoint quadrature over the grid's p axis, for x, x' on the q axis.
    rho[i, j] reads the p-integral G[s, d] only at s = i + j and d = |i - j|,
    which share their parity, so each parity is one pair of real cos/sin
    products; the other half of the table is never computed. W is real, so
    G[s, -d] = conj(G[s, d]): rho is filled from the lower triangle by a
    strided view and mirrored, exactly Hermitian with an exactly real diagonal.

    Raises:
        ValueError: if the input norm deviates from 1 by more than NORM_TOL.
    """
    w.require_normalized()
    n = w.spec.points_per_axis
    h = w.spec.step
    x = w.spec.axis()
    mids = _midpoint_resample(np.asarray(w.values))[: 2 * n - 1]
    # G[s, d] = (h / 2 pi) * sum_k W((x_i + x_j)/2, p_k) e^{i p_k d h}, s = i + j, d = i - j >= 0;
    # zeroed, so the entries of the other parity that the views below read are 0
    re = np.zeros((2 * n - 1, n))
    im = np.zeros((2 * n - 1, n))
    for par in (0, 1):
        phase = np.outer(x, np.arange(par, n, 2) * h)
        re[par::2, par::2] = mids[par::2] @ np.cos(phase)
        im[par::2, par::2] = mids[par::2] @ np.sin(phase)
    del mids, phase
    re *= h / (2.0 * np.pi)
    im *= h / (2.0 * np.pi)
    # view[i, j] = G[i + j, i - j] at flat index i (n + 1) + j (n - 1); above the diagonal it
    # reads an entry of the other parity (n is even), so the view is lower triangular
    step = re.itemsize
    lower_re, lower_im = (np.lib.stride_tricks.as_strided(g, (n, n), ((n + 1) * step, (n - 1) * step))
                          for g in (re, im))
    rho = np.empty((n, n), dtype=complex)
    np.add(lower_re, lower_re.T, out=rho.real)  # real part symmetric
    np.fill_diagonal(rho.real, re[::2, 0])  # the sum counted the diagonal twice
    np.subtract(lower_im, lower_im.T, out=rho.imag)  # imaginary part antisymmetric, diagonal 0
    del re, im, lower_re, lower_im  # release the transform buffers before validation copies rho
    return PositionDensity(w.spec, rho)


def density_to_wigner(rho: PositionDensity) -> GridWigner:
    """Invert a position-representation density matrix back to the Wigner grid.

    Computes W(q, p) = integral of rho(q + u/2, q - u/2) e^{-i p u} du by
    quadrature over the anti-diagonals of rho (u runs over even multiples of
    the grid step). Anti-diagonal t of row m stays on the grid only while
    t <= min(m, n - 1 - m) < n/2, so only t in [0, n/2) is gathered; rho is
    Hermitian, so anti-diagonal -t is the conjugate of t and each t >= 1
    counts twice. Round-tripping :func:`wigner_to_density` reproduces the
    input to near machine precision on the interior of the grid.
    """
    n = rho.spec.points_per_axis
    h = rho.spec.step
    x = rho.spec.axis()
    t = np.arange(n // 2)
    # diagonals[m, t] = rho[m + t, m - t], read from a zero ring where that leaves the grid
    m = np.arange(n)[:, None]
    diagonals = np.pad(rho.values, 1)[np.minimum(m + t, n) + 1, np.maximum(m - t, -1) + 1]
    diagonals[:, 1:] *= 2.0
    phase = np.outer(2.0 * h * t, x)
    w = 2.0 * h * (diagonals.real @ np.cos(phase) + diagonals.imag @ np.sin(phase))
    return GridWigner(rho.spec, w)
