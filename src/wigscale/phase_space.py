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

from ._validated import NORM_TOL, store_validated, whole_number

__all__ = [
    "GridSpec",
    "AnalyticWigner",
    "GridWigner",
    "PositionDensity",
    "default_grid",
    "require_grid_fits",
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

#: largest grid accepted; a round trip through the two transforms needs ~0.54 GB here
MAX_POINTS = 4096

#: peak bytes per grid point of density_to_wigner(wigner_to_density(w)): the buffers grow as
#: n^2, and the tracemalloc peak at 512 points is 32.3 bytes for each of the 512^2 points
#: (wigner_to_density alone peaks at 24, and density_to_wigner at 16 beside rho's 16)
_TRANSFORM_BYTES_PER_POINT = 32

#: columns per FFT block of the half-cell shift
_SHIFT_COLUMNS = 64

#: rows and columns per tile of the mirror that fills rho's upper triangle
_MIRROR_TILE = 64

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
        if not 0 < self.extent < np.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.points_per_axis < 16 or self.points_per_axis % 2:
            raise ValueError(
                f"points_per_axis must be even and >= 16, got {self.points_per_axis}"
            )
        if (n := self.points_per_axis) > MAX_POINTS:
            raise ValueError(f"points_per_axis {n} exceeds the limit {MAX_POINTS}: a round trip "
                             f"through the transforms would need {1e-9 * _TRANSFORM_BYTES_PER_POINT * n * n:.3g} GB")
        object.__setattr__(self, "points_per_axis", whole_number(n, "points_per_axis", 16))

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.points_per_axis

    def axis(self) -> np.ndarray:
        """Cell-center coordinates shared by the q and p axes.

        Each is a half-integer cell index counted from the center times the step,
        so x[n - 1 - k] == -x[k] holds exactly, and each lies within a few ulps
        of -extent + (k + 1/2) * step.
        """
        n = self.points_per_axis
        return (np.arange(n) - 0.5 * (n - 1)) * self.step

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
        object.__setattr__(self, "fock_index", whole_number(self.fock_index, "fock_index", 0))
        if self.scale == 0:
            raise ValueError("scale must be nonzero")
        if not np.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale}")
        if not 0 < self.squeeze < np.inf:
            raise ValueError(f"squeeze must be positive and finite, got {self.squeeze}")


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
        W_n = 2 M_n(2q^2 + 2p^2) exp(-q^2 - p^2) for every n >= 0 and
        M_n = (-1)^n L_n is the signed Laguerre polynomial of :func:`_laguerre`:
        an array of the broadcast shape of q and p, or a numpy scalar for scalars.
    """
    lam = state.scale
    qq = lam * state.squeeze * np.asarray(q, dtype=float)
    pp = lam * np.asarray(p, dtype=float) / state.squeeze
    # in place in buffers of the broadcast shape: a column q and a row p then allocate
    # no coordinate mesh and no temporary
    r2 = np.add(qq * qq, pp * pp, out=np.empty(np.broadcast_shapes(qq.shape, pp.shape)))
    gauss = np.negative(r2, out=np.empty_like(r2))
    np.exp(gauss, out=gauss)
    r2 *= 2.0
    base = _laguerre(state.fock_index, r2)
    base *= 2.0
    base *= gauss
    base *= lam * lam
    return base[()]


def _laguerre(n: int, x: np.ndarray) -> np.ndarray:
    """Signed Laguerre polynomial M_n(x) = (-1)^n L_n(x), n >= 0.

    Runs the recurrence (k+1) M_{k+1} = (x - 2k - 1) M_k - k M_{k-1} from
    M_{-1} = 0 and M_0 = 1. The sign lives inside the recurrence: M_1 = x - 1
    reads +0.0 at x = 1, where -(1 - x) would read -0.0.
    """
    # three buffers in rotation, updated in place: a new temporary per operation doubles the time
    prev, cur, nxt = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    for k in range(n):
        np.subtract(x, 2 * k + 1, out=nxt)
        nxt *= cur
        prev *= k
        nxt -= prev
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
    return cur


def require_grid_fits(state: AnalyticWigner, spec: GridSpec) -> None:
    """Raise ValueError unless `spec` can hold `state`; allocates nothing.

    The extent must hold the state: normalization of a state scaled by
    |scale| < 1 needs extent >= 4 / |scale|. The Fock index must not exceed
    the points per axis N. No grid of N points resolves such a state: W_n's
    outer ring sits at radius sqrt(2n + 1) / |scale|, which the extent must
    cover, and its radial wavenumber reaches 2 sqrt(2n + 1) |scale|, which the
    step 2 extent / N must Nyquist-sample; both hold only if
    2n + 1 <= pi N / 4, so n <= N is a generous bound.
    """
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


def sample_to_grid(state: AnalyticWigner, spec: GridSpec) -> GridWigner:
    """Sample an analytic state at the cell centers of `spec`.

    Rows index q and columns index p. The state is evaluated on the first half
    of the axis as a column and a row, which :func:`eval_fock_wigner`
    broadcasts to one quadrant, and mirrored into the other three.

    Args:
        state: analytic state description.
        spec: target grid, such as :func:`default_grid` of the state.

    Raises:
        ValueError: from :func:`require_grid_fits`, before any N x N work.
    """
    require_grid_fits(state, spec)
    # W depends on q and p only through q^2 and p^2, and the axis is exactly antisymmetric,
    # so one quadrant evaluated and mirrored equals the whole grid evaluated, bit for bit
    half = spec.points_per_axis // 2
    x = spec.axis()[:half]
    quadrant = eval_fock_wigner(state, x[:, None], x)
    values = np.empty((2 * half, 2 * half))
    values[:half, :half] = quadrant
    values[:half, half:] = quadrant[:, ::-1]
    del quadrant
    values[half:] = values[half - 1::-1]
    return GridWigner(spec, _frozen(values))


def _frozen(array: np.ndarray) -> np.ndarray:
    """Make a freshly allocated array read-only, so the validated type stores it without a copy."""
    array.setflags(write=False)
    return array


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
    values = _interpolate(w, a * k[:, None] + center, b * k + center)
    values *= det
    return GridWigner(w.spec, _frozen(values))


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


def _half_cell_shift(values: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of the rows half a cell up: row i of the result sits at x_i + h/2.

    Returns the n - 1 rows i in [0, n - 1), the midpoints of neighbouring rows.
    The shift multiplies the length-n spectrum of each column by e^{i pi k / n}; at
    the Nyquist bin it makes that bin imaginary, which irfft drops, so the Nyquist
    component reads cos(pi (i + 1/2)) = 0 there as in an even split between +-n/2.
    Trigonometric interpolation is spectrally accurate here because the sampled
    functions decay to ~0 well inside the extent. Blocks of contiguous columns keep
    each FFT's buffers small.
    """
    n, cols = values.shape
    phase = np.exp(1j * np.pi / n * np.arange(n // 2 + 1))[:, None]
    out = np.empty((n - 1, cols))
    for start in range(0, cols, _SHIFT_COLUMNS):
        block = slice(start, start + _SHIFT_COLUMNS)
        spectrum = np.fft.rfft(values[:, block], axis=0)
        spectrum *= phase
        out[:, block] = np.fft.irfft(spectrum, n, axis=0)[: n - 1]
    return out


def _parity_table(func, x: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """func(np.outer(x, freqs)) for func np.cos or np.sin and an exactly antisymmetric axis x.

    Evaluated on the first half of the rows and mirrored: the phases of row
    n - 1 - k are exactly those of row k negated, and numpy's cos is exactly even
    and its sin exactly odd, so the table equals the one evaluated in full, bit
    for bit.
    """
    half = len(x) // 2
    table = np.empty((len(x), len(freqs)))
    func(np.outer(x[:half], freqs), out=table[:half])
    np.multiply(table[half - 1::-1], -1.0 if func is np.sin else 1.0, out=table[half:])
    return table


def _scaled_product(rows: np.ndarray, func, x: np.ndarray, freqs: np.ndarray, scale: float) -> np.ndarray:
    """(rows @ func(np.outer(x, freqs))) * scale, scaled in place."""
    product = rows @ _parity_table(func, x, freqs)
    product *= scale
    return product


def _fill_rows(part: np.ndarray, g: np.ndarray, par: int) -> None:
    """Write one parity's p-integrals g[r, c] = G[2r + par, 2c + par] into rho's lower triangle, by rows.

    `part` is rho's real or imaginary part, and rho[i, j] = G[i + j, i - j] for j <= i: row i reads
    g[i - par - c, c] at the columns i - par - 2c, an anti-diagonal of g, which is the slice of its
    flat view from (i - par) n/2 in steps of 1 - n/2.
    """
    half = g.shape[1]
    flat = g.reshape(-1)
    for i in range(par, part.shape[0]):
        part[i, i - par::-2] = flat[(i - par) * half::1 - half][:(i - par) // 2 + 1]


def _mirror_lower(rho: np.ndarray) -> None:
    """Fill rho's upper triangle with the conjugate of its lower one, in tiles that stay in cache.

    The imaginary part is written as 0.0 - x, so a zero reads +0.0 there and on the diagonal, whose
    imaginary part is then exactly 0. A tile on the diagonal is read from its own lower triangle.
    """
    n = rho.shape[0]
    re, im = rho.real, rho.imag
    on_and_above = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool))
    for a in range(0, n, _MIRROR_TILE):
        for b in range(a, n, _MIRROR_TILE):
            rows, cols = slice(a, a + _MIRROR_TILE), slice(b, b + _MIRROR_TILE)
            where = on_and_above[:n - a, :n - a] if a == b else True
            np.copyto(re[rows, cols], re[cols, rows].T, where=where)
            np.subtract(0.0, im[cols, rows].T, out=im[rows, cols], where=where)


def wigner_to_density(w: GridWigner) -> PositionDensity:
    """Invert the grid to the position-representation density matrix.

    Computes rho(x, x') = (1/2 pi) * integral of W((x+x')/2, p) e^{i p (x-x')} dp
    by midpoint quadrature over the grid's p axis, for x, x' on the q axis.
    rho[i, j] reads the p-integral G[s, d] only at s = i + j and d = |i - j|,
    which share their parity, so each parity is one pair of real cos/sin
    products; the other half of the table is never computed. The midpoint
    (x_i + x_j)/2 is the grid row (i + j)/2 for even s and half a cell above
    row (i + j - 1)/2 for odd s (:func:`_half_cell_shift`). W is real, so
    G[s, -d] = conj(G[s, d]): each product is written into rho's lower triangle
    row by row (:func:`_fill_rows`), and its conjugate is mirrored above the
    diagonal (:func:`_mirror_lower`), so rho is exactly Hermitian with an
    exactly real diagonal.

    Raises:
        ValueError: if the input norm deviates from 1 by more than NORM_TOL.
    """
    w.require_normalized()
    n = w.spec.points_per_axis
    h = w.spec.step
    x = w.spec.axis()
    scale = h / (2.0 * np.pi)
    # G[s, d] = (h / 2 pi) * sum_k W((x_i + x_j)/2, p_k) e^{i p_k d h}, s = i + j, d = i - j >= 0;
    # the odd parity first, so its half-cell-shifted rows are freed before rho exists
    shifted = _half_cell_shift(w.values)
    odd_freqs = np.arange(1, n, 2) * h
    odd = [_scaled_product(shifted, func, x, odd_freqs, scale) for func in (np.cos, np.sin)]
    del shifted
    rho = np.empty((n, n), dtype=complex)
    _fill_rows(rho.real, odd[0], 1)
    _fill_rows(rho.imag, odd[1], 1)
    del odd
    # the even parity one product at a time, each freed once written
    even_freqs = np.arange(0, n, 2) * h
    _fill_rows(rho.real, _scaled_product(w.values, np.cos, x, even_freqs, scale), 0)
    _fill_rows(rho.imag, _scaled_product(w.values, np.sin, x, even_freqs, scale), 0)
    _mirror_lower(rho)
    return PositionDensity(w.spec, _frozen(rho))


def density_to_wigner(rho: PositionDensity) -> GridWigner:
    """Invert a position-representation density matrix back to the Wigner grid.

    Computes W(q, p) = integral of rho(q + u/2, q - u/2) e^{-i p u} du by
    quadrature over the anti-diagonals of rho (u runs over even multiples of
    the grid step). Anti-diagonal t of row m stays on the grid only while
    t <= min(m, n - 1 - m) < n/2, so only t in [0, n/2) is read; rho is
    Hermitian, so anti-diagonal -t is the conjugate of t and each t >= 1
    counts twice. The p axis is exactly antisymmetric, so the products run
    over its positive half: at -p the cos term is the same and the sin term
    changes sign. Round-tripping :func:`wigner_to_density` reproduces the
    input to near machine precision on the interior of the grid.
    """
    n = rho.spec.points_per_axis
    half = n // 2
    h = rho.spec.step
    x = rho.spec.axis()
    # diagonals[m, t] = rho[m + t, m - t], 0 off the grid: row m is the slice of rho's flat view from m (n + 1)
    # in steps of n - 1; weight 2 counts anti-diagonal -t. One complex buffer: two float buffers raise the peak RSS
    diagonals = np.zeros((n, half), dtype=complex)
    flat = rho.values.reshape(-1)
    for m in range(n):
        length = min(m, n - 1 - m) + 1
        diagonals[m, :length] = flat[m * (n + 1)::n - 1][:length]
    diagonals[:, 1:] *= 2.0
    diag_re, diag_im = diagonals.real.copy(), diagonals.imag.copy()
    del diagonals
    # the positive half of the p axis: the last columns of a product, which BLAS rounds in a
    # kernel of its own, then sit at the grid's edges, where W is ~0, as in a full-width product
    phase = np.outer(2.0 * h * np.arange(half), x[half:])
    cos_part = diag_re @ np.cos(phase)
    del diag_re  # each half is freed once its product exists
    sin_part = diag_im @ np.sin(phase)
    del diag_im, phase
    w = np.empty((n, n))
    np.add(cos_part, sin_part, out=w[:, half:])
    np.subtract(cos_part, sin_part, out=w[:, half - 1::-1])
    del cos_part, sin_part
    np.multiply(w, 2.0 * h, out=w)
    return GridWigner(rho.spec, _frozen(w))
