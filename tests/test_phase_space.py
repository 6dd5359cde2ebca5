import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate
from scipy.signal import resample
from scipy.special import eval_hermite, eval_laguerre, factorial

from conftest import evaluated_grid, fock_grid
from wigscale import moments, phase_space
from wigscale.phase_space import (
    AnalyticWigner,
    GridSpec,
    apply_partial_scaling,
    apply_scaling,
    density_to_wigner,
    eval_fock_wigner,
    overlap,
    sample_to_grid,
    wigner_to_density,
)


def closed_form_fidelity(lam):
    return 2.0 * lam**2 * (lam**2 - 1.0) / (1.0 + lam**2) ** 2


def complex_kernel_wigner_to_density(w):
    """Reference: the transform as first written, one complex kernel over d = i - j in [-(n-1), n-1]."""
    n, h, x = w.spec.points_per_axis, w.spec.step, w.spec.axis()
    mids = resample(w.values, 2 * n, axis=0)
    kernel = np.exp(1j * np.outer(x, np.arange(-(n - 1), n) * h))
    G = (h / (2.0 * np.pi)) * (mids[: 2 * n - 1] @ kernel)
    idx = np.arange(n)
    return phase_space.PositionDensity(w.spec, G[idx[:, None] + idx, idx[:, None] - idx + (n - 1)])


def complex_kernel_density_to_wigner(rho):
    """Reference: the inverse as first written, over all anti-diagonals t in [-(n-1), n-1]."""
    n, h, x = rho.spec.points_per_axis, rho.spec.step, rho.spec.axis()
    t = np.arange(-(n - 1), n)
    m = np.arange(n)[:, None]
    diagonals = np.pad(rho.values, 1)[np.clip(m + t, -1, n) + 1, np.clip(m - t, -1, n) + 1]
    kernel = np.exp(-1j * np.outer(2.0 * h * t, x))
    return (2.0 * h * (diagonals @ kernel)).real


def full_table_wigner_to_density(w):
    """Reference: the real kernels over the whole table, every s in [0, 2n - 1) and d in [0, n)."""
    n, h, x = w.spec.points_per_axis, w.spec.step, w.spec.axis()
    mids = np.empty((2 * n - 1, n))
    mids[::2] = w.values
    mids[1::2] = phase_space._half_cell_shift(w.values)
    phase = np.outer(x, np.arange(n) * h)
    re = (mids @ np.cos(phase)) * (h / (2.0 * np.pi))
    im = (mids @ np.sin(phase)) * (h / (2.0 * np.pi))
    idx = np.arange(n)
    d = idx[:, None] - idx
    flat = (idx[:, None] + idx) * n + np.abs(d)
    return phase_space.PositionDensity(w.spec, re.take(flat) + 1j * np.sign(d) * im.take(flat))


def zero_table_wigner_to_density(w):
    """Reference: the parity products written into zeroed (2n - 1) x n tables and read through a strided view.

    rho's lower triangle is the view G[i + j, i - j] at flat index i (n + 1) + j (n - 1), which
    above the diagonal reads only zeroed entries of the other parity; the real part is the view
    plus its transpose, with the doubled diagonal reset, and the imaginary part the view minus
    its transpose.
    """
    n, h, x = w.spec.points_per_axis, w.spec.step, w.spec.axis()
    re = np.zeros((2 * n - 1, n))
    im = np.zeros((2 * n - 1, n))
    for par in (0, 1):
        rows = phase_space._half_cell_shift(w.values) if par else w.values
        freqs = np.arange(par, n, 2) * h
        re[par::2, par::2] = rows @ phase_space._parity_table(np.cos, x, freqs)
        im[par::2, par::2] = rows @ phase_space._parity_table(np.sin, x, freqs)
    re *= h / (2.0 * np.pi)
    im *= h / (2.0 * np.pi)
    step = re.itemsize
    lower_re, lower_im = (np.lib.stride_tricks.as_strided(g, (n, n), ((n + 1) * step, (n - 1) * step))
                          for g in (re, im))
    rho = np.empty((n, n), dtype=complex)
    np.add(lower_re, lower_re.T, out=rho.real)
    np.fill_diagonal(rho.real, re[::2, 0])
    np.subtract(lower_im, lower_im.T, out=rho.imag)
    return phase_space.PositionDensity(w.spec, rho)


def bits(array):
    """The int64 bit patterns of a float or complex array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(array).view(np.int64)


def full_range_diagonals(rho):
    """Anti-diagonals rho[m + t, m - t] for every t in [0, n), zero where they leave the grid."""
    n = rho.spec.points_per_axis
    t = np.arange(n)
    m = t[:, None]
    return np.pad(rho.values, 1)[np.minimum(m + t, n) + 1, np.maximum(m - t, -1) + 1]


def full_range_density_to_wigner(rho):
    """Reference: the real-kernel inverse over every anti-diagonal t in [0, n)."""
    h, x = rho.spec.step, rho.spec.axis()
    diagonals = full_range_diagonals(rho)
    diagonals[:, 1:] *= 2.0
    phase = np.outer(2.0 * h * np.arange(rho.spec.points_per_axis), x)
    return 2.0 * h * (diagonals.real @ np.cos(phase) + diagonals.imag @ np.sin(phase))


def complex_buffer_density_to_wigner(rho):
    """Reference: the inverse that gathered rho's anti-diagonals into one complex (n, n/2) buffer.

    Its real and imaginary parts were copied out, and W formed from the two products; the
    in-place inverse makes the same operations in the same order.
    """
    n = rho.spec.points_per_axis
    half = n // 2
    h = rho.spec.step
    diagonals = np.zeros((n, half), dtype=complex)
    flat = rho.values.reshape(-1)
    for m in range(n):
        length = min(m, n - 1 - m) + 1
        diagonals[m, :length] = flat[m * (n + 1)::n - 1][:length]
    diagonals[:, 1:] *= 2.0
    diag_re, diag_im = diagonals.real.copy(), diagonals.imag.copy()
    phase = np.outer(2.0 * h * np.arange(half), rho.spec.axis()[half:])
    cos_part = diag_re @ np.cos(phase)
    sin_part = diag_im @ np.sin(phase)
    w = np.empty((n, n))
    np.add(cos_part, sin_part, out=w[:, half:])
    np.subtract(cos_part, sin_part, out=w[:, half - 1::-1])
    np.multiply(w, 2.0 * h, out=w)
    return w


def unsigned_laguerre(n, x):
    """Reference: L_n(x), n >= 1, by the recurrence (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1} from L_0 = 1."""
    prev, cur = np.ones_like(x), 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def mesh_fock_wigner(state, spec):
    """Reference: the sampled grid as first written over two n x n meshes.

    n = 0 and 1 take their closed forms, and n >= 2 the unsigned recurrence.
    """
    Q, P = np.meshgrid(spec.axis(), spec.axis(), indexing="ij")
    lam = state.scale
    qq = lam * state.squeeze * Q
    pp = lam * P / state.squeeze
    r2 = qq * qq + pp * pp
    n = state.fock_index
    if n == 0:
        base = 2.0 * np.exp(-r2)
    elif n == 1:
        base = 2.0 * (2.0 * r2 - 1.0) * np.exp(-r2)
    else:
        base = 2.0 * (-1.0) ** n * unsigned_laguerre(n, 2.0 * r2) * np.exp(-r2)
    return lam * lam * base


def refusal(state, spec):
    """default_grid's error for `spec` as the grid of `state`, or None if the rule accepts it."""
    try:
        phase_space.default_grid(state, spec.points_per_axis, spec.extent)
    except ValueError as error:
        return str(error)
    return None


def closed_form_density(state, spec):
    """Reference: rho(x, x') of the scaled, squeezed Fock state on the q axis of `spec`, in closed form.

    rho(x, x') = |lam| kappa psi_n(lam kappa X + kappa Y / (2 lam)) psi_n(lam kappa X - kappa Y / (2 lam))
    with X = (x + x') / 2 and Y = x - x', and psi_n from scipy's Hermite polynomials.
    """
    n, lam, kappa = state.fock_index, state.scale, state.squeeze
    x = spec.axis()
    X, Y = 0.5 * (x[:, None] + x), x[:, None] - x

    def psi(u):
        return eval_hermite(n, u) * np.exp(-u * u / 2.0) / np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))

    return abs(lam) * kappa * psi(lam * kappa * X + kappa * Y / (2 * lam)) * psi(lam * kappa * X - kappa * Y / (2 * lam))


class TestTypes:
    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 64)
        for points in (8, 33, 64.5, -16.0, np.nan, np.inf):  # refused before the count becomes an int
            with pytest.raises(ValueError, match=f"points_per_axis must be even and >= 16, got {points}"):
                GridSpec(8.0, points)
        for extent in (float("inf"), float("nan"), 0.0):
            with pytest.raises(ValueError, match="extent must be positive and finite"):
                GridSpec(extent, 16)

    @pytest.mark.parametrize("extent", [1e300, np.float64(1e300), 1.35e154 * 8])
    def test_extent_whose_cell_area_overflows_refused(self, extent):
        # (2 extent / N)^2 overflows past extent ~1.34e154 N / 2; refused without a RuntimeWarning
        message = re.escape(f"extent {extent:g} is too large for 16 points")
        with pytest.raises(phase_space.ExtentOverflowError, match=message):
            GridSpec(extent, 16)
        assert issubclass(phase_space.ExtentOverflowError, ValueError)
        assert issubclass(phase_space.ExtentOverflowError, ArithmeticError)
        assert np.isfinite(GridSpec(1.3e154 * 8, 16).quadrature_weight)

    @pytest.mark.parametrize("points", [64.0, np.float64(64), np.int64(64)], ids=["float", "float64", "int64"])
    def test_integral_point_count_is_its_integer(self, points):
        spec = GridSpec(8.0, points)
        assert type(spec.points_per_axis) is int and spec == GridSpec(8.0, 64)
        np.testing.assert_array_equal(sample_to_grid(AnalyticWigner(1), spec).values,
                                      sample_to_grid(AnalyticWigner(1), GridSpec(8.0, 64)).values)

    def test_grid_axis_is_cell_centered(self):
        spec = GridSpec(8.0, 16)
        x = spec.axis()
        assert x[0] == -8.0 + spec.step / 2
        assert np.allclose(x + x[::-1], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(half_points=st.integers(8, 2048), extent=st.floats(1e-3, 1e6))
    def test_grid_axis_is_exactly_antisymmetric(self, half_points, extent):
        # the cell centers -extent + (k + 1/2) h round twice (<= 1.5 ulps of extent), the new
        # form once (<= 0.5), and their exact values differ by |n h / 2 - extent| <= 1 ulp;
        # 3000 seeded draws over these ranges reached 2.0 ulps
        spec = GridSpec(extent, 2 * half_points)
        x = spec.axis()
        assert np.array_equal(x[::-1], -x)
        centers = -extent + (np.arange(2 * half_points) + 0.5) * spec.step
        assert np.abs(x - centers).max() <= 3 * np.spacing(extent)

    def test_analytic_state_validation(self):
        with pytest.raises(ValueError):
            AnalyticWigner(-1)
        with pytest.raises(ValueError):
            AnalyticWigner(0, scale=0.0)
        with pytest.raises(ValueError):
            AnalyticWigner(0, squeeze=-2.0)
        # refused before any grid is sampled, so no evaluation runs and no RuntimeWarning is raised
        for field, value in [("scale", np.nan), ("scale", np.inf), ("scale", -np.inf),
                             ("squeeze", np.inf), ("squeeze", np.nan)]:
            with pytest.raises(ValueError, match=f"{field} must be .*finite, got {value}"):
                AnalyticWigner(1, **{field: value})

    @pytest.mark.parametrize("n", [2.0, np.float64(3), np.int64(3)])
    def test_integral_fock_index_is_its_integer(self, n):
        state = AnalyticWigner(n, 0.8)
        assert type(state.fock_index) is int and state.fock_index == n
        spec = GridSpec(12.0, 64)
        np.testing.assert_array_equal(sample_to_grid(state, spec).values,
                                      sample_to_grid(AnalyticWigner(int(n), 0.8), spec).values)

    @pytest.mark.parametrize("n", [2.5, np.float64(0.5), np.inf, np.nan, -1])
    def test_fractional_or_negative_fock_index_rejected(self, n):
        with pytest.raises(ValueError, match=f"fock_index must be (nonnegative|an integer), got {n}"):
            AnalyticWigner(n)

    def test_grid_values_are_immutable(self):
        w = fock_grid(0)
        with pytest.raises(ValueError):
            w.values[0, 0] = 1.0


class TestEvalFockWigner:
    def test_ground_state_at_origin(self):
        assert eval_fock_wigner(AnalyticWigner(0), 0.0, 0.0) == 2.0

    def test_first_excited_at_origin(self):
        assert eval_fock_wigner(AnalyticWigner(1), 0.0, 0.0) == -2.0

    def test_scaled_first_excited_at_origin(self):
        assert eval_fock_wigner(AnalyticWigner(1, scale=0.5), 0.0, 0.0) == pytest.approx(-0.5)

    def test_ground_state_closed_form_everywhere(self):
        rng = np.random.default_rng(7)
        q, p = rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50)
        np.testing.assert_array_equal(
            eval_fock_wigner(AnalyticWigner(0), q, p), 2.0 * np.exp(-q * q - p * p)
        )

    def test_laguerre_branch_matches_low_order_forms(self):
        # n = 1 evaluated through the recurrence
        state = AnalyticWigner(1)
        q = np.linspace(-2, 2, 17)
        expected = 2.0 * (2 * q**2 + 2 * 0.3**2 - 1) * np.exp(-(q**2) - 0.3**2)
        np.testing.assert_allclose(eval_fock_wigner(state, q, 0.3), expected, atol=1e-14)

    @pytest.mark.parametrize("n", range(0, 31))
    def test_laguerre_recurrence_matches_scipy(self, n):
        q = np.sqrt(np.linspace(0.0, 100.0, 2001))
        r2 = q * q
        expected = 2.0 * (-1.0) ** n * eval_laguerre(n, 2.0 * r2) * np.exp(-r2)
        got = eval_fock_wigner(AnalyticWigner(n), q, 0.0)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestSampling:
    def test_ground_state_peak_near_origin(self):
        w = sample_to_grid(AnalyticWigner(0), GridSpec(8.0, 256))
        peak = w.values.max()
        # nearest cell center sits half a step from the origin
        assert peak == pytest.approx(2.0, abs=5e-3)
        i, j = np.unravel_index(w.values.argmax(), w.values.shape)
        x = w.spec.axis()
        assert abs(x[i]) < w.spec.step and abs(x[j]) < w.spec.step

    def test_small_scale_needs_large_extent(self):
        with pytest.raises(ValueError, match=r"needs an extent of at least 62\.32"):
            sample_to_grid(AnalyticWigner(1, scale=0.1), GridSpec(8.0, 256))

    def test_unit_norm(self):
        w = sample_to_grid(AnalyticWigner(1), GridSpec(8.0, 256))
        assert w.norm() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_norm_on_default_grid(self, n):
        assert fock_grid(n).norm() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12),
        lam=st.floats(0.25, 2.0) | st.floats(-2.0, -0.25),
        kappa=st.floats(0.5, 2.0),
        half_points=st.integers(8, 256),
        reach=st.floats(0.0, 1.0),
    )
    def test_equals_the_mesh_reference_bit_for_bit(self, n, lam, kappa, half_points, reach):
        # extents from 4 max(1, 1/|lam|) up to 40, where exp underflows to exact zeros; the grid
        # rule accepts some of these grids and refuses the others
        low = 4.0 * max(1.0, 1.0 / abs(lam))
        spec = GridSpec(low + reach * (40.0 - low), 2 * half_points)
        state = AnalyticWigner(n, lam, kappa)
        # the whole grid evaluated on the axis is the mesh reference, and the mirrored quadrant
        # of an accepted grid is that grid
        expected = mesh_fock_wigner(state, spec).view(np.int64)
        x = spec.axis()
        assert np.array_equal(eval_fock_wigner(state, x[:, None], x).view(np.int64), expected)
        if (error := refusal(state, spec)) is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                sample_to_grid(state, spec)
        else:
            assert np.array_equal(sample_to_grid(state, spec).values.view(np.int64), expected)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_equals_the_mesh_reference_where_twice_r2_is_one(self, n):
        # the step is 1/3 and the axis holds +-0.5, so 2 r^2 = 1 exactly at four cells, where
        # W_1 = 0: the closed form reads +0.0 there, and an unsigned L_1 = 1 - x times -2 would
        # read -0.0
        spec = GridSpec(8.0, 48)
        got = sample_to_grid(AnalyticWigner(n), spec).values
        assert np.array_equal(got.view(np.int64), mesh_fock_wigner(AnalyticWigner(n), spec).view(np.int64))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_eval_returns_a_scalar_or_the_broadcast_shape(self, n):
        state = AnalyticWigner(n, 0.7, 1.3)
        value = eval_fock_wigner(state, 0.3, -0.2)
        assert type(value) is np.float64
        assert value == eval_fock_wigner(state, np.array([0.3]), np.array([-0.2]))[0]
        assert eval_fock_wigner(state, np.zeros((3, 1)), np.zeros(5)).shape == (3, 5)
        assert eval_fock_wigner(state, np.zeros(4), 0.5).shape == (4,)

    @pytest.mark.parametrize("n,quarter_buffers", [(0, 2), (1, 2), (2, 5), (5, 5)])
    def test_peak_memory_at_1024_points(self, n, quarter_buffers):
        # the mirrored grid and the quadrant it mirrors, 1.25 grids, which GridWigner stores
        # without a copy; every n holds the recurrence's buffers while it is evaluated, five
        # quarter grids with r^2 and the Gaussian, which are freed before the grid exists, so
        # the peak is 1.25 grids for every n (1.252 measured); the allowance covers the
        # axis-length vectors
        state = AnalyticWigner(n, 0.8)
        spec = phase_space.default_grid(state, 1024)
        grid_bytes = 8 * 1024**2
        tracemalloc.start()
        try:
            sample_to_grid(state, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(1.25, 0.25 * quarter_buffers) * grid_bytes + 8 * 8 * 1024

    def test_fock_index_up_to_what_the_grid_resolves(self):
        # extent 8 holds W_n's ring sqrt(2n + 1) and 4.5 beyond it up to n = 5
        spec = GridSpec(8.0, 64)
        assert sample_to_grid(AnalyticWigner(5), spec).values.shape == (64, 64)
        with pytest.raises(ValueError, match=r"extent 8 cannot hold fock6 .* at least 8\.105"):
            sample_to_grid(AnalyticWigner(6), spec)
        with pytest.raises(ValueError, match="step 1.25 > 0.529, too coarse for fock0 .* at least 152 points"):
            sample_to_grid(AnalyticWigner(0), GridSpec(40.0, 64))

    def test_oversized_fock_index_refused_before_sampling(self):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cannot hold fock100000 "):
                sample_to_grid(AnalyticWigner(100_000), GridSpec(8.0, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.2  # the recurrence alone takes over a second here
        assert peak < 2**16  # the message, no grid: 1.9 kB measured

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 60),
        lam=st.floats(0.3, 3.0),
        kappa=st.floats(0.5, 2.0),
        extent=st.floats(1.0, 120.0),
        half_points=st.integers(8, 256),
    )
    def test_refuses_exactly_what_default_grid_refuses(self, n, lam, kappa, extent, half_points):
        state, spec = AnalyticWigner(n, lam, kappa), GridSpec(extent, 2 * half_points)
        if (error := refusal(state, spec)) is None:
            assert sample_to_grid(state, spec).spec == spec
            return
        # the refusal comes before any N x N work, so it allocates under 1 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as raised:
                sample_to_grid(state, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == error
        assert peak < 2**20


class TestScaling:
    def test_identity(self):
        w = fock_grid(1)
        out = apply_scaling(w, 1.0)
        np.testing.assert_allclose(out.values, w.values, atol=1e-12)

    def test_reflection_on_even_state(self):
        w = fock_grid(0)
        out = apply_scaling(w, -1.0)
        np.testing.assert_allclose(out.values, w.values, atol=1e-12)

    def test_norm_preserved(self):
        out = apply_scaling(fock_grid(1), 0.5)
        assert out.norm() == pytest.approx(1.0, abs=1e-4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_scaling(fock_grid(0), 0.0)

    @pytest.mark.parametrize("points", [256, 1024])
    @pytest.mark.parametrize("apply,lam", [(apply_scaling, 0.7), (apply_scaling, 1.6), (apply_partial_scaling, -1.0)])
    def test_peak_memory_is_the_output_and_the_row_blocks(self, points, apply, lam):
        # the output grid beside the two passes' two _MAP_ROWS x n buffers (the block's rows and
        # the far source's term); no padded copy of the grid. The allowance covers 24
        # axis-length vectors (the sources, their fractions, weights and edge masks) and
        # numpy's iterator buffer, which the row weights' broadcast uses
        w = fock_grid(1, extent=8.0, points=points)
        tracemalloc.start()
        try:
            apply(w, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * points * (points + 2 * phase_space._MAP_ROWS + 24) + 8 * np.getbufsize()

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("lam", [-0.25, -0.5, -1.0, 0.25, 0.5, 1.0, 2.0])
    def test_norm_invariance_on_adequate_grids(self, n, lam):
        # grid sized for the spread of the output, same cell size as default
        extent = 8.0 * max(1.0, 1.0 / abs(lam))
        w = fock_grid(n, extent=extent, points=int(64 * extent))
        assert apply_scaling(w, lam).norm() == pytest.approx(1.0, abs=1e-4)
        assert apply_partial_scaling(w, lam).norm() == pytest.approx(1.0, abs=1e-4)


class TestSqueeze:
    """The exact squeeze W(kappa q, p / kappa), sampled from AnalyticWigner(n, 1, kappa)."""

    def test_identity(self):
        state = AnalyticWigner(1, 1.0, 1.0)
        assert np.array_equal(sample_to_grid(state, phase_space.default_grid(state)).values, fock_grid(1).values)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            AnalyticWigner(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            AnalyticWigner(0, 1.0, -1.0)

    def test_variances_change_by_kappa_squared(self):
        # W(2q, p/2): q variance shrinks 4x to 1/8, p variance grows 4x to 2
        m = moments.moments_from_grid(fock_grid(0, kappa=2.0, points=1024))
        assert m.sigma_qq == pytest.approx(0.125, abs=1e-5)
        assert m.sigma_pp == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_composition_gives_partial_scaling(self, lam):
        # the squeeze kappa = lam^-1/2 then the scaling sqrt(lam): exactly |lam| W_n(q, lam p);
        # the extents are the composed states' default extents
        extent = {0.25: 32.0, 0.5: 16.0}[lam]
        for n in range(4):
            composed = fock_grid(n, np.sqrt(lam), lam**-0.5, extent=extent, points=2048)
            direct = apply_partial_scaling(fock_grid(n, extent=extent, points=2048), lam)
            assert np.abs(composed.values - direct.values).max() < 1e-3


class TestPartialScaling:
    def test_identity(self):
        w = fock_grid(1)
        np.testing.assert_allclose(apply_partial_scaling(w, 1.0).values, w.values, atol=1e-12)

    def test_momentum_reflection_on_even_state(self):
        w = fock_grid(0)
        np.testing.assert_allclose(apply_partial_scaling(w, -1.0).values, w.values, atol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_partial_scaling(fock_grid(0), 0.0)

    def test_momentum_variance_scales_inverse_square(self):
        w = fock_grid(1, extent=16.0, points=1024)
        before = moments.moments_from_grid(w)
        after = moments.moments_from_grid(apply_partial_scaling(w, 0.5))
        assert after.sigma_pp == pytest.approx(4.0 * before.sigma_pp, abs=2e-3)
        assert after.sigma_qq == pytest.approx(before.sigma_qq, abs=2e-3)


class TestOverlap:
    def test_ground_state_purity(self):
        w = fock_grid(0)
        assert overlap(w, w) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_fock_states(self):
        assert overlap(fock_grid(0), fock_grid(1)) == pytest.approx(0.0, abs=1e-6)

    def test_scaled_overlap_frozen_value(self):
        spec = GridSpec(80.0)
        value = overlap(
            sample_to_grid(AnalyticWigner(0), spec),
            sample_to_grid(AnalyticWigner(1, scale=0.1), spec),
        )
        assert value == pytest.approx(-0.0194098617782570, abs=1e-6)

    def test_scaled_overlap_against_dblquad_oracle(self):
        # independent evaluation of the same integral with adaptive quadrature
        lam = 0.25

        def integrand(p, q):
            r2 = q * q + p * p
            w0 = 2.0 * np.exp(-r2)
            w1s = 2.0 * lam**2 * (2.0 * lam**2 * r2 - 1.0) * np.exp(-(lam**2) * r2)
            return w0 * w1s / (2.0 * np.pi)

        oracle, err = integrate.dblquad(integrand, -30, 30, -30, 30, epsabs=1e-12)
        assert err < 1e-8
        spec = GridSpec(32.0)
        value = overlap(
            sample_to_grid(AnalyticWigner(0), spec),
            sample_to_grid(AnalyticWigner(1, scale=lam), spec),
        )
        assert value == pytest.approx(oracle, abs=1e-9)
        assert oracle == pytest.approx(closed_form_fidelity(lam), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75, 1.0, 1.5])
    def test_closed_form_fidelity(self, lam):
        spec = GridSpec(8.0 * max(1.0, 1.0 / lam))
        value = overlap(
            sample_to_grid(AnalyticWigner(0), spec),
            sample_to_grid(AnalyticWigner(1, scale=lam), spec),
        )
        assert value == pytest.approx(closed_form_fidelity(lam), abs=1e-6)
        if lam < 1.0:
            assert value < 0.0

    def test_symmetric(self):
        a, b = fock_grid(0), fock_grid(1)
        assert overlap(a, b) == overlap(b, a)

    def test_spec_mismatch_rejected(self):
        with pytest.raises(ValueError):
            overlap(fock_grid(0), fock_grid(1, lam=0.5))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("kappa", [1.0, 1.3, 2.0])
    def test_purity_bound_for_valid_states(self, n, kappa):
        w = fock_grid(n, kappa=kappa)
        assert overlap(w, w) <= 1.0 + 1e-6


class TestRealKernels:
    @pytest.mark.parametrize("n", [16, 256, 512, 1024])
    def test_half_cell_shift_is_scipy_resample(self, n):
        # the odd rows of scipy's 2x upsample, within twice scipy's own round-off on its even
        # rows (whose exact values are the input): the ratio measured 0.88-1.25 for these n,
        # and the difference at most 1.8e-15 at n = 1024
        values = np.random.default_rng(n).standard_normal((n, n))
        upsampled = resample(values, 2 * n, axis=0)
        even_rows_error = np.abs(upsampled[::2] - values).max()
        shifted = phase_space._half_cell_shift(values)
        assert shifted.shape == (n - 1, n)
        assert np.abs(shifted - upsampled[1 : 2 * n - 1 : 2]).max() <= 2 * even_rows_error

    @pytest.mark.parametrize("points,extent", [(16, 8.0), (18, 1e-3), (250, 40.0), (1024, 16.0), (512, 1e6)])
    def test_parity_tables_equal_the_full_evaluation(self, points, extent):
        # the transforms evaluate cos and sin on half the axis and mirror them, which needs
        # numpy's cos to be exactly even and its sin exactly odd: a libm without that fails here
        spec = GridSpec(extent, points)
        h, x = spec.step, spec.axis()
        t = np.arange(points // 2)
        # the frequencies of wigner_to_density's two parities and of density_to_wigner
        for freqs in (np.arange(0, points, 2) * h, np.arange(1, points, 2) * h, 2.0 * h * t):
            for func in (np.cos, np.sin):
                table = phase_space._parity_table(func, x, freqs)
                assert np.array_equal(table.view(np.int64), func(np.outer(x, freqs)).view(np.int64))
        # density_to_wigner takes its phases as np.outer(2 h t, x), the transpose: also exact
        assert np.array_equal(np.outer(2.0 * h * t, x), np.outer(x, 2.0 * h * t).T)

    @pytest.mark.parametrize("points", [64, 256, 512])
    @pytest.mark.parametrize("n", range(6))
    def test_transforms_match_complex_kernel_reference(self, n, points):
        for lam, kappa in [(0.6, 1.0), (1.0, 1.4), (0.8, 0.7)]:
            state = AnalyticWigner(n, lam, kappa)
            w = evaluated_grid(state, GridSpec(phase_space.default_grid(state).extent, points))
            rho = wigner_to_density(w)
            assert np.abs(rho.values - complex_kernel_wigner_to_density(w).values).max() <= 1e-14
            assert not rho.values.diagonal().imag.any()
            back = density_to_wigner(rho).values
            assert np.abs(back - complex_kernel_density_to_wigner(rho)).max() <= 1e-14

    def test_transforms_match_full_table_real_kernels(self):
        # random even grids of 16-512 points on extent 8, each with a drawn state the grid rule
        # accepts there; no state fits a grid of 20 points or fewer, so a grid gets 100 draws
        rng = np.random.default_rng(20261018)
        checked = 0
        for _ in range(100):
            spec = GridSpec(8.0, 2 * int(rng.integers(8, 257)))
            for _ in range(100):
                state = AnalyticWigner(int(rng.integers(0, 6)), rng.uniform(0.5, 1.0), rng.uniform(0.7, 1.4))
                if refusal(state, spec) is None:
                    break
            else:
                continue
            w = sample_to_grid(state, spec)
            rho = wigner_to_density(w)
            # the parity split takes the same dot product for every entry it keeps; BLAS may
            # block the half-width product differently, which moves the last bit of a few entries
            ref = full_table_wigner_to_density(w).values
            assert np.abs(rho.values.real - ref.real).max() <= 2 * np.finfo(float).eps * np.abs(ref).max()
            # a sampled W is even in p, so rho is real: the reference's imaginary part is rounding noise
            assert not rho.values.imag.any() and not np.signbit(rho.values.imag).any()
            back = density_to_wigner(rho).values
            assert np.abs(back - full_range_density_to_wigner(rho)).max() <= 1e-15
            checked += 1
            if checked == 24:
                break
        assert checked == 24

    @staticmethod
    def assert_fill_is_the_zero_table(w, even_in_p):
        # the signs of zero included: mirrored imaginary entries are written as 0.0 - x, so the
        # diagonal's imaginary part reads +0.0. For W even in p the sin products are skipped:
        # rho's imaginary part is +0.0 everywhere, where the reference's holds rounding noise,
        # and the reference is compared with its imaginary part zeroed
        assert np.array_equal(w.values, w.values[:, ::-1]) == even_in_p
        rho = wigner_to_density(w)
        assert not np.signbit(rho.values.diagonal().imag).any()
        ref = zero_table_wigner_to_density(w).values
        if even_in_p:
            assert not rho.values.imag.any() and not np.signbit(rho.values.imag).any()
            ref = ref.real.astype(complex)
        assert np.array_equal(bits(rho.values), bits(ref))
        ref = phase_space.PositionDensity(w.spec, ref)
        assert np.array_equal(bits(density_to_wigner(rho).values), bits(density_to_wigner(ref).values))
        return rho

    # the grids of 18, 66 and 250 points have an odd n/2, so a parity's product has an odd width
    @pytest.mark.parametrize("points,lam,kappa,n",
                             [(32, 1.0, 1.0, 0), (64, 0.6, 1.4, 0), (128, 0.9, 1.0, 2), (256, 0.8, 0.7, 2),
                              (512, 0.5, 1.3, 3), (1024, 0.6, 1.0, 1), (2048, 0.7, 1.0, 4),
                              (18, 1.0, 1.0, 0), (66, 0.6, 1.0, 1), (250, 0.8, 1.3, 4)])
    def test_diagonal_fill_equals_the_zero_table_bit_for_bit(self, points, lam, kappa, n):
        state = AnalyticWigner(n, lam, kappa)
        spec = GridSpec(phase_space.default_grid(state).extent, points)
        self.assert_fill_is_the_zero_table(evaluated_grid(state, spec), even_in_p=True)

    @pytest.mark.parametrize("points", [16, 18, 66, 250, 512])
    def test_diagonal_fill_of_a_random_grid_equals_the_zero_table_bit_for_bit(self, points):
        # a grid not even in p, so the sin products and rho's imaginary part are nonzero
        spec = GridSpec(8.0, points)
        values = np.random.default_rng(points).standard_normal((points, points))
        values /= values.sum() * spec.quadrature_weight
        rho = self.assert_fill_is_the_zero_table(phase_space.GridWigner(spec, values), even_in_p=False)
        assert np.count_nonzero(rho.values.imag) == points * (points - 1)

    @settings(max_examples=30, deadline=None)
    @given(half_points=st.integers(8, 160), extent=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_fill_of_a_grid_even_in_p_equals_the_zero_table_bit_for_bit(self, half_points, extent, seed, data):
        # W made exactly even in p skips the sin products; the same W with one cell one ulp away
        # from its mirror takes the full path, and both of its parts are the reference's
        points = 2 * half_points
        spec = GridSpec(extent, points)
        values = np.random.default_rng(seed).standard_normal((points, points))
        values = (values + values[:, ::-1]) / 2
        values /= values.sum() * spec.quadrature_weight
        self.assert_fill_is_the_zero_table(phase_space.GridWigner(spec, values), even_in_p=True)
        i, j = data.draw(st.integers(0, points - 1)), data.draw(st.integers(0, points - 1))
        values[i, j] = np.nextafter(values[i, j], data.draw(st.sampled_from([-np.inf, np.inf])))
        rho = self.assert_fill_is_the_zero_table(phase_space.GridWigner(spec, values), even_in_p=False)
        assert rho.values.imag.any()

    @pytest.mark.parametrize("points", [16, 18, 64, 250, 512])
    def test_half_range_inverse_drops_only_zero_diagonals(self, points):
        spec = GridSpec(8.0, points)
        rng = np.random.default_rng(points)
        a = rng.standard_normal((points, points)) + 1j * rng.standard_normal((points, points))
        rho = phase_space.PositionDensity(spec, a + a.conj().T)
        assert not full_range_diagonals(rho)[:, points // 2:].any()
        full = full_range_density_to_wigner(rho)
        assert np.abs(density_to_wigner(rho).values - full).max() <= 1e-15 * np.abs(full).max()

    @pytest.mark.parametrize("points", [16, 18, 250])
    def test_inverse_reads_only_even_sub_diagonals(self, points):
        # anti-diagonal t of rho is its sub-diagonal 2t, so entries with i - j odd never reach W
        spec = GridSpec(8.0, points)
        rng = np.random.default_rng(points)
        a = rng.standard_normal((points, points)) + 1j * rng.standard_normal((points, points))
        idx = np.arange(points)
        a *= (idx[:, None] - idx) % 2
        rho = phase_space.PositionDensity(spec, a + a.conj().T)
        assert rho.values.any()
        assert not density_to_wigner(rho).values.any()

    @pytest.mark.parametrize("points", [16, 18, 66, 250, 512, 1024])
    def test_inverse_equals_the_complex_buffer_reference_bit_for_bit(self, points):
        # a Hermitian rho with about a third of its entries zeroed in pairs, so zeros meet both
        # gathers; 18, 66 and 250 points have an odd n/2. A real rho, whose zeros here are -0.0,
        # skips the sin product and must still read the reference's cos -+ (+0.0)
        spec = GridSpec(8.0, points)
        rng = np.random.default_rng(points)
        for complex_valued in (True, False):
            a = rng.standard_normal((points, points)) + 1j * rng.standard_normal((points, points))
            a[rng.random((points, points)) < 0.3] = 0.0
            a = a + a.conj().T
            if not complex_valued:
                a = a.real.copy()
                a[a == 0] = -0.0
            assert (a == 0).any() and a.imag.any() == complex_valued
            rho = phase_space.PositionDensity(spec, a.astype(complex))
            assert np.array_equal(bits(density_to_wigner(rho).values), bits(complex_buffer_density_to_wigner(rho)))

    @pytest.mark.parametrize("transform,bytes_per_point",
                             [(wigner_to_density, 24), (density_to_wigner, 16), (density_to_wigner, 12)])
    def test_transform_peak_memory_at_1024_points(self, transform, bytes_per_point):
        # the README's figures: wigner_to_density holds rho (16 bytes a point) beside the two
        # half-width odd products (4 each); density_to_wigner of a complex rho peaks (16.0
        # measured) while W (8) takes the cos product beside the sin product (4) and the
        # n/2 x n/2 phase and cos tables (2 each); before it, the imaginary anti-diagonals (4) sit
        # beside the sin table, the phases and that product. A real rho, from a W even in p,
        # skips the sin product (12.0 measured). The allowance covers eight axis-length vectors
        # and numpy's iterator buffer (getbufsize() doubles), which the strided writes into W use
        state = AnalyticWigner(1, 0.5)
        w = sample_to_grid(state, phase_space.default_grid(state, 1024))
        complex_rho = transform is density_to_wigner and bytes_per_point == 16
        if complex_rho:  # W moved one cell along p, so it is no longer even in p
            w = phase_space.GridWigner(w.spec, np.roll(w.values, 1, axis=1))
        rho = wigner_to_density(w)  # untraced, so numpy's FFT plan for the length is cached already
        assert rho.values.imag.any() == complex_rho
        source = w if transform is wigner_to_density else rho
        tracemalloc.start()
        try:
            transform(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_point * 1024**2 + 8 * (8 * 1024 + np.getbufsize())

    def test_peak_memory_within_the_grid_cap_figure(self):
        # GridSpec's refusal message scales this per-point figure to the requested grid
        w = fock_grid(1, 0.5)
        tracemalloc.start()
        try:
            density_to_wigner(wigner_to_density(w))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * phase_space._TRANSFORM_BYTES_PER_POINT * w.spec.points_per_axis**2


class TestWignerToDensity:
    def test_ground_state_matches_hermite_outer_product(self):
        rho = wigner_to_density(fock_grid(0))
        x = rho.spec.axis()
        psi0 = np.pi**-0.25 * np.exp(-x * x / 2.0)
        np.testing.assert_allclose(rho.values.real, np.outer(psi0, psi0), atol=1e-5)
        assert np.abs(rho.values.imag).max() < 1e-10

    def test_ground_state_diagonal_nonnegative(self):
        rho = wigner_to_density(fock_grid(0))
        assert rho.values.real.diagonal().min() >= -1e-6

    def test_trace_one(self):
        rho = wigner_to_density(fock_grid(1))
        assert rho.trace() == pytest.approx(1.0, abs=1e-6)

    def test_hermitian_by_construction(self):
        rho = wigner_to_density(fock_grid(1, lam=0.5))
        assert np.abs(rho.values - rho.values.conj().T).max() <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), st.floats(0.45, 1.5), st.floats(0.5, 2.0))
    def test_matches_the_closed_form_density(self, n, lam, kappa):
        # on default grids of 512 points free of aliasing, 4 extent^2 <= pi N: the worst of 400
        # random draws was 20 eps. On 256 points, and past lam = 1.5, the odd-parity entries
        # depart from the closed form (README, "Numerical notes")
        state = AnalyticWigner(n, lam, kappa)
        assume(4.0 * phase_space.default_grid(state).extent ** 2 <= np.pi * 512)
        spec = phase_space.default_grid(state, 512)
        rho = wigner_to_density(sample_to_grid(state, spec)).values
        want = closed_form_density(state, spec)
        assert np.abs(rho - want).max() <= 64 * np.finfo(float).eps * np.abs(want).max()

    def test_unnormalized_rejected(self):
        w = fock_grid(0)
        doubled = phase_space.GridWigner(w.spec, 2.0 * w.values)
        with pytest.raises(ValueError, match="not normalized"):
            wigner_to_density(doubled)


class TestDensityToWigner:
    def test_ground_state_density_maps_to_wigner(self):
        # oracle input: exact Hermite-function outer product, not the grid pipeline
        spec = GridSpec(8.0)
        x = spec.axis()
        psi0 = np.pi**-0.25 * np.exp(-x * x / 2.0)
        rho = phase_space.PositionDensity(spec, np.outer(psi0, psi0))
        w = density_to_wigner(rho)
        expected = sample_to_grid(AnalyticWigner(0), spec)
        n = spec.points_per_axis
        inner = slice(n // 4, 3 * n // 4)
        assert np.abs(w.values[inner, inner] - expected.values[inner, inner]).max() < 1e-5

    def test_non_hermitian_rejected(self):
        spec = GridSpec(8.0, 16)
        bad = np.eye(16, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            phase_space.PositionDensity(spec, bad)

    @pytest.mark.parametrize("n,lam,tol", [(0, 1.0, 1e-5), (1, 1.0, 1e-5), (1, 0.5, 1e-4)])
    def test_round_trip(self, n, lam, tol):
        w = fock_grid(n, lam=lam)
        back = density_to_wigner(wigner_to_density(w))
        size = w.spec.points_per_axis
        inner = slice(size // 4, 3 * size // 4)
        assert np.abs(back.values[inner, inner] - w.values[inner, inner]).max() <= tol
        assert abs(back.norm() - w.norm()) <= 1e-5

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_transform_inversion_fock_states(self, n):
        w = fock_grid(n)
        back = density_to_wigner(wigner_to_density(w))
        size = w.spec.points_per_axis
        inner = slice(size // 4, 3 * size // 4)
        assert np.abs(back.values[inner, inner] - w.values[inner, inner]).max() <= 1e-5
