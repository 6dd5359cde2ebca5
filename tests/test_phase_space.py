import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.signal import resample
from scipy.special import eval_laguerre

from conftest import fock_grid
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
    mids = resample(w.values, 2 * n, axis=0)[: 2 * n - 1]
    phase = np.outer(x, np.arange(n) * h)
    re = (mids @ np.cos(phase)) * (h / (2.0 * np.pi))
    im = (mids @ np.sin(phase)) * (h / (2.0 * np.pi))
    idx = np.arange(n)
    d = idx[:, None] - idx
    flat = (idx[:, None] + idx) * n + np.abs(d)
    return phase_space.PositionDensity(w.spec, re.take(flat) + 1j * np.sign(d) * im.take(flat))


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


def mesh_fock_wigner(state, spec):
    """Reference: the sampled grid as first written, the closed forms over two n x n meshes."""
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
        base = 2.0 * (-1.0) ** n * phase_space._laguerre(n, 2.0 * r2) * np.exp(-r2)
    return lam * lam * base


def resolved(n, lam, kappa, spec):
    """The scaled, squeezed Fock state n is resolved and covered by `spec`.

    In the state's own coordinates the step is h * lam * max(kappa, 1/kappa);
    it must be at most 1/sqrt(2n + 2), and the extent must reach 3 past the
    turning point sqrt(2n + 1). Over n <= 5, lam in [0.5, 1] and kappa in
    [0.7, 1.4] such grids hold the quadrature norm within 1e-7 of 1.
    """
    stretch = max(kappa, 1.0 / kappa)
    return (spec.step * lam * stretch * np.sqrt(2 * n + 2) <= 1.0
            and spec.extent * lam / stretch >= np.sqrt(2 * n + 1) + 3.0)


class TestTypes:
    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 64)
        with pytest.raises(ValueError):
            GridSpec(8.0, 8)
        with pytest.raises(ValueError):
            GridSpec(8.0, 33)

    def test_grid_axis_is_cell_centered(self):
        spec = GridSpec(8.0, 16)
        x = spec.axis()
        assert x[0] == -8.0 + spec.step / 2
        assert np.allclose(x + x[::-1], 0.0)

    def test_analytic_state_validation(self):
        with pytest.raises(ValueError):
            AnalyticWigner(-1)
        with pytest.raises(ValueError):
            AnalyticWigner(0, scale=0.0)
        with pytest.raises(ValueError):
            AnalyticWigner(0, squeeze=-2.0)

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
        # n = 1 evaluated through the generic Laguerre path
        state = AnalyticWigner(1)
        q = np.linspace(-2, 2, 17)
        expected = 2.0 * (2 * q**2 + 2 * 0.3**2 - 1) * np.exp(-(q**2) - 0.3**2)
        np.testing.assert_allclose(eval_fock_wigner(state, q, 0.3), expected, atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 31))
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
        with pytest.raises(ValueError, match="required 40"):
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
        # extents from the smallest accepted up to 40, where exp underflows to exact zeros
        required = 4.0 * max(1.0, 1.0 / abs(lam))
        spec = GridSpec(required + reach * (40.0 - required), 2 * half_points)
        got = sample_to_grid(AnalyticWigner(n, lam, kappa), spec).values
        assert np.array_equal(got.view(np.int64), mesh_fock_wigner(AnalyticWigner(n, lam, kappa), spec).view(np.int64))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_eval_returns_a_scalar_or_the_broadcast_shape(self, n):
        state = AnalyticWigner(n, 0.7, 1.3)
        value = eval_fock_wigner(state, 0.3, -0.2)
        assert type(value) is np.float64
        assert value == eval_fock_wigner(state, np.array([0.3]), np.array([-0.2]))[0]
        assert eval_fock_wigner(state, np.zeros((3, 1)), np.zeros(5)).shape == (3, 5)
        assert eval_fock_wigner(state, np.zeros(4), 0.5).shape == (4,)

    @pytest.mark.parametrize("n,grids", [(0, 2), (1, 2), (2, 5), (5, 5)])
    def test_peak_memory_at_1024_points(self, n, grids):
        # two buffers for the closed forms and three more for the Laguerre recurrence, freed
        # before GridWigner's validated copy; the allowance covers the axis-length vectors
        spec = GridSpec(8.0, 1024)
        grid_bytes = 8 * 1024**2
        tracemalloc.start()
        try:
            sample_to_grid(AnalyticWigner(n, 0.8), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grids * grid_bytes + 8 * 8 * 1024

    def test_fock_index_up_to_the_points_per_axis(self):
        spec = GridSpec(8.0, 16)
        assert sample_to_grid(AnalyticWigner(16), spec).values.shape == (16, 16)
        with pytest.raises(ValueError, match="fock index 17 exceeds the 16 points per axis"):
            sample_to_grid(AnalyticWigner(17), spec)

    def test_oversized_fock_index_refused_before_sampling(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="fock index"):
            sample_to_grid(AnalyticWigner(100_000), GridSpec(8.0, 64))
        assert time.perf_counter() - start < 0.2  # the recurrence alone takes over a second here


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
        assert np.array_equal(sample_to_grid(AnalyticWigner(1, 1.0, 1.0)).values, fock_grid(1).values)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            AnalyticWigner(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            AnalyticWigner(0, 1.0, -1.0)

    def test_variances_change_by_kappa_squared(self):
        # W(2q, p/2): q variance shrinks 4x to 1/8, p variance grows 4x to 2
        m = moments.moments_from_grid(fock_grid(0, kappa=2.0, extent=8.0, points=1024))
        assert m.sigma_qq == pytest.approx(0.125, abs=1e-5)
        assert m.sigma_pp == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_composition_gives_partial_scaling(self, lam):
        # the squeeze kappa = lam^-1/2 then the scaling sqrt(lam): exactly |lam| W_n(q, lam p)
        extent = {0.25: 24.0, 0.5: 16.0}[lam]
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
    def test_midpoint_resample_is_scipy_resample(self, n):
        values = np.random.default_rng(n).standard_normal((n, n))
        assert np.array_equal(phase_space._midpoint_resample(values), resample(values, 2 * n, axis=0))

    @pytest.mark.parametrize("points", [64, 256, 512])
    @pytest.mark.parametrize("n", range(6))
    def test_transforms_match_complex_kernel_reference(self, n, points):
        for lam, kappa in [(0.6, 1.0), (1.0, 1.4), (0.8, 0.7)]:
            w = fock_grid(n, lam, kappa, points=points)
            rho = wigner_to_density(w)
            assert np.abs(rho.values - complex_kernel_wigner_to_density(w).values).max() <= 1e-14
            assert not rho.values.diagonal().imag.any()
            back = density_to_wigner(rho).values
            assert np.abs(back - complex_kernel_density_to_wigner(rho)).max() <= 1e-14

    def test_transforms_match_full_table_real_kernels(self):
        # random even grids of 16-512 points on extent 8, which holds every lam in [0.5, 1]
        rng = np.random.default_rng(20261018)
        for _ in range(24):
            spec = GridSpec(8.0, 2 * int(rng.integers(8, 257)))
            while True:
                n, lam, kappa = int(rng.integers(0, 6)), rng.uniform(0.5, 1.0), rng.uniform(0.7, 1.4)
                if resolved(n, lam, kappa, spec):
                    break
            w = sample_to_grid(AnalyticWigner(n, lam, kappa), spec)
            rho = wigner_to_density(w)
            # the parity split takes the same dot product for every entry it keeps; BLAS may
            # block the half-width product differently, which moves the last bit of a few entries
            ref = full_table_wigner_to_density(w).values
            assert np.abs(rho.values - ref).max() <= 2 * np.finfo(float).eps * np.abs(ref).max()
            back = density_to_wigner(rho).values
            assert np.abs(back - full_range_density_to_wigner(rho)).max() <= 1e-15

    @pytest.mark.parametrize("points", [16, 18, 64, 250, 512])
    def test_half_range_inverse_drops_only_zero_diagonals(self, points):
        spec = GridSpec(8.0, points)
        rng = np.random.default_rng(points)
        a = rng.standard_normal((points, points)) + 1j * rng.standard_normal((points, points))
        rho = phase_space.PositionDensity(spec, a + a.conj().T)
        assert not full_range_diagonals(rho)[:, points // 2:].any()
        full = full_range_density_to_wigner(rho)
        assert np.abs(density_to_wigner(rho).values - full).max() <= 1e-15 * np.abs(full).max()

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
