"""Property tests for the diagonal phase-space map, its action on moments and the validated types."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fock_grid
from wigscale import fock_space, gaussian_cv, moments, phase_space
from wigscale._validated import HERMITICITY_TOL, hermiticity_residual
from wigscale.phase_space import AnalyticWigner, GridSpec, _diagonal_map

SETTINGS = settings(max_examples=60, deadline=None)

fock_index = st.integers(0, 6)
points = st.sampled_from([16, 18, 24, 32, 50])
extents = st.floats(4.0, 12.0)
nonzero = st.floats(-2.0, 2.0).filter(lambda lam: abs(lam) > 0.05)
entries = st.floats(-10.0, 10.0)


def grid(n, extent, pts, kappa=1.0):
    return phase_space.sample_to_grid(AnalyticWigner(n, 1.0, kappa), GridSpec(extent, pts))


def source_indices(pts, a, b):
    center = 0.5 * (pts - 1)
    K, L = np.meshgrid(np.arange(pts) - center, np.arange(pts) - center, indexing="ij")
    return a * K + center, b * L + center


# the four sign diagonals (a, b): identity, both reflections and -I; every source is a cell center
cell_center_maps = st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]))
# diagonal maps (a, b): fractional sources of either sign, and the four sign diagonals
maps = st.one_of(st.tuples(nonzero, nonzero), cell_center_maps)


def with_negative_zeros(w, data):
    """`w` with a few cells drawn to hold -0.0."""
    values = w.values.copy()
    pts = values.shape[0]
    for _ in range(data.draw(st.integers(1, 4))):
        values[data.draw(st.integers(0, pts - 1)), data.draw(st.integers(0, pts - 1))] = -0.0
    return phase_space.GridWigner(w.spec, values)


def masked_bilinear(values, fi, fj):
    """Reference gather: bounds mask per corner, as the map was first written."""
    n = values.shape[0]
    i0, j0 = np.floor(fi).astype(int), np.floor(fj).astype(int)
    ti, tj = fi - i0, fj - j0

    def corner(ii, jj):
        vals = np.zeros_like(ti)
        ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
        vals[ok] = values[ii[ok], jj[ok]]
        return vals

    return (
        corner(i0, j0) * (1 - ti) * (1 - tj)
        + corner(i0 + 1, j0) * ti * (1 - tj)
        + corner(i0, j0 + 1) * (1 - ti) * tj
        + corner(i0 + 1, j0 + 1) * ti * tj
    )


class TestLinearMap:
    @SETTINGS
    @given(fock_index, points, extents, nonzero, st.floats(0.2, 5.0))
    def test_named_maps_are_the_primitive(self, n, pts, extent, lam, kappa):
        w = grid(n, extent, pts, kappa)
        cases = [
            (phase_space.apply_scaling(w, lam), (lam, lam)),
            (phase_space.apply_partial_scaling(w, lam), (1.0, lam)),
        ]
        for named, (a, b) in cases:
            direct = _diagonal_map(w, a, b).values
            assert np.array_equal(named.values, direct)
            fi, fj = source_indices(pts, a, b)
            assert np.array_equal(direct, abs(a * b) * masked_bilinear(w.values, fi, fj))

    @SETTINGS
    @given(fock_index, points, extents, maps, st.data())
    def test_every_map_is_the_masked_reference(self, n, pts, extent, ab, data):
        a, b = ab
        w = grid(n, extent, pts)
        fi, fj = source_indices(pts, a, b)
        if (fi % 1).any() or (fj % 1).any():
            # the four-corner sum, as in the reference, also on cells that hold -0.0
            w = with_negative_zeros(w, data)
        expected = abs(a * b) * masked_bilinear(w.values, fi, fj)
        # bit patterns: equal values, and equal signs of zero
        assert np.array_equal(_diagonal_map(w, a, b).values.view(np.int64), expected.view(np.int64))

    @SETTINGS
    @given(fock_index, points, extents, st.floats(0.2, 5.0))
    def test_identity_and_reflections_are_exact(self, n, pts, extent, kappa):
        w = grid(n, extent, pts, kappa)
        assert np.array_equal(_diagonal_map(w, 1.0, 1.0).values, w.values)
        assert np.array_equal(phase_space.apply_partial_scaling(w, -1.0).values, w.values[:, ::-1])
        assert np.array_equal(phase_space.apply_scaling(w, -1.0).values, w.values[::-1, ::-1])

    @SETTINGS
    @given(fock_index, points, extents, st.floats(0.2, 5.0), cell_center_maps)
    def test_cell_center_maps_are_the_masked_reference(self, n, pts, extent, kappa, ab):
        # every source is a cell center, so only one corner is gathered
        w = grid(n, extent, pts, kappa)
        assert not np.signbit(w.values[w.values == 0]).any()  # no -0.0, whose sign the shortcut keeps
        expected = masked_bilinear(w.values, *source_indices(pts, *ab))
        assert np.array_equal(_diagonal_map(w, *ab).values.view(np.int64), expected.view(np.int64))

    def test_cell_center_map_keeps_negative_zero(self):
        # the four-corner sum adds the zero-weight neighbours' +0.0 to a -0.0 cell and reads +0.0;
        # the one-corner gather returns the cell's own -0.0: equal values, another sign of zero
        values = grid(1, 8.0, 16).values.copy()
        values[3, 5] = -0.0
        w = phase_space.GridWigner(GridSpec(8.0, 16), values)
        mirrored = phase_space.apply_partial_scaling(w, -1.0).values
        expected = masked_bilinear(values, *source_indices(16, 1.0, -1.0))
        assert np.array_equal(mirrored, expected) and np.array_equal(mirrored, values[:, ::-1])
        assert np.signbit(mirrored[3, 10]) and not np.signbit(expected[3, 10])

    @SETTINGS
    @given(fock_index, points, extents, st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
    def test_sources_outside_the_grid_read_zero(self, n, pts, extent, ab):
        a, b = ab
        assume(abs(a * b) > 1e-3)
        out = _diagonal_map(grid(n, extent, pts), a, b).values
        fi, fj = source_indices(pts, a, b)
        outside = (fi <= -1) | (fi >= pts) | (fj <= -1) | (fj >= pts)
        assert np.all(out[outside] == 0.0)

    # A is the diagonal (a, b) of the map's matrix
    @pytest.mark.parametrize("A", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.5), (0.0, 1.0), (1.0, -0.0)])
    def test_malformed_matrix_rejected(self, A):
        with pytest.raises(ValueError):
            _diagonal_map(grid(0, 8.0, 16), *A)


def raw_moments(w):
    """Central second moments sum(x x^T W) dq dp / 2 pi, not divided by the norm.

    moments_from_grid needs norm 1, which a resampled grid keeps only to O(h^2), so the grid is
    rescaled to norm 1 and the moments scaled back (the means are 0 to round-off).
    """
    norm = w.norm()
    m = moments.moments_from_grid(phase_space.GridWigner(w.spec, w.values / norm))
    return norm * np.array([[m.sigma_qq, m.sigma_qp], [m.sigma_qp, m.sigma_pp]])


def resampling_bound(w):
    """(h^2 / 8) * integral of r^2 (|W_qq| + |W_pp|) dq dp / 2 pi, from second differences of `w`."""
    v, h = w.values, w.spec.step
    curvature = np.zeros_like(v)
    curvature[1:-1] += np.abs(v[2:] - 2.0 * v[1:-1] + v[:-2])
    curvature[:, 1:-1] += np.abs(v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2])
    x = w.spec.axis()
    r2 = x[:, None] ** 2 + x**2
    return (r2 * curvature).sum() * w.spec.quadrature_weight / 8.0  # curvature / h^2 times h^2 / 8


class TestCrossRepresentation:
    """The diagonal grid map takes the second moments to A^-1 Sigma A^-T, up to resampling.

    The map is W -> |det A| W(A x) with A = diag(a, b). Along each interpolated axis, linear
    interpolation at a fractional offset t errs by (h^2 / 2) t (1 - t) W'' <= (h^2 / 8) |W''|, h the
    grid step. With y = A x the moment error is A^-1 E A^-T, and every |E_ij| is at most
    :func:`resampling_bound`, so an entry is off by at most that bound times the largest row sum of
    |A^-1|, squared. The moments of the input itself converge far faster. Measured errors at 256,
    512 and 768 points stay below 0.36 of the bound.
    """

    EXTENT, POINTS = 8.0, 512  # the mapped Fock n <= 3 states stay inside the extent

    def assert_congruence(self, n, grid_map, expected, a_inv):
        w = fock_grid(n, extent=self.EXTENT, points=self.POINTS)
        want = expected(gaussian_cv.CovarianceMatrix(1, raw_moments(w))).matrix
        tol = resampling_bound(w) * np.abs(a_inv).sum(axis=1).max() ** 2
        assert np.abs(raw_moments(grid_map(w)) - want).max() <= tol

    @SETTINGS
    @given(st.integers(0, 3), st.floats(0.75, 1.3), st.sampled_from([-1.0, 1.0]))
    def test_partial_scaling_is_partial_scale(self, n, lam, sign):
        lam *= sign
        self.assert_congruence(
            n,
            lambda w: phase_space.apply_partial_scaling(w, lam),
            lambda cov: gaussian_cv.partial_scale(cov, 1, lam),
            np.diag([1.0, 1.0 / lam]),
        )

    @SETTINGS
    @given(st.integers(0, 3), st.floats(0.75, 1.3))
    def test_squeeze_is_squeeze_symplectic(self, n, kappa):
        self.assert_congruence(
            n,
            lambda w: _diagonal_map(w, kappa, 1.0 / kappa),
            lambda cov: gaussian_cv.squeeze_symplectic(cov, 1, kappa),
            np.diag([1.0 / kappa, kappa]),
        )


def hermitian(data, size, complex_valued):
    x = data.draw(arrays(float, (size, size), elements=entries))
    if complex_valued:
        x = x + 1j * data.draw(arrays(float, (size, size), elements=entries))
    return x + x.conj().T


# (constructor, size, complex-valued, Hermitian) for each validated type
TYPES = {
    "GridWigner": (lambda v: phase_space.GridWigner(GridSpec(8.0, 16), v), 16, False, False),
    "PositionDensity": (lambda v: phase_space.PositionDensity(GridSpec(8.0, 16), v), 16, True, True),
    "HermitianMatrix": (lambda v: moments.HermitianMatrix(v.shape[0], v), 3, True, True),
    "CovarianceMatrix": (lambda v: gaussian_cv.CovarianceMatrix(v.shape[0] // 2, v), 4, False, True),
}


@pytest.mark.parametrize("kind", TYPES)
class TestValidatedTypes:
    @SETTINGS
    @given(data=st.data())
    def test_non_finite_entry_rejected(self, kind, data):
        make, size, complex_valued, _ = TYPES[kind]
        values = hermitian(data, size, complex_valued).astype(complex if complex_valued else float)
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        values[i, j] = complex(0.0, bad) if complex_valued and data.draw(st.booleans()) else bad
        with pytest.raises(ValueError, match="non-finite"):
            make(values)

    @SETTINGS
    @given(data=st.data())
    def test_accepted_values_stored_hermitian_readonly_contiguous(self, kind, data):
        make, size, complex_valued, is_hermitian = TYPES[kind]
        values = hermitian(data, size, complex_valued)
        if is_hermitian:
            i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
            values[i, j] += data.draw(st.floats(0.0, 0.99 * HERMITICITY_TOL))
        if data.draw(st.booleans()):
            values = np.asfortranarray(values)
        obj = make(values)
        stored = next(v for v in vars(obj).values() if isinstance(v, np.ndarray))
        assert stored.flags.c_contiguous and not stored.flags.writeable
        if is_hermitian:
            assert np.array_equal(stored, stored.conj().T)
            assert np.abs(stored - values).max() <= HERMITICITY_TOL
        else:
            assert np.array_equal(stored, values)
        with pytest.raises(ValueError):
            stored[0, 0] = 1.0

    @SETTINGS
    @given(data=st.data())
    def test_callers_array_copied(self, kind, data):
        # a writable array, or a read-only view of one: the caller can still change either
        make, size, complex_valued, _ = TYPES[kind]
        values = hermitian(data, size, complex_valued).astype(complex if complex_valued else float)
        given_array = values
        if data.draw(st.booleans()):
            given_array = values.view()
            given_array.setflags(write=False)
        stored = next(v for v in vars(make(given_array)).values() if isinstance(v, np.ndarray))
        before = stored.copy()
        values += 1.0
        assert np.array_equal(stored, before)

    def test_frozen_array_that_owns_its_memory_stored_as_is(self, kind):
        make, size, complex_valued, _ = TYPES[kind]
        values = np.eye(size, dtype=complex if complex_valued else float)
        values.setflags(write=False)
        stored = next(v for v in vars(make(values)).values() if isinstance(v, np.ndarray))
        assert stored is values


@pytest.mark.parametrize("kind", [kind for kind, spec in TYPES.items() if spec[3]])
@SETTINGS
@given(data=st.data())
def test_residual_above_tolerance_rejected(kind, data):
    make, size, complex_valued, _ = TYPES[kind]
    values = hermitian(data, size, complex_valued).astype(complex if complex_valued else float)
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1).filter(lambda j: j != i or complex_valued))
    skew = data.draw(st.floats(1.01 * HERMITICITY_TOL, 1.0))
    values[i, j] += 1j * skew if i == j else skew
    with pytest.raises(ValueError, match="Hermitian|symmetric"):
        make(values)


@SETTINGS
@given(
    size=st.sampled_from([63, 64, 65, 127, 128, 129, 300]) | st.integers(1, 300),
    complex_valued=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    change=st.sampled_from(["none", "nan", "inf"]),
    data=st.data(),
)
def test_blocked_residual_is_the_whole_difference(size, complex_valued, seed, change, data):
    # above one block the residual is read in row blocks on and above the diagonal; it must
    # return the whole difference's maximum exactly, NaN included, an exactly Hermitian array
    # holding both signs of zero must read 0, and one entry off, above or below the
    # diagonal, must still be refused by the constructors
    if not complex_valued:
        size += size % 2  # covariance matrices have even size
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size, size))
    if complex_valued:
        x = x + 1j * rng.standard_normal((size, size))
    assert hermiticity_residual(x) == np.abs(x - x.conj().T).max()
    values = x + x.conj().T
    zeros = rng.random((size, size)) < 0.3
    zeros |= zeros.T
    signed_zeros = np.copysign(0.0, rng.standard_normal((zeros.sum(), 2)))  # real and imaginary parts
    values[zeros] = (signed_zeros.view(complex) if complex_valued else signed_zeros)[:, 0]
    assert hermiticity_residual(values) == 0.0
    if change != "none":
        k, m = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        bad = values.copy()
        bad[k, m] = np.nan if change == "nan" else np.inf
        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.array_equal(hermiticity_residual(bad), np.abs(bad - bad.conj().T).max(), equal_nan=True)
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1).filter(lambda j: j != i or complex_valued))
    values[i, j] += 1e-9j if i == j else 1e-9
    residual = hermiticity_residual(values)
    assert residual == np.abs(values - values.conj().T).max() > HERMITICITY_TOL
    if complex_valued:
        make, message = (lambda v: moments.HermitianMatrix(size, v)), "matrix not Hermitian: max |M - M^dag|"
    else:
        make, message = (lambda v: gaussian_cv.CovarianceMatrix(size // 2, v)), "covariance matrix not symmetric: max |M - M^T|"
    with pytest.raises(ValueError) as refused:
        make(values)
    assert str(refused.value) == f"{message} = {residual:.3e}"


class TestToleranceRegressions:
    def test_covariance_asymmetry_decided_at_construction(self):
        # above the tolerance the constructor refuses; below it the state check runs without raising
        sigma = 0.5 * np.eye(2)
        sigma[0, 1] = 1e-11
        with pytest.raises(ValueError, match="symmetric"):
            gaussian_cv.CovarianceMatrix(1, sigma)
        sigma[0, 1] = 0.5 * HERMITICITY_TOL
        ok, _ = gaussian_cv.is_valid_state(gaussian_cv.CovarianceMatrix(1, sigma))
        assert ok

    @SETTINGS
    @given(arrays(float, (4, 4), elements=st.floats(-2.0, 2.0)), st.floats(0.0, 1e-10))
    def test_accepted_covariance_always_reaches_a_verdict(self, x, skew):
        # the window (HERMITICITY_TOL, 1e-10] was once accepted here and then refused by is_valid_state
        sigma = x @ x.T + 0.5 * np.eye(4)
        sigma[0, 1] += skew
        try:
            cov = gaussian_cv.CovarianceMatrix(2, sigma)
        except ValueError:
            return
        ok, low = gaussian_cv.is_valid_state(cov)
        assert isinstance(ok, bool) and np.isfinite(low)

    def test_nan_operator_rejected_not_certified(self):
        rho = moments.HermitianMatrix(8, np.diag([1.0] + [0.0] * 7))
        ops = fock_space.quadrature_pair_operators(8)
        ops[0][0] = np.full((8, 8), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            moments.is_psd(fock_space.moment_matrix(rho, ops))


class TestGridSize:
    def test_largest_grid_accepted(self):
        assert GridSpec(8.0, phase_space.MAX_POINTS).points_per_axis == 4096

    @pytest.mark.parametrize("pts", [4098, 100000])
    def test_oversized_grid_rejected_with_memory_estimate(self, pts):
        with pytest.raises(ValueError, match=r"exceeds the limit 4096.*GB"):
            GridSpec(8.0, pts)


@st.composite
def gaussian_states(draw, min_modes=2):
    """A valid N-mode covariance S diag(nu, nu) S^T (Williamson form), min_modes <= N <= 4, and a mode subset to scale.

    S = O_2 Z O_1 with Z a squeeze and O_k passive (orthogonal symplectic) maps
    built from random unitaries; every symplectic eigenvalue nu is >= 1/2.
    """
    modes = draw(st.integers(min_modes, 4))
    unit = st.floats(-1.0, 1.0)

    def passive():
        z = draw(arrays(float, (2, modes, modes), elements=unit))
        u, _ = np.linalg.qr(z[0] + 1j * z[1])
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    squeeze = np.exp(draw(arrays(float, modes, elements=st.floats(-1.2, 1.2))))
    nu = 0.5 + draw(arrays(float, modes, elements=st.floats(0.0, 1.0)))
    sympl = passive() @ np.diag(np.concatenate([squeeze, 1.0 / squeeze])) @ passive()
    sigma = sympl @ np.diag(np.concatenate([nu, nu])) @ sympl.T
    partition = draw(st.sets(st.integers(1, modes), min_size=1, max_size=modes))
    return gaussian_cv.CovarianceMatrix(modes, 0.5 * (sigma + sigma.T)), partition


class TestScanStructure:
    """Sigma_lambda + iJ/2 = D (Sigma + iJ_lambda/2) D with D invertible and the right side affine in
    lambda, so the lambda with a negative eigenvalue form an interval starting at -1, the partial
    transpose.

    The tolerance can flip a point whose eigenvalue lies inside its band, |low| <= PSD_TOL * scale
    with the scale growing as 1/lambda^2; there the flags need not be monotone. One pure 4-mode
    state, with eigenvalues between -3e-9 and -2e-11 on [-0.25, 0.95], is flagged on [-1, -0.2] and
    [0.35, 0.75] but not on [-0.15, 0.3]. So the interval is checked on the points decided by sign
    alone: the scaled entries here stay below 1e4, so |low| >= 1e-6 lies outside every band.
    """

    @settings(max_examples=150, deadline=None)
    @given(gaussian_states())
    def test_grid_verdict_is_the_partial_transpose_verdict(self, case):
        cov, partition = case
        transpose = gaussian_cv.separability_scan(cov, partition, [-1.0])
        assume(abs(transpose.min_eigenvalues[0]) >= 1e-3)
        report = gaussian_cv.separability_scan(cov, partition, gaussian_cv.default_lambda_grid())
        assert report.verdict == transpose.verdict
        clear = [(lam in report.violations, low < 0) for lam, low in zip(report.lam_grid, report.min_eigenvalues)
                 if abs(low) >= 1e-6]
        assert all(flag == negative for flag, negative in clear)
        flags = [flag for flag, _ in clear]
        assert flags == sorted(flags, reverse=True)  # violations first, then none


def one_loop_scan(cov, partition, grid, tol=moments.PSD_TOL):
    """The scan as a single loop that scales and judges each lambda in turn.

    Returns (min_eigenvalues, violations, outside_criterion, verdict), or the first
    lambda whose chain of partial_scale calls overflows.
    """
    lows, violations, outside = [], [], []
    for lam in grid:
        scaled = cov
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for mode in sorted(partition):
                    scaled = gaussian_cv.partial_scale(scaled, mode, lam)
        except ValueError:  # the covariance refuses a non-finite entry
            return lam
        ok, low = moments.is_psd(moments.multimode_uncertainty_matrix(scaled), tol)
        lows.append(low)
        if abs(lam) > 1.0:
            outside.append(lam)
        elif not ok:
            violations.append(lam)
    return lows, violations, outside, "entanglement_detected" if violations else "no_violation"


# lambda in [-2, 2] away from 0, or down to the smallest subnormal, where the scaled entries overflow
scan_lambdas = st.one_of(
    st.floats(-2.0, 2.0).filter(lambda lam: lam != 0.0),
    st.builds(lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]), st.floats(5e-324, 1e-140)),
)


@settings(max_examples=200, deadline=None)
@given(gaussian_states(min_modes=1), st.lists(scan_lambdas, min_size=1, max_size=12))
def test_scan_equals_the_one_loop_scan_or_refuses_before_any_eigen_solve(case, grid):
    cov, partition = case
    expected = one_loop_scan(cov, partition, grid)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        if isinstance(expected, float):
            with pytest.raises(gaussian_cv.ScaleOverflowError) as refused:
                gaussian_cv.separability_scan(cov, partition, grid)
            assert str(refused.value) == f"scaling parameter {expected} overflows the scaled covariance matrix"
            assert eigvalsh.call_count == 0
            return
        report = gaussian_cv.separability_scan(cov, partition, grid)
    lows, violations, outside, verdict = expected
    assert report.lam_grid == grid
    assert np.array_equal(np.array(report.min_eigenvalues).view(np.int64), np.array(lows).view(np.int64))
    assert (report.violations, report.outside_criterion, report.verdict) == (violations, outside, verdict)
