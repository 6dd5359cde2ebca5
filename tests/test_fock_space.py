import numpy as np
import pytest
from scipy.special import eval_hermite, factorial

from conftest import fock_density, fock_grid, fock_projection
from wigscale.fock_space import (
    HERMITE_INDEX_LIMIT,
    _hermite_basis,
    ladder_operators,
    moment_matrix,
    project_state,
    quadrature_pair_operators,
    spectrum,
)
from wigscale.moments import HermitianMatrix
from wigscale.phase_space import GridSpec, PositionDensity


def scaled_first_excited_overlap(lam):
    """<0|rho|0> of the scaled first excited state, from the Gaussian integral."""
    return 2.0 * lam**2 * (lam**2 - 1.0) / (1.0 + lam**2) ** 2


def hermite_function(n, x):
    """psi_n(x): row n of the basis that project_state uses."""
    return _hermite_basis(n + 1, np.atleast_1d(np.asarray(x, dtype=float)))[n]


class TestHermiteFunction:
    def test_ground_state_at_origin(self):
        assert hermite_function(0, 0.0)[0] == pytest.approx(np.pi**-0.25)
        assert hermite_function(0, 0.0)[0] == pytest.approx(0.7511255444649425)

    def test_first_excited_odd(self):
        assert hermite_function(1, 0.0)[0] == 0.0

    @pytest.mark.parametrize("n", range(11))
    def test_normalization_by_quadrature(self, n):
        x = np.linspace(-12.0, 12.0, 4001)
        values = hermite_function(n, x)
        assert np.trapezoid(values * values, x) == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_array_equal(hermite_function(n, -x), (-1) ** n * values)  # parity

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14])
    def test_matches_physicists_hermite_polynomials(self, n):
        x = np.linspace(-4.0, 4.0, 41)
        norm = 1.0 / np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))
        expected = norm * eval_hermite(n, x) * np.exp(-x * x / 2.0)
        np.testing.assert_allclose(hermite_function(n, x), expected, atol=1e-12)

    def test_index_limit(self):
        # project_state evaluates psi_0 .. psi_{dim-1}; the limit is checked before any grid guard
        rho = fock_density(0)
        dim = HERMITE_INDEX_LIMIT + 2
        with pytest.raises(ValueError, match=f"dim {dim} exceeds supported limit {dim - 1}"):
            project_state(rho, dim)
        with pytest.raises(ValueError, match="turning point"):
            project_state(rho, HERMITE_INDEX_LIMIT + 1)
        with pytest.raises(ValueError, match="dim must be positive"):
            project_state(rho, 0)

    def test_no_overflow_at_high_index(self):
        values = hermite_function(HERMITE_INDEX_LIMIT, np.linspace(-25, 25, 101))
        assert np.all(np.isfinite(values))


class TestLadderOperators:
    def test_two_level_position_operator(self):
        q, _ = ladder_operators(2)
        np.testing.assert_allclose(
            q.entries, np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0), atol=1e-15
        )

    def test_first_excited_position_dispersion(self):
        q, _ = ladder_operators(3)
        q2 = q.entries @ q.entries
        assert q2[1, 1].real == pytest.approx(1.5)

    def test_canonical_commutator_on_retained_block(self):
        dim = 16
        q, p = ladder_operators(dim)
        comm = q.entries @ p.entries - p.entries @ q.entries - 1j * np.eye(dim)
        assert np.abs(comm[: dim - 1, : dim - 1]).max() < 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            ladder_operators(1)

    def test_integral_float_dim_is_its_integer(self):
        q, p = ladder_operators(3.0)
        assert type(q.dim) is int and type(p.dim) is int and q.dim == 3
        np.testing.assert_array_equal(q.entries, ladder_operators(3)[0].entries)


class TestProjectState:
    def test_ground_state_projection(self):
        fm = fock_projection(0, dim=16)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(fm.entries, expected, atol=1e-5)

    def test_scaled_first_excited_vacuum_element(self):
        fm = fock_projection(1, lam=0.5, dim=32)
        assert fm.entries[0, 0].real == pytest.approx(-0.24, abs=1e-4)
        # same number as the phase-space overlap of the two Wigner functions
        from wigscale.phase_space import overlap, sample_to_grid, AnalyticWigner

        spec = GridSpec(16.0)
        f = overlap(
            sample_to_grid(AnalyticWigner(0), spec),
            sample_to_grid(AnalyticWigner(1, scale=0.5), spec),
        )
        assert fm.entries[0, 0].real == pytest.approx(f, abs=1e-6)

    def test_unscaled_first_excited_is_projector(self):
        fm = fock_projection(1, dim=16)
        expected = np.zeros((16, 16))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(fm.entries, expected, atol=1e-5)

    def test_truncation_deficit_reported(self):
        fm = fock_projection(1, lam=0.5, dim=32)
        assert spectrum(fm).truncation_deficit == abs(1.0 - fm.trace())
        assert spectrum(fm).truncation_deficit < 1e-3

    def test_trace_convergence_under_doubling(self):
        deficits = [
            spectrum(fock_projection(1, lam=0.5, dim=dim)).truncation_deficit for dim in (8, 16, 32, 64)
        ]
        assert all(a > b for a, b in zip(deficits, deficits[1:]))
        assert deficits[2] < 1e-3

    def test_resolution_guard(self):
        spec = GridSpec(8.0, 16)  # step 1.0 resolves only the lowest levels
        x = spec.axis()
        psi0 = np.pi**-0.25 * np.exp(-x * x / 2.0)
        rho = PositionDensity(spec, np.outer(psi0, psi0))
        with pytest.raises(ValueError, match="too coarse"):
            project_state(rho, 8)

    def test_extent_guard(self):
        # extent 8 contains the turning point of level 31 but not level 32
        rho = fock_density(0)
        project_state(rho, 32)
        with pytest.raises(ValueError, match="turning point"):
            project_state(rho, 33)

    @pytest.mark.parametrize("dim", [3.0, np.float64(3), np.int64(3)])
    def test_integral_dim_is_its_integer(self, dim):
        rho = fock_density(1)
        out = project_state(rho, dim)
        assert out.dim == 3 and type(out.dim) is int
        np.testing.assert_array_equal(out.entries, project_state(rho, 3).entries)

    @pytest.mark.parametrize("dim", [2.5, np.float64(0.5), np.inf, np.nan])
    def test_fractional_dim_rejected(self, dim):
        with pytest.raises(ValueError, match=f"dim must be (positive|an integer), got {dim}"):
            project_state(fock_density(1), dim)

    def test_hermitian_output(self):
        fm = fock_projection(1, lam=0.75, dim=32)
        assert np.abs(fm.entries - fm.entries.conj().T).max() < 1e-10


class TestSpectrum:
    def test_pure_fock_state(self):
        entries = np.zeros((8, 8))
        entries[1, 1] = 1.0
        spec = spectrum(HermitianMatrix(8, entries))
        assert spec.min_eigenvalue == pytest.approx(0.0, abs=1e-15)
        assert spec.trace == pytest.approx(1.0, abs=1e-15)
        assert spec.eigenvalues[-1] == pytest.approx(1.0)

    def test_scaled_state_is_nonpositive(self):
        spec = spectrum(fock_projection(1, lam=0.5, dim=32))
        assert spec.min_eigenvalue < -0.1
        # variational bound through the vacuum matrix element
        assert spec.min_eigenvalue <= -0.24 + 1e-3

    def test_weakly_scaled_state_still_nonpositive(self):
        spec = spectrum(fock_projection(1, lam=0.9, dim=32))
        assert spec.min_eigenvalue < 0.0
        assert spec.min_eigenvalue <= scaled_first_excited_overlap(0.9) + 1e-3

    def test_eigenvalues_sorted_and_sum_to_trace(self):
        spec = spectrum(fock_projection(1, lam=0.5, dim=32))
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert spec.eigenvalues.sum() == pytest.approx(spec.trace, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 0.75, 0.9, 1.0])
    def test_variational_bound_min_diagonal(self, lam):
        fm = fock_projection(1, lam=lam, dim=32)
        spec = spectrum(fm)
        assert spec.min_eigenvalue <= fm.entries.diagonal().real.min() + 1e-12

    def test_true_state_spectrum_nonnegative(self):
        spec = spectrum(fock_projection(0, dim=32))
        assert spec.min_eigenvalue >= -1e-8


class TestMomentMatrix:
    def test_ground_state_quadrature_moments(self):
        m = moment_matrix(fock_projection(0, dim=32), quadrature_pair_operators(32))
        np.testing.assert_allclose(m.entries, [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-6)

    def test_scaled_first_excited_quadrature_moments(self):
        m = moment_matrix(fock_projection(1, lam=0.5, dim=32), quadrature_pair_operators(32))
        np.testing.assert_allclose(m.entries, [[6.0, 0.5j], [-0.5j, 6.0]], atol=1e-3)

    def test_mixed_state_averages_variances(self):
        entries = np.zeros((8, 8))
        entries[0, 0] = entries[1, 1] = 0.5
        m = moment_matrix(HermitianMatrix(8, entries), quadrature_pair_operators(8))
        np.testing.assert_allclose(m.entries, [[1.0, 0.5j], [-0.5j, 1.0]], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rho = fock_projection(0, dim=8)
        q, p = ladder_operators(8)
        qq, qp = quadrature_pair_operators(8)[0]
        for family in (quadrature_pair_operators(16),  # operators of another dimension
                       [[qq, qp]],  # not a square matrix of operators
                       [[q, q], [p, p]]):  # HermitianMatrix values, not arrays
            with pytest.raises(ValueError, match="shape"):
                moment_matrix(rho, family)

    def test_non_hermitian_family_rejected(self):
        q, p = ladder_operators(8)
        qp = q.entries @ p.entries
        entries = np.zeros((8, 8))
        entries[1, 1] = 1.0
        with pytest.raises(ValueError, match="A_ji"):
            moment_matrix(
                HermitianMatrix(8, entries),
                [[q.entries @ q.entries, qp], [qp, p.entries @ p.entries]],
            )


class TestFockMatrixType:
    """Number-basis operators are plain HermitianMatrix values; the truncation deficit is a Spectrum field."""

    def test_rejects_non_hermitian(self):
        lower = np.diag(np.sqrt(np.arange(1.0, 4.0)), 1)  # the annihilation operator at dim 4
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianMatrix(4, lower.astype(complex))

    def test_trace_is_real(self):
        fm = fock_projection(1, lam=0.5, dim=16)
        assert isinstance(fm, HermitianMatrix) and isinstance(fm.trace(), float)
