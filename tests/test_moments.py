import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fock_grid, fock_projection, one_mode_uncertainty_matrix, random_single_mode_sigma
from wigscale import fock_space, gaussian_cv, phase_space
from wigscale.moments import (
    HermitianMatrix,
    SecondMoments,
    det_bound,
    is_psd,
    moments_from_grid,
    multimode_uncertainty_matrix,
    sr_value,
    symplectic_form,
)


def hermitian_from(entries):
    entries = np.asarray(entries, dtype=complex)
    return HermitianMatrix(entries.shape[0], entries)


def mesh_moments(w):
    """Reference: the moment sums over the two n x n coordinate meshes, as first written."""
    w.require_normalized()
    Q, P = np.meshgrid(w.spec.axis(), w.spec.axis(), indexing="ij")
    weight = w.spec.quadrature_weight
    mean_q = float((w.values * Q).sum() * weight)
    mean_p = float((w.values * P).sum() * weight)
    sigma_qq = float((w.values * Q * Q).sum() * weight) - mean_q**2
    sigma_pp = float((w.values * P * P).sum() * weight) - mean_p**2
    sigma_qp = float((w.values * Q * P).sum() * weight) - mean_q * mean_p
    return SecondMoments(mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp)


#: unit roundoff of float64
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): k roundings perturb a term by at most this, relatively."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def assert_within_rounding_bound(w, got, want):
    """Assert |moments_from_grid - mesh_moments| within a forward-error bound, field by field.

    Each raw moment is the sum over cells of W_ij f_ij times the weight, for f = q, p,
    q^2, p^2 and q p on the float axis. moments_from_grid forms each term through at most
    2n + 1 roundings: the n - 1 additions of a marginal (or the product W_ij p_j and n - 1
    additions of a row of W p), then either the axis square, the product and the n - 1
    additions of a dot over the whole axis, or the pairing of x with -x, the product and
    the n/2 - 1 additions of a dot over half of it, and the weight. mesh_moments multiplies twice and the weight once
    and adds the n^2 terms pairwise (numpy, no axis: at most 25 additions inside a block
    of 128, one per halving above it, and one per 8192-element buffer if the reduction
    is buffered), which is at most 2n - 2 additions for every n >= 16. However the
    additions are ordered, each raw sum is then within gamma_{2n+1} S_f of the exact
    sum of the float terms (Higham, Accuracy and Stability, 2nd ed., eq. 3.4 and
    sec. 4.2), with S_f = sum |W_ij| |f_ij| weight, and the two within e_f = 2 gamma_{2n+1} S_f.

    A central moment is fl(raw_ab - fl(mean_a mean_b)); on each side the product rounds
    by at most 2u |mean_a mean_b| (pow: one ulp) and the subtraction by u |sigma_ab|, and
    |mean_a mean_b - mean_a' mean_b'| <= e_a |mean_b| + |mean_a'| e_b.
    """
    n = w.spec.points_per_axis
    x = np.abs(w.spec.axis())
    weight = w.spec.quadrature_weight
    absw = np.abs(w.values)
    row, col = absw.sum(axis=1), absw.sum(axis=0)
    e = {
        "q": row @ x, "p": col @ x, "qq": row @ (x * x), "pp": col @ (x * x), "qp": x @ absw @ x,
    }
    e = {key: 2 * gamma(2 * n + 1) * value * weight for key, value in e.items()}
    u = UNIT_ROUNDOFF

    def central(raw, a, b, sigma_got, sigma_want):
        mean_a, mean_b = (getattr(got, f"mean_{k}") for k in (a, b))
        ref_a, ref_b = (getattr(want, f"mean_{k}") for k in (a, b))
        return (e[raw] + e[a] * abs(mean_b) + abs(ref_a) * e[b]
                + u * (2 * abs(mean_a * mean_b) + abs(sigma_got) + 2 * abs(ref_a * ref_b) + abs(sigma_want)))

    bounds = {
        "mean_q": e["q"],
        "mean_p": e["p"],
        "sigma_qq": central("qq", "q", "q", got.sigma_qq, want.sigma_qq),
        "sigma_pp": central("pp", "p", "p", got.sigma_pp, want.sigma_pp),
        "sigma_qp": central("qp", "q", "p", got.sigma_qp, want.sigma_qp),
    }
    for name, bound in bounds.items():
        assert abs(getattr(got, name) - getattr(want, name)) <= bound, (name, getattr(got, name), getattr(want, name), bound)


class TestMomentsFromGrid:
    def test_ground_state(self):
        m = moments_from_grid(fock_grid(0))
        assert m.mean_q == pytest.approx(0.0, abs=1e-6)
        assert m.mean_p == pytest.approx(0.0, abs=1e-6)
        assert m.sigma_qq == pytest.approx(0.5, abs=1e-6)
        assert m.sigma_pp == pytest.approx(0.5, abs=1e-6)
        assert m.sigma_qp == pytest.approx(0.0, abs=1e-6)

    def test_first_excited(self):
        m = moments_from_grid(fock_grid(1))
        assert m.sigma_qq == pytest.approx(1.5, abs=1e-6)
        assert m.sigma_pp == pytest.approx(1.5, abs=1e-6)
        assert m.sigma_qp == pytest.approx(0.0, abs=1e-6)

    def test_scaled_first_excited(self):
        m = moments_from_grid(fock_grid(1, lam=0.5))
        assert m.sigma_qq == pytest.approx(6.0, abs=1e-5)
        assert m.sigma_pp == pytest.approx(6.0, abs=1e-5)
        assert m.sigma_qp == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.floats(0.5, 1.5), st.floats(0.7, 1.4), st.integers(8, 256))
    def test_marginal_moments_match_mesh_reference(self, n, lam, kappa, half_points):
        state = phase_space.AnalyticWigner(n, lam, kappa)
        sampled = phase_space.sample_to_grid(state, phase_space.default_grid(state, 2 * half_points))
        # coarse grids miss the norm; rescaling keeps every grid a valid input
        w = phase_space.GridWigner(sampled.spec, sampled.values / sampled.norm())
        assert_within_rounding_bound(w, moments_from_grid(w), mesh_moments(w))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.0, np.pi),
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.sampled_from([128, 192, 256]),
    )
    def test_displaced_correlated_gaussian(self, eig_a, eig_b, angle, mean_q, mean_p, points):
        # every Fock state is even in q and p; this grid has nonzero means and sigma_qp
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        sigma = rot @ np.diag([eig_a, eig_b]) @ rot.T
        # 10 standard deviations beyond the mean and a step at most 1/2.8 of the narrowest
        # one (at 128 points): truncation and aliasing of the midpoint rule stay below 1e-20
        extent = max(abs(mean_q), abs(mean_p)) + 10.0 * np.sqrt(max(eig_a, eig_b))
        spec = phase_space.GridSpec(extent, points)
        dq, dp = np.meshgrid(spec.axis() - mean_q, spec.axis() - mean_p, indexing="ij")
        inv = np.linalg.inv(sigma)
        exponent = inv[0, 0] * dq * dq + 2.0 * inv[0, 1] * dq * dp + inv[1, 1] * dp * dp
        w = phase_space.GridWigner(spec, np.exp(-0.5 * exponent) / np.sqrt(np.linalg.det(sigma)))
        got = moments_from_grid(w)
        assert_within_rounding_bound(w, got, mesh_moments(w))
        # sampling rounds each cell by a few hundred ulps at most, and the sums by the bound
        # above (below 1e-13 relative here), so 1e-12 of the largest moment holds with room
        exact = np.array([mean_q, mean_p, sigma[0, 0], sigma[1, 1], sigma[0, 1]])
        scale = max(eig_a, eig_b) + max(mean_q**2, mean_p**2)
        np.testing.assert_allclose(dataclasses.astuple(got), exact, rtol=0, atol=1e-12 * scale)

    def test_unnormalized_rejected(self):
        from wigscale.phase_space import GridWigner

        w = fock_grid(0)
        with pytest.raises(ValueError, match="not normalized"):
            moments_from_grid(GridWigner(w.spec, 0.5 * w.values))


class TestSrMatrix:
    def test_ground_state_saturates(self):
        h = one_mode_uncertainty_matrix(moments_from_grid(fock_grid(0)))
        expected = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        np.testing.assert_allclose(h.entries, expected, atol=1e-6)
        eigenvalues = np.linalg.eigvalsh(h.entries)
        np.testing.assert_allclose(eigenvalues, [0.0, 1.0], atol=1e-6)

    def test_scaled_first_excited_positive_definite(self):
        h = one_mode_uncertainty_matrix(moments_from_grid(fock_grid(1, lam=0.5)))
        expected = np.array([[6.0, 0.5j], [-0.5j, 6.0]])
        np.testing.assert_allclose(h.entries, expected, atol=1e-5)
        ok, min_eig = is_psd(h)
        assert ok and min_eig > 0.0

    def test_below_vacuum_variances_violate(self):
        h = one_mode_uncertainty_matrix(SecondMoments(0.0, 0.0, 0.4, 0.4, 0.0))
        ok, min_eig = is_psd(h)
        assert not ok
        assert min_eig == pytest.approx(-0.1, abs=1e-12)


class TestSrValue:
    def test_ground_state(self):
        assert sr_value(moments_from_grid(fock_grid(0))) == pytest.approx(0.25, abs=1e-6)

    def test_scaled_first_excited(self):
        assert sr_value(SecondMoments(0, 0, 6.0, 6.0, 0.0)) == 36.0
        assert sr_value(moments_from_grid(fock_grid(1, lam=0.5))) == pytest.approx(36.0, abs=1e-4)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.7])
    def test_threshold_satisfied_below_root_three(self, lam):
        sigma = 1.5 / lam**2
        assert sr_value(SecondMoments(0, 0, sigma, sigma, 0.0)) >= 0.25

    @pytest.mark.parametrize("lam", [1.8, 2.0])
    def test_threshold_violated_above_root_three(self, lam):
        sigma = 1.5 / lam**2
        assert sr_value(SecondMoments(0, 0, sigma, sigma, 0.0)) < 0.25


class TestMultimode:
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_vacuum_saturates(self, modes):
        h = multimode_uncertainty_matrix(gaussian_cv.vacuum(modes))
        eigenvalues = np.linalg.eigvalsh(h.entries)
        assert abs(eigenvalues[0]) < 1e-12
        np.testing.assert_allclose(np.sort(eigenvalues), [0.0] * modes + [1.0] * modes, atol=1e-12)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_two_mode_squeezed_is_valid(self, r):
        h = multimode_uncertainty_matrix(gaussian_cv.two_mode_squeezed(r))
        _, min_eig = is_psd(h)
        assert min_eig >= -1e-10

    def test_below_vacuum_single_mode(self):
        cov = gaussian_cv.CovarianceMatrix(1, 0.4 * np.eye(2))
        _, min_eig = is_psd(multimode_uncertainty_matrix(cov))
        assert min_eig == pytest.approx(-0.1, abs=1e-12)

    def test_symplectic_form_convention(self):
        j = symplectic_form(2)
        np.testing.assert_array_equal(j[:2, 2:], np.eye(2))
        np.testing.assert_array_equal(j[2:, :2], -np.eye(2))
        np.testing.assert_array_equal(j, -j.T)


class TestDetBound:
    def test_vacuum_equality(self):
        det, bound = det_bound(gaussian_cv.vacuum(2))
        assert det == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert bound == 1.0 / 16.0

    def test_two_mode_squeezed_preserves_det(self):
        det, bound = det_bound(gaussian_cv.two_mode_squeezed(1.0))
        assert det == pytest.approx(1.0 / 16.0, abs=1e-9)
        assert bound == 1.0 / 16.0

    def test_violation(self):
        det, bound = det_bound(gaussian_cv.CovarianceMatrix(1, 0.4 * np.eye(2)))
        assert det == pytest.approx(0.16, abs=1e-15)
        assert bound == 0.25
        assert det < bound


class TestIsPsd:
    def test_identity(self):
        ok, min_eig = is_psd(hermitian_from(np.eye(3)))
        assert ok and min_eig == pytest.approx(1.0)

    def test_indefinite_two_by_two(self):
        ok, min_eig = is_psd(hermitian_from([[1.0, 0.5j], [-0.5j, 0.0]]))
        assert not ok
        assert min_eig == pytest.approx((1.0 - np.sqrt(2.0)) / 2.0, abs=1e-12)

    def test_saturated_boundary_accepted(self):
        ok, min_eig = is_psd(one_mode_uncertainty_matrix(moments_from_grid(fock_grid(0))))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-6)

    def test_random_positive_definite_accepted(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = rng.integers(2, 7)
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ok, min_eig = is_psd(hermitian_from(raw @ raw.conj().T + 0.1 * np.eye(dim)))
            assert ok and min_eig > 0


class TestInvariants:
    @pytest.mark.parametrize("kappa", [1.0, 1.2, 2.0])
    def test_pure_gaussian_saturation(self, kappa):
        value = sr_value(moments_from_grid(fock_grid(0, kappa=kappa)))
        assert value == pytest.approx(0.25, abs=1e-6)

    def test_squeeze_congruence_preserves_verdict(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            sigma = random_single_mode_sigma(rng)
            if rng.uniform() < 0.4:
                sigma = 0.3 * sigma  # push some samples below the vacuum floor
            cov = gaussian_cv.CovarianceMatrix(1, sigma)
            before, _ = is_psd(multimode_uncertainty_matrix(cov))
            for kappa in (0.5, 2.0):
                squeezed = gaussian_cv.squeeze_symplectic(cov, 1, kappa)
                after, _ = is_psd(multimode_uncertainty_matrix(squeezed))
                assert after == before

    @pytest.mark.parametrize("lam", [0.5, 0.75])
    def test_pseudodensity_witness(self, lam):
        # uncertainty matrix positive definite, yet the operator has a
        # negative eigenvalue: the relation does not determine the state
        grid = fock_grid(1, lam=lam)
        ok, min_eig = is_psd(one_mode_uncertainty_matrix(moments_from_grid(grid)))
        assert ok and min_eig > 0.0
        spec = fock_space.spectrum(fock_projection(1, lam=lam, dim=32))
        assert spec.min_eigenvalue < -1e-8

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_cross_representation_agreement(self, n, lam):
        # the scaled states spread over many levels; dim 64 puts the
        # truncation tail below the 1e-6 agreement target for n <= 3
        dim = 32 if lam == 1.0 else 64
        m = moments_from_grid(fock_grid(n, lam=lam))
        fock = fock_space.moment_matrix(
            fock_projection(n, lam=lam, dim=dim),
            fock_space.quadrature_pair_operators(dim),
        )
        assert fock.entries[0, 0].real == pytest.approx(m.sigma_qq, abs=1e-6)
        assert fock.entries[1, 1].real == pytest.approx(m.sigma_pp, abs=1e-6)
        assert fock.entries[0, 1].real == pytest.approx(m.sigma_qp, abs=1e-6)
        assert fock.entries[0, 1].imag == pytest.approx(0.5, abs=1e-6)


class TestHermitianMatrixType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_from([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            HermitianMatrix(3, np.eye(2))

    @pytest.mark.parametrize("dim", [2.0, np.float64(2), np.int64(2)], ids=["float", "float64", "int64"])
    def test_integral_dim_is_its_integer(self, dim):
        h = HermitianMatrix(dim, np.eye(2))
        assert type(h.dim) is int and h.dim == 2

    @pytest.mark.parametrize("dim", [0, -1, 2.5, np.nan])
    def test_empty_fractional_or_negative_dim_rejected(self, dim):
        with pytest.raises(ValueError, match=f"dim must be (positive|an integer), got {dim}"):
            HermitianMatrix(dim, np.zeros((0, 0)))

    def test_trace_is_the_real_diagonal_sum(self):
        trace = hermitian_from([[1.5, 2.0j], [-2.0j, -0.25]]).trace()
        assert isinstance(trace, float) and trace == 1.25
