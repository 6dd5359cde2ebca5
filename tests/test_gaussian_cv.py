import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warnings

from conftest import product_sigma, random_single_mode_sigma
from wigscale import moments, phase_space
from wigscale.gaussian_cv import (
    CovarianceMatrix,
    ScaleOverflowError,
    default_lambda_grid,
    interleaved_to_block,
    is_valid_state,
    partial_scale,
    separability_scan,
    squeeze_symplectic,
    two_mode_squeezed,
    vacuum,
)

COSH2_HALF = 0.5 * np.cosh(2.0)
SINH2_HALF = 0.5 * np.sinh(2.0)


class TestConstructors:
    def test_vacuum_single_mode(self):
        np.testing.assert_array_equal(vacuum(1).matrix, 0.5 * np.eye(2))

    def test_vacuum_two_mode_determinant(self):
        assert np.linalg.det(vacuum(2).matrix) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_vacuum_validity_saturated(self):
        ok, min_eig = is_valid_state(vacuum(2))
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-12)

    def test_tmsv_zero_squeezing_is_vacuum(self):
        np.testing.assert_array_equal(two_mode_squeezed(0.0).matrix, vacuum(2).matrix)

    def test_tmsv_entries(self):
        sigma = two_mode_squeezed(1.0).matrix
        assert sigma[0, 0] == pytest.approx(1.8810978455418157)
        assert sigma[0, 1] == pytest.approx(1.8134302039235094)
        assert sigma[2, 3] == pytest.approx(-1.8134302039235094)
        assert sigma[0, 2] == 0.0 and sigma[0, 3] == 0.0

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_tmsv_validity_and_det(self, r):
        cov = two_mode_squeezed(r)
        ok, min_eig = is_valid_state(cov)
        assert ok and min_eig >= -1e-10
        assert np.linalg.det(cov.matrix) == pytest.approx(1.0 / 16.0, abs=1e-9)

    @pytest.mark.parametrize("modes", [2.0, np.float64(2), np.int64(2)])
    def test_integral_mode_count_is_its_integer(self, modes):
        cov = vacuum(modes)
        assert type(cov.modes) is int and cov.modes == 2
        np.testing.assert_array_equal(cov.matrix, vacuum(2).matrix)
        assert CovarianceMatrix(modes, cov.matrix).modes == 2 and is_valid_state(cov)[0]

    @pytest.mark.parametrize("modes", [1.5, np.float64(2.5), np.inf, np.nan, 0, -1])
    def test_fractional_or_nonpositive_mode_count_rejected(self, modes):
        with pytest.raises(ValueError, match=f"modes must be (positive|an integer), got {modes}"):
            vacuum(modes)
        with pytest.raises(ValueError, match=f"modes must be (positive|an integer), got {modes}"):
            CovarianceMatrix(modes, np.eye(2))

    def test_symmetry_enforced(self):
        bad = 0.5 * np.eye(2)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(1, bad)


class TestSqueezeSymplectic:
    def test_identity(self):
        cov = two_mode_squeezed(0.7)
        np.testing.assert_array_equal(squeeze_symplectic(cov, 1, 1.0).matrix, cov.matrix)

    def test_vacuum_squeeze_moments(self):
        out = squeeze_symplectic(vacuum(1), 1, 2.0)
        # q variance shrinks by kappa^2, p variance grows by kappa^2
        np.testing.assert_allclose(out.matrix, np.diag([0.125, 2.0]), atol=1e-15)
        # matches the moments of the exactly squeezed vacuum W_0(2q, p/2), sampled
        w = phase_space.sample_to_grid(phase_space.AnalyticWigner(0, 1.0, 2.0), phase_space.GridSpec(8.0, 1024))
        m = moments.moments_from_grid(w)
        assert m.sigma_qq == pytest.approx(out.matrix[0, 0], abs=1e-5)
        assert m.sigma_pp == pytest.approx(out.matrix[1, 1], abs=1e-5)

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 2.0, 4.0])
    def test_validity_preserved(self, kappa):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cov = CovarianceMatrix(1, random_single_mode_sigma(rng))
            ok_before, _ = is_valid_state(cov)
            ok_after, _ = is_valid_state(squeeze_symplectic(cov, 1, kappa))
            assert ok_before and ok_after

    def test_large_correlations_stay_exactly_symmetric(self):
        # unmirrored, (d_q S_qp) d_p and (d_p S_pq) d_q round apart by more than the absolute
        # HERMITICITY_TOL for 60 of these 251 kappa, and a valid state is refused
        cov = CovarianceMatrix(1, [[3e4, 9e3], [9e3, 3e4]])
        for kappa in np.linspace(0.5, 3.0, 251):
            out = squeeze_symplectic(cov, 1, kappa).matrix
            assert out[0, 1] == out[1, 0] == (1.0 / kappa * 9e3) * kappa

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 3), st.floats(0.0, 1e8), st.floats(0.1, 10.0))
    def test_valid_states_with_large_entries_squeeze(self, data, modes, size, kappa):
        # S = I/2 + G G^T >= I/2 is a valid state, since iJ/2 has eigenvalues +-1/2
        g = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * modes * modes,
                                        max_size=4 * modes * modes))).reshape(2 * modes, 2 * modes)
        gram = g @ g.T
        cov = CovarianceMatrix(modes, 0.5 * np.eye(2 * modes) + size * gram / max(1.0, np.abs(gram).max()))
        mode = data.draw(st.integers(1, modes))
        out = squeeze_symplectic(cov, mode, kappa).matrix
        assert np.array_equal(out, out.T)
        diag = np.ones(2 * modes)
        diag[mode - 1], diag[modes + mode - 1] = 1.0 / kappa, kappa
        # each entry is two products from the congruence, up to the last ulps; subnormal ones round absolutely.
        # The mirrored p-q entry is rounded as (S/kappa) kappa in the code and as (kappa S)/kappa here. Below
        # the normal range each of these four roundings errs by at most s/2 (s the smallest subnormal), and the
        # first of each pair is then multiplied by kappa or 1/kappa, so the two differ by at most
        # (kappa + 1 + 1/kappa + 1) s/2 = ((kappa + 1/kappa)/2 + 1) s; in the normal range rtol covers them.
        tiny = np.finfo(float).smallest_subnormal
        np.testing.assert_allclose(out, diag[:, None] * cov.matrix * diag[None, :],
                                   rtol=4 * np.finfo(float).eps, atol=((kappa + 1.0 / kappa) / 2.0 + 1.0) * tiny)
        assert is_valid_state(CovarianceMatrix(modes, out))[0]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            squeeze_symplectic(vacuum(2), 3, 2.0)
        with pytest.raises(ValueError, match=r"mode must be in 1\.\.2, got 1\.5"):
            squeeze_symplectic(vacuum(2), 1.5, 2.0)
        with pytest.raises(ValueError):
            squeeze_symplectic(vacuum(2), 1, -1.0)


class TestPartialScale:
    def test_identity(self):
        cov = two_mode_squeezed(1.0)
        np.testing.assert_array_equal(partial_scale(cov, 2, 1.0).matrix, cov.matrix)

    def test_minus_one_is_partial_transpose(self):
        cov = two_mode_squeezed(1.0)
        out = partial_scale(cov, 2, -1.0)
        mirror = np.diag([1.0, 1.0, 1.0, -1.0])
        np.testing.assert_array_equal(out.matrix, mirror @ cov.matrix @ mirror)
        assert out.matrix[3, 3] == cov.matrix[3, 3]

    def test_tmsv_partial_scaling_entries(self):
        out = partial_scale(two_mode_squeezed(1.0), 2, 0.5)
        assert out.matrix[3, 3] == pytest.approx(4.0 * COSH2_HALF)
        assert out.matrix[2, 3] == pytest.approx(-2.0 * SINH2_HALF)
        assert out.matrix[1, 1] == pytest.approx(COSH2_HALF)
        assert out.matrix[0, 1] == pytest.approx(SINH2_HALF)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            partial_scale(vacuum(2), 2, 0.0)

    @pytest.mark.parametrize("mode", [1.5, 0.5, 2.5, np.nan, np.inf])
    def test_fractional_mode_rejected(self, mode):
        with pytest.raises(ValueError, match=f"mode must be in 1..2, got {mode}"):
            partial_scale(two_mode_squeezed(1.0), mode, 0.5)

    def test_integral_float_mode_is_its_integer(self):
        cov = two_mode_squeezed(1.0)
        np.testing.assert_array_equal(partial_scale(cov, 2.0, 0.5).matrix, partial_scale(cov, 2, 0.5).matrix)

    @pytest.mark.parametrize("lam", [0.8, -0.6])
    def test_agrees_with_grid_level_map(self, lam):
        # mode 2 carries a squeezed vacuum realizable on a phase-space grid
        kappa = 1.1
        state = phase_space.AnalyticWigner(0, squeeze=kappa)
        w = phase_space.sample_to_grid(state, phase_space.GridSpec(8.0, 2048))
        before = moments.moments_from_grid(w)
        after = moments.moments_from_grid(phase_space.apply_partial_scaling(w, lam))
        sigma2 = np.array(
            [[before.sigma_qq, before.sigma_qp], [before.sigma_qp, before.sigma_pp]]
        )
        cov = CovarianceMatrix(2, product_sigma(0.5 * np.eye(2), sigma2))
        scaled = partial_scale(cov, 2, lam)
        assert scaled.matrix[1, 1] == pytest.approx(after.sigma_qq, abs=1e-4)
        assert scaled.matrix[3, 3] == pytest.approx(after.sigma_pp, abs=1e-4)
        assert scaled.matrix[1, 3] == pytest.approx(after.sigma_qp, abs=1e-4)


class TestValidity:
    def test_below_vacuum_rejected(self):
        ok, min_eig = is_valid_state(CovarianceMatrix(2, 0.4 * np.eye(4)))
        assert not ok
        assert min_eig == pytest.approx(-0.1, abs=1e-12)


class TestSeparabilityScan:
    def test_vacuum_shows_no_violation(self):
        report = separability_scan(vacuum(2), {2}, [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0])
        assert report.verdict == "no_violation"
        assert report.violations == []
        assert min(report.min_eigenvalues) >= -1e-9

    def test_tmsv_detected_at_partial_transpose(self):
        report = separability_scan(two_mode_squeezed(1.0), {2}, [-1.0])
        assert report.verdict == "entanglement_detected"
        assert report.violations == [-1.0]
        assert report.min_eigenvalues[0] < -0.05
        # analytic value (e^{-2r} - 1)/2 for the mirrored two-mode squeezed state
        assert report.min_eigenvalues[0] == pytest.approx((np.exp(-2.0) - 1.0) / 2.0, abs=1e-12)

    def test_random_products_never_violate(self):
        rng = np.random.default_rng(17)
        grid = default_lambda_grid()
        for _ in range(100):
            sigma = product_sigma(random_single_mode_sigma(rng), random_single_mode_sigma(rng))
            report = separability_scan(CovarianceMatrix(2, sigma), {2}, grid)
            assert report.verdict == "no_violation"
            assert min(report.min_eigenvalues) >= -1e-9

    def test_invalid_state_is_an_error_not_entangled(self):
        with pytest.raises(ValueError, match="not a valid state"):
            separability_scan(CovarianceMatrix(2, 0.4 * np.eye(4)), {2}, [-1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            separability_scan(vacuum(2), {2}, [])

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            separability_scan(vacuum(2), {2}, [0.0, 1.0])

    @pytest.mark.parametrize("grid,named", [([np.nan], "nan"), ([-1.0, np.nan], "nan"), ([np.inf, -1.0], "inf"),
                                            ([-np.inf], "-inf")])
    def test_non_finite_lambda_named(self, grid, named):
        with pytest.raises(ValueError, match=f"must be finite, got {named}") as refused:
            separability_scan(two_mode_squeezed(1.0), {2}, grid)
        assert not isinstance(refused.value, ScaleOverflowError)

    @pytest.mark.parametrize("modes,grid,named", [({1}, [1e-160, 1.0], "1e-160"),
                                                  ({1, 2}, [0.5, -1e-155, 1e-150], "-1e-155"),
                                                  ({2}, [-1.0, 5e-324], "5e-324")])
    def test_overflowing_lambda_named_before_eigen_work(self, monkeypatch, modes, grid, named):
        def no_eigenvalues(matrix):
            raise AssertionError("eigenvalues computed before the overflow was refused")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"scaling parameter {named} overflows") as refused:
                separability_scan(two_mode_squeezed(1.0), modes, grid)
        # also an ArithmeticError, so the CLI names the options behind it as for numpy's overflows
        assert isinstance(refused.value, ArithmeticError) and isinstance(refused.value, ScaleOverflowError)

    def test_smallest_finite_scaling_scanned_without_warning(self):
        # 1/lambda^2 = 1e300 keeps every scaled entry of TMSV r = 1 finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = separability_scan(two_mode_squeezed(1.0), {1, 2}, [1e-150, 1.0])
        assert np.isfinite(report.min_eigenvalues).all()

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            separability_scan(vacuum(2), set(), [1.0])
        with pytest.raises(ValueError):
            separability_scan(vacuum(2), {5}, [1.0])

    @pytest.mark.parametrize("partition,named", [({1.9}, "1.9"), ({2.5}, "2.5"), ({1, 1.5}, "1.5")])
    def test_fractional_mode_in_partition_rejected_not_truncated(self, partition, named):
        with pytest.raises(ValueError, match=f"mode must be in 1..2, got {named}"):
            separability_scan(two_mode_squeezed(1.0), partition, [-1.0])

    def test_integral_float_modes_scan_as_their_integers(self):
        cov, grid = two_mode_squeezed(1.0), default_lambda_grid()
        assert separability_scan(cov, {1.0, np.float64(2)}, grid) == separability_scan(cov, {1, 2}, grid)

    def test_lambda_beyond_one_reported_but_not_a_violation(self):
        # beyond |lambda| = 1 the criterion proves nothing: even the vacuum
        # dips negative there, so such points must not drive the verdict
        report = separability_scan(vacuum(2), {2}, [0.5, 2.0])
        assert report.outside_criterion == [2.0]
        assert report.min_eigenvalues[1] < 0.0
        assert report.verdict == "no_violation"

    def test_default_grid_covers_transpose_endpoint(self):
        grid = default_lambda_grid()
        assert -1.0 in grid and 1.0 in grid and 0.0 not in grid
        assert len(grid) == 40

    def test_detection_monotone_in_squeezing(self):
        magnitudes = []
        for r in (0.25, 0.5, 1.0, 2.0):
            report = separability_scan(two_mode_squeezed(r), {2}, [-1.0])
            assert report.verdict == "entanglement_detected"
            magnitudes.append(-report.min_eigenvalues[0])
        assert all(b >= a for a, b in zip(magnitudes, magnitudes[1:]))

    def test_convex_mixture_of_unflagged_products_stays_unflagged(self):
        rng = np.random.default_rng(29)
        lam = -0.5
        for _ in range(20):
            a = product_sigma(random_single_mode_sigma(rng), random_single_mode_sigma(rng))
            b = product_sigma(random_single_mode_sigma(rng), random_single_mode_sigma(rng))
            for cov in (a, b):
                assert separability_scan(CovarianceMatrix(2, cov), {2}, [lam]).verdict == "no_violation"
            weight = rng.uniform()
            mixed = CovarianceMatrix(2, weight * a + (1 - weight) * b)
            assert separability_scan(mixed, {2}, [lam]).verdict == "no_violation"

    def test_scan_both_modes_of_product(self):
        rng = np.random.default_rng(31)
        sigma = product_sigma(random_single_mode_sigma(rng), random_single_mode_sigma(rng))
        report = separability_scan(CovarianceMatrix(2, sigma), {1, 2}, [0.5, -0.5])
        assert report.verdict == "no_violation"


class TestScanPositivityRule:
    def test_point_decided_by_is_psd(self):
        # min eigenvalue -(1 - e^{-2r})/2 ~ -5e-10 at scale 1: below -PSD_TOL, above the old absolute -1e-9
        report = separability_scan(two_mode_squeezed(5e-10), {2}, [-1.0])
        assert -1e-9 < report.min_eigenvalues[0] < -moments.PSD_TOL
        assert report.violations == [-1.0]
        assert report.verdict == "entanglement_detected"

    def test_tolerance_defaults_to_psd_tol_and_reaches_is_psd(self):
        cov = two_mode_squeezed(5e-10)
        assert separability_scan(cov, {2}, [-1.0]).tol == moments.PSD_TOL
        assert separability_scan(cov, {2}, [-1.0], tol=1e-9).verdict == "no_violation"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            separability_scan(vacuum(2), {2}, [-1.0], tol=-1.0)

    def test_any_lambda_beyond_one_is_outside_the_criterion(self):
        lam = -1.0 - 1e-13
        report = separability_scan(two_mode_squeezed(1.0), {2}, [lam])
        assert report.outside_criterion == [lam]
        assert report.verdict == "no_violation"


class TestOrderingConversion:
    def test_round_trip(self):
        rng = np.random.default_rng(41)
        raw = rng.normal(size=(6, 6))
        sigma = raw + raw.T
        # block position k holds interleaved index order[k]: (q1, q2, q3, p1, p2, p3)
        order = [0, 2, 4, 1, 3, 5]
        np.testing.assert_array_equal(interleaved_to_block(sigma), sigma[np.ix_(order, order)])
        back = np.argsort(order)
        np.testing.assert_array_equal(interleaved_to_block(sigma)[np.ix_(back, back)], sigma)

    def test_known_permutation(self):
        # interleaved (q1, p1, q2, p2) -> block (q1, q2, p1, p2)
        interleaved = np.arange(16.0).reshape(4, 4)
        interleaved = interleaved + interleaved.T
        block = interleaved_to_block(interleaved)
        assert block[0, 1] == interleaved[0, 2]  # q1 q2
        assert block[0, 2] == interleaved[0, 1]  # q1 p1
        assert block[2, 3] == interleaved[1, 3]  # p1 p2

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            interleaved_to_block(np.eye(3))
