import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import product_sigma, random_single_mode_sigma
from wigscale import moments, phase_space
from wigscale.gaussian_cv import (
    CovarianceMatrix,
    SeparabilityReport,
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
        ok, eigenvalues = is_valid_state(vacuum(2))
        assert ok
        assert eigenvalues[0] == pytest.approx(0.0, abs=1e-12)

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
        ok, eigenvalues = is_valid_state(cov)
        assert ok and eigenvalues[0] >= -1e-10
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

    def test_complex_entries_refused(self):
        # the cast to float would keep [[1, 0], [-0, 1]] with no more than a ComplexWarning
        with pytest.raises(ValueError, match="covariance matrix must be real"):
            CovarianceMatrix(1, [[1, 0.1j], [-0.1j, 1]])

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
        state = phase_space.AnalyticWigner(0, 1.0, 2.0)
        w = phase_space.sample_to_grid(state, phase_space.default_grid(state, 1024))
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

    @pytest.mark.parametrize("kappa,named", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan"), (0.0, "0.0")])
    def test_kappa_not_finite_and_positive_named(self, kappa, named):
        # kappa = inf would make 1/kappa = 0 and inf entries: refused as kappa, before any product
        with pytest.raises(ValueError, match=f"^squeeze parameter must be positive and finite, got {named}$"):
            squeeze_symplectic(two_mode_squeezed(0.5), 2, kappa)

    @pytest.mark.parametrize("kappa,named", [(1e200, r"1e\+200"), (1e-200, "1e-200"), (5e-324, "5e-324")])
    def test_overflowing_kappa_named(self, kappa, named):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^squeeze parameter {named} overflows the covariance matrix$") as refused:
                squeeze_symplectic(two_mode_squeezed(0.5), 2, kappa)
        assert not isinstance(refused.value, ArithmeticError)


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

    @pytest.mark.parametrize("lam,named", [(0.0, "0.0"), (-0.0, "-0.0"), (np.inf, "inf"), (-np.inf, "-inf"),
                                           (np.nan, "nan")])
    def test_zero_or_non_finite_lambda_named(self, lam, named):
        # at +-inf, 1/lam = 0 would zero the mode's momentum: TMSV r = 0.5 scaled on mode 2 would have
        # minimum eigenvalue -0.34, no state; apply_partial_scaling refuses the same lambda on the grid
        with pytest.raises(ValueError, match=f"^scaling parameter must be nonzero and finite, got {named}$"):
            partial_scale(two_mode_squeezed(0.5), 2, lam)

    @pytest.mark.parametrize("lam,named", [(1e-160, "1e-160"), (-1e-155, "-1e-155"), (5e-324, "5e-324")])
    def test_overflowing_lambda_named(self, lam, named):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^scaling parameter {named} overflows the covariance matrix$") as refused:
                partial_scale(two_mode_squeezed(0.5), 2, lam)
        assert not isinstance(refused.value, ArithmeticError)

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
        ok, eigenvalues = is_valid_state(CovarianceMatrix(2, 0.4 * np.eye(4)))
        assert not ok
        assert eigenvalues[0] == pytest.approx(-0.1, abs=1e-12)


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
        # the first bad lambda in grid order is named, here a zero before a non-finite value
        for grid, named in (([0.0, 1.0], "0.0"), ([0.5, 0.0, np.nan], "0.0"), ([1.0, -0.0, np.inf], "-0.0")):
            with pytest.raises(ValueError, match=f"^scaling parameter must be nonzero and finite, got {named}$"):
                separability_scan(vacuum(2), {2}, grid)

    @pytest.mark.parametrize("grid,named", [([np.nan], "nan"), ([-1.0, np.nan], "nan"), ([np.inf, -1.0], "inf"),
                                            ([-np.inf], "-inf"), ([np.nan, 0.0], "nan"), ([1.0, -np.inf, -0.0], "-inf")])
    def test_non_finite_lambda_named(self, grid, named):
        with pytest.raises(ValueError, match=f"^scaling parameter must be nonzero and finite, got {named}$"):
            separability_scan(two_mode_squeezed(1.0), {2}, grid)

    @pytest.mark.parametrize("modes,grid,named", [({1}, [1e-160, 1.0], "1e-160"),
                                                  ({1, 2}, [0.5, -1e-155, 1e-150], "-1e-155"),
                                                  ({2}, [-1.0, 5e-324], "5e-324")])
    def test_overflowing_lambda_named(self, modes, grid, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^scaling parameter {named} overflows the covariance matrix$") as refused:
                separability_scan(two_mode_squeezed(1.0), modes, grid)
        # partial_scale's plain ValueError: lambda is named, so the CLI needs no option suffix
        assert not isinstance(refused.value, ArithmeticError)

    @pytest.mark.parametrize("grid,named", [(0.5, "0.5"), (np.array([[0.5], [1.0]]), "array([0.5])"),
                                            ([1j], "1j"), (np.array([-1.0, 0.5j]), "np.complex128(-1+0j)"),
                                            (["a"], "'a'"), ([-1.0, None], "None"), ([10**400], "1" + "0" * 400)])
    def test_malformed_grid_named_before_the_modes(self, grid, named):
        # float() would read a numpy complex value as its real part: it is refused even with no imaginary part
        message = f"^lambda grid must be an iterable of real numbers, got {re.escape(named)}$"
        with pytest.raises(ValueError, match=message):
            separability_scan(vacuum(2), {5}, grid)

    def test_error_raised_by_the_grid_itself_is_not_relabelled(self):
        def grid():
            yield 0.5
            raise TypeError("the grid's own failure")

        with pytest.raises(TypeError, match="^the grid's own failure$"):
            separability_scan(vacuum(2), {2}, grid())

    @pytest.mark.parametrize("partition", [2, ["2"], {1, "2"}, [[1]], None])
    def test_malformed_mode_partition_named_before_the_state(self, partition):
        message = f"^mode partition must be a set of mode indices, got {re.escape(repr(partition))}$"
        with pytest.raises(ValueError, match=message):
            separability_scan(CovarianceMatrix(2, 0.4 * np.eye(4)), partition, [-1.0])

    def test_generators_scan_as_their_lists(self):
        cov, grid = two_mode_squeezed(1.0), default_lambda_grid()
        report = separability_scan(cov, (mode for mode in (2,)), (lam for lam in grid))
        assert report == separability_scan(cov, {2}, list(grid))

    @pytest.mark.parametrize("grid", [[0.0, -1.0], [-1.0, np.nan], [-np.inf], [1e-160, 1.0]])
    def test_modes_and_state_refused_before_any_lambda(self, grid):
        # the scan names the first lambda it cannot scan only once the modes and the state pass
        with pytest.raises(ValueError, match="^mode must be in 1..2, got 5$"):
            separability_scan(vacuum(2), {5}, grid)
        with pytest.raises(ValueError, match="not a valid state"):
            separability_scan(CovarianceMatrix(2, 0.4 * np.eye(4)), {2}, grid)

    def test_memory_is_the_outputs_not_the_scaled_points(self):
        # two TMSV pairs, modes (1, 2) and (3, 4), in (q1..q4, p1..p4) order
        sigma = np.zeros((8, 8))
        for pair in ([0, 1, 4, 5], [2, 3, 6, 7]):
            sigma[np.ix_(pair, pair)] = two_mode_squeezed(0.5).matrix
        cov, grid = CovarianceMatrix(4, sigma), np.linspace(-1.0, 1.0, 10_000)
        separability_scan(cov, {2, 4}, grid[:2])  # caches and imports out of the traced run
        tracemalloc.start()
        try:
            report = separability_scan(cov, {2, 4}, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.violations) > 0
        # the report's lam_grid, min_eigenvalues and a violations list as long as the grid, as Python
        # floats and list slots, plus a fixed allowance; holding every scaled 8 x 8 point costs 7 MB more
        outputs = 3 * len(grid) * (sys.getsizeof(0.0) + 8)
        assert peak <= outputs + 512 * 1024

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


class TestSeparabilityReport:
    def test_verdict_and_outside_criterion_derived(self):
        report = SeparabilityReport([-2.0, -1.0, 0.5, 1.5], [-3.0, -0.4, 0.1, -1.0], [-1.0], 1e-10)
        assert report.verdict == "entanglement_detected"
        assert report.outside_criterion == [-2.0, 1.5]
        quiet = SeparabilityReport([0.5, 1.0], [0.1, 0.2], [], 1e-10)
        assert (quiet.verdict, quiet.outside_criterion) == ("no_violation", [])

    @pytest.mark.parametrize("derived", ["verdict", "outside_criterion"])
    def test_derived_fields_not_accepted(self, derived):
        with pytest.raises(TypeError, match=derived):
            SeparabilityReport([1.0], [0.1], [], 1e-10, **{derived: []})

    def test_unequal_lengths_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            SeparabilityReport([-1.0, 1.0], [0.1], [], 1e-10)

    def test_object_setattr_still_overrides_the_verdict(self):
        # the benchmark's check is tested by flipping a returned report's verdict this way
        report = separability_scan(two_mode_squeezed(1.0), {2}, [-1.0])
        object.__setattr__(report, "verdict", "no_violation")
        assert report.verdict == "no_violation" and report.violations == [-1.0]


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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-300])
    def test_tolerance_must_be_finite(self, tol):
        # an infinite tolerance once excused the squeezed vacuum's partial transpose as no_violation
        with pytest.raises(ValueError, match=f"^tolerance must be finite and nonnegative, got {tol}$"):
            separability_scan(two_mode_squeezed(1.0), {2}, [-1.0], tol=tol)

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

    @pytest.mark.parametrize("matrix,shape", [(1.0, r"\(\)"), ([1.0, 2.0], r"\(2,\)"), (np.zeros((2, 4)), r"\(2, 4\)")])
    def test_scalar_or_non_square_rejected(self, matrix, shape):
        # a scalar has no first axis to read a size from
        with pytest.raises(ValueError, match=f"^expected an even-sized square matrix, got {shape}$"):
            interleaved_to_block(matrix)
