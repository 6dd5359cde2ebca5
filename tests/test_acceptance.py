"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is tuned at runtime.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import fock_grid, fock_projection, one_mode_uncertainty_matrix, product_sigma, random_single_mode_sigma
from wigscale import cli, fock_space, gaussian_cv, moments, phase_space


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {number} ({label}): {status}{suffix}")


def closed_form_fidelity(lam):
    return 2.0 * lam**2 * (lam**2 - 1.0) / (1.0 + lam**2) ** 2


def overlap_with_ground(lam):
    # the extent grows as 1/lam; enough points keep the step within the CLI's resolution bound
    extent = 8.0 * max(1.0, 1.0 / lam)
    points = max(phase_space.DEFAULT_POINTS, 2 * math.ceil(extent / cli.MAX_FIDELITY_H))
    spec = phase_space.GridSpec(extent, points)
    ground = phase_space.sample_to_grid(phase_space.AnalyticWigner(0), spec)
    scaled = phase_space.sample_to_grid(phase_space.AnalyticWigner(1, scale=lam), spec)
    return phase_space.overlap(ground, scaled)


def test_criterion_1_fidelity_nonpositivity():
    failures = []
    for lam in (0.05, 0.1, 0.2):
        value = overlap_with_ground(lam)
        if not value < 0.0:
            failures.append(f"overlap at lambda={lam} not negative ({value:.6g})")
        # leading order: f/lam^2 -> -2, with a next-order remainder. Exactly,
        # |f/lam^2 + 2| = 2 lam^2 (3 + lam^2) / (1 + lam^2)^2 <= 6 lam^2, since
        # (3 + x) / (1 + x)^2 <= 3 for x >= 0; it is 0.0149, 0.0590, 0.2249 at
        # these three lambdas. A fixed constant such as 0.05 holds only for
        # lam <~ 0.091.
        deviation = abs(value / lam**2 + 2.0)
        if not deviation <= 6.0 * lam**2:
            failures.append(
                f"|f/lambda^2 + 2| = {deviation:.6g} > 6 lambda^2 at lambda={lam}"
            )
    for lam in (0.02, *np.linspace(0.05, 2.0, 40)):
        value = overlap_with_ground(lam)
        if not abs(value - closed_form_fidelity(lam)) <= 1e-6:
            failures.append(f"quadrature/closed-form mismatch at lambda={lam:.3f}")
    ok = not failures
    report(1, "fidelity nonpositivity", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_2_scaled_state_moments():
    failures = []
    for lam in (0.5, 0.75, 1.0):
        m = moments.moments_from_grid(fock_grid(1, lam=lam))
        expected = 1.5 / lam**2
        if abs(m.sigma_qq - expected) > 1e-5:
            failures.append(f"sigma_qq off at lambda={lam}: {m.sigma_qq!r}")
        if abs(m.sigma_pp - expected) > 1e-5:
            failures.append(f"sigma_pp off at lambda={lam}: {m.sigma_pp!r}")
        if abs(m.sigma_qp) > 1e-6:
            failures.append(f"sigma_qp nonzero at lambda={lam}: {m.sigma_qp!r}")
    ok = not failures
    report(2, "scaled-state moments", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_3_pseudodensity_headline():
    projected = fock_projection(1, lam=0.5, dim=32)
    spectrum = fock_space.spectrum(projected)
    m = moments.moments_from_grid(fock_grid(1, lam=0.5))
    sr = one_mode_uncertainty_matrix(m)
    sr_positive, sr_min = moments.is_psd(sr)
    checks = {
        "trace in [0.999, 1.001]": 0.999 <= spectrum.trace <= 1.001,
        "<0|rho|0> = -0.24 +/- 1e-3": abs(projected.entries[0, 0].real + 0.24) <= 1e-3,
        "min eigenvalue <= -0.24 + 1e-3": spectrum.min_eigenvalue <= -0.24 + 1e-3,
        "uncertainty matrix positive definite": sr_positive and sr_min > 0.0,
        "sr_value = 36 +/- 1e-3": abs(moments.sr_value(m) - 36.0) <= 1e-3,
    }
    failures = [name for name, passed in checks.items() if not passed]
    ok = not failures
    report(3, "pseudodensity headline", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_4_sr_threshold():
    def margin(lam):
        sigma = 1.5 / lam**2
        return moments.sr_value(moments.SecondMoments(0.0, 0.0, sigma, sigma, 0.0)) - 0.25

    root = brentq(margin, 1.2, 2.0, xtol=1e-12)
    root_ok = abs(root - np.sqrt(3.0)) <= 1e-6
    # the |lambda| <= 1 region sits strictly inside the satisfied region
    inside_ok = margin(1.0) > 0.0 and 1.0 < root
    ok = root_ok and inside_ok
    report(4, "uncertainty threshold at sqrt(3)", ok, f"root = {root:.9f}")
    assert ok, f"threshold root {root!r}"


def test_criterion_5_multimode_determinant_bound():
    failures = []
    for modes in (1, 2, 3):
        det, bound = moments.det_bound(gaussian_cv.vacuum(modes))
        # equality up to the LU factorization's machine rounding (~1 ulp)
        if abs(det - bound) > 4.0 * np.finfo(float).eps * bound:
            failures.append(f"vacuum N={modes}: det {det!r} != {bound!r}")
    for r in (0.5, 1.0, 2.0):
        det, _ = moments.det_bound(gaussian_cv.two_mode_squeezed(r))
        if abs(det - 1.0 / 16.0) > 1e-9:
            failures.append(f"tmsv r={r}: det {det!r}")
    ok = not failures
    report(5, "multimode determinant bound", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_6_separability_criterion():
    failures = []
    rng = np.random.default_rng(2026)
    grid = gaussian_cv.default_lambda_grid()
    worst = 0.0
    for _ in range(100):
        sigma = product_sigma(random_single_mode_sigma(rng), random_single_mode_sigma(rng))
        scan = gaussian_cv.separability_scan(
            gaussian_cv.CovarianceMatrix(2, sigma), {2}, grid, tol=1e-9
        )
        worst = min(worst, min(scan.min_eigenvalues))
        if scan.verdict != "no_violation":
            failures.append("product state flagged as entangled")
            break
    if worst < -1e-9:
        failures.append(f"product state dipped to {worst:.3e}")

    detection = gaussian_cv.separability_scan(gaussian_cv.two_mode_squeezed(1.0), {2}, [-1.0])
    if detection.verdict != "entanglement_detected":
        failures.append("tmsv r=1 not detected at lambda=-1")
    if not detection.min_eigenvalues[0] < -0.05:
        failures.append(f"tmsv r=1 eigenvalue {detection.min_eigenvalues[0]!r} above -0.05")

    magnitudes = [
        -gaussian_cv.separability_scan(gaussian_cv.two_mode_squeezed(r), {2}, [-1.0]).min_eigenvalues[0]
        for r in (0.25, 0.5, 1.0, 2.0)
    ]
    if not all(b >= a for a, b in zip(magnitudes, magnitudes[1:])):
        failures.append(f"detection magnitude not monotone: {magnitudes}")

    ok = not failures
    report(6, "separability criterion", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_7_transform_invertibility():
    failures = []
    for n in range(4):
        w = fock_grid(n)
        back = phase_space.density_to_wigner(phase_space.wigner_to_density(w))
        size = w.spec.points_per_axis
        inner = slice(size // 4, 3 * size // 4)
        error = float(np.abs(back.values[inner, inner] - w.values[inner, inner]).max())
        if error > 1e-5:
            failures.append(f"round trip error {error:.3e} at n={n}")
    ok = not failures
    report(7, "transform invertibility", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_8_representation_cross_check():
    failures = []
    for lam in (0.5, 0.75, 1.0):
        grid_route = one_mode_uncertainty_matrix(moments.moments_from_grid(fock_grid(1, lam=lam)))
        fock_route = fock_space.moment_matrix(
            fock_projection(1, lam=lam, dim=32), fock_space.quadrature_pair_operators(32)
        )
        gap = float(np.abs(grid_route.entries - fock_route.entries).max())
        if gap > 1e-3:
            failures.append(f"representations differ by {gap:.3e} at lambda={lam}")
    ok = not failures
    report(8, "representation cross-check", ok, "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_9_symplectic_invariance():
    rng = np.random.default_rng(99)
    failures = []
    for _ in range(50):
        cov = gaussian_cv.CovarianceMatrix(1, random_single_mode_sigma(rng))
        before, _ = gaussian_cv.is_valid_state(cov)
        for kappa in (0.5, 2.0):
            after, _ = gaussian_cv.is_valid_state(gaussian_cv.squeeze_symplectic(cov, 1, kappa))
            if after != before:
                failures.append(f"verdict flipped under kappa={kappa}")
    ok = not failures
    report(9, "symplectic invariance", ok, "; ".join(failures))
    assert ok, "; ".join(failures)
