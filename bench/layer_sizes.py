"""Median time of each pipeline stage at 256, 512 and 1024 points per axis.

    PYTHONPATH=src python3 bench/layer_sizes.py

The state is the first excited state scaled by 0.5 on its default grid
(extent 16), as in ROADMAP's state line; separability_scan runs on a
two-mode squeezed vacuum over the default lambda grid. Prints one JSON
object of milliseconds, each the median of REPEATS calls (20 * REPEATS for
separability_scan); these are the README's reference layer times.
"""

import json
import statistics
import time

from wigscale import fock_space, gaussian_cv, moments, phase_space

REPEATS = 5


def timed(fn, repeats=REPEATS):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), result


def main():
    state = phase_space.AnalyticWigner(1, 0.5)
    table = {}
    for points in (256, 512, 1024):
        spec = phase_space.default_grid(state, points)
        row = {}
        row["sample_to_grid"], grid = timed(lambda: phase_space.sample_to_grid(state, spec))
        row["moments_from_grid"], _ = timed(lambda: moments.moments_from_grid(grid))
        row["apply_scaling"], _ = timed(lambda: phase_space.apply_scaling(grid, 0.9))
        row["wigner_to_density"], rho = timed(lambda: phase_space.wigner_to_density(grid))
        row["density_to_wigner"], _ = timed(lambda: phase_space.density_to_wigner(rho))
        row["project_state"], proj = timed(lambda: fock_space.project_state(rho, 32))
        row["spectrum"], _ = timed(lambda: fock_space.spectrum(proj))
        table[points] = {k: round(v, 3) for k, v in row.items()}
    cov, grid = gaussian_cv.two_mode_squeezed(1.0), gaussian_cv.default_lambda_grid()
    scan, _ = timed(lambda: gaussian_cv.separability_scan(cov, {1}, grid), 20 * REPEATS)
    print(json.dumps({"points": table, "separability_scan": round(scan, 3)}, indent=1))


if __name__ == "__main__":
    main()
