"""Command-line front end exposing the toolkit's experiments as batch runs.

Every run is deterministic: identical arguments produce byte-identical
output. Tables carry the hbar = m = omega = 1 convention in their header,
CSV uses '.' decimals with 12 significant digits, and exit codes encode
only success (0) or input errors (2), never a physics verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import fock_space, gaussian_cv, moments, phase_space

__all__ = ["main", "entry"]

_CONVENTION = "hbar = m = omega = 1"
#: most lambda values one fidelity run may request; each samples two grids
MAX_FIDELITY_STEPS = 10_000
#: most lambda values one separability scan may request; each scales the state and runs an eigensolver
MAX_LAMBDA_POINTS = 10_000
#: largest max |S - S^T| of a covariance file: files written by other tools carry about 9-12
#: significant digits, so this is looser than HERMITICITY_TOL; the matrix is symmetrised
#: before CovarianceMatrix sees it
FILE_SYMMETRY_TOL = 1e-9


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _render(columns, rows, meta, fmt: str) -> str:
    if fmt == "json":
        payload = {"convention": _CONVENTION}
        payload.update({key: _jsonable(value) for key, value in meta.items()})
        payload["columns"] = list(columns)
        payload["rows"] = [[_jsonable(v) for v in row] for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {_CONVENTION}"]
    for key, value in meta.items():
        lines.append(f"# {key} = {_cell(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, (float, np.floating)):
        return float(_fmt(value))  # the CSV's 12 digits: JSON bytes then do not follow BLAS's last bits
    return value.item() if isinstance(value, np.generic) else value


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return str(value)


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _parse_state(token: str) -> int:
    match = re.fullmatch(r"fock(\d+)", token)
    if not match:
        raise ValueError(f"unknown state spec {token!r}; expected fockN (e.g. fock1)")
    return int(match.group(1))


def _make_grid(args, *states: phase_space.AnalyticWigner) -> phase_space.GridSpec:
    return phase_space.default_grid(states, args.grid, args.extent)


def _alias_free_grid(args, state: phase_space.AnalyticWigner) -> phase_space.GridSpec:
    """The grid of a round trip: the state's grid, with N points where 4 extent^2 <= pi N.

    rho(x, x') reaches |x - x'| = 2 extent, and the p-integral over the step h = 2 extent / N
    has period pi / h in x - x', so both transforms alias on fewer points. Missing points are
    default_grid's, raised to the fewest even count that meets it; a given count below it is refused.
    """
    spec = _make_grid(args, state)
    least = 4.0 * spec.extent * spec.extent / math.pi  # inf for an extent past ~1e154
    needed = 2 * math.ceil(least / 2) if least < math.inf else least
    if needed > phase_space.MAX_POINTS:
        raise ValueError(f"a round trip over extent {spec.extent:g} needs at least {needed:g} points per axis "
                         f"(4 extent^2 <= pi N): more than the limit of {phase_space.MAX_POINTS}")
    if args.grid is not None and args.grid < needed:
        raise ValueError(f"{args.grid} points per axis alias in a round trip over extent {spec.extent:g}: "
                         f"it needs at least {needed} (4 extent^2 <= pi N)")
    return spec if spec.points_per_axis >= needed else phase_space.GridSpec(spec.extent, needed)


def _state_pipeline(args, make_grid=_make_grid):
    """The requested state sampled on its grid, and the metadata naming it."""
    state = phase_space.AnalyticWigner(_parse_state(args.state), args.lam, args.kappa)
    grid = phase_space.sample_to_grid(state, make_grid(args, state))
    return grid, {"state": args.state, "lambda": args.lam, "kappa": args.kappa}


def _sr_report(m: moments.SecondMoments):
    cov = gaussian_cv.CovarianceMatrix(1, [[m.sigma_qq, m.sigma_qp], [m.sigma_qp, m.sigma_pp]])
    matrix = moments.multimode_uncertainty_matrix(cov)
    verdict = "satisfied" if moments.is_psd(matrix)[0] else "violated"
    return moments.sr_value(m), np.linalg.eigvalsh(matrix.entries), verdict


def _closed_form_fidelity(lam: float) -> float:
    return 2.0 * lam**2 * (lam**2 - 1.0) / (1.0 + lam**2) ** 2


def _run_fidelity(args) -> str:
    if not (0.0 < args.lam_min < args.lam_max):
        raise ValueError("need 0 < --lambda-min < --lambda-max")
    if not (2 <= args.steps <= MAX_FIDELITY_STEPS):
        raise ValueError(f"--steps must be between 2 and {MAX_FIDELITY_STEPS}, got {args.steps}")
    lams = np.linspace(args.lam_min, args.lam_max, args.steps)
    ground = phase_space.AnalyticWigner(0)
    states = [phase_space.AnalyticWigner(1, lam) for lam in lams]
    specs, refusals = [], []
    for lam, state in zip(lams, states):  # every lambda's grid is built before any is sampled
        try:
            specs.append(_make_grid(args, ground, state))
        except ValueError as exc:
            refusals.append(f"at lambda {lam:g}: {exc}")
    if refusals:
        # the two ends of the refused lambdas, so that one run names every remedy a sweep needs
        ends = refusals[0] if len(refusals) == 1 else f"first {refusals[0]}; last {refusals[-1]}"
        raise ValueError(f"{len(refusals)} of {len(lams)} lambda values have no grid that resolves both states, {ends}")
    rows = []
    ground_spec = None
    for lam, state, spec in zip(lams, states, specs):
        if spec != ground_spec:  # neighbouring lambdas often share a grid, and so one ground state
            ground_grid, ground_spec = phase_space.sample_to_grid(ground, spec), spec
        quad = phase_space.overlap(ground_grid, phase_space.sample_to_grid(state, spec))
        rows.append([lam, quad, _closed_form_fidelity(lam), -2.0 * lam**2])
    columns = ["lambda", "overlap_quadrature", "overlap_closed_form", "small_lambda_leading_term"]
    return _render(columns, rows, {}, args.format)


def _run_uncertainty(args) -> str:
    grid, meta = _state_pipeline(args)
    m = moments.moments_from_grid(grid)
    value, eigenvalues, verdict = _sr_report(m)
    columns = [
        "sigma_qq",
        "sigma_pp",
        "sigma_qp",
        "sr_value",
        "matrix_eigenvalue_min",
        "matrix_eigenvalue_max",
        "sr_verdict",
    ]
    rows = [[m.sigma_qq, m.sigma_pp, m.sigma_qp, value, eigenvalues[0], eigenvalues[-1], verdict]]
    return _render(columns, rows, meta, args.format)


def _run_spectrum(args) -> str:
    grid, meta = _state_pipeline(args)
    m = moments.moments_from_grid(grid)
    value, _, verdict = _sr_report(m)
    density = phase_space.wigner_to_density(grid)
    projected = fock_space.project_state(density, args.dim)
    spec = fock_space.spectrum(projected)
    meta |= {
        "dim": args.dim,
        "trace": spec.trace,
        "truncation_deficit": spec.truncation_deficit,
        "min_eigenvalue": spec.min_eigenvalue,
        "sr_value": value,
        "sr_verdict": verdict,
    }
    rows = [[k, v] for k, v in enumerate(spec.eigenvalues)]
    return _render(["index", "eigenvalue"], rows, meta, args.format)


def _parse_lambda_grid(token: str) -> np.ndarray:
    if token == "default":
        return gaussian_cv.default_lambda_grid()
    spaced = re.fullmatch(r"[^:,]+:[^:,]+:\d+", token)
    parts = token.split(":" if spaced else ",")
    count = int(parts[2]) if spaced else len(parts)
    if count > MAX_LAMBDA_POINTS:
        raise ValueError(f"lambda grid has {count} points, more than the limit {MAX_LAMBDA_POINTS}")
    try:
        numbers = [float(part) for part in (parts[:2] if spaced else parts)]
    except ValueError:
        raise ValueError(
            f"--lambda-grid must be 'default', 'start:stop:count' or comma-separated values such as 0.5,1,2, "
            f"got {token!r}"
        ) from None
    for number in numbers:
        if not math.isfinite(number):
            raise ValueError(f"lambda grid values must be finite, got {number}")
    # an empty grid and a zero are the scan's to refuse
    return np.sort(np.linspace(numbers[0], numbers[1], count) if spaced else np.array(numbers))


def _load_covariance(path: str) -> gaussian_cv.CovarianceMatrix:
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise ValueError("covariance file nests too deeply to be a covariance matrix") from None
    if not isinstance(payload, dict):
        raise ValueError("covariance file must hold a JSON object with keys modes, ordering and matrix")
    for key in ("modes", "ordering", "matrix"):
        if key not in payload:
            raise ValueError(f"covariance file missing key {key!r}")
    modes = payload["modes"]
    if isinstance(modes, bool) or not isinstance(modes, int) or modes < 1:
        raise ValueError(f"\"modes\" must be a positive integer, got {modes!r}")
    ordering = payload["ordering"]
    if ordering not in ("q-block-p-block", "interleaved"):
        raise ValueError(f"unknown ordering {ordering!r}")
    try:
        matrix = np.asarray(payload["matrix"], dtype=float)
    except TypeError:  # an object where numbers belong
        raise ValueError("\"matrix\" must be a list of rows of numbers") from None
    if matrix.shape != (2 * modes, 2 * modes):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match modes={modes} (expected {2 * modes}x{2 * modes})"
        )
    asym = np.abs(matrix - matrix.T).max()
    if asym > FILE_SYMMETRY_TOL:
        tol = np.format_float_scientific(FILE_SYMMETRY_TOL, trim="-", exp_digits=1)  # "1e-9"
        raise ValueError(f"matrix not symmetric within {tol}")
    matrix = 0.5 * (matrix + matrix.T)
    if ordering == "interleaved":
        matrix = gaussian_cv.interleaved_to_block(matrix)
    return gaussian_cv.CovarianceMatrix(modes, matrix)


def _run_separability(args) -> str:
    cov = _load_covariance(args.cov)
    try:
        modes = {int(part) for part in args.modes.split(",")}
    except ValueError:
        raise ValueError(f"--modes must be comma-separated mode indices such as 1,2, got {args.modes!r}") from None
    lam_grid = _parse_lambda_grid(args.lambda_grid)
    report = gaussian_cv.separability_scan(cov, modes, lam_grid, tol=args.tol)
    meta = {
        "verdict": report.verdict,
        "tolerance": report.tol,
        "scaled_modes": ",".join(str(m) for m in sorted(modes)),
    }
    violations, outside = set(report.violations), set(report.outside_criterion)
    rows = [
        [lam, low, lam in violations, lam not in outside]
        for lam, low in zip(report.lam_grid, report.min_eigenvalues)
    ]
    columns = ["lambda", "min_eigenvalue", "violation", "within_criterion"]
    return _render(columns, rows, meta, args.format)


def _run_tmsv(args) -> str:
    cov = gaussian_cv.two_mode_squeezed(args.r)
    payload = {
        "modes": cov.modes,
        "ordering": "q-block-p-block",
        "matrix": [[float(v) for v in row] for row in cov.matrix],
    }
    return json.dumps(payload, indent=2) + "\n"


def _run_roundtrip(args) -> str:
    grid, meta = _state_pipeline(args, _alias_free_grid)
    spec, norm = grid.spec, grid.norm()
    n = spec.points_per_axis
    inner = slice(n // 4, 3 * n // 4)
    interior = grid.values[inner, inner].copy()
    density = phase_space.wigner_to_density(grid)
    del grid  # only its interior and norm are compared, so the inverse runs without it
    back = phase_space.density_to_wigner(density)
    max_error = float(np.abs(back.values[inner, inner] - interior).max())
    norm_drift = abs(back.norm() - norm)
    meta |= {"grid_points": n, "extent": spec.extent}
    rows = [[max_error, norm_drift]]
    return _render(["max_abs_error_interior", "norm_drift"], rows, meta, args.format)


def finite_float(token: str) -> float:
    """argparse type: like float, but nan and inf are invalid values."""
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(token)
    return value


def _add_common(parser, default_format="csv"):
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_grid_options(parser):
    parser.add_argument("--grid", type=int, default=None, help="points per axis (default: 512, or as the state needs)")
    parser.add_argument("--extent", type=finite_float, default=None, help="half-width of the grid")


def _add_state_options(parser):
    parser.add_argument("--state", required=True, help="state spec, e.g. fock1")
    parser.add_argument("--lambda", dest="lam", type=finite_float, default=1.0, help="scaling parameter")
    parser.add_argument("--kappa", type=finite_float, default=1.0, help="squeeze parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigscale",
        description="Phase-space toolkit runs: fidelity sweeps, uncertainty "
        "matrices, pseudodensity spectra, and the partial-scaling "
        "separability scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fid = sub.add_parser("fidelity", help="overlap of the ground state with the scaled first excited state")
    fid.add_argument("--lambda-min", dest="lam_min", type=finite_float, required=True)
    fid.add_argument("--lambda-max", dest="lam_max", type=finite_float, required=True)
    fid.add_argument("--steps", type=int, required=True)
    _add_grid_options(fid)
    _add_common(fid)
    fid.set_defaults(func=_run_fidelity)

    unc = sub.add_parser("uncertainty", help="second moments and the uncertainty-matrix verdict")
    _add_state_options(unc)
    _add_grid_options(unc)
    _add_common(unc)
    unc.set_defaults(func=_run_uncertainty)

    spe = sub.add_parser("spectrum", help="Fock-basis eigenvalues next to the uncertainty verdict")
    _add_state_options(spe)
    spe.add_argument("--dim", type=int, default=fock_space.DEFAULT_DIM)
    _add_grid_options(spe)
    _add_common(spe)
    spe.set_defaults(func=_run_spectrum)

    sep = sub.add_parser("separability", help="partial-scaling scan of a covariance file")
    sep.add_argument("--cov", required=True, help="covariance JSON path")
    sep.add_argument("--modes", required=True, help="comma-separated 1-based mode indices to scale")
    sep.add_argument("--lambda-grid", dest="lambda_grid", default="default",
                     help="'default', 'start:stop:count', or comma-separated values; "
                          "a grid that starts with '-' needs the = form, as in --lambda-grid=-1:1:40")
    sep.add_argument("--tol", type=finite_float, default=moments.PSD_TOL, help="relative PSD tolerance")
    _add_common(sep, default_format="json")
    sep.set_defaults(func=_run_separability)

    tms = sub.add_parser("tmsv", help="write a two-mode squeezed vacuum covariance file")
    tms.add_argument("--r", type=finite_float, required=True, help="squeezing strength")
    tms.add_argument("--out", default=None, help="output path (default: stdout)")
    tms.set_defaults(func=_run_tmsv)

    rtr = sub.add_parser("roundtrip", help="Wigner -> density -> Wigner self-consistency")
    _add_state_options(rtr)
    _add_grid_options(rtr)
    _add_common(rtr)
    rtr.set_defaults(func=_run_roundtrip)

    for command in sub.choices.values():
        command.set_defaults(command_parser=command)
    return parser


def _options_set(args) -> str:
    """' (with --option value ...)' for each option of the run set away from its default."""
    given = [
        f"{action.option_strings[-1]} {getattr(args, action.dest)}"
        for action in args.command_parser._actions
        if action.option_strings and action.dest not in ("help", "format", "out")
        and getattr(args, action.dest) != action.default
    ]
    return f" (with {' '.join(given)})" if given else ""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # only extreme inputs overflow; raising turns numpy's warnings into one input error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            text = args.func(args)
        _write(text, args.out)
    except ArithmeticError as exc:
        # numpy's message names the operation, not the input: name the options that set it
        print(f"error: {exc}{_options_set(args)}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
