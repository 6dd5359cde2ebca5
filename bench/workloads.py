"""The four workloads: seeded inputs, the timed operation and its output check.

Each workload holds one round of inputs built from the seed. A run repeats
whole rounds, so every run attempts the same mix of operations. `run` is the
timed part and calls wigscale only through module attributes (so the traced
run's wrappers see every call); `check` compares the output with
`bench.reference` and returns a description of the first problem, or None.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from wigscale import fock_space, gaussian_cv, moments, phase_space

from . import reference

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
_CLI_CHILD = os.path.join(_ROOT, "bench", "cli_child.py")

#: tolerances of the checks; each is far above the agreement measured on
#: correct code (README, "Checks") and far below a corrupted output
EXACT = 1e-12  # closed forms that the quadrature meets to round-off
TOL = 1e-9  # grid sums blurred by round-off, and values read back from 12-digit CLI output
ROUNDTRIP = 1e-10  # interior error of Wigner -> density -> Wigner

DIM = 32
CLI_POINTS = 512  # the CLI's default points per axis
PT_MARGIN = 1e-3  # scan inputs keep the partial transpose's min eigenvalue this far from 0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


class Workload:
    """One round of inputs; `run` is timed and `check` returns a problem or None."""

    name = ""
    in_process = True

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError


class Pipeline(Workload):
    """Scaled first excited state through every stage at 1024 points per axis."""

    name = "pipeline-1024"
    points = 1024
    round_size = 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.inputs = [float(lam) for lam in rng.uniform(0.45, 0.95, self.round_size)]

    def run(self, lam):
        state = phase_space.AnalyticWigner(1, lam)
        grid = phase_space.sample_to_grid(state, phase_space.default_grid(state, self.points))
        m = moments.moments_from_grid(grid)
        rho = phase_space.wigner_to_density(grid)
        spec = fock_space.spectrum(fock_space.project_state(rho, DIM))
        back = phase_space.density_to_wigner(rho)
        return {"grid": grid, "moments": m, "density_trace": rho.trace(), "spectrum": spec, "back": back}

    def check(self, lam, out):
        eigenvalues, trace = reference.scaled_fock1_projection(lam, out["grid"].spec.axis(), DIM)
        spec, m = out["spectrum"], out["moments"]
        variance = reference.scaled_fock_variance(1, lam)
        n = self.points
        inner = slice(n // 4, 3 * n // 4)
        roundtrip = np.abs(out["back"].values[inner, inner] - out["grid"].values[inner, inner]).max()
        if abs(spec.min_eigenvalue - eigenvalues[0]) > TOL:
            return f"min eigenvalue {spec.min_eigenvalue!r} vs closed-form kernel {eigenvalues[0]!r}"
        if abs(spec.trace - trace) > TOL or abs(1.0 - spec.trace) > (1.0 - trace) + TOL:
            return f"trace {spec.trace!r} vs {trace!r} (deficit {1.0 - trace:.3g})"
        if abs(out["density_trace"] - 1.0) > TOL:
            return f"density trace {out['density_trace']!r}"
        if _rel(m.sigma_qq, variance) > TOL or _rel(m.sigma_pp, variance) > TOL or abs(m.sigma_qp) > TOL:
            return f"moments {m} vs sigma = {variance!r}"
        if m.sigma_qq * m.sigma_pp - m.sigma_qp**2 < 0.25:
            return "uncertainty determinant below 1/4"
        if not roundtrip <= ROUNDTRIP:
            return f"round-trip interior error {roundtrip:.3g}"
        return None


class Sweep(Workload):
    """Grid primitives at 256 points: sampling (Laguerre), overlap, moments and both maps."""

    name = "sweep-256"
    points = 256
    max_fock = 11
    round_size = 48

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        lams = rng.uniform(0.5, 1.0, self.round_size)
        self.inputs = [(k % (self.max_fock + 1), float(lam)) for k, lam in enumerate(lams)]

    def run(self, inp):
        n, lam = inp
        state = phase_space.AnalyticWigner(n, lam)
        spec = phase_space.default_grid(state, self.points)
        ground = phase_space.sample_to_grid(phase_space.AnalyticWigner(0), spec)
        scaled = phase_space.sample_to_grid(state, spec)
        return {
            "overlap": phase_space.overlap(ground, scaled),
            "moments": moments.moments_from_grid(scaled),
            "scaled": scaled,
            "scaled_ground": phase_space.apply_scaling(ground, lam),
            "mirrored": phase_space.apply_partial_scaling(scaled, -1.0),
        }

    def check(self, inp, out):
        n, lam = inp
        expected = reference.fock_overlap(n, lam)
        variance = reference.scaled_fock_variance(n, lam)
        m, scaled = out["moments"], out["scaled"]
        if abs(out["overlap"] - expected) > EXACT:
            return f"overlap {out['overlap']!r} vs closed form {expected!r}"
        if _rel(m.sigma_qq, variance) > TOL or _rel(m.sigma_pp, variance) > TOL or abs(m.sigma_qp) > EXACT:
            return f"moments {m} vs sigma = {variance!r}"
        if abs(scaled.norm() - 1.0) > TOL:
            return f"norm {scaled.norm()!r}"
        if np.abs(out["mirrored"].values - scaled.values).max() > EXACT:
            return "partial scaling at -1 changed a Fock state"
        spec = scaled.spec
        error = np.abs(out["scaled_ground"].values - reference.scaled_ground(lam, spec.axis())).max()
        if error > reference.interpolation_bound(lam, spec.step):
            return f"scaled ground state off by {error:.3g} > lam^2 h^2"
        return None


@dataclass(frozen=True)
class ScanInput:
    covariance: gaussian_cv.CovarianceMatrix
    partition: frozenset
    pt_min_eigenvalue: float
    lam_grid: np.ndarray


class ScanBatch(Workload):
    """Separability scans of random 2-4 mode states, half entangled and half products."""

    name = "scan-batch"
    #: (modes, partition size) pairs, each drawn once entangled and once as a product per cycle;
    #: a fixed mix keeps the cost of a round, which grows with the partition size, the same for every seed
    shapes = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
    round_size = 192

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        lam_grid = gaussian_cv.default_lambda_grid()
        self.inputs = []
        for k in range(self.round_size):
            modes, size = self.shapes[(k // 2) % len(self.shapes)]
            partition = frozenset(int(m) for m in rng.choice(np.arange(1, modes + 1), size, replace=False))
            while True:
                if k % 2:
                    sigma = reference.product_state(rng, modes, partition, 1.0)
                else:
                    sigma = reference.random_gaussian_state(rng, modes, 1.0)
                low = reference.partial_transpose_min_eigenvalue(sigma, partition)
                if (low > PT_MARGIN) if k % 2 else (low < -PT_MARGIN):
                    break
            cov = gaussian_cv.CovarianceMatrix(modes, sigma)
            self.inputs.append(ScanInput(cov, partition, low, lam_grid))

    def run(self, inp):
        return gaussian_cv.separability_scan(inp.covariance, inp.partition, inp.lam_grid)

    def check(self, inp, report):
        expected = "entanglement_detected" if inp.pt_min_eigenvalue < 0 else "no_violation"
        if report.verdict != expected:
            return f"verdict {report.verdict!r}, partial transpose says {expected!r}"
        if len(report.lam_grid) != 40 or report.lam_grid[0] != -1.0:
            return f"lambda grid of {len(report.lam_grid)} points from {report.lam_grid[0]!r}"
        if _rel(report.min_eigenvalues[0], inp.pt_min_eigenvalue) > TOL:
            return f"min eigenvalue at -1 {report.min_eigenvalues[0]!r} vs {inp.pt_min_eigenvalue!r}"
        return None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple
    params: dict


def _parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    meta, table = {}, []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            meta[key] = value
        elif line and not line.startswith("#"):
            table.append(line.split(","))
    return meta, table[0], table[1:]


class CliCold(Workload):
    """Each operation is one subcommand in a fresh interpreter through wigscale.cli:entry."""

    name = "cli-cold"
    in_process = False

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tracer = None
        self.import_figures: list[dict] = []
        self.maxrss_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
        lam = float(rng.uniform(0.4, 0.9))
        r_file, r_out = (float(r) for r in rng.uniform(0.3, 1.5, 2))
        entangled = os.path.join(workdir, "tmsv.json")
        product = os.path.join(workdir, "product.json")
        self._write_cov(entangled, reference.tmsv_matrix(r_file))
        product_sigma = reference.product_state(rng, 2, {1}, 1.0)
        self._write_cov(product, product_sigma)
        state = ("--state", "fock1", "--lambda", repr(lam))
        self.inputs = [
            CliOp("fidelity", ("fidelity", "--lambda-min", "0.05", "--lambda-max", "1.0", "--steps", "20"), {}),
            CliOp("uncertainty", ("uncertainty", *state), {"lam": lam}),
            CliOp("spectrum", ("spectrum", *state, "--dim", str(DIM)), {"lam": lam}),
            CliOp("roundtrip", ("roundtrip", *state), {"lam": lam}),
            CliOp(
                "separability",
                ("separability", "--cov", entangled, "--modes", "1"),
                {"pt": reference.partial_transpose_min_eigenvalue(reference.tmsv_matrix(r_file), {1})},
            ),
            CliOp(
                "separability",
                ("separability", "--cov", product, "--modes", "1"),
                {"pt": reference.partial_transpose_min_eigenvalue(product_sigma, {1})},
            ),
            CliOp("tmsv", ("tmsv", "--r", repr(r_out)), {"r": r_out}),
        ]

    @staticmethod
    def _write_cov(path, sigma):
        payload = {"modes": 2, "ordering": "q-block-p-block", "matrix": sigma.tolist()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def run(self, op):
        if self.tracer is None:
            argv = [sys.executable, "-c", "from wigscale.cli import entry; entry()", *op.argv]
        else:
            spans_path = os.path.join(self.workdir, "spans.json")
            argv = [sys.executable, _CLI_CHILD, spans_path, *op.argv]
        result = self._launch(argv)
        if self.tracer is not None:
            with open(spans_path, encoding="utf-8") as handle:
                child = json.load(handle)
            self.tracer.add(child.pop("spans"), self.tracer.op)
            self.import_figures.append(child)
        return result

    def _launch(self, argv) -> CliResult:
        """Run to completion; os.wait4 gives this child's own peak resident memory."""
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
            return CliResult(proc.returncode, out.read().decode(), err.read().decode())

    def check(self, op, result):
        if result.code != 0:
            return f"{op.kind} exited {result.code}: {result.stderr.strip()[-300:]}"
        if not result.stdout.strip():
            return f"{op.kind} printed nothing"
        try:
            return getattr(self, f"_check_{op.kind}")(op.params, result.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{op.kind} output unreadable: {exc!r}"

    @staticmethod
    def _check_fidelity(params, text):
        _, header, rows = _parse_csv(text)
        lams = np.linspace(0.05, 1.0, 20)
        if header[:2] != ["lambda", "overlap_quadrature"] or len(rows) != lams.size:
            return f"fidelity table {header} with {len(rows)} rows"
        for lam, row in zip(lams, rows):
            expected = reference.fock_overlap(1, lam)
            if _rel(float(row[0]), lam) > TOL or abs(float(row[1]) - expected) > TOL:
                return f"fidelity row {row} vs closed form {expected!r} at {lam!r}"
        return None

    @staticmethod
    def _check_uncertainty(params, text):
        _, header, rows = _parse_csv(text)
        row = dict(zip(header, rows[0]))
        variance = reference.scaled_fock_variance(1, params["lam"])
        for key, value in (("sigma_qq", variance), ("sigma_pp", variance), ("sr_value", variance**2)):
            if _rel(float(row[key]), value) > TOL:
                return f"{key} {row[key]} vs {value!r}"
        if abs(float(row["sigma_qp"])) > TOL or row["sr_verdict"] != "satisfied":
            return f"sigma_qp {row['sigma_qp']}, verdict {row['sr_verdict']}"
        return None

    @staticmethod
    def _check_spectrum(params, text):
        meta, _, rows = _parse_csv(text)
        lam = params["lam"]
        axis = phase_space.default_grid(phase_space.AnalyticWigner(1, lam), CLI_POINTS).axis()
        eigenvalues, trace = reference.scaled_fock1_projection(lam, axis, DIM)
        if len(rows) != DIM or abs(float(meta["min_eigenvalue"]) - eigenvalues[0]) > TOL:
            return f"{len(rows)} eigenvalues, min {meta['min_eigenvalue']} vs {eigenvalues[0]!r}"
        if abs(float(meta["trace"]) - trace) > TOL or meta["sr_verdict"] != "satisfied":
            return f"trace {meta['trace']} vs {trace!r}, verdict {meta['sr_verdict']}"
        return None

    @staticmethod
    def _check_roundtrip(params, text):
        meta, _, rows = _parse_csv(text)
        error, drift = (float(v) for v in rows[0])
        if int(meta["grid_points"]) != CLI_POINTS or not (error <= ROUNDTRIP and drift <= ROUNDTRIP):
            return f"round trip error {error:.3g}, norm drift {drift:.3g}"
        return None

    @staticmethod
    def _check_separability(params, text):
        payload = json.loads(text)
        expected = "entanglement_detected" if params["pt"] < 0 else "no_violation"
        if payload["verdict"] != expected:
            return f"verdict {payload['verdict']!r}, partial transpose says {expected!r}"
        lam, low = payload["rows"][0][:2]
        if lam != -1.0 or _rel(low, params["pt"]) > TOL:
            return f"min eigenvalue {low!r} at {lam!r} vs partial transpose {params['pt']!r}"
        return None

    @staticmethod
    def _check_tmsv(params, text):
        payload = json.loads(text)
        matrix = np.array(payload["matrix"], dtype=float)
        expected = reference.tmsv_matrix(params["r"])
        if payload["modes"] != 2 or matrix.shape != (4, 4) or np.abs(matrix - expected).max() > EXACT * np.abs(expected).max():
            return "tmsv matrix differs from the cosh/sinh closed form"
        return None


WORKLOADS = {w.name: w for w in (CliCold, Pipeline, Sweep, ScanBatch)}
