"""The benchmark's own tests: every check passes on real output and rejects a corrupted one.

They run in a few seconds: CLI outputs come from `wigscale.cli.main` in this
process, and each workload runs a short slice of its round.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from wigscale import cli, gaussian_cv, phase_space

from bench import run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_round(workload, inputs):
    workload.inputs = inputs
    return run.measure(workload, 0.0)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.ScanBatch(5, str(tmp_path))
    b = workloads.ScanBatch(5, str(tmp_path))
    assert [i.covariance.matrix.tolist() for i in a.inputs] == [i.covariance.matrix.tolist() for i in b.inputs]
    assert workloads.Sweep(5, "").inputs == workloads.Sweep(5, "").inputs
    assert workloads.Sweep(5, "").inputs != workloads.Sweep(6, "").inputs


def test_sweep_overlap_off_by_1e_3_fails(monkeypatch):
    workload = workloads.Sweep(3, "")
    inputs = [(0, 0.7), (2, 0.55), (11, 0.5)]
    assert one_round(workload, inputs).failed == 0
    exact = phase_space.overlap
    monkeypatch.setattr(phase_space, "overlap", lambda a, b: exact(a, b) + 1e-3)
    stats = one_round(workload, inputs)
    assert stats.failed == stats.attempted == 3


def test_sweep_rejects_a_scaled_ground_state_outside_the_interpolation_bound():
    workload = workloads.Sweep(3, "")
    out = workload.run((1, 0.6))
    assert workload.check((1, 0.6), out) is None
    out["scaled_ground"] = phase_space.apply_scaling(out["scaled"], 0.6)
    assert "scaled ground state" in workload.check((1, 0.6), out)


def test_scan_flipped_verdict_fails(monkeypatch, tmp_path):
    workload = workloads.ScanBatch(4, str(tmp_path))
    inputs = workload.inputs[:6]
    assert one_round(workload, inputs).failed == 0
    assert {i.pt_min_eigenvalue < 0 for i in inputs} == {True, False}
    scan = gaussian_cv.separability_scan
    flipped = {"no_violation": "entanglement_detected", "entanglement_detected": "no_violation"}

    def flip(*args, **kwargs):
        report = scan(*args, **kwargs)
        object.__setattr__(report, "verdict", flipped[report.verdict])
        return report

    monkeypatch.setattr(gaussian_cv, "separability_scan", flip)
    stats = one_round(workload, inputs)
    assert stats.failed == stats.attempted == 6


def test_pipeline_check_rejects_a_shifted_spectrum():
    workload = workloads.Pipeline(2, "")
    workload.points = 256  # the same pipeline on a smaller grid, to keep the test fast
    lam = workload.inputs[0]
    out = workload.run(lam)
    assert workload.check(lam, out) is None
    spectrum = out["spectrum"]
    object.__setattr__(spectrum, "min_eigenvalue", spectrum.min_eigenvalue + 1e-3)
    assert "min eigenvalue" in workload.check(lam, out)


def cli_output(capsys, op):
    assert cli.main(list(op.argv)) == 0
    return workloads.CliResult(0, capsys.readouterr().out, "")


def test_cli_checks_pass_on_real_output_and_reject_corruption(capsys, tmp_path):
    workload = workloads.CliCold(7, str(tmp_path))
    for op in workload.inputs:
        result = cli_output(capsys, op)
        assert workload.check(op, result) is None, op.kind
        assert workload.check(op, workloads.CliResult(0, "", "")) == f"{op.kind} printed nothing"
        assert workload.check(op, workloads.CliResult(2, result.stdout, "error")).startswith(op.kind)
    fidelity = workload.inputs[0]
    text = cli_output(capsys, fidelity).stdout.replace("-0.24,", "-0.241,")
    assert "fidelity row" in workload.check(fidelity, workloads.CliResult(0, text, ""))


def test_cli_empty_stdout_counts_as_failed(tmp_path):
    workload = workloads.CliCold(7, str(tmp_path))
    workload._launch = lambda argv: workloads.CliResult(0, "", "")
    stats = one_round(workload, workload.inputs)
    assert stats.failed == stats.attempted == len(workload.inputs)


def test_traced_scan_counts_calls_and_nests_spans(tmp_path):
    workload = workloads.ScanBatch(4, str(tmp_path))
    inputs = workload.inputs[:4]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        one_round(workload, inputs)
    finally:
        uninstall()
    assert not hasattr(gaussian_cv.separability_scan, "__wrapped__")
    metrics = tracing.layer_metrics(tracer.spans, len(inputs), ["moments.is_psd", "gaussian_cv.partial_scale"])
    assert metrics["moments.is_psd_calls"] == 41
    assert metrics["gaussian_cv.partial_scale_calls"] == 40 * sum(len(i.partition) for i in inputs) / 4
    parents = {tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parents == {"gaussian_cv.separability_scan", "gaussian_cv.is_valid_state"}


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None], ["b", 5.0, 6.0, 0, 0, None]]
    metrics = tracing.layer_metrics(spans, 1, ["a", "b", "c"])
    assert metrics["a_ms"] == pytest.approx(6e3)
    assert metrics["b_ms"] == pytest.approx(2e3)
    assert metrics["b_calls"] == 2
    assert metrics["c_ms"] == metrics["c_calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
