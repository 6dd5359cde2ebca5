import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wigscale import cli, gaussian_cv, moments, phase_space


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def meta_of(text):
    out = {}
    for line in text.strip().splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            out[key] = value
    return out


class TestFidelity:
    def test_table_values(self, capsys):
        code, out, _ = run(
            capsys, "fidelity", "--lambda-min", "0.1", "--lambda-max", "1.0", "--steps", "10"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "lambda"
        table = {float(r[0]): [float(v) for v in r[1:]] for r in rows}
        assert table[0.1][0] == pytest.approx(-0.019410, abs=1e-6)
        assert table[0.1][2] == pytest.approx(-0.02)
        assert table[0.5][0] == pytest.approx(-0.24, abs=1e-6)
        assert table[1.0][0] == pytest.approx(0.0, abs=1e-6)

    def test_quadrature_matches_closed_form_column(self, capsys):
        _, out, _ = run(
            capsys, "fidelity", "--lambda-min", "0.2", "--lambda-max", "2.0", "--steps", "7"
        )
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[2]), abs=1e-6)

    def test_convention_header_present(self, capsys):
        _, out, _ = run(
            capsys, "fidelity", "--lambda-min", "0.5", "--lambda-max", "1.0", "--steps", "2"
        )
        assert out.splitlines()[0] == "# hbar = m = omega = 1"

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(
            capsys, "fidelity", "--lambda-min", "1.0", "--lambda-max", "0.5", "--steps", "3"
        )
        assert code == 2
        assert "lambda" in err

    def test_small_extent_rejected_with_required_value(self, capsys):
        code, _, err = run(
            capsys,
            "fidelity",
            "--lambda-min", "0.1", "--lambda-max", "1.0", "--steps", "3",
            "--extent", "8",
        )
        assert code == 2
        # fock1 scaled by lambda needs an extent of (sqrt(3) + 4.5) / lambda: 62.3 at 0.1 and 11.3 at 0.55
        assert "2 of 3 lambda values" in err and "first at lambda 0.1: extent 8 cannot hold" in err
        assert "at least 62.320508075688764; last at lambda 0.55: " in err


class TestUncertainty:
    def test_scaled_first_excited(self, capsys):
        code, out, _ = run(capsys, "uncertainty", "--state", "fock1", "--lambda", "0.5")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["sigma_qq"]) == pytest.approx(6.0, abs=1e-5)
        assert float(row["sigma_pp"]) == pytest.approx(6.0, abs=1e-5)
        assert float(row["sr_value"]) == pytest.approx(36.0, abs=1e-4)
        assert row["sr_verdict"] == "satisfied"

    def test_ground_state_saturates(self, capsys):
        _, out, _ = run(capsys, "uncertainty", "--state", "fock0")
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["sr_value"]) == pytest.approx(0.25, abs=1e-6)
        assert row["sr_verdict"] == "satisfied"

    def test_strongly_scaled_state_violates(self, capsys):
        _, out, _ = run(capsys, "uncertainty", "--state", "fock1", "--lambda", "1.8")
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["sr_value"]) == pytest.approx(9.0 / (4.0 * 1.8**4), abs=1e-4)
        assert float(row["sr_value"]) < 0.25
        assert row["sr_verdict"] == "violated"

    @pytest.mark.parametrize("kappa", [0.4, 0.5, 2.0, 2.5, 3.0])
    def test_squeezed_variances_on_the_default_grid(self, capsys, kappa):
        # the default extent grows by max(kappa, 1/kappa), so the stretched axis stays on the grid
        code, out, _ = run(capsys, "uncertainty", "--state", "fock1", "--kappa", str(kappa))
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["sigma_qq"]) == pytest.approx(1.5 / kappa**2, rel=1e-9)
        assert float(row["sigma_pp"]) == pytest.approx(1.5 * kappa**2, rel=1e-9)

    @pytest.mark.parametrize("option", [("--kappa", "1e308"), ("--lambda", "1e-308")])
    def test_overflowing_default_extent_rejected(self, capsys, option):
        # the default extent 8 max(1, 1/|lambda|) max(kappa, 1/kappa) overflows to inf
        code, out, err = run(capsys, "uncertainty", "--state", "fock1", *option)
        assert code == 2 and out == ""
        assert err == "error: extent must be positive and finite, got inf\n"

    def test_unknown_state_rejected(self, capsys):
        code, _, err = run(capsys, "uncertainty", "--state", "bell")
        assert code == 2
        assert "fockN" in err


class TestSpectrum:
    def test_pseudodensity_table(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--state", "fock1", "--lambda", "0.5", "--dim", "32"
        )
        assert code == 0
        meta = meta_of(out)
        assert float(meta["min_eigenvalue"]) <= -0.24 + 1e-3
        assert float(meta["trace"]) == pytest.approx(1.0, abs=1e-3)
        assert meta["sr_verdict"] == "satisfied"

    def test_unscaled_first_excited(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--state", "fock1", "--dim", "32")
        header, rows = parse_csv(out)
        eigenvalues = np.array([float(r[1]) for r in rows])
        assert eigenvalues.max() == pytest.approx(1.0, abs=1e-5)
        assert np.sort(np.abs(eigenvalues))[:-1].max() < 1e-5
        assert meta_of(out)["sr_verdict"] == "satisfied"

    def test_ground_state_nonnegative(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--state", "fock0")
        _, rows = parse_csv(out)
        assert min(float(r[1]) for r in rows) >= -1e-8

    def test_truncation_guard_surfaced(self, capsys):
        code, _, err = run(capsys, "spectrum", "--state", "fock0", "--dim", "33")
        assert code == 2
        assert "turning point" in err


class TestSeparability:
    def test_tmsv_round_trip_detection(self, capsys, tmp_path):
        path = tmp_path / "tmsv.json"
        code, _, _ = run(capsys, "tmsv", "--r", "1.0", "--out", str(path))
        assert code == 0
        code, out, _ = run(
            capsys, "separability", "--cov", str(path), "--modes", "2",
            "--lambda-grid", "default",
        )
        assert code == 0  # verdict is data, not a failure
        report = json.loads(out)
        assert report["verdict"] == "entanglement_detected"
        row = {r[0]: r for r in report["rows"]}[-1.0]
        assert row[1] < -0.05
        assert row[2] is True

    def test_vacuum_no_violation(self, capsys, tmp_path):
        path = tmp_path / "vac.json"
        run(capsys, "tmsv", "--r", "0.0", "--out", str(path))
        code, out, _ = run(capsys, "separability", "--cov", str(path), "--modes", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "no_violation"

    def test_asymmetric_matrix_rejected(self, capsys, tmp_path):
        matrix = (0.5 * np.eye(4)).tolist()
        matrix[0][1] = 0.3
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"modes": 2, "ordering": "q-block-p-block", "matrix": matrix})
        )
        code, _, err = run(capsys, "separability", "--cov", str(path), "--modes", "2")
        assert code == 2
        assert "not symmetric within 1e-9" in err

    def test_wrong_size_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"modes": 2, "ordering": "q-block-p-block", "matrix": np.eye(2).tolist()})
        )
        code, _, err = run(capsys, "separability", "--cov", str(path), "--modes", "2")
        assert code == 2
        assert "modes" in err

    def test_invalid_state_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"modes": 2, "ordering": "q-block-p-block", "matrix": (0.4 * np.eye(4)).tolist()}
            )
        )
        code, _, err = run(capsys, "separability", "--cov", str(path), "--modes", "2")
        assert code == 2
        assert "not a valid state" in err

    def test_interleaved_ordering_accepted(self, capsys, tmp_path):
        cov = gaussian_cv.two_mode_squeezed(1.0)
        # interleaved index k holds block index order[k]: (q1, p1, q2, p2) from (q1, q2, p1, p2)
        order = [0, 2, 1, 3]
        interleaved = cov.matrix[np.ix_(order, order)]
        path = tmp_path / "inter.json"
        path.write_text(
            json.dumps({"modes": 2, "ordering": "interleaved", "matrix": interleaved.tolist()})
        )
        code, out, _ = run(
            capsys, "separability", "--cov", str(path), "--modes", "2",
            "--lambda-grid=-1,1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "entanglement_detected"
        assert report["rows"][0][1] == pytest.approx((np.exp(-2.0) - 1.0) / 2.0, abs=1e-9)

    def test_lambda_grid_spec_forms(self, capsys, tmp_path):
        path = tmp_path / "vac.json"
        run(capsys, "tmsv", "--r", "0.0", "--out", str(path))
        code, out, _ = run(
            capsys, "separability", "--cov", str(path), "--modes", "2",
            "--lambda-grid", "0.25:1.0:4",
        )
        assert code == 0
        assert [r[0] for r in json.loads(out)["rows"]] == [0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("grid,points", [("-1:1:40", 40), ("-1,0.5", 2)])
    def test_negative_lambda_grid_scans_in_the_equals_form(self, capsys, tmp_path, grid, points):
        # a separate "-1:1:40" reads as an option to argparse, so the README gives the = form
        path = tmp_path / "tmsv.json"
        run(capsys, "tmsv", "--r", "1.0", "--out", str(path))
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", "2", f"--lambda-grid={grid}")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert len(report["rows"]) == points and report["rows"][0][0] == -1.0
        assert report["verdict"] == "entanglement_detected"

    @pytest.mark.parametrize(
        "grid",
        ["-1:1:1000000000000", "-1:1:10001", ",".join(["0.5"] * 10_001)],
        ids=["spaced-1e12", "spaced-10001", "list-10001"],
    )
    def test_oversized_lambda_grid_rejected_before_allocating(self, capsys, tmp_path, grid):
        path = tmp_path / "tmsv.json"
        run(capsys, "tmsv", "--r", "1.0", "--out", str(path))
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "separability", "--cov", str(path), "--modes", "1", f"--lambda-grid={grid}"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and str(cli.MAX_LAMBDA_POINTS) in err
        assert peak < 10e6
        assert cli._parse_lambda_grid(f"0.5:1:{cli.MAX_LAMBDA_POINTS}").size == cli.MAX_LAMBDA_POINTS

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "separability", "--cov", str(tmp_path / "nope.json"), "--modes", "2"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unparseable_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        code, _, err = run(capsys, "separability", "--cov", str(path), "--modes", "2")
        assert code == 2

    @pytest.mark.parametrize("grid", ["-1,inf", "nan,1", "-1,1e999", "-Infinity,1", "-1:inf:3", "nan:1:3"])
    def test_non_finite_lambda_rejected(self, capsys, tmp_path, grid):
        path = tmp_path / "tmsv.json"
        run(capsys, "tmsv", "--r", "1.0", "--out", str(path))
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", "1", f"--lambda-grid={grid}")
        assert code == 2 and out == ""
        assert err.startswith("error: lambda grid values must be finite") and err.count("\n") == 1

    def test_zero_in_grid_rejected(self, capsys, tmp_path):
        path = tmp_path / "vac.json"
        run(capsys, "tmsv", "--r", "0.0", "--out", str(path))
        code, _, err = run(
            capsys, "separability", "--cov", str(path), "--modes", "2",
            "--lambda-grid=-1:1:3",
        )
        assert code == 2
        assert "0" in err

    @pytest.mark.parametrize("grid,message", [("1:2:0", "lambda grid must not be empty"),
                                              ("-1:1:41", "scaling parameters must be nonzero, got 0.0")])
    def test_grid_refused_by_the_scan(self, capsys, tmp_path, grid, message):
        path = tmp_path / "vac.json"
        run(capsys, "tmsv", "--r", "0.0", "--out", str(path))
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", "2", f"--lambda-grid={grid}")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestTmsv:
    def test_zero_squeezing_writes_vacuum(self, capsys):
        code, out, _ = run(capsys, "tmsv", "--r", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["ordering"] == "q-block-p-block"
        np.testing.assert_array_equal(np.array(payload["matrix"]), 0.5 * np.eye(4))

    def test_unit_squeezing_diagonal(self, capsys):
        _, out, _ = run(capsys, "tmsv", "--r", "1")
        matrix = np.array(json.loads(out)["matrix"])
        assert matrix[0, 0] == pytest.approx(1.8810978455418157)


class TestRoundtrip:
    @pytest.mark.parametrize("state,lam,bound", [("fock0", 1.0, 1e-5), ("fock1", 1.0, 1e-5), ("fock1", 0.5, 1e-4)])
    def test_reported_error_within_bound(self, capsys, state, lam, bound):
        code, out, _ = run(
            capsys, "roundtrip", "--state", state, "--lambda", str(lam)
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["max_abs_error_interior"]) <= bound
        assert float(row["norm_drift"]) <= 1e-5

    @pytest.mark.parametrize("lam,points", [(0.4, 512), (0.3, 906), (0.2, 2038)])
    def test_default_grid_is_free_of_aliasing(self, capsys, lam, points):
        # the default 512 points, or the fewest even N above it with 4 extent^2 <= pi N on the
        # extent 8 / lambda: 512 points hold lambda = 0.4, and at 0.3 they read norm_drift 0.533
        code, out, _ = run(capsys, "roundtrip", "--state", "fock1", "--lambda", str(lam), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid_points"] == points
        assert 4 * payload["extent"] ** 2 <= np.pi * points
        assert points == 512 or np.pi * (points - 2) < 4 * payload["extent"] ** 2
        error, drift = payload["rows"][0]
        assert error <= 1e-14 and drift <= 1e-14

    @pytest.mark.parametrize("argv,named", [(["--lambda", "0.3", "--grid", "904"], "906"),
                                            (["--lambda", "0.6", "--extent", "30", "--grid", "1144"], "1146"),
                                            (["--lambda", "0.1"], "8150"), (["--lambda", "1e-155"], "inf")])
    def test_aliasing_grid_refused_naming_the_count(self, capsys, argv, named):
        code, out, err = run(capsys, "roundtrip", "--state", "fock1", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at least {named}" in err and "4 extent^2 <= pi N" in err

    def test_peak_memory_at_512_points(self, capsys):
        # the grid (8 bytes a point) and its kept interior (2) beside wigner_to_density's peak (24),
        # 34.2 measured; the grid is dropped before the inverse runs, which holds rho (16) beside
        # 12 for this real rho (16 for a complex one). The allowance covers the parser and the
        # rendered table
        argv = ["roundtrip", "--state", "fock1", "--lambda", "0.6"]
        assert run(capsys, *argv)[0] == 0  # untraced, so numpy's FFT plan for the length is cached already
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= (8 + 2 + 24) * 512**2 + 128 * 1024


class TestOutputContract:
    def test_deterministic_bytes(self, capsys):
        args = ("fidelity", "--lambda-min", "0.25", "--lambda-max", "1.0", "--steps", "4")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "uncertainty", "--state", "fock0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["convention"] == "hbar = m = omega = 1"
        assert payload["columns"][0] == "sigma_qq"
        assert isinstance(payload["rows"][0][0], float)

    @pytest.mark.parametrize("command", ["uncertainty", "spectrum", "separability"])
    def test_json_numbers_are_the_csv_cells(self, capsys, tmp_path, command):
        # JSON floats are printed at the CSV's 12 significant digits, so they do not follow BLAS's last bits
        cov = tmp_path / "tmsv.json"
        run(capsys, "tmsv", "--r", "0.7", "--out", str(cov))
        state = ("--state", "fock1", "--lambda", "0.61", "--kappa", "1.3")
        argv = {"uncertainty": ("uncertainty", *state), "spectrum": ("spectrum", *state, "--dim", "16"),
                "separability": ("separability", "--cov", str(cov), "--modes", "2")}[command]
        _, text, _ = run(capsys, *argv, "--format", "csv")
        _, out, _ = run(capsys, *argv, "--format", "json")
        payload, meta, (_, rows) = json.loads(out), meta_of(text), parse_csv(text)
        floats = [(value, meta[key]) for key, value in payload.items() if isinstance(value, float)]
        floats += [(value, cell) for row, cells in zip(payload["rows"], rows, strict=True)
                   for value, cell in zip(row, cells, strict=True) if isinstance(value, float)]
        assert len(floats) > 3 and len(rows) == len(payload["rows"])
        for value, cell in floats:
            assert value == float(cell)

    def test_out_file_written(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "uncertainty", "--state", "fock0", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("# hbar")

    def test_csv_twelve_significant_digits(self, capsys):
        _, out, _ = run(
            capsys, "fidelity", "--lambda-min", "0.1", "--lambda-max", "0.2", "--steps", "2"
        )
        _, rows = parse_csv(out)
        assert rows[0][1] == "-0.0194098617783"


def fresh_python(*args):
    """Run a fresh interpreter that imports wigscale from this checkout's src/."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


class TestEntryPoints:
    def test_python_dash_m_matches_main(self, capsys):
        args = ["spectrum", "--state", "fock1", "--lambda", "0.5"]
        code, expected, _ = run(capsys, *args)
        done = fresh_python("-m", "wigscale", *args)
        assert code == 0 and done.returncode == 0
        assert done.stdout == expected

    def test_cli_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy is for the tests alone
        code = "import sys, wigscale.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        done = fresh_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)
square_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.floats() | st.integers(), min_size=n, max_size=n), min_size=n, max_size=n)
)
orderings = st.sampled_from(["q-block-p-block", "interleaved"])
# symmetric matrices of any floats (NaN and infinities included), and multiples of the identity
# (valid states from 0.5 on)
symmetric = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.just(m),
        arrays(float, (2 * m, 2 * m), elements=st.floats()).map(lambda a: np.tril(a) + np.tril(a, -1).T)
        | st.floats(0.0, 2.0).map(lambda c: c * np.eye(2 * m)),
    )
)
# arbitrary JSON, objects that carry the three keys with arbitrary or nearly right values, and
# well-formed files
covariance_payloads = st.one_of(
    json_values,
    st.fixed_dictionaries({"modes": st.integers(-1, 3) | json_values, "ordering": orderings | json_values,
                           "matrix": square_rows | json_values}),
    st.builds(lambda ordering, case: {"modes": case[0], "ordering": ordering, "matrix": case[1].tolist()},
              orderings, symmetric),
)

# arbitrary text, and the two spec forms built from numbers that are tiny, huge, zero or not finite
lambda_numbers = st.floats() | st.sampled_from(["1e-300", "1e300", "-0", "0x1p-3", "1_0", " 0.5 ", "infinity"])
lambda_grid_tokens = st.one_of(
    st.text(),
    st.lists(lambda_numbers.map(str), min_size=0, max_size=6).map(",".join),
    st.builds(lambda a, b, count: f"{a}:{b}:{count}", lambda_numbers, lambda_numbers,
              st.integers(0, 50) | st.sampled_from([10_001, 10**40])),
)


class TestInputBoundary:
    @pytest.mark.parametrize(
        "payload",
        [3, None, "modes ordering matrix", [], {"modes": 1, "ordering": "interleaved", "matrix": {"a": 1}},
         {"modes": 1, "ordering": "interleaved", "matrix": [[{"a": 1}, 1], [1, 1]]}],
        ids=["number", "null", "string", "list", "matrix-object", "row-object"],
    )
    def test_malformed_payload_rejected(self, capsys, tmp_path, payload):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deeply_nested_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(payload=covariance_payloads)
    def test_any_json_payload_exits_0_or_2(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "fuzzed_cov.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["separability", "--cov", str(path), "--modes", "1"])
        if code == 0:
            json.loads(out.getvalue(), parse_constant=pytest.fail)  # strict JSON: no NaN or Infinity
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(token=lambda_grid_tokens)
    def test_any_lambda_grid_exits_0_or_2(self, tmp_path_factory, token):
        path = tmp_path_factory.getbasetemp() / "tmsv_for_lambda_grid.json"
        path.write_text(json.dumps({"modes": 2, "ordering": "q-block-p-block",
                                    "matrix": gaussian_cv.two_mode_squeezed(1.0).matrix.tolist()}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["separability", "--cov", str(path), "--modes", "2", f"--lambda-grid={token}"])
        if code == 0:
            payload = json.loads(out.getvalue(), parse_constant=pytest.fail)
            assert len(payload["rows"]) >= 1 and all(row[0] != 0.0 for row in payload["rows"])
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1

    def test_oversized_fock_index_refused_before_sampling(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "uncertainty", "--state", "fock100000")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: extent 451.715 needs a step of at most 0.00816 to resolve fock100000")
        assert err.endswith(f"more than the limit of {phase_space.MAX_POINTS} points per axis\n") and err.count("\n") == 1

    @pytest.mark.parametrize("modes", [[2], "two", 2.5, True, 0, -1, None])
    def test_bad_modes_value_rejected(self, capsys, tmp_path, modes):
        path = tmp_path / "cov.json"
        matrix = (0.5 * np.eye(4)).tolist()
        path.write_text(json.dumps({"modes": modes, "ordering": "q-block-p-block", "matrix": matrix}))
        code, _, err = run(capsys, "separability", "--cov", str(path), "--modes", "2")
        assert code == 2
        assert err.startswith("error:") and "modes" in err

    @pytest.mark.parametrize("modes", [",", "1,,2", "", "a", "1.5"])
    def test_malformed_modes_option_named(self, capsys, tmp_path, modes):
        path = tmp_path / "tmsv.json"
        run(capsys, "tmsv", "--r", "1.0", "--out", str(path))
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", modes)
        assert code == 2 and out == ""
        assert err == f"error: --modes must be comma-separated mode indices such as 1,2, got {modes!r}\n"

    @pytest.mark.parametrize("grid", [",", "a:b:3", "1,,2"])
    def test_malformed_lambda_grid_option_named(self, capsys, tmp_path, grid):
        path = tmp_path / "tmsv.json"
        run(capsys, "tmsv", "--r", "1.0", "--out", str(path))
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", "2", f"--lambda-grid={grid}")
        assert code == 2 and out == ""
        assert err == (
            "error: --lambda-grid must be 'default', 'start:stop:count' or comma-separated values such as "
            f"0.5,1,2, got {grid!r}\n"
        )

    @pytest.mark.parametrize("target", ["directory", "missing/out.csv"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        # the output path is opened inside the error handling: one error line, nothing on stdout
        path = tmp_path / target
        if target == "directory":
            path.mkdir()
        code, out, err = run(capsys, "uncertainty", "--state", "fock1", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno") and str(path) in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize(
        "argv,option",
        [
            (["uncertainty", "--state", "fock1"], "--lambda"),
            (["uncertainty", "--state", "fock1"], "--kappa"),
            (["roundtrip", "--state", "fock1"], "--extent"),
            (["fidelity", "--lambda-max", "1", "--steps", "3"], "--lambda-min"),
            (["fidelity", "--lambda-min", "0.5", "--steps", "3"], "--lambda-max"),
            (["tmsv"], "--r"),
            (["separability", "--cov", "missing.json", "--modes", "2"], "--tol"),
        ],
    )
    def test_non_finite_option_rejected_at_parse_time(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, f"{option}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}" in err and "finite" in err

    def test_overflowing_squeezing_rejected_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "tmsv", "--r", "400")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Warning" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["uncertainty", "--state", "fock1", "--grid", "100000"],
            ["fidelity", "--lambda-min", "0.5", "--lambda-max", "1", "--steps", "2", "--grid", "100000"],
        ],
    )
    def test_oversized_grid_rejected_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "4096" in err and "GB" in err
        assert peak < 10e6


class TestPositivityRule:
    def test_sr_verdict_is_psd_of_the_uncertainty_matrix(self):
        # sr_value = 1 >= 1/4, but the matrix is negative definite
        value, eigenvalues, verdict = cli._sr_report(moments.SecondMoments(0.0, 0.0, -1.0, -1.0, 0.0))
        assert value == 1.0 and eigenvalues[-1] < 0
        assert verdict == "violated"

    def test_tol_defaults_to_psd_tol_and_must_be_nonnegative(self, capsys, tmp_path):
        path = tmp_path / "vac.json"
        run(capsys, "tmsv", "--r", "0", "--out", str(path))
        _, out, _ = run(capsys, "separability", "--cov", str(path), "--modes", "2")
        assert json.loads(out)["tolerance"] == moments.PSD_TOL
        code, out, err = run(capsys, "separability", "--cov", str(path), "--modes", "2", "--tol", "-1")
        assert code == 2 and out == "" and "nonnegative" in err


class TestExtremeInputs:
    @pytest.mark.parametrize(
        "argv,option",
        [
            # the corners of fock220's default grid overflow the Laguerre recurrence
            (["uncertainty", "--state", "fock220"], "--state fock220"),
            (["uncertainty", "--state", "fock1", "--kappa", "1e-300", "--grid", "16"], "--kappa 1e-300"),
            (["uncertainty", "--state", "fock1", "--extent", "1e300", "--grid", "16"], "--extent 1e+300"),
            (["uncertainty", "--state", "fock1", "--lambda", "1e-200", "--grid", "16"], "--lambda 1e-200"),
            (["separability", "--cov", "{cov}", "--modes", "2", "--lambda-grid", "1e-300,1"],
             "--lambda-grid 1e-300,1"),
        ],
        ids=[f"argv{i}" for i in range(5)],
    )
    def test_overflow_exits_2_without_warning(self, capsys, tmp_path, argv, option):
        cov = tmp_path / "tmsv.json"
        run(capsys, "tmsv", "--r", "1", "--out", str(cov))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *(arg.format(cov=cov) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Warning" not in err
        assert option in err

    def test_overflowing_cell_area_refused_before_sampling(self, capsys, monkeypatch):
        # the default extent 8e300 squares past the largest float in the quadrature weight
        sampled = []
        monkeypatch.setattr(phase_space, "sample_to_grid", lambda *args: sampled.append(args))
        code, out, err = run(capsys, "uncertainty", "--state", "fock1", "--lambda", "1e-300")
        assert code == 2 and out == "" and sampled == []
        assert err.startswith("error: extent 8e+300 is too large for 512 points per axis")
        assert err.endswith("(with --state fock1 --lambda 1e-300)\n")

    def test_options_at_their_defaults_not_named(self, capsys):
        code, _, err = run(capsys, "uncertainty", "--state", "fock220", "--lambda", "1", "--kappa", "1",
                           "--grid", "512", "--format", "json")
        assert code == 2
        assert err.endswith("(with --state fock220 --grid 512)\n")

    def test_steps_above_the_cap_refused(self, capsys, monkeypatch):
        argv = ["fidelity", "--lambda-min", "0.5", "--lambda-max", "1", "--grid", "64"]
        monkeypatch.setattr(cli, "MAX_FIDELITY_STEPS", 3)
        assert run(capsys, *argv, "--steps", "3")[0] == 0
        code, out, err = run(capsys, *argv, "--steps", "4")
        assert code == 2 and out == "" and "between 2 and 3" in err

    def test_default_steps_cap(self, capsys):
        assert cli.MAX_FIDELITY_STEPS == 10_000
        code, _, err = run(capsys, "fidelity", "--lambda-min", "0.5", "--lambda-max", "1", "--steps", "10001")
        assert code == 2 and "10000" in err


class TestGridRule:
    @pytest.mark.parametrize("argv,names", [
        (["--state", "fock1", "--lambda", "1e-320"], "extent"),
        (["--state", "fock1", "--extent", "1e300"], "extent"),
        (["--state", "fock1", "--grid", "0"], "points"),
        (["--state", "fock1", "--grid", "-2"], "points"),
        (["--state", "fock100000000"], "points"),
    ])
    def test_extreme_grid_inputs_refused_before_any_allocation(self, capsys, argv, names):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "uncertainty", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
        assert names in err and peak < 1e6

    # default_grid reads the Fock index: once refused as not normalized, from fock24 on
    @pytest.mark.parametrize("n", [24, 36, 100, 200])
    def test_default_grid_resolves_high_fock_states(self, capsys, n):
        code, out, _ = run(capsys, "uncertainty", "--state", f"fock{n}")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["sigma_qq"] == row["sigma_pp"] == f"{n + 0.5:g}"

    def test_extent_that_misses_the_ring_refused(self, capsys):
        # at 512 points this grid once printed sigma_qq = 220.49974201 against 220.5
        code, out, err = run(capsys, "uncertainty", "--state", "fock220", "--extent", "22")
        assert code == 2 and out == ""
        assert err == "error: extent 22 cannot hold fock220 at scale 1, squeeze 1: it needs an extent of at least 25.5\n"


def pair_step(lam):
    """The largest step of a grid that resolves the ground state and the state fock1 scaled by lam."""
    return min(phase_space._resolution(s)[1] for s in (phase_space.AnalyticWigner(0), phase_space.AnalyticWigner(1, lam)))


class TestFidelityResolution:
    # the default extent 8 / lam_min over the ground state's step 3.7 / 7
    @pytest.mark.parametrize("lam_min,needed", [("0.01", 3028), ("0.02", 1514), ("0.04", 758)])
    def test_under_resolved_grid_refused(self, capsys, lam_min, needed):
        code, out, err = run(capsys, "fidelity", "--lambda-min", lam_min, "--lambda-max", "0.05", "--steps", "3",
                             "--grid", "512")
        assert code == 2 and out == ""
        assert f"at lambda {lam_min}: " in err and f"it needs at least {needed} points per axis" in err
        extent = 8.0 / float(lam_min)
        assert phase_space.GridSpec(extent, needed).step <= pair_step(float(lam_min))
        assert phase_space.GridSpec(extent, needed - 2).step > pair_step(float(lam_min))

    @pytest.mark.parametrize("lam_min", ["0.001", "1e-100"])
    def test_beyond_the_grid_limit_names_the_limit(self, capsys, lam_min):
        # the default extent 8 / lam_min needs 30268 points at 0.001, and a 102-digit count at 1e-100
        code, out, err = run(capsys, "fidelity", "--lambda-min", lam_min, "--lambda-max", "1", "--steps", "3")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: 1 of 3 lambda values have no grid that resolves both states, at lambda {lam_min}: ")
        assert err.rstrip().endswith(f"more than the limit of {phase_space.MAX_POINTS} points per axis")

    def test_both_ends_named_in_one_message(self, capsys):
        # at 0.001 the extent 5000 cannot hold the scaled state; at 1 it needs a step of 3.7 / (sqrt(3) + 6)
        code, out, err = run(capsys, "fidelity", "--lambda-min", "0.001", "--lambda-max", "1", "--steps", "3",
                             "--extent", "5000")
        assert code == 2 and out == "" and err.count("\n") == 1
        first, last = err.split("; last ")
        assert "3 of 3 lambda values" in first and "first at lambda 0.001: extent 5000 cannot hold" in first
        assert first.rstrip().endswith("it needs an extent of at least 6232.050807568877")
        assert last.startswith("at lambda 1: extent 5000 needs a step of at most 0.479")
        assert last.rstrip().endswith(f"more than the limit of {phase_space.MAX_POINTS} points per axis")

    def test_far_end_of_a_sweep_at_the_grid_limit(self, capsys):
        # the least extent of the ground state, 5.5, at 4096 points resolves the overlap up to lambda 178.2
        spec = phase_space.GridSpec(5.5, phase_space.MAX_POINTS)
        assert spec.step <= pair_step(178.0) and spec.step > pair_step(179.0)
        # (fock1 scaled by lambda needs an extent of (sqrt(3) + 4.5) / lambda, within 5.5 from lambda 1.14)
        argv = ["fidelity", "--lambda-min", "2", "--steps", "2", "--extent", "5.5", "--grid", "4096"]
        code, out, err = run(capsys, *argv, "--lambda-max", "179")
        assert code == 2 and out == "" and "1 of 2 lambda values" in err
        assert "at lambda 179: extent 5.5 needs a step of at most 0.00267" in err
        code, out, _ = run(capsys, *argv, "--lambda-max", "178")
        assert code == 0
        for row in parse_csv(out)[1]:
            assert float(row[1]) == pytest.approx(float(row[2]), abs=6e-7)

    def test_narrow_integrand_refused_at_lambda_above_one(self, capsys, monkeypatch):
        # a step of 0.5 resolves the ground state but not the scaled state once lambda >= 1:
        # the sweep is refused at its first and last such lambda before anything is sampled
        argv = ["fidelity", "--lambda-min", "0.5", "--lambda-max", "2", "--steps", "4", "--extent", "128"]
        sampled = []
        monkeypatch.setattr(phase_space, "sample_to_grid", lambda *args: sampled.append(args))
        code, out, err = run(capsys, *argv, "--grid", "512")
        assert code == 2 and out == "" and sampled == [] and err.count("\n") == 1
        assert err.startswith("error: 3 of 4 lambda values have no grid that resolves both states, first at lambda 1: "
                              "512 points per axis over extent 128 give step 0.5 > 0.479")
        assert err.rstrip().endswith("it needs at least 1070 points per axis")
        monkeypatch.undo()
        code, out, _ = run(capsys, *argv, "--grid", "1070")
        assert code == 0
        for row in parse_csv(out)[1]:
            assert float(row[1]) == pytest.approx(float(row[2]), abs=6e-7)

    # 0.905 is where the two states' step bounds meet, the largest error measured
    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.905, 1.0, 2.0, 8.0, 50.0, 200.0])
    def test_quadrature_error_at_the_step_bound(self, lam):
        # 2.3e-7 at most over lambda in [0.02, 200], at the bound itself. The product decays within
        # 23 of its widths 1 / sqrt(1 + lambda^2), so 96 cells cover it, though not the scaled state alone
        spec = phase_space.GridSpec(48 * pair_step(lam), 96)
        q, p = np.meshgrid(spec.axis(), spec.axis(), indexing="ij")
        product = (phase_space.eval_fock_wigner(phase_space.AnalyticWigner(0), q, p)
                   * phase_space.eval_fock_wigner(phase_space.AnalyticWigner(1, lam), q, p))
        error = abs(product.sum() * spec.quadrature_weight - cli._closed_form_fidelity(lam))
        assert error <= 5.7e-7

    def test_refused_before_any_sampling(self, capsys, monkeypatch):
        # lambda = 0.0255 and 0.05 resolve; 0.001 does not, and nothing is sampled
        sampled = []
        monkeypatch.setattr(phase_space, "sample_to_grid", lambda *args: sampled.append(args))
        code, _, err = run(capsys, "fidelity", "--lambda-min", "0.001", "--lambda-max", "0.05", "--steps", "3")
        assert code == 2 and "1 of 3 lambda values" in err and "at lambda 0.001: " in err
        assert sampled == []

    def test_suggested_grid_resolves(self, capsys):
        argv = ["fidelity", "--lambda-min", "0.04", "--lambda-max", "0.05", "--steps", "2"]
        code, _, err = run(capsys, *argv, "--grid", "512")
        assert code == 2 and "it needs at least 758 points per axis" in err
        code, out, _ = run(capsys, *argv, "--grid", "758")
        assert code == 0
        for row in parse_csv(out)[1]:
            assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-6)

    def test_default_sweep_resolves_below_the_old_reach(self, capsys):
        # refused when fidelity had its own step rule; the default grid of each lambda is now 3028, 1516 and 606 points
        code, out, _ = run(capsys, "fidelity", "--lambda-min", "0.01", "--lambda-max", "0.05", "--steps", "3")
        assert code == 0
        for row in parse_csv(out)[1]:
            assert row[1] == row[2]

    def test_ground_state_sampled_once_per_grid(self, capsys, monkeypatch):
        # a fixed --extent gives every lambda the same grid: one ground state and 200 scaled states
        calls = []
        sample = phase_space.sample_to_grid
        monkeypatch.setattr(phase_space, "sample_to_grid", lambda *args: calls.append(args) or sample(*args))
        code, _, _ = run(capsys, "fidelity", "--lambda-min", "0.5", "--lambda-max", "1", "--steps", "200",
                         "--extent", "16")
        assert code == 0
        assert len(calls) == 201
        assert sum(state.fock_index == 0 for state, _ in calls) == 1

    def test_extent_error_comes_first(self, capsys):
        code, _, err = run(
            capsys, "fidelity", "--lambda-min", "0.01", "--lambda-max", "0.05", "--steps", "2",
            "--extent", "100", "--grid", "16",
        )
        assert code == 2
        assert "it needs an extent of at least 623.2050807568877" in err and "points" not in err
