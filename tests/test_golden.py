"""Reference CLI outputs, compared cell by cell with files recorded under tests/golden/.

Text cells (headers, keys, verdicts) must match exactly; numeric cells must
satisfy |a - b| <= REL * max(1, |b|), which absorbs BLAS and libm round-off
across machines but no change of method. The separability files record the
scan tolerance `moments.PSD_TOL = 1e-10`, the relative tolerance of the one
positivity rule. A deliberate change of output re-records the file in the
same change, and says why.
"""

import pathlib
import re

import pytest

from wigscale import cli, moments

GOLDEN = pathlib.Path(__file__).parent / "golden"
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
REL = 1e-9

STATE = ("--state", "fock1", "--lambda", "0.5")
COMMANDS = {
    "fidelity.csv": ("fidelity", "--lambda-min", "0.05", "--lambda-max", "1.0", "--steps", "20"),
    "uncertainty_fock1.csv": ("uncertainty", *STATE),
    "uncertainty_fock1.json": ("uncertainty", *STATE, "--format", "json"),
    "spectrum_fock1.csv": ("spectrum", *STATE),
    "spectrum_fock3.csv": ("spectrum", "--state", "fock3", "--lambda", "0.7", "--kappa", "1.3"),
    "roundtrip_fock1.csv": ("roundtrip", *STATE),
    "tmsv_r1.json": ("tmsv", "--r", "1"),
    "tmsv_r0.json": ("tmsv", "--r", "0"),
    # the recorded tmsv files are the inputs, so these compare the scan alone
    "separability_r1.json": ("separability", "--cov", str(GOLDEN / "tmsv_r1.json"), "--modes", "2"),
    "separability_r0.json": ("separability", "--cov", str(GOLDEN / "tmsv_r0.json"), "--modes", "2"),
}


def cells(text):
    """(text between numbers, numbers) of an output."""
    parts = NUMBER.split(text)
    return parts[0::2], [float(token) for token in parts[1::2]]


def assert_matches(actual, expected):
    text, numbers = cells(actual)
    want_text, want_numbers = cells(expected)
    assert text == want_text
    assert len(numbers) == len(want_numbers)
    for index, (a, b) in enumerate(zip(numbers, want_numbers)):
        assert abs(a - b) <= REL * max(1.0, abs(b)), f"number {index}: {a!r} vs recorded {b!r}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_recording(capsys, name):
    assert cli.main(list(COMMANDS[name])) == 0
    assert_matches(capsys.readouterr().out, (GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["separability_r0.json", "separability_r1.json"])
def test_recorded_scan_tolerance_is_psd_tol(name):
    assert moments.PSD_TOL == 1e-10
    assert '"tolerance": 1e-10,' in (GOLDEN / name).read_text(encoding="utf-8")


def test_comparison_catches_changed_cells():
    recorded = "# verdict = satisfied\nx,y\n0.5,-1.25e-03\n"
    assert_matches("# verdict = satisfied\nx,y\n0.5000000001,-1.25e-03\n", recorded)
    for changed in (
        "# verdict = violated\nx,y\n0.5,-1.25e-03\n",
        "# verdict = satisfied\nx,y\n0.5,1.25e-03\n",
        "# verdict = satisfied\nx,y\n0.500001,-1.25e-03\n",
        "# verdict = satisfied\nx,y\n0.5,-1.25e-03,7\n",
    ):
        with pytest.raises(AssertionError):
            assert_matches(changed, recorded)
