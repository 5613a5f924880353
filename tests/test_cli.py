"""Golden tests of the CLI contract: report bytes (text and --json) and exit codes.

The files under tests/golden/ hold the exact stdout of each command line.
After a deliberate change of report format, rewrite them with

    PYTHONPATH=src python tests/test_cli.py

and review the diff: any other change of bytes is a regression.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from primepoly.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, run

GOLDEN = Path(__file__).resolve().parent / "golden"

# (name, argv without --json, exit code)
CASES = [
    ("analyze", ["analyze", "--factors=1,-3,1;-1,2"], EXIT_OK),
    ("levels", ["levels", "--poly=1,-3,1", "--set=-1,1,5,11"], EXIT_OK),
    ("construct_deg2", ["construct", "deg2"], EXIT_OK),
    ("construct_deg3", ["construct", "deg3"], EXIT_OK),
    ("construct_deg4", ["construct", "deg4"], EXIT_OK),
    ("construct_deg5", ["construct", "deg5"], EXIT_OK),
    ("construct_nplus1_20", ["construct", "nplus1", "--n", "20"], EXIT_OK),
    ("construct_pplus_20", ["construct", "pplus", "--n", "20"], EXIT_OK),
    ("construct_nplus2_10", ["construct", "nplus2", "--n", "10"], EXIT_OK),
    ("construct_nplus2_budget", ["construct", "nplus2", "--n", "12", "--tmax", "2"], EXIT_BUDGET),
    ("exceptional_2_3", ["exceptional", "--degree", "2", "--bound", "3"], EXIT_OK),
    ("bad_input", ["analyze", "--factors=1,x"], EXIT_BAD_INPUT),
]


def _capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_golden(name, argv, code, as_json):
    got_code, out, err = _capture(argv + ["--json"] if as_json else argv)
    assert got_code == code
    golden = GOLDEN / f"{name}.{'json' if as_json else 'txt'}"
    assert out == golden.read_text()
    if code == EXIT_BAD_INPUT:
        assert out == "" and err.startswith("error: bad polynomial '1,x'")
    else:
        assert err == ""


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        for suffix, extra in (("txt", []), ("json", ["--json"])):
            got_code, out, _ = _capture(argv + extra)
            if got_code != code:
                sys.exit(f"{name}: exit code {got_code}, expected {code}")
            (GOLDEN / f"{name}.{suffix}").write_text(out)


if __name__ == "__main__":
    _record()
