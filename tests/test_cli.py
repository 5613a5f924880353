"""Golden tests of the CLI contract: report bytes (text and --json) and exit codes.

The files under tests/golden/ hold the exact stdout of each command line,
and a `.stderr` file next to one holds its stderr where that is not empty.
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

from primepoly import cli
from primepoly.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, EXIT_VIOLATION, run
from primepoly.errors import TheoremViolation

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
    ("construct_nplus1_budget", ["construct", "nplus1", "--n", "20", "--tmax", "1"], EXIT_BUDGET),
    ("construct_pplus_budget", ["construct", "pplus", "--n", "20", "--tmax", "2"], EXIT_BUDGET),
    ("construct_nplus2_shortfall", ["construct", "nplus2", "--n", "12", "--bmax", "3"], EXIT_BUDGET),
    ("exceptional_2_3", ["exceptional", "--degree", "2", "--bound", "3"], EXIT_OK),
    ("constant_50", ["constant", "--digits", "50"], EXIT_OK),
    ("lemmas_50_1", ["lemmas", "--trials", "50", "--seed", "1"], EXIT_OK),
    ("lemmas_trials_negative", ["lemmas", "--trials", "-2", "--seed", "0"], EXIT_BAD_INPUT),
    ("lemmas_kmax_0", ["lemmas", "--trials", "5", "--seed", "0", "--kmax", "0"], EXIT_BAD_INPUT),
    ("polya_integer", ["polya", "--poly=9,1,-6,-9,-6,-4,-3", "--K", "19"], EXIT_OK),
    ("polya_rational", ["polya", "--poly=1/3,0,-7/5,1/9", "--K", "5/2"], EXIT_OK),
    ("statement41_quartic", ["statement41", "--g=1,-3,1", "--h=29,-11,1"], EXIT_OK),
    ("statement41_irrational", ["statement41", "--g=-2,-4,3,1", "--h=-3,-2,2"], EXIT_OK),
    ("statement41_random", ["statement41", "--random", "--trials", "200", "--seed", "1"], EXIT_OK),
    ("statement41_trials_negative", ["statement41", "--random", "--trials", "-3", "--seed", "1"], EXIT_BAD_INPUT),
    ("counterexample", ["counterexample"], EXIT_OK),
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
    golden_err = golden.with_name(golden.name + ".stderr")
    assert err == (golden_err.read_text() if golden_err.exists() else "")


def test_cli_theorem_violation_exits_1(monkeypatch):
    def broken():
        raise TheoremViolation("injected")

    monkeypatch.setattr(cli, "complex_counterexample", broken)
    code, out, err = _capture(["counterexample"])
    assert code == EXIT_VIOLATION
    assert out == "" and err == "THEOREM VIOLATION: injected\n"


def test_cli_lemmas_large_kmax_has_no_traceback():
    # k up to 12 at coordinate 100 makes the factorial bound too large for a float
    code, out, err = _capture(["lemmas", "--trials", "20", "--seed", "0", "--kmax", "12", "--coord", "100"])
    assert code == EXIT_OK
    assert err == "" and "pass: True" in out


@pytest.mark.parametrize("kind", ["nplus1", "pplus", "nplus2"])
def test_cli_construct_empty_multiplier_budget_exits_2(kind):
    code, out, err = _capture(["construct", kind, "--n", "12", "--tmax", "0"])
    assert code == EXIT_BAD_INPUT
    assert out == "" and err == "error: t_max must be at least 1\n"


@pytest.mark.parametrize(
    "poly,bound", [(f"1,0,1/{10 ** 400}", "4e+200"), (f"0,1/{10 ** 400}", "inf")], ids=["quadratic", "linear"]
)
def test_cli_polya_tiny_leading_coefficient_has_no_traceback(poly, bound):
    # K/|lead| = 10^400 overflows a float; its root does too for degree 1.
    # (10^400)^(1/2) = 10^200, so the quadratic bound prints exactly 4e+200
    code, out, err = _capture(["polya", f"--poly={poly}", "--K", "1"])
    assert code == EXIT_OK and err == ""
    assert "holds: True" in out
    assert f"bound: {bound}\n" in out


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        for suffix, extra in (("txt", []), ("json", ["--json"])):
            got_code, out, err = _capture(argv + extra)
            if got_code != code:
                sys.exit(f"{name}: exit code {got_code}, expected {code}")
            (GOLDEN / f"{name}.{suffix}").write_text(out)
            stderr = GOLDEN / f"{name}.{suffix}.stderr"
            if err:
                stderr.write_text(err)
            else:
                stderr.unlink(missing_ok=True)


if __name__ == "__main__":
    _record()
