"""Golden tests of the CLI contract: report bytes (text and --json) and exit codes.

The files under tests/golden/ hold the exact stdout of each command line,
and a `.stderr` file next to one holds its stderr where that is not empty.
After a deliberate change of report format, rewrite them with

    PYTHONPATH=src python tests/test_cli.py

and review the diff: any other change of bytes is a regression.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from primepoly import bounds, census, cli, exceptional
from primepoly.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, EXIT_VIOLATION, run
from primepoly.errors import TheoremViolation
from primepoly.poly import RatPolynomial

GOLDEN = Path(__file__).resolve().parent / "golden"

_REPEATED_ANCHOR_40 = ",".join(
    str(int(c))
    for c in 1 + 3 * math.prod((RatPolynomial([-a, 1]) for a in [-75, *range(-75, 78, 4)]), start=RatPolynomial([1]))
)

# (name, argv without --json, exit code)
CASES = [
    ("analyze", ["analyze", "--factors=1,-3,1;-1,2"], EXIT_OK),
    # x * (1 + 3 (x + 75)^2 (x + 71)...(x - 77)): g - 1 has a double root
    ("analyze_repeated_anchor_40", ["analyze", f"--factors=0,1;{_REPEATED_ANCHOR_40}"], EXIT_OK),
    ("levels", ["levels", "--poly=1,-3,1", "--set=-1,1,5,11"], EXIT_OK),
    ("levels_binom", ["levels", "--poly=binom:3,0,0,0,2", "--set=3,5"], EXIT_OK),
    ("levels_double_root", ["levels", "--poly=-4,12,-9,-2,3", "--set=-1,0,1,4"], EXIT_OK),
    ("construct_deg2", ["construct", "deg2"], EXIT_OK),
    ("construct_deg3", ["construct", "deg3"], EXIT_OK),
    ("construct_deg4", ["construct", "deg4"], EXIT_OK),
    ("construct_deg5", ["construct", "deg5"], EXIT_OK),
    ("construct_nplus1_20", ["construct", "nplus1", "--n", "20"], EXIT_OK),
    ("construct_pplus_20", ["construct", "pplus", "--n", "20"], EXIT_OK),
    ("construct_pplus_100", ["construct", "pplus", "--n", "100"], EXIT_OK),
    ("construct_nplus2_10", ["construct", "nplus2", "--n", "10"], EXIT_OK),
    ("construct_nplus2_budget", ["construct", "nplus2", "--n", "12", "--tmax", "2"], EXIT_BUDGET),
    ("construct_nplus1_budget", ["construct", "nplus1", "--n", "20", "--tmax", "1"], EXIT_BUDGET),
    ("construct_pplus_budget", ["construct", "pplus", "--n", "20", "--tmax", "2"], EXIT_BUDGET),
    ("construct_nplus2_shortfall", ["construct", "nplus2", "--n", "12", "--bmax", "3"], EXIT_BUDGET),
    ("construct_nplus2_bmax_0", ["construct", "nplus2", "--n", "10", "--bmax", "0"], EXIT_BAD_INPUT),
    ("exceptional_2_3", ["exceptional", "--degree", "2", "--bound", "3"], EXIT_OK),
    ("exceptional_3_5", ["exceptional", "--degree", "3", "--bound", "5"], EXIT_OK),
    ("exceptional_4_2", ["exceptional", "--degree", "4", "--bound", "2"], EXIT_OK),
    ("constant_50", ["constant", "--digits", "50"], EXIT_OK),
    ("constant_1", ["constant", "--digits", "1"], EXIT_OK),
    # the bisection width is 10^-(digits + 3) up to 10 digits, 10^-13 past them
    ("constant_10", ["constant", "--digits", "10"], EXIT_OK),
    ("constant_11", ["constant", "--digits", "11"], EXIT_OK),
    ("constant_digits_0", ["constant", "--digits", "0"], EXIT_BAD_INPUT),
    ("constant_digits_51", ["constant", "--digits", "51"], EXIT_BAD_INPUT),
    ("lemmas_50_1", ["lemmas", "--trials", "50", "--seed", "1"], EXIT_OK),
    ("lemmas_trials_negative", ["lemmas", "--trials", "-2", "--seed", "0"], EXIT_BAD_INPUT),
    ("lemmas_kmax_0", ["lemmas", "--trials", "5", "--seed", "0", "--kmax", "0"], EXIT_BAD_INPUT),
    # capped at 50 like `constant --digits`; --coord 100 alone would admit kmax 51
    ("lemmas_kmax_51", ["lemmas", "--trials", "5", "--seed", "0", "--kmax", "51", "--coord", "100"], EXIT_BAD_INPUT),
    ("lemmas_coord_2", ["lemmas", "--trials", "5", "--seed", "0", "--coord", "2"], EXIT_BAD_INPUT),
    # capped at 10^18: past about 4.6e18 the sample range's len overflows
    ("lemmas_coord_max", ["lemmas", "--trials", "2", "--seed", "0", "--coord", "1000000000000000000"], EXIT_OK),
    ("lemmas_coord_big", ["lemmas", "--trials", "2", "--seed", "0", "--coord", "1000000000000000001"], EXIT_BAD_INPUT),
    ("polya_integer", ["polya", "--poly=9,1,-6,-9,-6,-4,-3", "--K", "19"], EXIT_OK),
    ("polya_rational", ["polya", "--poly=1/3,0,-7/5,1/9", "--K", "5/2"], EXIT_OK),
    ("polya_double_root", ["polya", "--poly=1,-2,1", "--K", "3"], EXIT_OK),
    ("statement41_quartic", ["statement41", "--g=1,-3,1", "--h=29,-11,1"], EXIT_OK),
    ("statement41_irrational", ["statement41", "--g=-2,-4,3,1", "--h=-3,-2,2"], EXIT_OK),
    ("statement41_shared_units", ["statement41", "--g=-1,0,1", "--h=-1,0,1"], EXIT_OK),
    ("statement41_random", ["statement41", "--random", "--trials", "200", "--seed", "1"], EXIT_OK),
    ("statement41_trials_negative", ["statement41", "--random", "--trials", "-3", "--seed", "1"], EXIT_BAD_INPUT),
    ("counterexample", ["counterexample"], EXIT_OK),
    ("bad_input", ["analyze", "--factors=1,x"], EXIT_BAD_INPUT),
    ("analyze_binom_denominator", ["analyze", "--factors=binom:2,0,-1;binom:1,-2"], EXIT_OK),
    ("analyze_not_integer_valued", ["analyze", "--factors=0,1/2;0,2"], EXIT_BAD_INPUT),
    # constant inputs rejected by the nonconstant guards
    ("levels_zero_poly", ["levels", "--poly=0", "--set=1"], EXIT_BAD_INPUT),
    ("polya_constant", ["polya", "--poly=5", "--K", "1"], EXIT_BAD_INPUT),
    ("statement41_zero_factor", ["statement41", "--g=0", "--h=1,1"], EXIT_BAD_INPUT),
    ("analyze_zero_factor", ["analyze", "--factors=0;0,1"], EXIT_BAD_INPUT),
    # the nonconstant check runs before the two-factor check
    ("analyze_single_zero_factor", ["analyze", "--factors=0"], EXIT_BAD_INPUT),
    # the checks on command-line input, one case each
    ("analyze_one_factor", ["analyze", "--factors=0,1"], EXIT_BAD_INPUT),
    ("analyze_no_factors", ["analyze", "--factors=;"], EXIT_BAD_INPUT),
    ("levels_bad_set", ["levels", "--poly=0,1", "--set=a"], EXIT_BAD_INPUT),
    ("levels_empty_set", ["levels", "--poly=0,1", "--set=,"], EXIT_BAD_INPUT),
    ("levels_empty_poly", ["levels", "--poly=", "--set=1"], EXIT_BAD_INPUT),
    ("construct_nplus1_no_n", ["construct", "nplus1"], EXIT_BAD_INPUT),
    ("construct_nplus1_n_2", ["construct", "nplus1", "--n", "2"], EXIT_BAD_INPUT),
    ("construct_pplus_n_1", ["construct", "pplus", "--n", "1"], EXIT_BAD_INPUT),
    ("construct_nplus2_n_2", ["construct", "nplus2", "--n", "2"], EXIT_BAD_INPUT),
    ("exceptional_degree_5", ["exceptional", "--degree", "5", "--bound", "1"], EXIT_BAD_INPUT),
    ("exceptional_bound_0", ["exceptional", "--degree", "2", "--bound", "0"], EXIT_BAD_INPUT),
    ("polya_K_0", ["polya", "--poly=0,1", "--K", "0"], EXIT_BAD_INPUT),
    ("polya_tol_0", ["polya", "--poly=0,1", "--K", "1", "--tol", "0"], EXIT_BAD_INPUT),
    # a rational is int or int/int: 1e999999 would build a million-digit integer
    ("polya_K_decimal", ["polya", "--poly=0,1", "--K", "1.5"], EXIT_BAD_INPUT),
    ("levels_exponent", ["levels", "--poly=1e999999,1", "--set=1"], EXIT_BAD_INPUT),
    ("statement41_random_no_trials", ["statement41", "--random"], EXIT_BAD_INPUT),
    ("statement41_no_factors", ["statement41"], EXIT_BAD_INPUT),
    # rejected by the argument parser itself: usage and error on stderr
    ("usage_no_subcommand", [], EXIT_BAD_INPUT),
    ("usage_unknown_subcommand", ["frobnicate"], EXIT_BAD_INPUT),
    ("usage_analyze_no_factors", ["analyze"], EXIT_BAD_INPUT),
    ("usage_construct_deg9", ["construct", "deg9"], EXIT_BAD_INPUT),
    ("usage_exceptional_degree_x", ["exceptional", "--degree", "x"], EXIT_BAD_INPUT),
    # argparse drops the value `--` and stores [], which gave a traceback
    ("usage_exceptional_degree_dashdash", ["exceptional", "--degree=--", "--bound", "0"], EXIT_BAD_INPUT),
]

# (name, argv before -h): help is outside the report contract, so each
# prints the argparse text with exit 0, `--json` or not
HELP_CASES = [
    ("help", []),
    *((f"help_{sub}", [sub]) for sub in (
        "analyze", "levels", "construct", "exceptional", "constant", "lemmas", "polya", "statement41", "counterexample",
    )),
    ("help_counterexample_json", ["counterexample", "--json"]),
]

# argparse wraps its usage lines to the terminal width, read from COLUMNS
COLUMNS = "80"


def _capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_golden(name, argv, code, as_json, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got_code, out, err = _capture(argv + ["--json"] if as_json else argv)
    assert got_code == code
    golden = GOLDEN / f"{name}.{'json' if as_json else 'txt'}"
    assert out == golden.read_text()
    golden_err = golden.with_name(golden.name + ".stderr")
    assert err == (golden_err.read_text() if golden_err.exists() else "")


@pytest.mark.parametrize("name,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_cli_help_golden(name, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _capture(argv + ["-h"]) == (EXIT_OK, (GOLDEN / f"{name}.txt").read_text(), "")


@pytest.mark.parametrize("argv", [["construct", "deg2"], ["construct", "nplus1", "--n", "40"]], ids=["deg2", "nplus1"])
def test_cli_builds_only_the_dispatched_subparser(argv, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _, err = _capture(argv)
    assert (code, err) == (EXIT_OK, "")
    assert built == ["primepoly", "primepoly construct"]


def test_cli_theorem_violation_exits_1(monkeypatch):
    def broken():
        raise TheoremViolation("injected")

    monkeypatch.setattr(cli, "complex_counterexample", broken)
    code, out, err = _capture(["counterexample"])
    assert code == EXIT_VIOLATION
    assert out == "" and err == "THEOREM VIOLATION: injected\n"


def test_cli_lemmas_violations_exit_1(monkeypatch):
    # a factorial product far above any D makes every factorial comparison
    # fail, balanced and unbalanced; the other two checks still pass
    monkeypatch.setattr(bounds, "_factorial_product", lambda upto: 10 ** 5000)
    code, out, err = _capture(["lemmas", "--trials", "3", "--seed", "1", "--json"])
    assert code == EXIT_VIOLATION and err == ""
    assert json.loads(out) == {
        "command": "lemmas",
        "version": "0.1.0",
        "trials": 3,
        "seed": 1,
        "kmax": 6,
        "coord": 50,
        "violations": [
            {"check": "factorial", "a": [22, 47], "b": [-42, -18]},
            {"check": "unbalanced_factorial", "a": [47], "b": [-2, 7, 10, 33]},
            {"check": "factorial", "a": [-38, 12], "b": [-47, -1]},
            {"check": "unbalanced_factorial", "a": [-50, 39, 47, 48], "b": [-37, -21, -16, 7, 25, 42]},
            {"check": "factorial", "a": [-48, -47, 33], "b": [-49, -2, 19]},
            {"check": "unbalanced_factorial", "a": [-47, -22, 4, 17, 42, 47], "b": [-21, -6, 6, 13, 20, 36]},
        ],
        "pass": False,
    }


def test_cli_exceptional_unmatched_hit_exits_1(monkeypatch):
    monkeypatch.setattr(exceptional, "equivalent_to_list", lambda f: None)
    code, out, err = _capture(["exceptional", "--degree", "2", "--bound", "3"])
    assert code == EXIT_VIOLATION
    assert out == "" and err.startswith("THEOREM VIOLATION: exceptional polynomial ")
    assert err.endswith(" is not list-equivalent\n")


def test_cli_census_non_integer_value_exits_1(monkeypatch):
    # x/2 is not integer-valued: with that check bypassed, the census meets
    # f(-3) = 3/2 and must report a violation, not a traceback
    monkeypatch.setattr(census, "is_integer_valued", lambda g: True)
    code, out, err = _capture(["analyze", "--factors=0,1/2;2,1"])
    assert code == EXIT_VIOLATION
    assert out == "" and err.startswith("THEOREM VIOLATION: ")


@pytest.mark.parametrize(
    "argv,digits",
    [
        (["polya", "--poly=0,1", "--K", "1" + "0" * 5000], 5000),
        (["statement41", f"--g=0,1{'0' * 4400}", "--h=1,1"], 4400),
        (["analyze", f"--factors=0,1{'0' * 4400};1,1"], 4400),
    ],
    ids=["polya", "statement41", "analyze"],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_integers_past_the_str_digit_limit_print_in_full(argv, digits, as_json):
    # Python caps int <-> str conversion at 4300 digits by default
    code, out, err = _capture(argv + ["--json"] if as_json else argv)
    assert code == EXIT_OK and err == ""
    assert "1" + "0" * digits in out


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
    os.environ["COLUMNS"] = COLUMNS
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
    for name, argv in HELP_CASES:
        got_code, out, err = _capture(argv + ["-h"])
        if (got_code, err) != (EXIT_OK, ""):
            sys.exit(f"{name}: exit code {got_code}, stderr {err!r}")
        (GOLDEN / f"{name}.txt").write_text(out)


if __name__ == "__main__":
    _record()
