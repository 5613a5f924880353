"""A fuzzer for the exit-code contract of the CLI.

Each command line is drawn from one subcommand's grammar: valid and
malformed polynomials, factor lists, sets and rationals, huge and negative
integers, and options missing, repeated or in any order, written as
`--name value` or `--name=value`.  Every draw runs in process, once as text,
once with `--json` and once more as text, and must keep the contract:

- the exit code is 0, 2 or 3: 1 means a theorem-backed check failed, a bug;
- no exception escapes `run` and stderr holds no traceback;
- stderr is empty on exit 0, and exit 2 prints an `error:` or `usage:`
  line and no report;
- the `--json` report parses and has the text report's top-level keys in
  the same order, unless the command line asks for help (`-h` or
  `--help`): help is outside the report contract, so it prints the same
  argparse text with `--json` or not;
- the second text run gives the same bytes.

Valid draws keep each call to milliseconds: `construct --n` <= 12,
`exceptional --bound` <= 3, `lemmas --trials` <= 5 and `--kmax` <= 8,
`statement41 --trials` <= 5, `polya --tol` >= 1/1000, at most 5
coefficients and 6 targets.  Huge integers go where they are rejected or
cost nothing: `--seed`, `--coord`, `--tmax` and `--bmax` (for n <= 12 a hit
comes at a small t), coefficients, K and targets.  Left out because their
cost grows with their own size: a large `--n`, `--bound`, `--trials` or
set, a small `--tol`, and a number written with a large decimal exponent,
such as `1e999999`.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from primepoly.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_OK, run

_HUGE = st.integers(10 ** 18, 10 ** 40)
_SIGNED_HUGE = _HUGE | _HUGE.map(lambda n: -n)
# words no int option accepts, and "٣", an Arabic-Indic 3, which int() reads
_NOT_INT = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "٣"])


def _mostly(valid, malformed):
    """valid three times in four, so that most draws reach a handler."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else malformed)


def _int_words(valid, rejected, huge=_HUGE.map(lambda n: -n)):
    """An int option's value as text: valid, or a rejected, huge or non-int word."""
    return _mostly(valid.map(str), (rejected | huge).map(str) | _NOT_INT)


_INT_COEFF = _mostly(st.integers(-9, 9), _SIGNED_HUGE).map(str)
_COEFF = _INT_COEFF | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)) | st.sampled_from(
    ["2e3", "-1.5", " 4 ", "0/5"]
)
# integer-valued: integer coefficients, in the power or the binomial basis
_INT_POLY = st.tuples(st.sampled_from(["", "binom:"]), st.lists(_INT_COEFF, min_size=2, max_size=5)).map(
    lambda t: t[0] + ",".join(t[1])
)
_POLY = _mostly(
    _mostly(_INT_POLY, st.lists(_COEFF, min_size=1, max_size=5).map(",".join)),
    st.sampled_from(["", "0", "x", "1,,2", "1/0", "binom:", "1,a", "1/", ";", "1 2", "nan", "inf", "1e", "--1", "--"]),
)
_FACTORS = _mostly(
    st.lists(_mostly(_INT_POLY, _POLY), min_size=2, max_size=3).map(";".join),
    st.lists(_POLY, max_size=1).map(";".join) | st.sampled_from([";", ";;", "1,2;;", "0,1;0", "1,1;binom:0,0,1", "--"]),
)
_SET = _mostly(
    st.lists(st.integers(-20, 20) | _SIGNED_HUGE, min_size=1, max_size=6).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", ",", "a", "1,,2", "1.5", "1,x", "-", "--"]),
)
_RATIONAL = _mostly(
    st.integers(1, 50).map(str)
    | _HUGE.map(str)
    | st.builds("{}/{}".format, st.integers(1, 99), st.integers(1, 9))
    | st.sampled_from(["1.5", "2e2"]),
    st.integers(-3, 0).map(str) | st.sampled_from(["", "x", "1/0", "0x10", "-2/3", "--"]),
)
_TOL = _mostly(
    st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 1000)) | st.sampled_from(["5", "0.25"]),
    st.sampled_from(["0", "-1", "x", "1/0", "--"]),
)
_SEED = _int_words(st.integers(-5, 5) | _SIGNED_HUGE, st.nothing())


def _option(name: str, values) -> st.SearchStrategy[list[str]]:
    """`--name value` or `--name=value`."""
    return st.tuples(st.booleans(), values).map(lambda t: [f"--{name}={t[1]}"] if t[0] else [f"--{name}", t[1]])


@st.composite
def _command(draw, sub: str, options, positional=st.just([])) -> list[str]:
    """sub, its positional words, then each option mostly once, sometimes
    missing or twice (argparse keeps the last), in any order, and sometimes
    an option the subcommand does not have or a request for help."""
    times = st.sampled_from([1, 1, 1, 1, 1, 0, 2])
    groups = [[draw(_option(name, values)) for _ in range(draw(times))] for name, values in options]
    extra = [[["--bogus"]], [["--random"]], [["-n", "3"]], [["-h"]], [["--help"]]]
    groups.append(draw(st.sampled_from([[]] * 7 + extra)))
    words = [w for i in draw(st.permutations(range(len(groups)))) for occurrence in groups[i] for w in occurrence]
    return [sub, *draw(positional), *words]


_ARGV = st.one_of(
    _command("analyze", [("factors", _FACTORS)]),
    _command("levels", [("poly", _POLY), ("set", _SET)]),
    _command(
        "construct",
        [
            ("n", _int_words(st.integers(3, 12), st.integers(-3, 2))),
            ("tmax", _int_words(st.integers(1, 50) | _HUGE, st.integers(-3, 0))),
            ("bmax", _int_words(st.integers(1, 30) | _HUGE, st.integers(-2, 0))),
        ],
        _mostly(
            st.sampled_from(["deg2", "deg3", "deg4", "deg5", "nplus1", "pplus", "nplus2"]), st.sampled_from(["deg9", ""])
        ).map(lambda k: [k]),
    ),
    _command(
        "exceptional",
        [
            ("degree", _int_words(st.integers(1, 4), st.integers(-2, 0) | st.integers(5, 6) | _HUGE)),
            ("bound", _int_words(st.integers(1, 3), st.integers(-2, 0))),
        ],
    ),
    _command("constant", [("digits", _int_words(st.integers(1, 50), st.sampled_from([-2, 0, 51, 52]) | _HUGE))]),
    _command(
        "lemmas",
        [
            ("trials", _int_words(st.integers(1, 5), st.integers(-3, 0))),
            ("seed", _SEED),
            ("kmax", _int_words(st.integers(1, 8), st.sampled_from([-2, 0, 51, 52]) | _HUGE)),
            ("coord", _int_words(st.integers(8, 60) | st.integers(10 ** 18 - 2, 10 ** 18),
                                 st.integers(-2, 7) | st.integers(10 ** 18 + 1, 10 ** 18 + 2) | _HUGE)),
        ],
    ),
    _command("polya", [("poly", _POLY), ("K", _RATIONAL), ("tol", _TOL)]),
    _command(
        "statement41",
        [("g", _POLY), ("h", _POLY), ("trials", _int_words(st.integers(1, 5), st.integers(-3, 0))), ("seed", _SEED)],
        st.lists(st.just("--random"), max_size=1),
    ),
    _command("counterexample", []),
    st.sampled_from([[], ["frobnicate"], ["--json"], ["analyze", "analyze"], ["-h"], ["frobnicate", "-h"]]),
)


def _capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _top_level_keys(text: str) -> list[str]:
    return [line.split(":", 1)[0] for line in text.splitlines() if not line.startswith(" ")]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_ARGV)
@example(["exceptional", "--degree=--", "--bound", "0"]).via("argparse drops a `--` value and stores []")
@example(["construct", "nplus2", "--n", "12", "--tmax", "1"]).via("exit 3: the multiplier budget runs out")
@example(["construct", "nplus2", "--n", "12", "--bmax", "1"]).via("exit 3: the anchor scan runs out")
@example(["construct", "pplus", "--n", "12", "--tmax", "1"]).via("exit 3: the multiplier budget runs out")
@example(["counterexample", "--json", "-h"]).via("help with --json prints the argparse text")
def test_exit_code_contract(argv):
    code, out, err = _capture(argv)
    assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_BUDGET), (argv, code, err)
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert err == ""
    if code == EXIT_BAD_INPUT:
        assert out == ""
        assert any(line.startswith(("error:", "usage:")) for line in err.splitlines()), err
    json_code, json_out, json_err = _capture(argv + ["--json"])
    assert (json_code, json_err) == (code, err)
    if {"-h", "--help"} & set(argv):
        assert json_out == out
    elif out:
        assert list(json.loads(json_out)) == _top_level_keys(out)
    assert _capture(argv) == (code, out, err)
