"""Command-line interface with a stable grammar and reproducible reports.

Polynomials are written as comma-separated rational coefficients in
ascending degree (`1,-3,1` is x^2 - 3x + 1; a coefficient may be
`int/int`; prefix `binom:` reads the coefficients in the binomial
basis).  Factors are separated by `;`.  Reports are plain `key: value`
text with fixed key order, or a single JSON document under `--json`;
identical command lines produce identical bytes.

Report schema: `command` and `version`, then the command's echoed
inputs, then the fields of its result record in their order (a nested
record becomes a mapping of its fields, a tuple a list).  Polynomials are
written as above, rationals as `p/q`, isolated roots as `=r` or
`(lo,hi)`, and a key named `value` always holds a decimal string, since
prime values outgrow JSON numbers.  `_report` is the one serializer.

Exit codes: 0 success, 1 a theorem-backed property failed (a bug by
definition), 2 malformed input, 3 a construction's search budget ran out
(the report then names the anchors tried and the frontier |t| reached).
Help (`-h`, with `--json` or not) is outside the report contract: it
prints the argparse text, not JSON, and exits 0.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .badpoints import block_report, complex_counterexample
from .bounds import (
    cross_difference_bound,
    factorial_lower_bound,
    polya_measure_check,
    solve_constant,
)
from .census import level_census, prime_census
from .constructions import FIXED_EXAMPLES, build_n_plus_1, build_p_plus, fixed_example, search_n_plus_2
from .errors import BudgetExhausted, TheoremViolation
from .exceptional import search_exceptional
from .poly import RatPolynomial, parse_poly, parse_rational
from .roots import IsolatedRoot

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _parse_factors(text: str):
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError("no factors given")
    return [parse_poly(p) for p in parts]


def _parse_int_set(text: str):
    try:
        return [int(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer set {text!r}: {exc}") from None


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    pairs = ([(f"{key}:", value) for key, value in obj.items()] if isinstance(obj, dict)
             else [("-", value) for value in obj])
    lines: list[str] = []
    for head, value in pairs:
        if isinstance(value, (dict, list)):
            lines.append(f"{pad}{head}")
            lines.extend(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{head} {value}")
    return lines


def _report(obj):
    """The report form of a result: None, bools, ints and strings stay as
    they are (tested first: they are most of the nodes), an exact number,
    polynomial or root becomes its text, a record a mapping of its fields,
    a tuple or list a list, and a `value` key a decimal string.
    (RatPolynomial is a tuple, IsolatedRoot a record: text forms go first.)"""
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (Fraction, RatPolynomial, IsolatedRoot)):
        return str(obj)
    if hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {key: str(v) if key == "value" else _report(v) for key, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_report(v) for v in obj]
    return obj


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render_text(report)))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report dict, exit code); `run` adds
# the command and version keys in front of the report and serializes it
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> tuple[dict, int]:
    factors = _parse_factors(args.factors)
    census = prime_census(factors)
    return {"factors": factors, "degree": sum(g.degree for g in factors), **census._asdict()}, EXIT_OK


def _cmd_levels(args) -> tuple[dict, int]:
    poly = parse_poly(args.poly)
    return {"poly": poly, **level_census(poly, _parse_int_set(args.set))._asdict()}, EXIT_OK


def _cmd_construct(args) -> tuple[dict, int]:
    kind = args.kind
    if kind in FIXED_EXAMPLES:
        return fixed_example(kind)._asdict(), EXIT_OK
    if args.n is None:
        raise ValueError(f"construct {kind} requires --n")
    try:
        if kind == "nplus1":
            cert = build_n_plus_1(args.n, t_max=args.tmax)
        elif kind == "pplus":
            cert = build_p_plus(args.n, t_max=args.tmax)
        else:
            cert = search_n_plus_2(args.n, b_scan_max=args.bmax, t_max=args.tmax)
    except BudgetExhausted as exc:
        return {
            "kind": kind,
            "outcome": "budget_exhausted",
            "anchors_tried": exc.anchors,
            "t_frontier": exc.frontier,
        }, EXIT_BUDGET
    return cert._asdict(), EXIT_OK


def _cmd_exceptional(args) -> tuple[dict, int]:
    return search_exceptional(args.degree, args.bound)._asdict(), EXIT_OK


def _cmd_constant(args) -> tuple[dict, int]:
    sol = solve_constant(args.digits)
    return {
        "digits": sol.digits,
        "t": sol.t_star,
        "c": sol.c,
        "residual_bound": repr(float(sol.residual)),
    }, EXIT_OK


def _cmd_lemmas(args) -> tuple[dict, int]:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.kmax < 1:
        raise ValueError("--kmax must be at least 1")
    if args.kmax > 50:
        raise ValueError("--kmax must be at most 50")
    if args.coord < args.kmax:  # 2*kmax distinct integers are drawn from [-coord, coord]
        raise ValueError("--coord must be at least --kmax")
    if args.coord > 10 ** 18:  # len(range(-coord, coord + 1)) must fit a C ssize_t
        raise ValueError("--coord must be at most 1000000000000000000")
    rng = random.Random(args.seed)
    kmax, coord = args.kmax, args.coord
    violations: list[dict] = []
    for _ in range(args.trials):
        k = rng.randint(1, kmax)
        balanced = rng.sample(range(-coord, coord + 1), 2 * k)
        a, b = balanced[:k], balanced[k:]
        cross = cross_difference_bound(a, b)
        pair = cross.data
        if not cross.holds:
            violations.append({"check": "cross_difference", "a": sorted(a), "b": sorted(b)})
        if not factorial_lower_bound(a, b).holds:
            violations.append({"check": "factorial", "a": sorted(a), "b": sorted(b)})
        if pair.W != pair.U * pair.V * pair.D:
            violations.append({"check": "merged_product", "a": sorted(a), "b": sorted(b)})
        k2 = rng.randint(1, kmax)
        s2 = rng.randint(k2, kmax)
        mixed = rng.sample(range(-coord, coord + 1), k2 + s2)
        a2, b2 = mixed[:k2], mixed[k2:]
        if not factorial_lower_bound(a2, b2).holds:
            violations.append({"check": "unbalanced_factorial", "a": sorted(a2), "b": sorted(b2)})
    return {
        "trials": args.trials,
        "seed": args.seed,
        "kmax": kmax,
        "coord": coord,
        "violations": violations,
        "pass": not violations,
    }, EXIT_OK if not violations else EXIT_VIOLATION


def _cmd_polya(args) -> tuple[dict, int]:
    poly, K, tol = parse_poly(args.poly), parse_rational(args.K), parse_rational(args.tol)
    check = polya_measure_check(poly, K, tol)
    return {"poly": poly, "K": K, "tol": tol, **check._asdict()}, EXIT_OK if check.holds else EXIT_VIOLATION


def _cmd_statement41(args) -> tuple[dict, int]:
    if args.random:
        if args.trials is None or args.seed is None:
            raise ValueError("--random requires --trials and --seed")
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        rng = random.Random(args.seed)
        max_k = 0
        for _ in range(args.trials):
            dg, dh = rng.randint(1, 4), rng.randint(1, 4)
            gc = [rng.randint(-5, 5) for _ in range(dg)] + [rng.choice([c for c in range(-5, 6) if c])]
            hc = [rng.randint(-5, 5) for _ in range(dh)] + [rng.choice([c for c in range(-5, 6) if c])]
            rep = block_report(RatPolynomial(gc), RatPolynomial(hc))
            max_k = max(max_k, rep.k)
        return {
            "trials": args.trials,
            "seed": args.seed,
            "checked": args.trials,
            "max_k": max_k,
            "violations": [],
            "pass": True,
        }, EXIT_OK
    if args.g is None or args.h is None:
        raise ValueError("need --g and --h (or --random)")
    g, h = parse_poly(args.g), parse_poly(args.h)
    return {"g": g, "h": h, **block_report(g, h)._asdict()}, EXIT_OK


def _cmd_counterexample(args) -> tuple[dict, int]:
    return complex_counterexample(), EXIT_OK


class _Subparser:
    """A subcommand's parser, built only if argparse dispatches to it.
    `add_parser` creates one per subcommand, and `_SubParsersAction` then
    calls only `parse_known_args(args, None)`, on the one the command line
    names; the recorded arguments are added to a real `ArgumentParser`
    there, so usage, error and help bytes are those of an eager build."""

    def __init__(self, handler, **kwargs):
        self.handler, self.kwargs, self.arguments = handler, kwargs, []

    def add_argument(self, *args, **kwargs):
        self.arguments.append((args, kwargs))

    def parse_known_args(self, args, namespace):
        parser = argparse.ArgumentParser(**self.kwargs)
        # accept --json on either side of the subcommand
        parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        for a, kw in self.arguments:
            parser.add_argument(*a, **kw)
        parser.set_defaults(handler=self.handler)
        return parser.parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primepoly",
        description="Exact census of prime values of reducible polynomials.",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subparser)

    p = sub.add_parser("analyze", help="prime-value census of a factored polynomial", handler=_cmd_analyze)
    p.add_argument("--factors", required=True, help="factors, ';'-separated coefficient lists")

    p = sub.add_parser("levels", help="count integers with f(m) in a finite set", handler=_cmd_levels)
    p.add_argument("--poly", required=True)
    p.add_argument("--set", required=True, help="comma-separated integers")

    p = sub.add_parser("construct", help="build a certified prime-rich polynomial", handler=_cmd_construct)
    p.add_argument("kind", choices=[*FIXED_EXAMPLES, "nplus1", "pplus", "nplus2"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tmax", type=int, default=10 ** 6)
    p.add_argument("--bmax", type=int, default=200)

    p = sub.add_parser("exceptional", help="search for polynomials with E(f) > deg f", handler=_cmd_exceptional)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("constant", help="solve t*(2 ln t + 1/2) = 2 ln 2 - 1/2", handler=_cmd_constant)
    p.add_argument("--digits", type=int, default=10)

    p = sub.add_parser("lemmas", help="randomized difference-product bound suite", handler=_cmd_lemmas)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--coord", type=int, default=50)

    p = sub.add_parser("polya", help="sublevel-measure bound check", handler=_cmd_polya)
    p.add_argument("--poly", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--tol", default="1/100")

    p = sub.add_parser("statement41", help="bad-point and block analysis of a factor pair", handler=_cmd_statement41)
    p.add_argument("--g")
    p.add_argument("--h")
    p.add_argument("--random", action="store_true")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    sub.add_parser("counterexample", help="exact complex pair beating the real bad-point cap", handler=_cmd_counterexample)

    return parser


def run(argv) -> int:
    """Execute a command line; print the report; return the exit code."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact values have no digit cap
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        empty = [k for k, v in vars(args).items() if v == []]  # argparse drops a `--name=--` value, storing []
        if empty:
            parser.error(f"argument --{empty[0]}: expected one argument")
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        report, code = args.handler(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TheoremViolation as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(_report({"command": args.subcommand, "version": __version__, **report}), args.json)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
