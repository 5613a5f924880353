"""Command-line interface with a stable grammar and reproducible reports.

Polynomials are written as comma-separated rational coefficients in
ascending degree (`1,-3,1` is x^2 - 3x + 1; a coefficient may be
`int/int`; prefix `binom:` reads the coefficients in the binomial
basis).  Factors are separated by `;`.  Reports are plain `key: value`
text with fixed key order, or a single JSON document under `--json`;
identical command lines produce identical bytes.

Exit codes: 0 success, 1 a theorem-backed property failed (a bug by
definition), 2 malformed input, 3 a construction's search budget ran out
(the report then names the anchors tried and the frontier |t| reached).
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
    set_pair_data,
    solve_constant,
    unbalanced_factorial_bound,
)
from .census import factored, level_census, prime_census
from .constructions import (
    ConstructionCertificate,
    build_n_plus_1,
    build_p_plus,
    fixed_example,
    search_n_plus_2,
)
from .errors import BudgetExhausted, TheoremViolation
from .exceptional import search_exceptional
from .poly import format_poly, make_poly, parse_poly

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
    lines: list[str] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render_text(report)))


def _census_dict(census) -> dict:
    return {
        "P": census.P,
        "Pplus": census.Pplus,
        "fiber_bound": census.fiber_bound,
        "witnesses": [
            {
                "m": w.m,
                "value": str(w.value),
                "status": w.status,
                "unit_factors": list(w.unit_factors),
            }
            for w in census.witnesses
        ],
        "fibers": [
            {
                "factor": i,
                "eplus": list(f.eplus),
                "eminus": list(f.eminus),
                "E": f.E,
            }
            for i, f in enumerate(census.fibers)
        ],
    }


def _certificate_dict(cert: ConstructionCertificate) -> dict:
    return {
        "kind": cert.kind,
        "factors": [format_poly(g) for g in cert.f.factors],
        "product": format_poly(cert.f.product),
        "degree": cert.f.degree,
        "anchors": list(cert.anchors),
        "multiplier_t": cert.multiplier_t,
        "induced": [{"value": str(v), "status": s} for v, s in cert.induced],
        "claim": cert.claim,
        "claimed": cert.claimed,
        "census": _census_dict(cert.census),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report dict, exit code); `run` adds
# the command and version keys in front of the report
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> tuple[dict, int]:
    factors = _parse_factors(args.factors)
    census = prime_census(factored(factors))
    return {
        "factors": [format_poly(g) for g in factors],
        "degree": int(sum(g.degree for g in factors)),
        **_census_dict(census),
    }, EXIT_OK


def _cmd_levels(args) -> tuple[dict, int]:
    poly = parse_poly(args.poly)
    targets = _parse_int_set(args.set)
    cen = level_census(poly, targets)
    return {
        "poly": format_poly(poly),
        "set": list(cen.targets),
        "count": cen.count,
        "witnesses": list(cen.witnesses),
    }, EXIT_OK


_FIXED_ALIASES = {
    "deg2": "deg2",
    "deg3": "deg3",
    "deg4": "deg4_nplus4",
    "deg5": "deg5_nplus3",
}


def _cmd_construct(args) -> tuple[dict, int]:
    kind = args.kind
    if kind in _FIXED_ALIASES:
        return _certificate_dict(fixed_example(_FIXED_ALIASES[kind])), EXIT_OK
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
            "anchors_tried": list(exc.anchors),
            "t_frontier": exc.frontier,
        }, EXIT_BUDGET
    return _certificate_dict(cert), EXIT_OK


def _cmd_exceptional(args) -> tuple[dict, int]:
    result = search_exceptional(args.degree, args.bound)
    return {
        "degree": result.degree,
        "coeff_bound": result.coeff_bound,
        "scanned": result.scanned,
        "hit_count": len(result.hits),
        "hits": [
            {
                "poly": format_poly(h.polynomial),
                "E": h.E,
                "eplus": list(h.fibers.eplus),
                "eminus": list(h.fibers.eminus),
                "equivalence": {
                    "index": h.equivalence.index,
                    "sigma": h.equivalence.sigma,
                    "tau": h.equivalence.tau,
                    "a": h.equivalence.a,
                },
            }
            for h in result.hits
        ],
    }, EXIT_OK


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
    rng = random.Random(args.seed)
    kmax, coord = args.kmax, args.coord
    violations: list[dict] = []
    for _ in range(args.trials):
        k = rng.randint(1, kmax)
        balanced = rng.sample(range(-coord, coord + 1), 2 * k)
        a, b = balanced[:k], balanced[k:]
        pair = set_pair_data(a, b)
        if not cross_difference_bound(a, b).holds:
            violations.append({"check": "cross_difference", "a": sorted(a), "b": sorted(b)})
        if not factorial_lower_bound(a, b).holds:
            violations.append({"check": "factorial", "a": sorted(a), "b": sorted(b)})
        if pair.W != pair.U * pair.V * pair.D:
            violations.append({"check": "merged_product", "a": sorted(a), "b": sorted(b)})
        k2 = rng.randint(1, kmax)
        s2 = rng.randint(k2, kmax)
        mixed = rng.sample(range(-coord, coord + 1), k2 + s2)
        a2, b2 = mixed[:k2], mixed[k2:]
        if not unbalanced_factorial_bound(a2, b2).holds:
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
    poly = parse_poly(args.poly)
    check = polya_measure_check(poly, Fraction(args.K), Fraction(args.tol))
    return {
        "poly": format_poly(poly),
        "K": str(Fraction(args.K)),
        "tol": str(Fraction(args.tol)),
        "measure_lower": str(check.bracket.lower),
        "measure_upper": str(check.bracket.upper),
        "bound": repr(check.bound),
        "holds": check.holds,
    }, EXIT_OK if check.holds else EXIT_VIOLATION


def _block_report_dict(rep) -> dict:
    return {
        "k": rep.k,
        "degree": rep.degree,
        "types": rep.type_sequence(),
        "points": [
            {"root": str(p.root), "tags": list(p.tags)} for p in rep.points
        ],
        "blocks": [
            {"type": b.type, "start": b.start, "end": b.end, "central": b.central}
            for b in rep.blocks
        ],
        "block_count": rep.block_count,
        "equal_type_pairs": rep.equal_type_pairs,
        "central_blocks": rep.central_blocks,
        "derivative_roots_g": rep.derivative_roots_g,
        "derivative_roots_h": rep.derivative_roots_h,
    }


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
            rep = block_report(make_poly(gc), make_poly(hc))
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
    rep = block_report(g, h)
    return {
        "g": format_poly(g),
        "h": format_poly(h),
        **_block_report_dict(rep),
    }, EXIT_OK


def _cmd_counterexample(args) -> tuple[dict, int]:
    cx = complex_counterexample()
    return {
        "g": format_poly(cx.g),
        "h": format_poly(cx.h),
        "degree": cx.degree,
        "bad_count": cx.bad_count,
        "points": list(cx.points),
        "factor_identity_ok": cx.factor_identity_ok,
        "h(2)": str(cx.h_at_2),
        "h(2+3i)": str(cx.h_at_2_plus_3i),
        "h(2-3i)": str(cx.h_at_2_minus_3i),
        "g(2+3i)": str(cx.g_at_2_plus_3i),
        "f(0)": str(cx.f_at_0),
        "f(2)": str(cx.f_at_2),
        "f(sqrt3)": str(cx.f_at_sqrt3),
        "f(-sqrt3)": str(cx.f_at_neg_sqrt3),
        "f(2+3i)": str(cx.f_at_2_plus_3i),
    }, EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primepoly",
        description="Exact census of prime values of reducible polynomials.",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    # accept --json on either side of the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[shared], **kw))

    p = sub.add_parser("analyze", help="prime-value census of a factored polynomial")
    p.add_argument("--factors", required=True, help="factors, ';'-separated coefficient lists")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("levels", help="count integers with f(m) in a finite set")
    p.add_argument("--poly", required=True)
    p.add_argument("--set", required=True, help="comma-separated integers")
    p.set_defaults(handler=_cmd_levels)

    p = sub.add_parser("construct", help="build a certified prime-rich polynomial")
    p.add_argument("kind", choices=["deg2", "deg3", "deg4", "deg5", "nplus1", "pplus", "nplus2"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tmax", type=int, default=10 ** 6)
    p.add_argument("--bmax", type=int, default=200)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("exceptional", help="search for polynomials with E(f) > deg f")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_exceptional)

    p = sub.add_parser("constant", help="solve t*(2 ln t + 1/2) = 2 ln 2 - 1/2")
    p.add_argument("--digits", type=int, default=10)
    p.set_defaults(handler=_cmd_constant)

    p = sub.add_parser("lemmas", help="randomized difference-product bound suite")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--coord", type=int, default=50)
    p.set_defaults(handler=_cmd_lemmas)

    p = sub.add_parser("polya", help="sublevel-measure bound check")
    p.add_argument("--poly", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--tol", default="1/100")
    p.set_defaults(handler=_cmd_polya)

    p = sub.add_parser("statement41", help="bad-point and block analysis of a factor pair")
    p.add_argument("--g")
    p.add_argument("--h")
    p.add_argument("--random", action="store_true")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_statement41)

    p = sub.add_parser("counterexample", help="exact complex pair beating the real bad-point cap")
    p.set_defaults(handler=_cmd_counterexample)

    return parser


def run(argv) -> int:
    """Execute a command line; print the report; return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    _emit({"command": args.subcommand, "version": __version__, **report}, args.json)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
