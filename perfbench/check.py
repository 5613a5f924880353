"""Independent checks of primepoly reports, written against sympy and mpmath.

Nothing here imports primepoly: each report is re-derived from its
command line and the mathematics it claims.  `problems(argv, text)`
returns a list of human-readable discrepancies; an empty list means the
report passed.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
from sympy import Poly, isprime, real_roots, symbols

X = symbols("x")
DETERMINISTIC_LIMIT = 1 << 64


def _option(argv: list[str], name: str, default=None) -> str | None:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def _coeffs(text: str) -> list[Fraction]:
    return [Fraction(c) for c in text.split(",")]


def _text(coeffs) -> str:
    """The report's coefficient format: ascending, comma-separated."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return ",".join(str(Fraction(c)) for c in coeffs)


def _eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly(coeffs) -> Poly:
    return Poly(list(reversed([int(c) for c in coeffs])), X)


def _integer_roots(coeffs, level: int) -> list[int]:
    """Integers m with p(m) = level, from sympy's rational root finder."""
    shifted = [int(c) for c in coeffs]
    shifted[0] -= level
    return sorted(int(r) for r in _poly(shifted).ground_roots() if r.is_Integer)


def _status(value: int) -> str:
    return "prime" if abs(value) < DETERMINISTIC_LIMIT else "probable_prime"


# ---------------------------------------------------------------------------
# Prime-value census (analyze and construct)
# ---------------------------------------------------------------------------


def _census_problems(factors: list[list[int]], census: dict) -> list[str]:
    out = []
    points: set[int] = set()
    if len(census["fibers"]) != len(factors):
        return [f"{len(census['fibers'])} fibers for {len(factors)} factors"]
    for i, (g, fib) in enumerate(zip(factors, census["fibers"])):
        eplus, eminus = _integer_roots(g, 1), _integer_roots(g, -1)
        if fib["eplus"] != eplus or fib["eminus"] != eminus:
            out.append(f"factor {i} fibers {fib['eplus']}/{fib['eminus']}, expected {eplus}/{eminus}")
        if fib["E"] != len(eplus) + len(eminus):
            out.append(f"factor {i} has E={fib['E']}, expected {len(eplus) + len(eminus)}")
        points.update(eplus + eminus)
    expected = []
    for m in sorted(points):
        values = [_eval(g, m) for g in factors]
        value = 1
        for v in values:
            value *= v
        if isprime(abs(value)):
            units = [i for i, v in enumerate(values) if abs(v) == 1]
            expected.append({"m": m, "value": str(value), "status": _status(value), "unit_factors": units})
    if census["witnesses"] != expected:
        out.append(f"witnesses {census['witnesses']} differ from the direct evaluation {expected}")
    if census["P"] != len(expected):
        out.append(f"P={census['P']}, expected {len(expected)}")
    pplus = sum(1 for w in expected if int(w["value"]) > 0)
    if census["Pplus"] != pplus:
        out.append(f"Pplus={census['Pplus']}, expected {pplus}")
    if census["fiber_bound"] != sum(f["E"] for f in census["fibers"]):
        out.append("fiber_bound is not the sum of the fiber sizes")
    return out


def _analyze(argv, rep) -> list[str]:
    factors = [[int(c) for c in _coeffs(part)] for part in _option(argv, "--factors").split(";")]
    out = []
    if rep["factors"] != [_text(g) for g in factors]:
        out.append(f"factors {rep['factors']} do not echo the input")
    if rep["degree"] != sum(len(g) - 1 for g in factors):
        out.append(f"degree {rep['degree']} is wrong")
    census = {k: rep[k] for k in ("P", "Pplus", "fiber_bound", "witnesses", "fibers")}
    return out + _census_problems(factors, census)


_QUADRATIC = [1, -3, 1]  # x^2 - 3x + 1, the second factor of the n+2 shape


def _construct(argv, rep) -> list[str]:
    kind, n = argv[1], int(_option(argv, "--n"))
    g = [1]
    for a in rep["anchors"]:
        g = _mul(g, [-a, 1])
    g = [rep["multiplier_t"] * c for c in g]
    g[0] += 1
    factors = [g, _QUADRATIC] if kind == "nplus2" else [[0, 1], g]
    product = factors[0]
    for h in factors[1:]:
        product = _mul(product, h)
    out = []
    if rep["kind"] != kind or rep["degree"] != n:
        out.append(f"kind/degree {rep['kind']}/{rep['degree']} do not match the command line")
    if rep["factors"] != [_text(h) for h in factors] or rep["product"] != _text(product):
        out.append("factors or product differ from 1 + t*prod(x - anchor)")
    for item in rep["induced"]:
        if not isprime(abs(int(item["value"]))):
            out.append(f"induced value {item['value']} is not prime")
    claimed = {"nplus1": n + 1, "pplus": n, "nplus2": n + 2}[kind]
    census = rep["census"]
    got = census["Pplus"] if rep["claim"] == "Pplus" else census["P"]
    if rep["claimed"] != claimed or rep["claim"] != ("Pplus" if kind == "pplus" else "P"):
        out.append(f"claim {rep['claim']}={rep['claimed']}, expected {claimed}")
    if got < claimed:
        out.append(f"census {rep['claim']}={got} is below the claim {claimed}")
    return out + _census_problems(factors, census)


# ---------------------------------------------------------------------------
# Level sets and the exceptional search
# ---------------------------------------------------------------------------


def _levels(argv, rep) -> list[str]:
    poly = [int(c) for c in _coeffs(_option(argv, "--poly"))]
    targets = sorted({int(s) for s in _option(argv, "--set").split(",")})
    hits = sorted({m for s in targets for m in _integer_roots(poly, s)})
    out = []
    if rep["set"] != targets:
        out.append("target set does not echo the input")
    if rep["witnesses"] != hits or rep["count"] != len(hits):
        out.append(f"level witnesses {rep['witnesses']} (count {rep['count']}), expected {hits}")
    return out


def _exceptional(argv, rep) -> list[str]:
    degree, bound = int(_option(argv, "--degree")), int(_option(argv, "--bound"))
    out = []
    scanned = (2 * bound + 1) ** degree * 2 * bound
    if rep["scanned"] != scanned:
        out.append(f"scanned {rep['scanned']}, expected {scanned}")
    if rep["hit_count"] != len(rep["hits"]):
        out.append("hit_count differs from the number of hits")
    for hit in rep["hits"]:
        p = [int(c) for c in _coeffs(hit["poly"])]
        if len(p) - 1 != degree or any(abs(c) > bound for c in p):
            out.append(f"hit {hit['poly']} lies outside the search box")
        if any(_eval(p, m) != 1 for m in hit["eplus"]) or any(_eval(p, m) != -1 for m in hit["eminus"]):
            out.append(f"hit {hit['poly']} does not take the claimed unit values")
        if hit["eplus"] != _integer_roots(p, 1) or hit["eminus"] != _integer_roots(p, -1):
            out.append(f"hit {hit['poly']} has incomplete unit fibers")
        if hit["E"] != len(hit["eplus"]) + len(hit["eminus"]) or hit["E"] <= degree:
            out.append(f"hit {hit['poly']} has E={hit['E']}")
    return out


# ---------------------------------------------------------------------------
# Theorem checks: the constant, statement 4.1 and Polya's bound
# ---------------------------------------------------------------------------


def _truncation_ok(text: str, exact, digits: int) -> bool:
    shown = mpmath.mpf(text)
    return shown <= exact < shown + mpmath.mpf(10) ** -digits


def _constant(argv, rep) -> list[str]:
    digits = int(_option(argv, "--digits", "10"))
    with mpmath.workdps(digits + 20):
        rhs = 2 * mpmath.log(2) - mpmath.mpf(1) / 2
        t = mpmath.findroot(lambda s: s * (2 * mpmath.log(s) + mpmath.mpf(1) / 2) - rhs, 1.15)
        c = 1 + 1 / t
        out = []
        if rep["digits"] != digits:
            out.append("digits do not echo the input")
        for name, exact in (("t", t), ("c", c)):
            text = rep[name]
            if len(text.split(".")[1]) != digits or not _truncation_ok(text, exact, digits):
                out.append(f"{name}={text} is not {mpmath.nstr(exact, digits + 5)} truncated to {digits} digits")
    return out


def _statement41(argv, rep) -> list[str]:
    trials, seed = int(_option(argv, "--trials")), int(_option(argv, "--seed"))
    out = []
    if rep["trials"] != trials or rep["seed"] != seed:
        out.append("trials/seed do not echo the input")
    if rep["checked"] != trials:
        out.append(f"checked {rep['checked']} of {trials} trials")
    if not 0 <= rep["max_k"] <= 8:
        out.append(f"max_k={rep['max_k']} exceeds the degree cap 8")
    return out


def _sublevel_measure(poly: list[int], K: int):
    """Measure of {x : |p(x)| <= K} to 40 digits, from exact real roots."""
    with mpmath.workdps(40):
        ends = set()
        for level in (K, -K):
            shifted = list(poly)
            shifted[0] -= level
            ends.update(mpmath.mpf(str(r.evalf(45))) for r in real_roots(_poly(shifted)))
        ends = sorted(ends)
        total = mpmath.mpf(0)
        for a, b in zip(ends, ends[1:]):
            if abs(_eval(poly, (a + b) / 2)) <= K:
                total += b - a
        return total


def _polya(argv, rep) -> list[str]:
    poly = [int(c) for c in _coeffs(_option(argv, "--poly"))]
    K, tol = Fraction(_option(argv, "--K")), Fraction(_option(argv, "--tol", "1/100"))
    lower, upper = Fraction(rep["measure_lower"]), Fraction(rep["measure_upper"])
    out = []
    if rep["poly"] != _text(poly) or Fraction(rep["K"]) != K or Fraction(rep["tol"]) != tol:
        out.append("poly/K/tol do not echo the input")
    if not (0 <= lower <= upper and upper - lower <= tol):
        out.append(f"bracket [{lower}, {upper}] is not within tol {tol}")
    measure = _sublevel_measure(poly, int(K))
    slack = mpmath.mpf(10) ** -30
    with mpmath.workdps(40):
        if not mpmath.mpf(lower.numerator) / lower.denominator - slack <= measure <= mpmath.mpf(upper.numerator) / upper.denominator + slack:
            out.append(f"bracket [{lower}, {upper}] misses the measure {mpmath.nstr(measure, 20)}")
    n, lead = len(poly) - 1, abs(poly[-1])
    if rep["holds"] != (upper ** n <= 4 ** n * K / lead):
        out.append(f"holds={rep['holds']} disagrees with upper^n <= 4^n K/|lead|")
    bound = 4 * (float(K) / lead) ** (1 / n)
    if abs(float(rep["bound"]) - bound) > 1e-9 * bound:
        out.append(f"bound {rep['bound']} differs from {bound}")
    return out


_CHECKS = {
    "analyze": _analyze,
    "construct": _construct,
    "levels": _levels,
    "exceptional": _exceptional,
    "constant": _constant,
    "statement41": _statement41,
    "polya": _polya,
}


def problems(argv: list[str], text: str) -> list[str]:
    """Discrepancies between the report `text` and an independent derivation."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    command = argv[0]
    if rep.get("command") != command:
        return [f"report is for {rep.get('command')!r}, not {command!r}"]
    try:
        return _CHECKS[command](argv, rep)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]
