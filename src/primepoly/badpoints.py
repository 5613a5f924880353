"""Real points where one factor sits at +-1 while the product exceeds 1.

For f = g*h, a "bad point" is a real x with g(x) = +-1 or h(x) = +-1 and
f(x) > 1.  Their number never exceeds deg f, because consecutive bad
points of equal type trap a critical point of that factor and central
blocks of one type trap a critical point of the other factor, giving
(roots of g') + (roots of h') >= k - 2.  Both facts are checked exactly
here, and the failure of the complex analogue is verified on the known
degree-5 pair with six bad points.

All reals are handled as isolated algebraic numbers.  A real where g and
h both sit at +-1 has f = +-1, so it is never a bad point; every
bad point therefore carries exactly one tag.  Where g = s = +-1, f = 1 only
where h = s too; Tarski queries run only where g - s and h - s intervals meet.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import TheoremViolation
from .poly import RatPolynomial, _eval_scaled_frac, evaluate, scale_to_integer
from .roots import IsolatedRoot, _count_roots, _deriv, _isolate, _plus, _primitive, _separate, _sign, _sign_at

TAG_ORDER = ("g+", "g-", "h+", "h-")


class BadPoint(NamedTuple):
    root: IsolatedRoot
    tags: tuple[str, ...]   # one tag from TAG_ORDER (two tags would force f = +-1)


def bad_points(g: RatPolynomial, h: RatPolynomial) -> list[BadPoint]:
    """Ascending bad points of the pair (g, h), with no product formed: at a
    root of g - s (s = +-1), f - 1 = s*h - 1, and symmetrically for h.  A real
    where two of g - 1, g + 1, h - 1, h + 1 vanish has f = +-1 and fails the
    f > 1 filter, so the kept roots are pairwise distinct reals.  g and h are
    cleared once; every polynomial asked about is an integer list.  Each q
    is +-(the partner unit), g - s with h - s, so its real roots lie in the
    partner's intervals: at an exact candidate, or one whose closed interval
    misses them all, q has the sign of q(lo); only the rest take a query."""
    if g.degree < 1 or h.degree < 1:
        raise ValueError("both factors must be nonconstant")
    (cg, dg), (ch, dh) = scale_to_integer(g), scale_to_integer(h)
    g_minus, g_plus, h_minus, h_plus = _plus(cg, -dg), _plus(cg, dg), _plus(ch, -dh), _plus(ch, dh)
    f_minus_1 = (h_minus, [-v for v in h_plus], g_minus, [-v for v in g_plus])
    isolated = [_isolate(unit) for unit in (g_minus, g_plus, h_minus, h_plus)]
    kept = [
        (root, tag)
        for i, (tag, q) in enumerate(zip(TAG_ORDER, f_minus_1))
        for root in isolated[i]
        if _sign_near(q, root, isolated[i ^ 2]) == 1
    ]
    return [BadPoint(root=root, tags=(tag,)) for root, tag in _separate(kept)]


def _sign_near(q: list[int], root: IsolatedRoot, partner: list[IsolatedRoot]) -> int:
    """Sign of q at root, where every real root of q lies in a `partner` interval."""
    if root.is_exact or all(root.hi < p.lo or p.hi < root.lo for p in partner):
        return _sign(_eval_scaled_frac(q, root.lo.numerator, root.lo.denominator))
    return _sign_at(q, root)


class Block(NamedTuple):
    type: str
    start: int              # index into the point sequence
    end: int                # inclusive
    central: bool


class BlockReport(NamedTuple):
    k: int
    degree: int
    types: str              # primary type per point, as "[g+ h- ...]"
    points: tuple[BadPoint, ...]
    blocks: tuple[Block, ...]
    block_count: int
    equal_type_pairs: int   # k - block_count
    central_blocks: int
    derivative_roots_g: int
    derivative_roots_h: int


def block_report(g: RatPolynomial, h: RatPolynomial) -> BlockReport:
    """Full bad-point analysis of the pair, with both theorems asserted:
    k <= deg(gh), and roots(g') + roots(h') >= k - 2."""
    pts = bad_points(g, h)
    k = len(pts)
    degree = g.degree + h.degree
    if k > degree:
        raise TheoremViolation(f"{k} bad points exceed the degree {degree}")

    types = tuple(p.tags[0] for p in pts)
    blocks: list[Block] = []
    i = 0
    while i < k:
        j = i
        while j + 1 < k and types[j + 1] == types[i]:
            j += 1
        blocks.append(Block(type=types[i], start=i, end=j, central=(i > 0 and j < k - 1)))
        i = j + 1

    droots_g, droots_h = (_count_roots(_primitive(_deriv(scale_to_integer(p)[0]))) for p in (g, h))
    if droots_g + droots_h < k - 2:
        raise TheoremViolation(
            f"derivative root counts {droots_g}+{droots_h} below k-2 = {k - 2}"
        )
    return BlockReport(
        k=k,
        degree=degree,
        types="[" + " ".join(types) + "]",
        points=tuple(pts),
        blocks=tuple(blocks),
        block_count=len(blocks),
        equal_type_pairs=k - len(blocks),
        central_blocks=sum(1 for b in blocks if b.central),
        derivative_roots_g=droots_g,
        derivative_roots_h=droots_h,
    )


def _at(p: RatPolynomial, a: Fraction, b: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """(re, im) with p(a + b*sqrt(d)) = re + im*sqrt(d): Horner on pairs."""
    re = im = Fraction(0)
    for c in reversed(p):
        re, im = re * a + im * b * d + c, re * b + im * a
    return re, im


def _positive(a: Fraction, b: Fraction, d: int) -> bool:
    """Exact test that a + b*sqrt(d) > 0 for d > 0: when the signs of a and
    b differ, a decides exactly when a^2 exceeds d*b^2."""
    if (a < 0) == (b < 0):
        return a > 0 or b > 0
    return (a * a - d * b * b) * a > 0


def _text(value: tuple[Fraction, Fraction], unit: str) -> str:
    a, b = value
    return f"{a}{'+' if b >= 0 else '-'}{abs(b)}{unit}"


def complex_counterexample() -> dict:
    """Verify, in exact arithmetic, the complex pair g = x^3/3 - x + 1,
    h = (2/9)(x-2)^2 + 1 with six bad points against degree 5.

    Over the reals the bad-point count is capped by the degree; this
    fixed pair shows the cap fails for complex points: g = 1 at 0 and
    +-sqrt(3), h = 1 at 2, and h = -1 at 2 +- 3i, with f = g*h real and
    exceeding 1 at all six.  Returns the `counterexample` report, keyed as
    it prints; values at algebraic points are strings a+bi or a+b*sqrt(3).
    """
    g = RatPolynomial([1, -1, 0, Fraction(1, 3)])
    h = RatPolynomial([Fraction(17, 9), Fraction(-8, 9), Fraction(2, 9)])
    f = g * h

    # g - 1 = (x/3)(x^2 - 3): pins the three roots 0, +-sqrt(3) exactly
    identity_ok = (g - 1) == RatPolynomial([0, Fraction(1, 3)]) * RatPolynomial([-3, 0, 1])

    h2, f0, f2 = evaluate(h, 2), evaluate(f, 0), evaluate(f, 2)
    h_zp, h_zm, g_zp, f_zp = _at(h, 2, 3, -1), _at(h, 2, -3, -1), _at(g, 2, 3, -1), _at(f, 2, 3, -1)
    f_s3, f_ns3 = _at(f, 0, 1, 3), _at(f, 0, -1, 3)

    checks = [
        identity_ok,
        h2 == 1,
        h_zp == (-1, 0),
        h_zm == (-1, 0),
        g_zp == (Fraction(-49, 3), 0),
        f0 == Fraction(17, 9) and f0 > 1,
        f2 == Fraction(5, 3) and f2 > 1,
        f_s3 == (Fraction(23, 9), Fraction(-8, 9)),
        f_ns3 == (Fraction(23, 9), Fraction(8, 9)),
        _positive(f_s3[0] - 1, f_s3[1], 3),
        _positive(f_ns3[0] - 1, f_ns3[1], 3),
        f_zp == (Fraction(49, 3), 0) and f_zp[0] > 1,
    ]
    if not all(checks):
        raise TheoremViolation(f"complex counterexample failed exact checks: {checks}")

    return {
        "g": g,
        "h": h,
        "degree": 5,
        "bad_count": 6,
        "points": ("0", "sqrt3", "-sqrt3", "2", "2+3i", "2-3i"),
        "factor_identity_ok": identity_ok,
        "h(2)": h2,
        "h(2+3i)": _text(h_zp, "i"),
        "h(2-3i)": _text(h_zm, "i"),
        "g(2+3i)": _text(g_zp, "i"),
        "f(0)": f0,
        "f(2)": f2,
        "f(sqrt3)": _text(f_s3, "*sqrt(3)"),
        "f(-sqrt3)": _text(f_ns3, "*sqrt(3)"),
        "f(2+3i)": _text(f_zp, "i"),
    }
