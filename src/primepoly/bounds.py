"""Quantitative bounds: difference-product inequalities, the growth
constant, the Polya sublevel-measure bound, and level-set count bounds.

Every pass/fail decision here is exact.  The inequalities involving
roots are raised to the least integer power that clears them and compared
in Q.  The transcendental constant is bisected on integer comparisons
scaled by 2^P, with outward-rounded fixed-point logarithms from the atanh
series (Brent and Zimmermann, Modern Computer Arithmetic, 2010, ch. 4);
only its reported residual comes from rational brackets.  No floating
point ever decides an outcome.  Floats appear only as display values.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .census import LevelCensus, level_census
from .poly import RatPolynomial, is_integer_valued
from .roots import sublevel_measure

# ---------------------------------------------------------------------------
# Difference products
# ---------------------------------------------------------------------------


class SetPairData(NamedTuple):
    """Exact difference products of two disjoint integer sets.

    U and V are the internal difference products of a and b, D the cross
    product; W is the full difference product of the sorted union.  For
    balanced pairs (|a| = |b|) the identity W = U*V*D holds.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    U: int
    V: int
    D: int
    W: int


def _internal_product(xs: tuple[int, ...]) -> int:
    out = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= abs(xs[i] - xs[j])
    return out


def set_pair_data(a, b) -> SetPairData:
    ta, tb = tuple(sorted(a)), tuple(sorted(b))
    d = 1
    for x in ta:
        for y in tb:
            d *= abs(x - y)
    return SetPairData(
        a=ta,
        b=tb,
        U=_internal_product(ta),
        V=_internal_product(tb),
        D=d,
        W=_internal_product(tuple(sorted(ta + tb))),
    )


class BoundCheck(NamedTuple):
    data: SetPairData
    bound_power: Fraction   # the bound raised to the comparison power
    power: int              # that power
    holds: bool


def _check(data: SetPairData, bound_power: Fraction, power: int) -> BoundCheck:
    """Compare D^power >= bound_power, both sides exact."""
    return BoundCheck(data=data, bound_power=bound_power, power=power, holds=data.D ** power >= bound_power)


def cross_difference_bound(a, b) -> BoundCheck:
    """Check D >= U*V*(4/9)^k for balanced sets of size k (exact, power 1)."""
    data = set_pair_data(a, b)
    k = len(data.a)
    return _check(data, Fraction(data.U * data.V * 4 ** k, 9 ** k), 1)


def _factorial_product(upto: int) -> int:
    """1! * 2! * ... * upto!"""
    out = 1
    f = 1
    for j in range(1, upto + 1):
        f *= j
        out *= f
    return out


def factorial_lower_bound(a, b) -> BoundCheck:
    """Check D >= (2/3)^s * (1! 2! ... (2k-1)!)^(s/(2k)) for |a| = k <= s = |b|.

    Both sides are raised to the least power that clears the root, the
    denominator q = 2k/gcd(2k, s) of s/(2k) in lowest terms, so the
    factorial product enters to the power p = s/gcd(2k, s).  For balanced
    sets (s = k) that is the squared comparison, D^2 >= (4/9)^k * 1!...(2k-1)!.
    Raising both sides to a positive power keeps their order, so every
    such power decides alike; the least one keeps the integers smallest.
    """
    data = set_pair_data(a, b)
    k, s = len(data.a), len(data.b)
    g = math.gcd(2 * k, s)
    q, p = 2 * k // g, s // g
    return _check(data, Fraction(2 ** (s * q) * _factorial_product(2 * k - 1) ** p, 3 ** (s * q)), q)


# ---------------------------------------------------------------------------
# The growth constant 1 + 1/t, with t solving t*(2 ln t + 1/2) = 2 ln 2 - 1/2
# ---------------------------------------------------------------------------


def _ln_interval(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Outward bracket of ln(x) for x >= 1 via the atanh series, summed
    until the next term is below eps/4."""
    z = (x - 1) / (x + 1)
    total, term, k = z, z ** 3, 3
    while term / k >= eps / 4:
        total, term, k = total + term / k, term * z * z, k + 2
    return 2 * total, 2 * (total + term / k / (1 - z * z))


def _phi_interval(t: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bracket of t*(2 ln t + 1/2)."""
    lo, hi = _ln_interval(t, eps)
    return t * (2 * lo + Fraction(1, 2)), t * (2 * hi + Fraction(1, 2))


def _rhs_interval(eps: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = _ln_interval(Fraction(2), eps)
    return 2 * lo - Fraction(1, 2), 2 * hi - Fraction(1, 2)


def _ln_bracket(a: int, b: int, p: int) -> tuple[int, int]:
    """Integers lo <= 2^p ln(a/b) <= hi for a >= b > 0, from the atanh series
    of z = (a - b)/(a + b): terms T_k = 2^(p+1) z^(2k+1), divided by 2k + 1,
    rounded down for lo and up for hi, and hi adds the tail bound
    T_K / ((2K + 1)(1 - z^2)) past the last term kept."""
    n, d = a - b, a + b
    n2, d2 = n * n, d * d
    t_lo, t_hi = (n << (p + 1)) // d, -((-n << (p + 1)) // d)
    lo, hi, k = 0, 0, 1
    while t_lo:
        lo, hi, k = lo + t_lo // k, hi - (-t_hi // k), k + 2
        t_lo, t_hi = t_lo * n2 // d2, -(-t_hi * n2 // d2)
    return lo, hi - (-t_hi * d2 // (k * (d2 - n2)))


@functools.cache
def _rhs_bracket(p: int) -> tuple[int, ...]:
    """Integers bracketing 2^p (2 ln 2 - 1/2), for p >= 1."""
    return tuple(2 * v - (1 << (p - 1)) for v in _ln_bracket(2, 1, p))


def _phi_sign(k: int, m: int, p: int) -> int:
    """Sign of t*(2 ln t + 1/2) - (2 ln 2 - 1/2) at t = k/2^m >= 1, compared in
    integers scaled by 2^p (p >= 1), doubling p until the brackets separate."""
    while True:
        (l_lo, l_hi), (r_lo, r_hi), half = _ln_bracket(k, 1 << m, p), _rhs_bracket(p), 1 << (p - 1)
        if k * (2 * l_hi + half) < r_lo << m:
            return -1
        if k * (2 * l_lo + half) > r_hi << m:
            return 1
        p *= 2


def truncate_decimal(x: Fraction, digits: int) -> str:
    """Decimal string of x truncated (floored) to `digits` places."""
    scaled = math.floor(x * 10 ** digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10 ** digits}.{scaled % 10 ** digits:0{digits}d}"


class ConstantSolution(NamedTuple):
    """Bracketed solution t of t*(2 ln t + 1/2) = 2 ln 2 - 1/2 and the
    derived constant c = 1 + 1/t."""

    digits: int
    t_lo: Fraction
    t_hi: Fraction
    c_lo: Fraction
    c_hi: Fraction
    t_star: str             # truncated decimal, `digits` places
    c: str
    residual: Fraction      # upper bound on |phi(midpoint) - rhs|


def solve_constant(digits: int = 10) -> ConstantSolution:
    """Bisect for the unique root of t*(2 ln t + 1/2) = 2 ln 2 - 1/2 in [1, 2],
    on the interval (a/2^m, (a+1)/2^m].

    The left side is strictly increasing there, so the path depends only on
    its sign against the right side at the midpoints.  That sign is never 0:
    equality would make t^(2t)/4, which is algebraic, equal e^(-(1+t)/2),
    which is transcendental by Hermite-Lindemann.  So `_phi_sign`, which
    doubles its precision until its brackets separate, always ends and takes
    the branches of any rigorous comparison.  Only the residual at the final
    midpoint is bracketed in rationals.
    """
    if not 1 <= digits <= 50:
        raise ValueError("digits must be between 1 and 50")
    # stop at width 2^-m <= 1/inv_width once t and 1 + 1/t agree to `digits` places
    inv_width, scale = max(10 ** (digits + 3), 10 ** 13), 10 ** digits
    a, m = 1, 0
    while inv_width > 1 << m or (a * scale) >> m != ((a + 1) * scale) >> m or (
        (scale << m) // a != (scale << m) // (a + 1)
    ):
        # 4 bits per digit and 64 guard bits: no step up to 50 digits needs more
        a = 2 * a + (_phi_sign(2 * a + 1, m + 1, 4 * digits + 64) < 0)
        m += 1
    lo, hi = Fraction(a, 1 << m), Fraction(a + 1, 1 << m)
    eps = Fraction(1, 1000 * inv_width)
    p_lo, p_hi = _phi_interval((lo + hi) / 2, eps)
    r_lo, r_hi = _rhs_interval(eps)
    residual = max(abs(p_hi - r_lo), abs(p_lo - r_hi))
    c_lo, c_hi = 1 + 1 / hi, 1 + 1 / lo
    return ConstantSolution(
        digits=digits,
        t_lo=lo,
        t_hi=hi,
        c_lo=c_lo,
        c_hi=c_hi,
        t_star=truncate_decimal(lo, digits),
        c=truncate_decimal(c_lo, digits),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Polya's sublevel bound and level-set counts
# ---------------------------------------------------------------------------


def _display_root(x, n: int) -> float:
    """x^(1/n) as a display float for rational x >= 0.  When x overflows a
    float, x = m * 2^e with m in (1/2, 2), e = qn + r, and the root is
    (m * 2^r)^(1/n) * 2^q, finished by `math.ldexp`; inf when the root
    overflows too.  For r near 1024 m * 2^r itself overflows, and the root
    is taken as m^(1/n) * 2^(r/n) instead (only there: it can differ in the
    last bit)."""
    try:
        return float(x) ** (1.0 / n)
    except OverflowError:
        e = x.numerator.bit_length() - x.denominator.bit_length()
        q, r = divmod(e, n)
        m = float(x / 2 ** e)
        scaled = m * 2.0 ** r if r < 1024 else math.inf
        root = scaled ** (1 / n) if scaled < math.inf else m ** (1 / n) * 2.0 ** (r / n)
        try:
            return math.ldexp(root, q)
        except OverflowError:
            return math.inf


class PolyaCheck(NamedTuple):
    measure_lower: Fraction
    measure_upper: Fraction
    bound: str              # repr of the display value of 4*(K/|lead|)^(1/n)
    holds: bool


def polya_measure_check(f: RatPolynomial, K, tol=Fraction(1, 100)) -> PolyaCheck:
    """Check that the measure of {x : |f(x)| <= K} is at most
    4*(K/|lead|)^(1/n); the comparison is exact (both sides to the n-th
    power), which dominates any outward rounding."""
    K, tol = Fraction(K), Fraction(tol)
    lower, upper = sublevel_measure(f, K, tol)
    n = f.degree
    ratio = K / abs(f[-1])
    holds = upper ** n <= 4 ** n * ratio
    return PolyaCheck(lower, upper, repr(4.0 * _display_root(ratio, n)), holds)


class LevelBoundCheck(NamedTuple):
    census: LevelCensus
    K: int
    bound: float            # display value of n + 4*(K*n!)^(1/n)
    holds: bool


def level_count_bound(f: RatPolynomial, S) -> LevelBoundCheck:
    """Check the count of integers with f(m) in S against n + 4*(K*n!)^(1/n),
    K the largest absolute value in S; requires f integer-valued.

    For K = 0 (S = {0}) the bound degenerates to n, the root count.
    """
    if not is_integer_valued(f):
        raise ValueError("f must be integer-valued")
    cen = level_census(f, S)
    n = f.degree
    K = max(abs(s) for s in cen.set)
    excess = cen.count - n
    if excess <= 0:
        holds = True
    else:
        holds = excess ** n <= 4 ** n * K * math.factorial(n)
    bound = n + 4.0 * _display_root(K * math.factorial(n), n)
    return LevelBoundCheck(census=cen, K=K, bound=bound, holds=holds)
