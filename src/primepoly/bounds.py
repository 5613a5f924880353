"""Quantitative bounds: difference-product inequalities, the growth
constant, the Polya sublevel-measure bound, and level-set count bounds.

Every pass/fail decision here is exact.  The inequalities involving
k-th roots are raised to integer powers and compared in Z; the
transcendental constant is bracketed with rational interval arithmetic
(outward-rounded logarithms from the atanh series), so no floating point
ever decides an outcome.  Floats appear only as display values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .census import LevelCensus, level_census
from .errors import TheoremViolation
from .poly import BinomialForm, RatPolynomial, from_binomial, to_binomial
from .roots import MeasureBracket, sublevel_measure

# ---------------------------------------------------------------------------
# Difference products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetPairData:
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
    if len(set(ta)) != len(ta) or len(set(tb)) != len(tb) or set(ta) & set(tb):
        raise ValueError("the two sets must consist of distinct integers")
    if not ta or not tb:
        raise ValueError("both sets must be nonempty")
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


@dataclass(frozen=True)
class CrossBoundCheck:
    data: SetPairData
    bound: Fraction         # U*V*(4/9)^k
    holds: bool


def cross_difference_bound(a, b) -> CrossBoundCheck:
    """Check D >= U*V*(4/9)^k for balanced sets of size k (exact)."""
    data = set_pair_data(a, b)
    k = len(data.a)
    if k != len(data.b):
        raise ValueError("sets must have equal size")
    bound = Fraction(data.U * data.V * 4 ** k, 9 ** k)
    return CrossBoundCheck(data=data, bound=bound, holds=data.D >= bound)


def _factorial_product(upto: int) -> int:
    """1! * 2! * ... * upto!"""
    out = 1
    f = 1
    for j in range(1, upto + 1):
        f *= j
        out *= f
    return out


@dataclass(frozen=True)
class FactorialBoundCheck:
    data: SetPairData
    bound_power: Fraction   # the bound raised to the comparison power
    power: int              # that power
    holds: bool


def factorial_lower_bound(a, b) -> FactorialBoundCheck:
    """Check D >= (2/3)^k * (1! 2! ... (2k-1)!)^(1/2), compared squared."""
    data = set_pair_data(a, b)
    k = len(data.a)
    if k != len(data.b):
        raise ValueError("sets must have equal size")
    fact = _factorial_product(2 * k - 1)
    bound_sq = Fraction(4 ** k * fact, 9 ** k)
    return FactorialBoundCheck(
        data=data,
        bound_power=bound_sq,
        power=2,
        holds=data.D ** 2 >= bound_sq,
    )


def unbalanced_factorial_bound(a, b) -> FactorialBoundCheck:
    """Check D >= (2/3)^s * (1! 2! ... (2k-1)!)^(s/(2k)) for |a| = k <= s = |b|,
    compared after raising both sides to the power 2k."""
    data = set_pair_data(a, b)
    k, s = len(data.a), len(data.b)
    if k > s:
        raise ValueError("need |a| <= |b|")
    fact = _factorial_product(2 * k - 1)
    power = 2 * k
    bound_pow = Fraction(2 ** (2 * k * s) * fact ** s, 3 ** (2 * k * s))
    return FactorialBoundCheck(
        data=data,
        bound_power=bound_pow,
        power=power,
        holds=data.D ** power >= bound_pow,
    )


# ---------------------------------------------------------------------------
# The growth constant 1 + 1/t, with t solving t*(2 ln t + 1/2) = 2 ln 2 - 1/2
# ---------------------------------------------------------------------------


def _ln_interval(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Outward bracket of ln(x) for x >= 1 via the atanh series."""
    if x < 1:
        raise ValueError("only x >= 1 supported")
    if x == 1:
        return Fraction(0), Fraction(0)
    z = (x - 1) / (x + 1)
    z2 = z * z
    total = Fraction(0)
    term = z
    k = 0
    while True:
        contrib = term / (2 * k + 1)
        total += contrib
        term *= z2
        k += 1
        nxt = term / (2 * k + 1)
        if nxt < eps / 4:
            tail = nxt / (1 - z2)
            return 2 * total, 2 * (total + tail)


def _phi_interval(t: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bracket of t*(2 ln t + 1/2)."""
    lo, hi = _ln_interval(t, eps)
    return t * (2 * lo + Fraction(1, 2)), t * (2 * hi + Fraction(1, 2))


def _rhs_interval(eps: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = _ln_interval(Fraction(2), eps)
    return 2 * lo - Fraction(1, 2), 2 * hi - Fraction(1, 2)


def truncate_decimal(x: Fraction, digits: int) -> str:
    """Decimal string of x truncated (floored) to `digits` places."""
    scaled = math.floor(x * 10 ** digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10 ** digits}.{scaled % 10 ** digits:0{digits}d}"


@dataclass(frozen=True)
class ConstantSolution:
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
    """Bisect for the unique root of t*(2 ln t + 1/2) = 2 ln 2 - 1/2 in [1, 2].

    The left side is strictly increasing there; every comparison uses
    outward-rounded rational brackets, refined on demand whenever a
    bracket straddles the target.
    """
    if not 1 <= digits <= 50:
        raise ValueError("digits must be between 1 and 50")
    width = min(Fraction(1, 10 ** (digits + 3)), Fraction(1, 10 ** 13))
    eps = width / 1000
    lo, hi = Fraction(1), Fraction(2)
    rhs = _rhs_interval(eps)

    def compare(t: Fraction) -> int:
        """-1 if phi(t) < rhs, +1 if greater (refining until separated)."""
        e, (r_lo, r_hi) = eps, rhs
        while True:
            p_lo, p_hi = _phi_interval(t, e)
            if p_hi < r_lo:
                return -1
            if p_lo > r_hi:
                return 1
            e /= 16
            r_lo, r_hi = _rhs_interval(e)

    def decimals_agree(a: Fraction, b: Fraction) -> bool:
        return math.floor(a * 10 ** digits) == math.floor(b * 10 ** digits)

    while hi - lo > width or not (
        decimals_agree(lo, hi) and decimals_agree(1 + 1 / hi, 1 + 1 / lo)
    ):
        mid = (lo + hi) / 2
        if compare(mid) < 0:
            lo = mid
        else:
            hi = mid

    mid = (lo + hi) / 2
    p_lo, p_hi = _phi_interval(mid, eps)
    r_lo, r_hi = rhs
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


@dataclass(frozen=True)
class PolyaCheck:
    bracket: MeasureBracket
    bound: float            # display value of 4*(K/|lead|)^(1/n)
    holds: bool


def polya_measure_check(f: RatPolynomial, K, tol=Fraction(1, 100)) -> PolyaCheck:
    """Check that the measure of {x : |f(x)| <= K} is at most
    4*(K/|lead|)^(1/n); the comparison is exact (both sides to the n-th
    power), which dominates any outward rounding."""
    K, tol = Fraction(K), Fraction(tol)
    bracket = sublevel_measure(f, K, tol)
    n = int(f.degree)
    ratio = K / abs(f.lead)
    holds = bracket.upper ** n <= 4 ** n * ratio
    return PolyaCheck(bracket=bracket, bound=4.0 * _display_root(ratio, n), holds=holds)


@dataclass(frozen=True)
class LevelBoundCheck:
    census: LevelCensus
    K: int
    bound: float            # display value of n + 4*(K*n!)^(1/n)
    holds: bool


def level_count_bound(f: RatPolynomial, S) -> LevelBoundCheck:
    """Check the count of integers with f(m) in S against n + 4*(K*n!)^(1/n),
    K the largest absolute value in S; requires f integer-valued.

    For K = 0 (S = {0}) the bound degenerates to n, the root count.
    """
    if not to_binomial(f).is_integer_valued:
        raise ValueError("f must be integer-valued")
    cen = level_census(f, S)
    n = int(f.degree)
    K = max(abs(s) for s in cen.targets)
    excess = cen.count - n
    if excess <= 0:
        holds = True
    else:
        holds = excess ** n <= 4 ** n * K * math.factorial(n)
    bound = n + 4.0 * _display_root(K * math.factorial(n), n)
    return LevelBoundCheck(census=cen, K=K, bound=bound, holds=holds)


@dataclass(frozen=True)
class BinomialFamily:
    f: RatPolynomial
    S: tuple[int, int]
    census: LevelCensus


def binomial_level_family(n: int, a: int, b: int) -> BinomialFamily:
    """The even-degree family a*C(x,n) + b whose level count over
    S = {b, a+b} reaches n+2 (witnesses 0..n-1, n, and -1)."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    if a == 0:
        raise ValueError("a must be nonzero")
    coeffs = [Fraction(b)] + [Fraction(0)] * (n - 1) + [Fraction(a)]
    f = from_binomial(BinomialForm(tuple(coeffs)))
    S = (b, a + b)
    cen = level_census(f, S)
    if cen.count < n + 2:
        raise TheoremViolation(
            f"binomial family count {cen.count} below the guaranteed {n + 2}"
        )
    return BinomialFamily(f=f, S=S, census=cen)
