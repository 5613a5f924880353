"""Exact dense polynomial arithmetic over the rationals.

A polynomial is the tuple of its `Fraction` coefficients in ascending
degree, trailing zeros trimmed, so the zero polynomial is the empty tuple
and has degree -1.  Besides ring arithmetic the module provides the one
denominator-clearing routine `scale_to_integer`, the integer-valuedness
test by the values p(0), ..., p(deg p), and one rational Horner,
`_eval_scaled_frac`, behind `evaluate` and the real-root signs.  Integer
points keep the plain loop `eval_int_scaled`, for the census and integer
roots: 17 against 24 us at degree 40 (2,400-bit coefficients, 2-vCPU x86_64).
Every polynomial built from data comes from one Horner loop over linear
factors (u + v*x)/w, `_nested`, on integer lists like `_eval_scaled_frac`:
affine substitution, the binomial (falling-factorial) basis, Newton
interpolation and the construction multiplier 1 + t*prod(x - a).  One
integer convolution, `_mul`, is behind `*` and the Tarski product p'q.
Points in a quadratic extension have their own pair-valued Horner, in the
complex counterexample (`badpoints._at`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RatPolynomial(tuple):
    """A polynomial with exact rational coefficients, ascending degree:
    the tuple of its coefficients.

    Construction converts each coefficient to a `Fraction` (a float raises
    TypeError) and trims trailing zeros.  `+` and `*` are redefined on both
    sides, so `3 * p` is a scalar multiple, not tuple repetition.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Sequence[RationalLike] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, cs)

    @property
    def degree(self) -> int:
        return len(self) - 1

    def __add__(self, other) -> "RatPolynomial":
        a, b = self, _as_poly(other)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPolynomial":
        return RatPolynomial([-c for c in self])

    def __sub__(self, other) -> "RatPolynomial":
        return self + (-_as_poly(other))

    def __mul__(self, other) -> "RatPolynomial":
        (a, da), (b, db) = scale_to_integer(self), scale_to_integer(_as_poly(other))
        return RatPolynomial([Fraction(v, da * db) for v in _mul(a, b)])

    __rmul__ = __mul__

    def __str__(self) -> str:
        """Canonical text form: comma-separated coefficients, ascending degree."""
        return ",".join(map(str, self)) if self else "0"


def _as_poly(x) -> RatPolynomial:
    return x if isinstance(x, RatPolynomial) else RatPolynomial((x,))


X = RatPolynomial((0, 1))


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return out


def _nested(coeffs: Sequence[RationalLike], inners: Sequence[tuple[int, int, int]], den: int = 1) -> RatPolynomial:
    """(c_0 + l_0*(c_1 + l_1*(c_2 + ... + l_(n-1)*c_n)))/den for l_k = (u + v*x)/w,
    inners[k] = (u, v, w) integers, w >= 1: every polynomial built from data.
    With c_k = a_k/D and W_k = w_k...w_(n-1), one Horner loop keeps the
    integer list S_k = (u_k + v_k*x)*S_(k+1) + a_k*W_k, so p = S_0/(D*W_0*den)."""
    a, d = scale_to_integer(coeffs)
    acc, wk = a[-1:], 1
    for ak, (u, v, w) in zip(reversed(a[:-1]), reversed(inners)):
        wk *= w
        acc = [u * x + v * y for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += ak * wk
    return RatPolynomial([Fraction(x, d * wk * den) for x in acc])


def compose_affine(p: RatPolynomial, sigma: int, tau: int, a: int) -> RatPolynomial:
    """sigma * p(tau*x + a), sigma and tau = +-1, a an integer: l_k = tau*x + a."""
    return _nested([sigma * c for c in p], [(a, tau, 1)] * p.degree)


def scale_to_integer(p: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Return (c, d): d is the least common denominator of p's coefficients
    and c the ascending integer coefficients of d*p; ([], 1) for p = 0."""
    d = math.lcm(*(v.denominator for v in p))
    return [v.numerator * (d // v.denominator) for v in p], d


# ---------------------------------------------------------------------------
# Binomial (falling-factorial) basis
# ---------------------------------------------------------------------------


def from_binomial(coeffs: Sequence[RationalLike]) -> RatPolynomial:
    """The polynomial sum c_k * C(x, k) of ascending coefficients c_k, nested
    by C(x, k+1) = C(x, k) * (x - k)/(k + 1): l_k = (x - k)/(k + 1)."""
    return _nested(coeffs, [(-k, 1, k + 1) for k in range(len(coeffs) - 1)])


def _interpolate(points: Sequence[int], values: Sequence[RationalLike]) -> RatPolynomial:
    """The interpolant of degree < len(points) through the pairs (x_k, v_k),
    distinct integers x_k, in Newton's form: divided differences
    v[x_0..x_k] with l_k = x - x_k.  With v_k = a_k/D and W the span of the
    points, W! D v[...] is an integer, so the table runs on integers and
    each step divides exactly: for each x_k of a divided difference, the
    |x_k - x_l| below and above it are distinct integers up to x_k - min
    and max - x_k, whose product divides (x_k - min)! (max - x_k)!, a
    divisor of W!."""
    a, d = scale_to_integer(values)
    w = math.factorial(max(points) - min(points))
    t = [v * w for v in a]
    for j in range(1, len(points)):
        for i in reversed(range(j, len(points))):
            t[i] = (t[i] - t[i - 1]) // (points[i] - points[i - j])
    return _nested(t, [(-x, 1, 1) for x in points[:-1]], d * w)


def is_integer_valued(p: RatPolynomial) -> bool:
    """True iff p maps every integer to an integer: the binomial-basis
    coefficients of p are the finite differences of p(0), ..., p(deg p)
    (Polya), so they are integers exactly when these values are."""
    c, d = scale_to_integer(p)
    return all(eval_int_scaled(c, m) % d == 0 for m in range(len(c)))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(p: RatPolynomial, x) -> Fraction:
    """Exact value of p at a rational point: d*p cleared, then one integer Horner."""
    c, d = scale_to_integer(p)
    num, den = _frac(x).as_integer_ratio()
    return Fraction(_eval_scaled_frac(c, num, den), d * den ** max(p.degree, 0))


def _eval_scaled_frac(c: Sequence[int], num: int, den: int) -> int:
    """den^deg * c(num/den), exact in integers (den >= 1; 0 for c = [])."""
    acc, dp = 0, 1
    for v in reversed(c):
        acc, dp = acc * num + v * dp, dp * den
    return acc


def eval_int_scaled(int_coeffs: Sequence[int], m: int) -> int:
    """Horner evaluation of an integer-coefficient polynomial at integer m."""
    acc = 0
    for c in reversed(int_coeffs):
        acc = acc * m + c
    return acc


# ---------------------------------------------------------------------------
# Text grammar (CLI interchange format)
# ---------------------------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """Parse `int` or `int/int`.  `Fraction` alone also reads a decimal
    point and an exponent, and `1e999999` builds a million-digit integer."""
    if any(ch in text for ch in ".eE"):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_poly(text: str) -> RatPolynomial:
    """Parse the comma-separated ascending-coefficient grammar.

    Each coefficient is `int` or `int/int`; the optional prefix `binom:`
    interprets the coefficients in the binomial basis.
    """
    text = text.strip()
    binom = False
    if text.startswith("binom:"):
        binom = True
        text = text[len("binom:"):]
    if not text:
        raise ValueError("empty polynomial")
    try:
        coeffs = tuple(parse_rational(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad polynomial {text!r}: {exc}") from None
    if binom:
        return from_binomial(coeffs)
    return RatPolynomial(coeffs)

