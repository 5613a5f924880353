"""Exact dense polynomial arithmetic over the rationals.

Polynomials are stored densely by ascending degree with `Fraction`
coefficients.  Besides ring arithmetic the module provides the one
denominator-clearing routine `scale_to_integer`, the binomial
(falling-factorial) basis, the integer-valuedness test by the values
p(0), ..., p(deg p), affine substitution, and exact evaluation at
rational points.  Points in a quadratic extension are evaluated only by
the complex counterexample, with its own pair-valued Horner in
`badpoints`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

#: Degree reported for the zero polynomial.
NEG_INFINITY = float("-inf")

RationalLike = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class RatPolynomial:
    """A polynomial with exact rational coefficients, ascending degree.

    Trailing zero coefficients are trimmed on construction; the zero
    polynomial is the empty tuple and reports degree -inf.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(_frac(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "RatPolynomial":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPolynomial(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "RatPolynomial":
        return RatPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RatPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "RatPolynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "RatPolynomial":
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPolynomial(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x):
        return evaluate(self, x)

    def __str__(self) -> str:
        return format_poly(self)


def _as_poly(x) -> RatPolynomial:
    if isinstance(x, RatPolynomial):
        return x
    return RatPolynomial((_frac(x),))


ZERO = RatPolynomial(())
ONE = RatPolynomial((Fraction(1),))
X = RatPolynomial((Fraction(0), Fraction(1)))


def make_poly(coeffs: Sequence[RationalLike]) -> RatPolynomial:
    """Build a polynomial from ascending-degree rational coefficients."""
    return RatPolynomial(tuple(_frac(c) for c in coeffs))


def compose_affine(p: RatPolynomial, sigma: int, tau: int, a: int) -> RatPolynomial:
    """Return sigma * p(tau*x + a) with sigma, tau in {+1, -1} and integer a."""
    if sigma not in (1, -1) or tau not in (1, -1):
        raise ValueError("sigma and tau must be +1 or -1")
    inner = RatPolynomial((Fraction(a), Fraction(tau)))
    result = ZERO
    for c in reversed(p.coeffs):
        result = result * inner + _as_poly(c)
    return sigma * result


def scale_to_integer(p: RatPolynomial) -> tuple[list[int], int]:
    """Return (c, d): d is the least common denominator of p's coefficients
    and c the ascending integer coefficients of d*p; ([], 1) for p = 0."""
    d = math.lcm(*(v.denominator for v in p.coeffs))
    return [v.numerator * (d // v.denominator) for v in p.coeffs], d


# ---------------------------------------------------------------------------
# Binomial (falling-factorial) basis
# ---------------------------------------------------------------------------


def from_binomial(coeffs: Sequence[RationalLike]) -> RatPolynomial:
    """The polynomial sum c_k * C(x, k) of ascending coefficients c_k, the
    basis kept as one running product C(x, k+1) = C(x, k) * (x - k) / (k + 1)."""
    result, basis = ZERO, ONE
    for k, c in enumerate(coeffs):
        if c != 0:
            result = result + c * basis
        basis = basis * RatPolynomial((Fraction(-k, k + 1), Fraction(1, k + 1)))
    return result


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
    """Exact Horner evaluation of p at a rational point."""
    x = _frac(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
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
        coeffs = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad polynomial {text!r}: {exc}") from None
    if binom:
        return from_binomial(coeffs)
    return RatPolynomial(coeffs)


def format_poly(p: RatPolynomial) -> str:
    """Canonical text form: comma-separated coefficients, ascending degree."""
    if p.is_zero:
        return "0"
    return ",".join(str(c) for c in p.coeffs)
