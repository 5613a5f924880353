"""Exact dense polynomial arithmetic over the rationals.

Polynomials are stored densely by ascending degree with `Fraction`
coefficients.  Besides ring arithmetic the module provides the one
denominator-clearing routine `scale_to_integer`, the binomial
(falling-factorial) basis, the integer-valuedness test by the values
p(0), ..., p(deg p), affine substitution, and exact evaluation over the
rationals and the quadratic extensions Q(sqrt(d)), the Gaussian rationals
among them.
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

    def __pow__(self, n: int) -> "RatPolynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


def binomial_basis_poly(k: int) -> RatPolynomial:
    """The polynomial C(x, k) = x(x-1)...(x-k+1) / k!."""
    p = ONE
    for i in range(k):
        p = p * RatPolynomial((Fraction(-i), Fraction(1)))
    return RatPolynomial(tuple(c / math.factorial(k) for c in p.coeffs))


def from_binomial(coeffs: Sequence[RationalLike]) -> RatPolynomial:
    """The polynomial sum c_k * C(x, k) of ascending coefficients c_k."""
    result = ZERO
    for k, c in enumerate(coeffs):
        if c != 0:
            result = result + c * binomial_basis_poly(k)
    return result


def is_integer_valued(p: RatPolynomial) -> bool:
    """True iff p maps every integer to an integer: the binomial-basis
    coefficients of p are the finite differences of p(0), ..., p(deg p)
    (Polya), so they are integers exactly when these values are."""
    c, d = scale_to_integer(p)
    return all(eval_int_scaled(c, m) % d == 0 for m in range(len(c)))


# ---------------------------------------------------------------------------
# Evaluation rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadExtElement:
    """Exact element a + b*sqrt(d) of a quadratic extension of Q.

    d must be a fixed square-free positive integer (a real extension) or
    -1 (the Gaussian rationals, sqrt(-1) = i); arithmetic between elements
    with different d is rejected.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        if self.d <= 0 and self.d != -1:
            raise ValueError("d must be a positive integer or -1")

    def _check(self, other) -> "QuadExtElement":
        other = _as_quad(other, self.d)
        if other.d != self.d:
            raise ValueError(f"mixed quadratic extensions: sqrt({self.d}) vs sqrt({other.d})")
        return other

    def __add__(self, other) -> "QuadExtElement":
        other = self._check(other)
        return QuadExtElement(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadExtElement":
        return QuadExtElement(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "QuadExtElement":
        return self + (-self._check(other))

    def __rsub__(self, other) -> "QuadExtElement":
        return self._check(other) + (-self)

    def __mul__(self, other) -> "QuadExtElement":
        other = self._check(other)
        return QuadExtElement(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExtElement":
        return QuadExtElement(self.a, -self.b, self.d)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d), for a real extension (d > 0)."""
        if self.d < 0:
            raise ValueError("a Gaussian rational has no sign")
        if self.b == 0:
            return 0 if self.a == 0 else (1 if self.a > 0 else -1)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        if self.a * self.a > self.b * self.b * self.d:
            return 1 if self.a > 0 else -1
        if self.a * self.a < self.b * self.b * self.d:
            return 1 if self.b > 0 else -1
        return 0

    def __str__(self) -> str:
        unit = "i" if self.d == -1 else f"*sqrt({self.d})"
        return f"{self.a}{'+' if self.b >= 0 else '-'}{abs(self.b)}{unit}"


def GaussianRational(re, im) -> QuadExtElement:
    """Exact complex number re + im*i: the d = -1 case of QuadExtElement."""
    return QuadExtElement(re, im, -1)


def _as_quad(x, d: int) -> QuadExtElement:
    if isinstance(x, QuadExtElement):
        return x
    return QuadExtElement(_frac(x), Fraction(0), d)


def evaluate(p: RatPolynomial, x):
    """Exact Horner evaluation of p at a rational or quadratic-extension
    point (Gaussian rationals included); the result has the same kind."""
    if not isinstance(x, QuadExtElement):
        x = _frac(x)
    acc = x * 0
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
