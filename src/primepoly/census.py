"""Counting prime and unit values of factored polynomials.

For f = g1 * ... * gr with every factor integer-valued and nonconstant,
f(m) can only be prime (up to sign) when all but one factor evaluates to
+1 or -1 at m.  The union of the factors' unit fibers is therefore a
complete candidate set, and testing each candidate by exact evaluation
plus a primality check yields a census with a machine-checkable
exhaustiveness certificate: the fibers themselves.

P counts integers m with |f(m)| prime (negative prime values count);
Pplus restricts to f(m) a positive prime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .poly import RatPolynomial, eval_int_scaled, is_integer_valued, scale_to_integer
from .primes import is_prime
from .roots import _integer_roots, _plus, integer_solutions


@dataclass(frozen=True)
class FactoredPolynomial:
    """A polynomial given as an ordered product of nonconstant factors."""

    factors: tuple[RatPolynomial, ...]
    product: RatPolynomial = field(init=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        product = RatPolynomial((Fraction(1),))
        for g in self.factors:
            if not g.degree >= 1:
                raise ValueError("every factor must be nonconstant")
            product = product * g
        object.__setattr__(self, "product", product)

    @property
    def degree(self) -> int:
        return int(self.product.degree)


def factored(factors) -> FactoredPolynomial:
    """Build a FactoredPolynomial from a sequence of factors."""
    return FactoredPolynomial(tuple(factors))


@dataclass(frozen=True)
class UnitFibers:
    """Integers where a polynomial takes the value +1 resp. -1."""

    eplus: tuple[int, ...]
    eminus: tuple[int, ...]

    @property
    def E(self) -> int:
        return len(self.eplus) + len(self.eminus)


def unit_fibers(g: RatPolynomial) -> UnitFibers:
    """Exact fibers g^-1(+1) and g^-1(-1) over the integers."""
    if not g.degree >= 1:
        raise ValueError("g must be nonconstant")
    return UnitFibers(
        eplus=tuple(integer_solutions(g, 1)),
        eminus=tuple(integer_solutions(g, -1)),
    )


@dataclass(frozen=True)
class Witness:
    """One certified prime value: f(m) = value, |value| prime."""

    m: int
    value: int
    unit_factors: tuple[int, ...]   # indices of factors with |g_i(m)| = 1
    status: str                     # primality status of |value|


@dataclass(frozen=True)
class Census:
    """Certified prime-value counts with their exhaustiveness evidence."""

    P: int
    Pplus: int
    witnesses: tuple[Witness, ...]
    fibers: tuple[UnitFibers, ...]  # one per factor, the candidate certificate

    @property
    def fiber_bound(self) -> int:
        """Sum of the factors' unit-fiber sizes; P never exceeds it."""
        return sum(f.E for f in self.fibers)


def prime_census(f: FactoredPolynomial) -> Census:
    """Count the integers where f takes a prime value, with certificates.

    Requires at least two factors (so the unit-fiber argument applies) and
    every factor integer-valued (otherwise a factored value could be prime
    with no factor at a unit, and no finite certificate would exist).
    """
    if len(f.factors) < 2:
        raise ValueError("need at least two factors; irreducible census is out of scope")
    for g in f.factors:
        if not is_integer_valued(g):
            raise ValueError("every factor must be integer-valued for a certified census")

    fibers = tuple(unit_fibers(g) for g in f.factors)
    candidates = sorted({m for fib in fibers for m in fib.eplus + fib.eminus})

    int_coeffs, denom = scale_to_integer(f.product)

    witnesses = []
    pplus = 0
    for m in candidates:
        num = eval_int_scaled(int_coeffs, m)
        value, rem = divmod(num, denom)
        if rem:
            raise AssertionError("integer-valued product produced a non-integer")
        verdict = is_prime(value)
        if not verdict.is_prime:
            continue
        units = tuple(i for i, fib in enumerate(fibers) if m in fib.eplus or m in fib.eminus)
        witnesses.append(Witness(m=m, value=value, unit_factors=units, status=verdict.status))
        if value > 0:
            pplus += 1
    return Census(
        P=len(witnesses),
        Pplus=pplus,
        witnesses=tuple(witnesses),
        fibers=fibers,
    )


@dataclass(frozen=True)
class LevelCensus:
    """Count of integers m with f(m) in a finite target set."""

    count: int
    witnesses: tuple[int, ...]
    targets: tuple[int, ...]


def level_census(f: RatPolynomial, S) -> LevelCensus:
    """Exact count of distinct integers m with f(m) in S."""
    targets = tuple(sorted(set(int(s) for s in S)))
    if not targets:
        raise ValueError("S must be nonempty")
    if not f.degree >= 1:
        raise ValueError("f must be nonconstant")
    c, d = scale_to_integer(f)
    hits: set[int] = set()
    for s in targets:
        hits.update(_integer_roots(_plus(c, -s * d)))
    witnesses = tuple(sorted(hits))
    return LevelCensus(count=len(witnesses), witnesses=witnesses, targets=targets)
