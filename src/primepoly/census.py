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

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import TheoremViolation
from .poly import RatPolynomial, eval_int_scaled, is_integer_valued, scale_to_integer
from .primes import is_prime
from .roots import _integer_roots, _plus, integer_solutions


class UnitFibers(NamedTuple):
    """Integers where a polynomial takes the value +1 resp. -1, E of them;
    `factor` is the factor's index within a census, None outside one."""

    factor: Optional[int]
    eplus: tuple[int, ...]
    eminus: tuple[int, ...]
    E: int


def unit_fibers(g: RatPolynomial) -> UnitFibers:
    """Exact fibers g^-1(+1) and g^-1(-1) over the integers; a constant g
    raises ValueError in `integer_solutions`."""
    eplus, eminus = tuple(integer_solutions(g, 1)), tuple(integer_solutions(g, -1))
    return UnitFibers(None, eplus, eminus, len(eplus) + len(eminus))


class Witness(NamedTuple):
    """One certified prime value: f(m) = value, |value| prime."""

    m: int
    value: int
    status: str                     # primality status of |value|
    unit_factors: tuple[int, ...]   # indices of factors with |g_i(m)| = 1


class Census(NamedTuple):
    """Certified prime-value counts with their exhaustiveness evidence."""

    P: int
    Pplus: int
    fiber_bound: int                # sum of the factors' E; P never exceeds it
    witnesses: tuple[Witness, ...]
    fibers: tuple[UnitFibers, ...]  # one per factor, the candidate certificate


def prime_census(factors) -> Census:
    """Count the integers where f = g1 * ... * gr takes a prime value, with
    certificates; f(m) is the product of the factor values gi(m).

    Requires every factor nonconstant, at least two factors (so the
    unit-fiber argument applies) and every factor integer-valued (otherwise
    a factored value could be prime with no factor at a unit, and no finite
    certificate would exist).
    """
    factors = tuple(factors)
    if any(g.degree < 1 for g in factors):
        raise ValueError("every factor must be nonconstant")
    if len(factors) < 2:
        raise ValueError("need at least two factors; irreducible census is out of scope")
    if not all(is_integer_valued(g) for g in factors):
        raise ValueError("every factor must be integer-valued for a certified census")

    fibers = tuple(unit_fibers(g)._replace(factor=i) for i, g in enumerate(factors))
    candidates = sorted({m for fib in fibers for m in fib.eplus + fib.eminus})
    scaled = [scale_to_integer(g) for g in factors]

    witnesses = []
    pplus = 0
    for m in candidates:
        values = []
        for i, (c, d) in enumerate(scaled):
            num = eval_int_scaled(c, m)
            if num % d:
                raise TheoremViolation(f"g{i}({m}) = {Fraction(num, d)} is not an integer")
            values.append(num // d)
        value = math.prod(values)
        verdict = is_prime(value)
        if not verdict.is_prime:
            continue
        units = tuple(i for i, v in enumerate(values) if abs(v) == 1)
        witnesses.append(Witness(m, value, verdict.status, units))
        if value > 0:
            pplus += 1
    return Census(
        P=len(witnesses),
        Pplus=pplus,
        fiber_bound=sum(fib.E for fib in fibers),
        witnesses=tuple(witnesses),
        fibers=fibers,
    )


class LevelCensus(NamedTuple):
    """Count of integers m with f(m) in the finite target set."""

    set: tuple[int, ...]
    count: int
    witnesses: tuple[int, ...]


def level_census(f: RatPolynomial, S) -> LevelCensus:
    """Exact count of distinct integers m with f(m) in S."""
    targets = tuple(sorted(set(int(s) for s in S)))
    if not targets:
        raise ValueError("S must be nonempty")
    if f.degree < 1:
        raise ValueError("f must be nonconstant")
    c, d = scale_to_integer(f)
    hits: set[int] = set()
    for s in targets:
        hits.update(_integer_roots(_plus(c, -s * d)))
    witnesses = tuple(sorted(hits))
    return LevelCensus(targets, len(witnesses), witnesses)
