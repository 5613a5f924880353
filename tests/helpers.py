"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from primepoly.errors import BudgetExhausted
from primepoly.poly import RatPolynomial, make_poly
from primepoly.primes import ProgressionHit, is_prime
from primepoly.roots import isolate_roots


def random_int_poly(rng: random.Random, degree: int, bound: int) -> RatPolynomial:
    """Random integer polynomial of exactly the given degree."""
    lead = rng.choice([c for c in range(-bound, bound + 1) if c != 0])
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)] + [lead]
    return make_poly(coeffs)


def random_rat_poly(rng: random.Random, degree: int, bound: int) -> RatPolynomial:
    """Random rational polynomial of exactly the given degree."""
    def rat() -> Fraction:
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    lead = rat()
    while lead == 0:
        lead = rat()
    return make_poly([rat() for _ in range(degree)] + [lead])


def brute_integer_solutions(p: RatPolynomial, v, limit: int) -> list[int]:
    """Oracle: scan |m| <= limit for p(m) = v."""
    target = Fraction(v)
    return [m for m in range(-limit, limit + 1) if p(m) == target]


def sturm_integer_solutions(p: RatPolynomial, v) -> list[int]:
    """Reference for `integer_solutions` by real isolation: isolate every
    real root of p - v with Sturm chains, refine to width below 1, and test
    the integers inside by exact evaluation."""
    target = Fraction(v)
    out = set()
    for root in isolate_roots(p - target):
        if root.is_exact:
            if root.lo.denominator == 1:
                out.add(int(root.lo))
            continue
        root = root.refine(Fraction(1, 2))
        m = math.floor(root.lo) + 1
        while m < root.hi:
            if p(m) == target:
                out.add(m)
            m += 1
    return sorted(out)


def unsieved_find_multiplier(Ms, positive_required: bool, t_max: int) -> ProgressionHit:
    """Reference for `find_multiplier` without its sieve: a primality test
    on every t in the order 1, -1, 2, -2, ..., the sign checked after it."""
    Ms = tuple(Ms)
    for a in range(1, t_max + 1):
        for t in (a, -a):
            verdicts = []
            for M in Ms:
                v = is_prime(1 + t * M)
                if not v.is_prime or (positive_required and v.value <= 0):
                    break
                verdicts.append(v)
            else:
                return ProgressionHit(Ms, t, tuple(verdicts), positive_required)
    raise BudgetExhausted(
        f"no multiplier with |t| <= {t_max} makes 1 + t*{' and 1 + t*'.join(map(str, Ms))} prime",
        frontier=t_max,
    )
