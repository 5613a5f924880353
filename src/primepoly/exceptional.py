"""The five polynomials with more unit values than their degree.

Up to sign, reflection and integer translation, the only integer
polynomials f with E(f) > deg f are the five in `_LIST_DATA` (Dorwart
and Ore).  `equivalent_to_list` decides membership in that class by
exact coefficient pinning.  `search_exceptional` re-derives the
classification in a coefficient box from the window lemma: if
E(f) > deg f, both unit fibers are nonempty (each has at most deg f
points), and m - m' divides f(m) - f(m') = 2 for m in E+ and m' in E-,
so every unit point lies in {a, ..., a+4} with a the least one.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .census import unit_fibers
from .errors import TheoremViolation
from .poly import RatPolynomial, _interpolate, compose_affine

_LIST_DATA = (
    # (index, list polynomial)
    (1, RatPolynomial((1, 3, -4, 1))),   # x(x-1)(x-3) + 1, E = 4
    (2, RatPolynomial((1, -3, 1))),      # (x-1)(x-2) - 1, E = 4
    (3, RatPolynomial((1, -4, 2))),      # 2x(x-2) + 1, E = 3
    (4, RatPolynomial((-1, 2))),         # 2x - 1, E = 2
    (5, RatPolynomial((-1, 1))),         # x - 1, E = 2
)


class Equivalence(NamedTuple):
    """Witness that f(x) = sigma * h_index(tau*x + a)."""

    index: int
    sigma: int
    tau: int
    a: int


def equivalent_to_list(f: RatPolynomial) -> Optional[Equivalence]:
    """Decide whether f equals sigma*h_i(tau*x + a) for a list entry h_i.

    The shift a is pinned by the top two coefficients (an O(1) check per
    candidate), then confirmed on the full coefficient vector.  Returns
    the first match in (index, sigma, tau) order with +1 before -1, or
    None.
    """
    n = f.degree
    for index, h in _LIST_DATA:
        if h.degree != n:
            continue
        c_top, c_next = h[n], h[n - 1]
        for sigma in (1, -1):
            for tau in (1, -1):
                if f[n] != sigma * c_top * tau ** n:
                    continue
                a = (f[n - 1] / (sigma * tau ** (n - 1)) - c_next) / (n * c_top)
                if a.denominator != 1:
                    continue
                a = int(a)
                if compose_affine(h, sigma, tau, a) == f:
                    return Equivalence(index=index, sigma=sigma, tau=tau, a=a)
    return None


class ExceptionalHit(NamedTuple):
    poly: RatPolynomial
    E: int
    eplus: tuple[int, ...]
    eminus: tuple[int, ...]
    equivalence: Optional[Equivalence]


class SearchReport(NamedTuple):
    degree: int
    coeff_bound: int
    scanned: int
    hit_count: int
    hits: tuple[ExceptionalHit, ...]


def search_exceptional(degree: int, coeff_bound: int) -> SearchReport:
    """Every f of the given degree with integer coefficients in [-B, B]
    (B = coeff_bound) and E(f) > degree, in the order (lead, c0, c1, ...).
    `scanned` is the box size 2B(2B+1)^degree.

    Each such f is h(x - a), with a its least unit point and h the exact
    interpolant of +1/-1 values on degree + 1 points of {0, ..., 4}, 0
    among them; h has integer coefficients and exact degree (one sign
    throughout gives a constant).  Cauchy's bound on f - 1 and f + 1,
    whose coefficients below the lead are at most B + 1 in absolute
    value, gives |a| <= B + 1.  Degree 4 has no h: its lead would be the
    4th difference over 4! = 24, and the 4th difference of +1/-1 values
    is at most 1 + 4 + 6 + 4 + 1 = 16 in absolute value.

    `unit_fibers` rechecks every hit: E <= degree, any degree-4 hit and a
    hit outside the list classes raise TheoremViolation.
    """
    if degree < 1 or degree > 4:
        raise ValueError("degree must be between 1 and 4")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be positive")
    found = set()
    for rest in itertools.combinations(range(1, 5), degree):
        for signs in itertools.product((1, -1), repeat=degree + 1):
            h = _interpolate((0,) + rest, signs)
            if h.degree != degree or any(c.denominator != 1 for c in h):
                continue
            for a in range(-coeff_bound - 1, coeff_bound + 2):
                f = compose_affine(h, 1, 1, -a)
                if all(abs(c) <= coeff_bound for c in f):
                    found.add(f)
    hits = []
    for f in sorted(found, key=lambda p: (p[-1],) + p[:-1]):
        fibers = unit_fibers(f)
        if fibers.E <= degree:
            raise TheoremViolation(f"interpolated polynomial {f} has E={fibers.E} <= degree")
        if degree >= 4:
            raise TheoremViolation(f"degree-{degree} polynomial {f} has E={fibers.E} > degree")
        eq = equivalent_to_list(f)
        if eq is None:
            raise TheoremViolation(
                f"exceptional polynomial {f} (E={fibers.E}) is not list-equivalent"
            )
        hits.append(ExceptionalHit(f, fibers.E, fibers.eplus, fibers.eminus, eq))
    scanned = 2 * coeff_bound * (2 * coeff_bound + 1) ** degree
    return SearchReport(degree, coeff_bound, scanned, len(hits), tuple(hits))
