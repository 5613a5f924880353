"""The five polynomials with more unit values than their degree.

Up to sign, reflection and integer translation, the only integer
polynomials f with E(f) > deg f are the five listed in
`dorwart_ore_list` (classified by Dorwart and Ore).  This module decides
membership in that equivalence class by exact coefficient pinning and
re-derives the classification at desk scale by exhaustive enumeration
over bounded coefficient boxes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .census import UnitFibers, unit_fibers
from .errors import TheoremViolation
from .poly import RatPolynomial, compose_affine, make_poly
from .roots import integer_solutions


@dataclass(frozen=True)
class ListEntry:
    index: int
    polynomial: RatPolynomial
    degree: int
    expected_E: int
    fibers: UnitFibers


_LIST_DATA = (
    # (index, ascending coefficients, E)
    (1, (1, 3, -4, 1), 4),   # x(x-1)(x-3) + 1
    (2, (1, -3, 1), 4),      # (x-1)(x-2) - 1
    (3, (1, -4, 2), 3),      # 2x(x-2) + 1
    (4, (-1, 2), 2),         # 2x - 1
    (5, (-1, 1), 2),         # x - 1
)


def dorwart_ore_list() -> tuple[ListEntry, ...]:
    """The five exceptional polynomials, fibers re-verified on the spot."""
    entries = []
    for index, coeffs, expected in _LIST_DATA:
        p = make_poly(coeffs)
        fibers = unit_fibers(p)
        if fibers.E != expected:
            raise TheoremViolation(
                f"list entry {index} has E={fibers.E}, expected {expected}"
            )
        entries.append(
            ListEntry(
                index=index,
                polynomial=p,
                degree=int(p.degree),
                expected_E=expected,
                fibers=fibers,
            )
        )
    return tuple(entries)


@dataclass(frozen=True)
class Equivalence:
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
    if f.degree not in (1, 2, 3):
        raise ValueError("only degrees 1 to 3 can be list-equivalent")
    n = int(f.degree)
    for index, coeffs, _ in _LIST_DATA:
        h = make_poly(coeffs)
        if h.degree != n:
            continue
        c_top = h.coeffs[n]
        c_next = h.coeffs[n - 1]
        for sigma in (1, -1):
            for tau in (1, -1):
                if f.coeffs[n] != sigma * c_top * tau ** n:
                    continue
                a = (f.coeffs[n - 1] / (sigma * tau ** (n - 1)) - c_next) / (n * c_top)
                if a.denominator != 1:
                    continue
                a = int(a)
                if compose_affine(h, sigma, tau, a) == f:
                    return Equivalence(index=index, sigma=sigma, tau=tau, a=a)
    return None


@dataclass(frozen=True)
class ExceptionalHit:
    polynomial: RatPolynomial
    E: int
    fibers: UnitFibers
    equivalence: Optional[Equivalence]


@dataclass(frozen=True)
class SearchReport:
    degree: int
    coeff_bound: int
    scanned: int
    hits: tuple[ExceptionalHit, ...]


def search_exceptional(degree: int, coeff_bound: int) -> SearchReport:
    """Enumerate integer polynomials of the given degree with coefficients
    in [-coeff_bound, coeff_bound] and collect every f with E(f) > degree.

    Degrees 1-3 attach the list equivalence of each hit (its absence
    would disprove the classification, hence TheoremViolation); degree 4
    is allowed for spot checks, where any hit at all is a violation.
    """
    if degree < 1 or degree > 4:
        raise ValueError("degree must be between 1 and 4")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be positive")
    span = range(-coeff_bound, coeff_bound + 1)
    hits = []
    scanned = 0
    for lead in span:
        if lead == 0:
            continue
        for rest in itertools.product(span, repeat=degree):
            coeffs = list(rest) + [lead]
            scanned += 1
            # parity screen: |f(m)| = 1 needs f(m) odd, and f(m) mod 2
            # only depends on m mod 2
            if coeffs[0] % 2 == 0 and sum(coeffs) % 2 == 0:
                continue
            f = make_poly(coeffs)
            eplus = integer_solutions(f, 1)
            if not eplus:
                continue  # f = -1 has at most `degree` solutions, so E <= degree
            eminus = integer_solutions(f, -1)
            E = len(eplus) + len(eminus)
            if E <= degree:
                continue
            fibers = UnitFibers(eplus=tuple(eplus), eminus=tuple(eminus))
            if degree >= 4:
                raise TheoremViolation(
                    f"degree-{degree} polynomial {f} has E={E} > degree"
                )
            eq = equivalent_to_list(f)
            if eq is None:
                raise TheoremViolation(
                    f"exceptional polynomial {f} (E={E}) is not list-equivalent"
                )
            hits.append(ExceptionalHit(polynomial=f, E=E, fibers=fibers, equivalence=eq))
    return SearchReport(
        degree=degree, coeff_bound=coeff_bound, scanned=scanned, hits=tuple(hits)
    )


def list_equivalent_candidates(degree: int, coeff_bound: int) -> list[RatPolynomial]:
    """All polynomials in the coefficient box that are list-equivalent;
    the oracle for the completeness direction of the search."""
    out = set()
    shift_limit = 3 * coeff_bound + 6
    for index, coeffs, _ in _LIST_DATA:
        h = make_poly(coeffs)
        if h.degree != degree:
            continue
        for sigma in (1, -1):
            for tau in (1, -1):
                for a in range(-shift_limit, shift_limit + 1):
                    cand = compose_affine(h, sigma, tau, a)
                    if all(abs(c) <= coeff_bound for c in cand.coeffs):
                        out.add(cand)
    return sorted(out, key=lambda p: tuple(p.coeffs))
