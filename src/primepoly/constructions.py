"""Generators for prime-rich reducible polynomials, with certificates.

Each builder returns a ConstructionCertificate whose census is recomputed
from scratch, so the claimed prime-value count is re-verified rather than
trusted.  The n+1 family multiplies x by 1 + t*(x-p_1)...(x-p_{n-1}) over
primes chosen in sign-balanced pairs, which forces
(1-p_1)...(1-p_{n-1}) = (-1-p_1)...(-1-p_{n-1}) so that a single
multiplier t makes f(1) and -f(-1) simultaneously prime.  The positive
variant uses positive primes only and asks the value at 1 to be a
positive prime.  The conditional n+2 search over one quadratic factor
succeeds exactly when four specific progressions are simultaneously
prime.  All three scan one multiplier t with `_multiplier_poly`; when its
budget runs out they raise BudgetExhausted carrying the anchors tried and
the frontier |t| reached, an expected outcome rather than a fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .census import Census, FactoredPolynomial, factored, prime_census
from .errors import BudgetExhausted, TheoremViolation
from .poly import X, evaluate, make_poly
from .primes import find_multiplier, first_primes, is_prime, primes_stream

H2 = make_poly([1, -3, 1])  # (x-1)(x-2) - 1, the quadratic with four unit values

# kind: (factors, claimed prime-value count)
FIXED_EXAMPLES = {
    "deg2": ((X, make_poly([-4, 1])), 4),
    "deg3": ((H2, make_poly([-5, 1])), 5),
    "deg4_nplus4": ((H2, make_poly([29, -11, 1])), 8),
    "deg5_nplus3": ((H2, make_poly([-139, 83, -16, 1])), 8),  # H2 * (1 + (x-4)(x-5)(x-7))
}


@dataclass(frozen=True)
class ConstructionCertificate:
    """A generated polynomial plus the evidence behind its claimed count."""

    kind: str
    f: FactoredPolynomial
    anchors: tuple[int, ...]                 # integers pinned to prime values
    multiplier_t: Optional[int]
    induced: tuple[tuple[int, str], ...]     # values forced prime by t, with status
    claim: str                               # "P" or "Pplus"
    claimed: int
    census: Census


def _certify(kind, f, anchors, hit_t, induced, claim, claimed) -> ConstructionCertificate:
    census = prime_census(f)
    got = census.Pplus if claim == "Pplus" else census.P
    if got < claimed:
        raise TheoremViolation(
            f"{kind}: census {claim}={got} fell short of the claimed {claimed}"
        )
    return ConstructionCertificate(
        kind=kind, f=f, anchors=anchors, multiplier_t=hit_t,
        induced=induced, claim=claim, claimed=claimed, census=census,
    )


def fixed_example(kind: str) -> ConstructionCertificate:
    """The four hard-coded extremal examples of degrees 2, 3, 4 and 5."""
    if kind not in FIXED_EXAMPLES:
        raise ValueError(f"unknown fixed example {kind!r}; expected one of {tuple(FIXED_EXAMPLES)}")
    factors, claimed = FIXED_EXAMPLES[kind]
    return _certify(kind, factored(factors), (), None, (), "P", claimed)


@dataclass(frozen=True)
class PairingCheck:
    left: int
    right: int
    equal: bool


def check_pairing(primes) -> PairingCheck:
    """Compare prod(1 - p) with prod(-1 - p) over the given integers."""
    ps = tuple(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("anchor primes must be distinct")
    if any(p in (1, -1) for p in ps):
        raise ValueError("anchor primes must differ from +1 and -1")
    left = right = 1
    for p in ps:
        left *= 1 - p
        right *= -1 - p
    return PairingCheck(left=left, right=right, equal=left == right)


def pairing_primes(n: int) -> list[int]:
    """The n-1 anchor primes of the n+1 construction, by the parity rule.

    Odd n: pairs 3, -3, 5, -5, ...  Even n: pairs from 7 upward plus the
    fixed tail 2, -3, -5 (each pair and the tail contribute equally to
    the two products compared by `check_pairing`).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    start, tail = (3, []) if n % 2 == 1 else (7, [2, -3, -5])
    out: list[int] = []
    for p in primes_stream(start):
        if len(out) == n - 1 - len(tail):
            break
        out.extend((p, -p))
    return out + tail


def _multiplier_poly(anchors, points, positive: bool, t_max: int):
    """The first hit of `find_multiplier` on M_i = prod(i - a) over the
    anchors, one M_i per point i, and g = 1 + t*prod(x - a), so that
    g(i) = 1 + t*M_i and g(a) = 1.  Raises BudgetExhausted with the
    anchors and the frontier t_max when no |t| <= t_max works."""
    Ms = [math.prod(i - a for a in anchors) for i in points]
    try:
        hit = find_multiplier(Ms, positive_required=positive, t_max=t_max)
    except BudgetExhausted as exc:
        raise BudgetExhausted(str(exc), frontier=t_max, anchors=anchors) from None
    return hit, 1 + hit.t * math.prod(make_poly([-a, 1]) for a in anchors)


def build_n_plus_1(n: int, t_max: int = 10 ** 6) -> ConstructionCertificate:
    """A degree-n polynomial x * (1 + t*(x-p_1)...(x-p_{n-1})) with at
    least n+1 prime values, unconditionally constructible for n >= 3."""
    ps = tuple(pairing_primes(n))
    if not check_pairing(ps).equal:
        raise TheoremViolation("parity rule failed to balance the two products")
    hit, g = _multiplier_poly(ps, (1,), False, t_max)
    v = hit.verdicts[0]
    induced = ((v.value, v.status), (-v.value, v.status))  # f(1), f(-1)
    return _certify("nplus1", factored((X, g)), ps, hit.t, induced, "P", n + 1)


def build_p_plus(n: int, t_max: int = 10 ** 6) -> ConstructionCertificate:
    """A degree-n polynomial with exactly n positive prime values."""
    if n < 2:
        raise ValueError("need n >= 2")
    ps = tuple(first_primes(n - 1))
    hit, g = _multiplier_poly(ps, (1,), True, t_max)
    v = hit.verdicts[0]
    cert = _certify("pplus", factored((X, g)), ps, hit.t, ((v.value, v.status),), "Pplus", n)
    if cert.census.Pplus > n:
        raise TheoremViolation(
            f"Pplus={cert.census.Pplus} exceeds the degree-{n} ceiling"
        )
    return cert


def quadratic_anchor_points(limit: int):
    """Integers b with |b^2 - 3b + 1| prime, ascending by |b| (positive
    first on ties), skipping the unit fiber {0, 1, 2, 3}."""
    for magnitude in range(1, limit + 1):
        for b in (magnitude, -magnitude):
            if b in (0, 1, 2, 3):
                continue
            if is_prime(abs(int(evaluate(H2, b)))).is_prime:
                yield b


def search_n_plus_2(n: int, b_scan_max: int = 200, t_max: int = 10 ** 6) -> ConstructionCertificate:
    """Best-effort search for a degree-n polynomial with n+2 prime values.

    Uses f = g * (x^2 - 3x + 1) with g = 1 + t*(x-b_1)...(x-b_{n-2});
    success needs |g(0)|, |g(1)|, |g(2)|, |g(3)| simultaneously prime,
    a prime-quadruple event, so running out of budget is a legitimate
    outcome.  Raises BudgetExhausted with frontier 0 when fewer than n-2
    anchors b have |b| <= b_scan_max, and with frontier t_max when no
    multiplier is found.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    bs = tuple(islice(quadratic_anchor_points(b_scan_max), n - 2))
    if len(bs) < n - 2:
        raise BudgetExhausted(
            f"only {len(bs)} of {n - 2} anchors have |b| <= {b_scan_max}", frontier=0, anchors=bs
        )
    hit, g = _multiplier_poly(bs, range(4), False, t_max)
    induced = tuple((v.value, v.status) for v in hit.verdicts)
    return _certify("nplus2", factored((g, H2)), bs, hit.t, induced, "P", n + 2)
