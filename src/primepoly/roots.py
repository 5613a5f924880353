"""Exact root machinery in integer arithmetic.

Real roots come from Sturm sequences: rational polynomials are cleared to
primitive integer coefficient lists, one signed remainder sequence
`_chain(a, b)` uses primitive pseudo-remainders (no coefficient blowup, no
floating point), and every subdivision is a bisection, so an interval
endpoint is carried as two integers, k over 2^e, and becomes a `Fraction`
only where an `IsolatedRoot` leaves the routine.  `_sturm(c)`, the chain of
c and c' divided by gcd(c, c'), gives counts of distinct real roots on an
interval, root isolation with on-demand refinement, and two-sided brackets
for the Lebesgue measure of {x : |p(x)| <= K}; its variations at +-inf come
from leads and degree parities.  The sign of q at an isolated root of p is
one Sturm-Tarski query on the isolating interval, not a refinement: the
Cauchy index of p'q/p, which depends only on p'q mod p; `bad_points` asks
for one only where intervals overlap.  Each public routine clears its
`RatPolynomial` and calls a private one on primitive integer lists.  Signs
use `poly`'s one rational Horner; integers, the faster `eval_int_scaled`.

Complete integer solution sets of p(x) = v need no real roots.  For few
targets v they come from p-adic lifting (Loos, "Computing rational zeros of
integral polynomials by p-adic expansion", SIAM J. Comput. 1983) from a prime
at which every root of p - v is simple, up to Fujiwara's root bound; a
residue scan stops at its first multiple root, yet `_integer_roots` charges
its budget the full scan.  For many targets in a short range one Fujiwara
bound B covers them all, and `integer_solutions` evaluates p at the 2B - 1
integers below it instead, when that is the cheaper path (`_SCAN_PER_LIFT`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import TheoremViolation
from .poly import RatPolynomial, _eval_scaled_frac, _mul, eval_int_scaled, evaluate, scale_to_integer
from .primes import primes_stream

IntCoeffs = tuple[int, ...]

# `integer_solutions` scans the 2B - 1 integers below its bound B instead of
# lifting each value when that is at most this many integers per value; a
# lifted value costs 17-24 scanned integers, so 8 keeps a margin of two
_SCAN_PER_LIFT = 8


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense ascending coefficient tuples)
# ---------------------------------------------------------------------------


def _strip(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c: list[int]) -> list[int]:
    c = _strip(list(c))
    g = math.gcd(*c)
    return [v // g for v in c]


def _plus(c: list[int], k: int) -> list[int]:
    """Primitive integer coefficients of c + k, for nonconstant c."""
    return _primitive([c[0] + k] + c[1:])


def _to_int(p: RatPolynomial) -> list[int]:
    """Primitive integer coefficients of a positive multiple of p ([] for 0)."""
    return _primitive(scale_to_integer(p)[0])


def _deriv(c: list[int]) -> list[int]:
    return _strip([i * v for i, v in enumerate(c) if i > 0])


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _chain(a: list[int], b: list[int]) -> list[list[int]]:
    """Signed remainder sequence of a and b with primitive-part scaling
    (sign-correct); its last entry is gcd(a, b) up to a constant."""
    chain = [list(a)]
    if b:
        chain.append(list(b))
    while len(chain[-1]) > 1:
        r, factor_sign = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-v * factor_sign for v in r]))
    return chain


def _pseudo_rem(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Integer pseudo-remainder of a by b and the sign of the scale factor.

    Returns (r, s) with r = lc(b)^k * (a mod b) for some k >= 0 and
    s = sign(lc(b)^k), so that s * r has the sign of the true remainder.
    """
    lc = b[-1]
    db = len(b) - 1
    r = list(a)
    k = 0
    while len(r) - 1 >= db and r:
        k += 1
        shift = len(r) - 1 - db
        coef = r[-1]
        r = [v * lc for v in r]
        for i, bv in enumerate(b):
            r[shift + i] -= coef * bv
        r = _strip(r)
    s = 1 if (lc > 0 or k % 2 == 0) else -1
    return r, s


def _variations(signs: list[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _signs(chain: list[list[int]], num: int, den: int) -> list[int]:
    return [_sign(_eval_scaled_frac(c, num, den)) for c in chain]


def _var_coeffs(chain: list[list[int]]) -> tuple[int, ...]:
    """V(-inf), V(+inf), unevaluated: at s inf an entry has its lead's sign times s^deg."""
    return tuple(_variations([_sign(e[-1]) * s ** (len(e) - 1) for e in chain]) for s in (-1, 1))


def _count(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """V(lo) - V(hi), lo < hi.  For _sturm(c) it counts the distinct roots of
    c in (lo, hi], endpoints roots or not: at a root x0 of the head s the
    second entry is nonzero and s has its sign just right of x0, so
    V(x0) = V(x0+).  For _chain(p, r), r a positive multiple of p'q mod p,
    p square-free and neither end a root of p, it is the Tarski query: the
    sum of sign q(x) over the roots x of p in (lo, hi) (Sturm-Tarski)."""
    return _variations(_signs(chain, *lo.as_integer_ratio())) - _variations(_signs(chain, *hi.as_integer_ratio()))


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b for primitive b with b | a; it lies in Z[x] by
    Gauss's lemma."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(q))):
        q[shift] = coef = a[shift + len(b) - 1] // b[-1]
        for i, bv in enumerate(b):
            a[shift + i] -= coef * bv
    return q


def _sturm(c: list[int]) -> list[list[int]]:
    """_chain(c, c') of primitive c, each entry divided exactly by the last
    one, g = gcd(c, c') made primitive with a positive lead: a Sturm sequence
    of its head, the square-free part of c with the sign of lc(c)
    (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2)."""
    chain = _chain(c, _deriv(c))
    g = _primitive(chain[-1])
    if len(g) == 1:  # c is square-free: g = 1
        return chain
    if g[-1] < 0:
        g = [-v for v in g]
    return [_exact_div(e, g) for e in chain]


def _cauchy_bound(c: list[int]) -> int:
    """Integer B with every real root strictly inside (-B, B)."""
    lead = abs(c[-1])
    m = max((abs(v) for v in c[:-1]), default=0)
    return 1 + m // lead + 1


def _fujiwara_bound(c: list[int]) -> int:
    """A power of two B with every complex root strictly inside |z| < B:
    Fujiwara's 2 max_k |c[n-k] / c[n]|^(1/k) (1916), each ratio rounded up
    to a power of two through bit lengths."""
    lead = abs(c[-1]).bit_length()
    exps = [-((lead - abs(v).bit_length() - 1) // k) for k, v in enumerate(reversed(c[:-1]), 1) if v]
    return 2 << max(exps + [0])


def _eval_mod(c: list[int], x: int, m: int) -> int:
    acc = 0
    for v in reversed(c):
        acc = (acc * x + v) % m
    return acc


# ---------------------------------------------------------------------------
# Public types
# ---------------------------------------------------------------------------


def _bisect(c: IntCoeffs, lo: int, hi: int, den: int, width: Fraction) -> tuple[int, int, int]:
    """Bisect (lo/den, hi/den), which holds one root of c, until it is at
    most `width` wide, all in integers over a common denominator.  Returns
    the final (lo, hi, den), with lo == hi when a midpoint is the root."""
    s_lo = _sign(_eval_scaled_frac(c, lo, den))
    wn, wd = width.numerator, width.denominator
    while (hi - lo) * wd > wn * den:
        mid, den = lo + hi, 2 * den
        s_mid = _sign(_eval_scaled_frac(c, mid, den))
        if s_mid == 0:
            return mid, mid, den
        if s_mid == s_lo:
            lo, hi = mid, 2 * hi
        else:
            lo, hi = 2 * lo, mid
    return lo, hi, den


class IsolatedRoot(NamedTuple):
    """A real algebraic number: a square-free defining polynomial, as its
    primitive integer coefficients, plus a rational isolating interval
    containing exactly one of its roots.

    A rational root is stored exactly as a degenerate interval lo == hi;
    otherwise neither endpoint is a root.  Isolation and refinement carry
    the endpoints as integers over a common denominator, k / 2^e for the
    intervals `isolate_roots` makes; they become `Fraction`s only here.
    """

    defining: IntCoeffs
    lo: Fraction
    hi: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refine(self, width: Fraction) -> "IsolatedRoot":
        """Bisect until the interval is at most `width` wide (or exact)."""
        if self.is_exact:
            return self
        (a, b), (c, d) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        den = math.lcm(b, d)
        lo, hi, den = _bisect(self.defining, a * (den // b), c * (den // d), den, Fraction(width))
        return IsolatedRoot(self.defining, Fraction(lo, den), Fraction(hi, den))

    def __str__(self) -> str:
        if self.is_exact:
            return f"={self.lo}"
        return f"({self.lo},{self.hi})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _count_roots(c: list[int]) -> int:
    """Number of distinct real roots of the nonzero integer list c:
    V(-inf) - V(+inf) of its Sturm chain, read from leads and degree parities."""
    v_lo, v_hi = _var_coeffs(_sturm(c))
    return v_lo - v_hi


def isolate_roots(p: RatPolynomial) -> list[IsolatedRoot]:
    """Disjoint isolating intervals, one per distinct real root of p != 0,
    ascending, refined to width at most 1; rational roots found along the
    way are returned as exact (degenerate) intervals."""
    return _isolate(_to_int(p))


def _isolate(c: list[int]) -> list[IsolatedRoot]:
    """`isolate_roots` of the primitive integer list c.  The stack holds
    (lo, hi, e, V(lo), V(hi)) for the interval (lo/2^e, hi/2^e]; its
    midpoint is lo + hi at exponent e + 1.  It starts from the one cell
    (-B/2^j, B/2^j], B = _cauchy_bound(c), with V(+-B/2^j) = V(+-inf) read
    from the coefficients, as V moves only at roots of the head.  For
    c(0) != 0, j is the largest with B/2^j >= F = _fujiwara_bound(c), or 0;
    its midpoint 0 gives the halves that bisecting (-B, B] reaches by levels
    that only drop empty outer cells, so the same intervals result.  For
    c(0) = 0, j stays 0: the window around the root 0 scales with the cell."""
    chain = _sturm(c) if len(c) > 2 else [c]
    c = chain[0]
    defining = tuple(c)
    if len(c) == 2:
        return [IsolatedRoot(defining, Fraction(-c[0], c[1]), Fraction(-c[0], c[1]))]
    bound = _cauchy_bound(c)

    found: list[IsolatedRoot] = []
    j = max(0, (bound // _fujiwara_bound(c)).bit_length() - 1) if c[0] else 0
    stack = [(-bound, bound, j, *_var_coeffs(chain))]
    while stack:
        lo, hi, e, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1:
            found.append(_refine_new(defining, lo, hi, 1 << e))
            continue
        mid = lo + hi
        signs = _signs(chain, mid, 1 << (e + 1))
        if signs[0]:
            vmid = _variations(signs)
            stack.append((2 * lo, mid, e + 1, vlo, vmid))
            stack.append((mid, 2 * hi, e + 1, vmid, vhi))
            continue
        # mid is a root: shrink the window m +- delta (over 2^f, delta a
        # quarter of the interval at first) by raising f until neither end
        # is a root and it holds only this root
        m, delta, f = 2 * mid, hi - lo, e + 2
        while True:
            a, b = m - delta, m + delta
            sa, sb = _signs(chain, a, 1 << f), _signs(chain, b, 1 << f)
            if sa[0] and sb[0] and _variations(sa) - _variations(sb) == 1:
                break
            m, f = 2 * m, f + 1
        root = Fraction(mid, 1 << (e + 1))
        found.append(IsolatedRoot(defining, root, root))
        stack.append((lo << (f - e), a, f, vlo, _variations(sa)))
        stack.append((b, hi << (f - e), f, _variations(sb), vhi))
    found.sort(key=lambda r: (r.lo, r.hi))
    return found


def _refine_new(defining: IntCoeffs, lo: int, hi: int, den: int) -> IsolatedRoot:
    lo, hi, den = _bisect(defining, lo, hi, den, Fraction(1))
    # snap an integer root to exact form: m, the least integer above lo/den,
    # is the only one that can lie strictly inside (lo/den, hi/den), at most
    # 1 wide; non-integer rational roots of degree >= 2 keep their interval
    m = lo // den + 1
    if m * den < hi and eval_int_scaled(defining, m) == 0:
        return IsolatedRoot(defining, Fraction(m), Fraction(m))
    return IsolatedRoot(defining, Fraction(lo, den), Fraction(hi, den))


def integer_solutions(p: RatPolynomial, values) -> list[list[int]]:
    """For each integer v in `values`, in order, all integers m with
    p(m) = v, ascending.  p is cleared once to c/d; then either each v is
    lifted, `_integer_roots(c - v d)`, or one scan of the integers |m| < B
    puts m into v's list when c(m) = v d.

    B is `_fujiwara_bound` of c with c_0 replaced by the larger of
    |c_0 - v_min d| and |c_0 - v_max d|: Fujiwara's bound, rounded up as
    there, does not decrease when some |c_k| below the lead grows; only
    c_0 - v d depends on v, and its absolute value is convex in v, so it is
    largest at an end of [v_min, v_max].  So every root of every c - v d
    lies in |z| < B.  The scan is taken when its 2B - 1 integers are at
    most _SCAN_PER_LIFT per value: at degrees 1-8 a lifted value cost
    9-25 us and a scanned integer 0.4-1.1 us, per-value bookkeeping
    included (200 targets, 2-vCPU x86_64), a ratio of 17-24.
    """
    if p.degree < 1:
        raise ValueError("p must be nonconstant")
    c, d = scale_to_integer(p)
    values = tuple(values)
    ends = [abs(c[0] - v * d) for v in (min(values, default=0), max(values, default=0))]
    bound = _fujiwara_bound([max(ends)] + c[1:])
    if 2 * bound > _SCAN_PER_LIFT * len(values):
        return [_integer_roots(_plus(c, -v * d)) for v in values]
    found = {v: [] for v in values}
    for m in range(1 - bound, bound):
        v, r = divmod(eval_int_scaled(c, m), d)
        if not r and v in found:
            found[v].append(m)
    return [list(found[v]) for v in values]


def _integer_roots(c: list[int]) -> list[int]:
    """The integer roots of the nonconstant primitive list c, ascending, by
    p-adic lifting (Loos 1983).

    Let q be the first odd prime not dividing lc(c) at which every root r
    of c mod q is simple, c'(r) != 0 mod q (c mod q need not be
    square-free).  Each r is lifted by Newton steps r <- r - c(r)/c'(r) mod
    q^(2^k) until the modulus exceeds 2B, B = _fujiwara_bound(c), and its
    symmetric residue is kept if c vanishes there exactly.  Complete: an
    integer root z is a simple root mod q, so its lift is unique and is
    z mod q^(2^k), which is z as |z| < B.  A repeated root fails at every
    q, a square-free c at each q | disc(c): for g - 1 = t prod (x - a_i) at
    each q leaving two anchors congruent.  A scan stops at its first multiple
    root, but the budget charges a failed q a full scan, q (n + 1) Horner
    steps, so the primes drawn do not change: c becomes _sturm(c)[0], its
    square-free part, once the charges pass (n + 1)^3, less than the chain
    costs.  After that only the q dividing lc(c) disc(c) fail.
    """
    dc, budget = _deriv(c), len(c) ** 2
    for q in primes_stream(3):
        if c[-1] % q:
            cq, roots = [v % q for v in c], []
            for r in (r for r in range(q) if _eval_mod(cq, r, q) == 0):
                if _eval_mod(dc, r, q) == 0:
                    break
                roots.append(r)
            else:
                break
            budget -= q
            if budget < 0:
                c, budget = _sturm(c)[0], math.inf
                dc = _deriv(c)
    limit = 2 * _fujiwara_bound(c)
    out = []
    for r in roots:
        m = q
        while m <= limit:
            m *= m
            r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
        if r > m // 2:
            r -= m
        if eval_int_scaled(c, r) == 0:
            out.append(r)
    return sorted(out)


def _sign_at(cq: list[int], r: IsolatedRoot) -> int:
    """Exact sign of a nonzero q at the algebraic point r (0 iff q(r) = 0),
    given as the integer coefficients cq of a positive multiple of q: the
    Cauchy index of p'q/p, which depends only on p'q mod p, zero iff p | q."""
    if r.is_exact:
        return _sign(_eval_scaled_frac(cq, r.lo.numerator, r.lo.denominator))
    p = list(r.defining)
    rem, s = _pseudo_rem(_mul(_deriv(p), cq), p)
    return _count(_chain(p, [s * v for v in rem]), r.lo, r.hi) if rem else 0


def _same_real(a: IsolatedRoot, b: IsolatedRoot) -> bool:
    """Whether a and b are one real: whether gcd(a.defining, b.defining) has
    a root in the intersection of their closed intervals.  At a single point
    it does iff both lists vanish there.  Only an exact entry has a root of
    its list at an endpoint, so an intersection of positive length holds
    none at its ends, and a Sturm count of the gcd on it decides."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo == hi:
        return not any(_eval_scaled_frac(e.defining, lo.numerator, lo.denominator) for e in (a, b))
    return lo < hi and _count(_sturm(_chain(a.defining, b.defining)[-1]), lo, hi) > 0


def _separate(entries: list[tuple[IsolatedRoot, object]]) -> list[tuple[IsolatedRoot, object]]:
    """Refine (root, tag) pairs, the roots of distinct reals, until their
    intervals are pairwise disjoint; ascending, each tag kept with its root.
    An overlapping pair that is one real raises TheoremViolation."""

    def key(e: tuple[IsolatedRoot, object]) -> tuple[Fraction, Fraction]:
        return e[0].lo, e[0].hi

    entries = sorted(entries, key=key)
    changed = True
    while changed:
        changed = False
        for i in range(len(entries) - 1):
            (a, a_tag), (b, b_tag) = entries[i], entries[i + 1]
            if a.hi >= b.lo:
                if _same_real(a, b):
                    raise TheoremViolation(f"{a} and {b} are the same real")
                entries[i] = a.refine((a.hi - a.lo) / 4), a_tag
                entries[i + 1] = b.refine((b.hi - b.lo) / 4), b_tag
                changed = True
        entries.sort(key=key)
    return entries


def sublevel_measure(p: RatPolynomial, K, tol) -> tuple[Fraction, Fraction]:
    """Bracket the Lebesgue measure of {x real : |p(x)| <= K} as (lower, upper).

    The set is a finite union of closed intervals whose endpoints are
    roots of p - K or p + K; those roots are isolated exactly and refined
    until the bracket is at most `tol` wide.
    """
    K, tol = Fraction(K), Fraction(tol)
    if p.degree < 1:
        raise ValueError("p must be nonconstant")
    if K <= 0 or tol <= 0:
        raise ValueError("K and tol must be positive")
    boundary = isolate_roots(p - K) + isolate_roots(p + K)
    boundary = [r for r, _ in _separate([(r, None) for r in boundary])]

    def inside_between(i: int) -> bool:
        a, b = boundary[i], boundary[i + 1]
        sample = (a.hi + b.lo) / 2
        return abs(evaluate(p, sample)) <= K

    contributing = [i for i in range(len(boundary) - 1) if inside_between(i)]
    if not contributing:
        return Fraction(0), Fraction(0)
    involved = sorted({i for i in contributing} | {i + 1 for i in contributing})
    target = tol / (2 * len(involved))
    for i in involved:
        boundary[i] = boundary[i].refine(target)
    lower = Fraction(0)
    upper = Fraction(0)
    for i in contributing:
        a, b = boundary[i], boundary[i + 1]
        lower += b.lo - a.hi
        upper += b.hi - a.lo
    return lower, upper
