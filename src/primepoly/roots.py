"""Exact root machinery in integer arithmetic.

Real roots come from Sturm sequences: rational polynomials are cleared to
primitive integer coefficient lists, one signed remainder sequence
`_chain(a, b)` uses primitive pseudo-remainders (no coefficient blowup, no
floating point), and interval endpoints stay dyadic because every
subdivision is a bisection.  They give counts of distinct real roots on an
interval, root isolation with on-demand refinement, and two-sided brackets
for the Lebesgue measure of {x : |p(x)| <= K}.  The exact sign of a
polynomial at an isolated algebraic point comes from one Sturm-Tarski query
on the isolating interval, not from refining it.

Complete integer solution sets of p(x) = v need no real roots: they come
from p-adic lifting (Loos, "Computing rational zeros of integral polynomials
by p-adic expansion", SIAM J. Comput. 1983), see `integer_solutions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import RatPolynomial, eval_int_scaled, evaluate
from .primes import primes_stream

IntCoeffs = tuple[int, ...]


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


def _to_int(p: RatPolynomial) -> list[int]:
    """Primitive integer coefficients of a positive multiple of p ([] for 0)."""
    d = math.lcm(*(v.denominator for v in p.coeffs))
    return _primitive([v.numerator * (d // v.denominator) for v in p.coeffs])


def _deriv(c: list[int]) -> list[int]:
    return _strip([i * v for i, v in enumerate(c) if i > 0])


def _eval_scaled_frac(c: list[int], num: int, den: int) -> int:
    """den^deg * p(num/den), exact in integers (den >= 1)."""
    if not c:
        return 0
    if den == 1:
        return eval_int_scaled(c, num)
    acc = c[-1]
    dp = 1
    for v in reversed(c[:-1]):
        dp *= den
        acc = acc * num + v * dp
    return acc


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


def _var_at(chain: list[list[int]], num: int, den: int) -> int:
    return _variations([_sign(_eval_scaled_frac(c, num, den)) for c in chain])


def _count(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """V(lo) - V(hi), lo < hi.  For _chain(c, c') it counts the distinct roots
    in (lo, hi] of a square-free c, endpoints roots or not (at a simple root
    x0, c takes the sign of c' just right of x0, so V(x0) = V(x0+)), and
    without a root at lo or hi the distinct roots in (lo, hi) of any c.  For
    _chain(p, p'q), neither end a root of p, it is the Tarski query: the sum
    of sign q(x) over the roots x of p in (lo, hi) (Sturm-Tarski theorem)."""
    return _var_at(chain, lo.numerator, lo.denominator) - _var_at(chain, hi.numerator, hi.denominator)


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return out


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b of primitive a and b with b | a; it lies in Z[x]
    and is primitive by Gauss's lemma."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(q))):
        q[shift] = coef = a[shift + len(b) - 1] // b[-1]
        for i, bv in enumerate(b):
            a[shift + i] -= coef * bv
    return q


def _gcd_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """A gcd of a and b in GF(q)[x], q prime (inputs reduced mod q)."""
    while b:
        inv = pow(b[-1], -1, q)
        a = list(a)
        while len(a) >= len(b):
            coef = a[-1] * inv % q
            shift = len(a) - len(b)
            for i, bv in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * bv) % q
            _strip(a)
        a, b = b, a
    return a


def _squarefree_mod(c: list[int], dc: list[int], q: int) -> bool:
    """Whether c mod q is square-free, for a prime q not dividing lc(c) (dc = c')."""
    return len(_gcd_mod([v % q for v in c], _strip([v % q for v in dc]), q)) == 1


def _squarefree(c: list[int]) -> tuple[list[int], list[int], int]:
    """(s, s', q) for nonzero c: s is the square-free primitive part of c
    with the sign of lc(c), and q the first odd prime not dividing lc(s) with
    s mod q square-free; one exists, as the bad primes divide lc(s) * disc(s)."""
    c = _primitive(c)
    dc = _deriv(c)
    q = next(q for q in primes_stream(3) if c[-1] % q)
    if len(c) <= 2 or _squarefree_mod(c, dc, q):
        return c, dc, q  # linear c is square-free; a square factor would survive mod q
    g = _primitive(_chain(c, dc)[-1])
    if len(g) > 1:
        c = _exact_div(c, g if g[-1] > 0 else [-v for v in g])
        dc = _deriv(c)
    q = next(q for q in primes_stream(3) if c[-1] % q and _squarefree_mod(c, dc, q))
    return c, dc, q


def _cauchy_bound(c: list[int]) -> int:
    """Integer B with every real root strictly inside (-B, B)."""
    lead = abs(c[-1])
    m = max((abs(v) for v in c[:-1]), default=0)
    return 1 + m // lead + 1


def _eval_mod(c: list[int], x: int, m: int) -> int:
    acc = 0
    for v in reversed(c):
        acc = (acc * x + v) % m
    return acc


# ---------------------------------------------------------------------------
# Public types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsolatedRoot:
    """A real algebraic number: a square-free defining polynomial, as its
    primitive integer coefficients, plus a rational isolating interval
    containing exactly one of its roots.

    A rational root is stored exactly as a degenerate interval lo == hi;
    otherwise neither endpoint is a root.
    """

    defining: IntCoeffs
    lo: Fraction
    hi: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, width: Fraction) -> "IsolatedRoot":
        """Bisect until the interval is at most `width` wide (or exact)."""
        if self.is_exact:
            return self
        c = self.defining
        lo, hi = self.lo, self.hi
        s_lo = _sign(_eval_scaled_frac(c, lo.numerator, lo.denominator))
        while hi - lo > width:
            mid = (lo + hi) / 2
            s_mid = _sign(_eval_scaled_frac(c, mid.numerator, mid.denominator))
            if s_mid == 0:
                return IsolatedRoot(c, mid, mid)
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        return IsolatedRoot(c, lo, hi)

    def __str__(self) -> str:
        if self.is_exact:
            return f"={self.lo}"
        return f"({self.lo},{self.hi})"


@dataclass(frozen=True)
class MeasureBracket:
    """Two-sided rational bracket for a Lebesgue measure."""

    lower: Fraction
    upper: Fraction


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def sturm_count(p: RatPolynomial, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    c, dc, _ = _squarefree(_to_int(p))
    return _count(_chain(c, dc), lo, hi)


def count_real_roots(p: RatPolynomial) -> int:
    """Number of distinct real roots of p over the whole real line."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    c, dc, _ = _squarefree(_to_int(p))
    bound = Fraction(_cauchy_bound(c))
    return _count(_chain(c, dc), -bound, bound)


def isolate_roots(p: RatPolynomial) -> list[IsolatedRoot]:
    """Disjoint isolating intervals, one per distinct real root, ascending.

    Intervals are refined to width at most 1; rational roots found along
    the way are returned as exact (degenerate) intervals.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    c, dc, _ = _squarefree(_to_int(p))
    if len(c) <= 1:
        return []
    defining = tuple(c)
    if len(c) == 2:
        return [IsolatedRoot(defining, Fraction(-c[0], c[1]), Fraction(-c[0], c[1]))]
    chain = _chain(c, dc)
    bound = _cauchy_bound(c)

    def var(x: Fraction) -> int:
        return _var_at(chain, x.numerator, x.denominator)

    found: list[IsolatedRoot] = []
    stack = [(Fraction(-bound), Fraction(bound), var(Fraction(-bound)), var(Fraction(bound)))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1:
            found.append(_refine_new(defining, lo, hi, Fraction(1)))
            continue
        mid = (lo + hi) / 2
        if _eval_scaled_frac(c, mid.numerator, mid.denominator) == 0:
            delta = (hi - lo) / 4
            while True:
                a, b = mid - delta, mid + delta
                if (
                    _eval_scaled_frac(c, a.numerator, a.denominator) != 0
                    and _eval_scaled_frac(c, b.numerator, b.denominator) != 0
                    and var(a) - var(b) == 1
                ):
                    break
                delta /= 2
            found.append(IsolatedRoot(defining, mid, mid))
            stack.append((lo, a, vlo, var(a)))
            stack.append((b, hi, var(b), vhi))
        else:
            vmid = var(mid)
            stack.append((lo, mid, vlo, vmid))
            stack.append((mid, hi, vmid, vhi))
    found.sort(key=lambda r: (r.lo, r.hi))
    return found


def _refine_new(defining: IntCoeffs, lo: Fraction, hi: Fraction, width: Fraction) -> IsolatedRoot:
    root = IsolatedRoot(defining, lo, hi).refine(width)
    if not root.is_exact:
        # snap integer roots to exact form; non-integer rational roots of
        # degree >= 2 keep their interval (nothing downstream needs more)
        m = math.floor(root.lo) + 1
        while m < root.hi:
            if eval_int_scaled(defining, m) == 0:
                return IsolatedRoot(defining, Fraction(m), Fraction(m))
            m += 1
    return root


def integer_solutions(p: RatPolynomial, v) -> list[int]:
    """All integers m with p(m) = v, ascending, by p-adic lifting (Loos 1983).

    Let c be the square-free primitive part of p - v and q the first odd
    prime not dividing lc(c) with c mod q square-free.  Each root of c mod q
    is lifted by Newton steps r <- r - c(r)/c'(r) mod q^(2^k) until the
    modulus exceeds 2B, with B = _cauchy_bound(c), and its symmetric residue
    is kept if c vanishes there exactly.  Complete: an integer root z is a
    simple root mod q, so its lift is unique and is z mod q^(2^k), and
    |z| < B makes the symmetric residue z itself.  Nothing isolates real
    roots or enumerates divisors, so huge coefficients are harmless.
    """
    if not p.degree >= 1:
        raise ValueError("p must be nonconstant")
    c, dc, q = _squarefree(_to_int(p - Fraction(v)))
    limit = 2 * _cauchy_bound(c)
    out = []
    for r in range(q):
        if _eval_mod(c, r, q):
            continue
        m = q
        while m <= limit:
            m *= m
            r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
        if r > m // 2:
            r -= m
        if eval_int_scaled(c, r) == 0:
            out.append(r)
    return sorted(out)


def sign_at(q: RatPolynomial, r: IsolatedRoot) -> int:
    """Exact sign of q at the algebraic point r (0 iff q vanishes there)."""
    if q.is_zero:
        return 0
    if r.is_exact:
        val = evaluate(q, r.lo)
        return (val > 0) - (val < 0)
    p = list(r.defining)
    return _count(_chain(p, _mul(_deriv(p), _to_int(q))), r.lo, r.hi)


def _separate(entries: list[tuple[IsolatedRoot, object]]) -> list[tuple[IsolatedRoot, object]]:
    """Refine (root, tag) pairs, the roots of distinct reals, until their
    intervals are pairwise disjoint; ascending, each tag kept with its root."""

    def key(e: tuple[IsolatedRoot, object]) -> tuple[Fraction, Fraction]:
        return e[0].lo, e[0].hi

    entries = sorted(entries, key=key)
    changed = True
    while changed:
        changed = False
        for i in range(len(entries) - 1):
            (a, a_tag), (b, b_tag) = entries[i], entries[i + 1]
            if a.hi >= b.lo and not (a.is_exact and b.is_exact):
                entries[i] = a.refine(a.width / 4), a_tag
                entries[i + 1] = b.refine(b.width / 4), b_tag
                changed = True
        entries.sort(key=key)
    return entries


def sublevel_measure(p: RatPolynomial, K, tol) -> MeasureBracket:
    """Bracket the Lebesgue measure of {x real : |p(x)| <= K}.

    The set is a finite union of closed intervals whose endpoints are
    roots of p - K or p + K; those roots are isolated exactly and refined
    until the bracket is at most `tol` wide.
    """
    K, tol = Fraction(K), Fraction(tol)
    if not p.degree >= 1:
        raise ValueError("p must be nonconstant")
    if K <= 0 or tol <= 0:
        raise ValueError("K and tol must be positive")
    boundary = isolate_roots(p - K) + isolate_roots(p + K)
    if not boundary:
        return MeasureBracket(Fraction(0), Fraction(0))
    boundary = [r for r, _ in _separate([(r, None) for r in boundary])]

    def inside_between(i: int) -> bool:
        a, b = boundary[i], boundary[i + 1]
        sample = (a.hi + b.lo) / 2
        return abs(evaluate(p, sample)) <= K

    contributing = [i for i in range(len(boundary) - 1) if inside_between(i)]
    if not contributing:
        return MeasureBracket(Fraction(0), Fraction(0))
    involved = sorted({i for i in contributing} | {i + 1 for i in contributing})
    target = tol / (2 * len(involved))
    for i in involved:
        boundary[i] = boundary[i].refine(target)
    lower = Fraction(0)
    upper = Fraction(0)
    for i in contributing:
        a, b = boundary[i], boundary[i + 1]
        lower += max(Fraction(0), b.lo - a.hi)
        upper += b.hi - a.lo
    return MeasureBracket(lower, upper)
