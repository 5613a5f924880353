"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from primepoly import cli, roots
from primepoly.badpoints import TAG_ORDER, BadPoint
from primepoly.bounds import BoundCheck, ConstantSolution, SetPairData, truncate_decimal
from primepoly.errors import BudgetExhausted, TheoremViolation
from primepoly.exceptional import _LIST_DATA, ExceptionalHit, SearchReport, equivalent_to_list
from primepoly.poly import RatPolynomial, _eval_scaled_frac, _mul, compose_affine, eval_int_scaled, evaluate
from primepoly.primes import (
    _SMALL_PRIMES,
    STATUS_COMPOSITE,
    STATUS_PRIME,
    STATUS_PROBABLE,
    ProgressionHit,
    _jacobi,
    _strong_lucas_probable_prime,
    is_prime,
)
from primepoly.roots import (
    IsolatedRoot,
    _cauchy_bound,
    _chain,
    _count,
    _deriv,
    _eval_mod,
    _fujiwara_bound,
    _separate,
    _sign,
    _sturm,
    _to_int,
    _var_at,
    integer_solutions,
    isolate_roots,
)


def random_int_poly(rng: random.Random, degree: int, bound: int) -> RatPolynomial:
    """Random integer polynomial of exactly the given degree."""
    lead = rng.choice([c for c in range(-bound, bound + 1) if c != 0])
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)] + [lead]
    return RatPolynomial(coeffs)


def random_rat_poly(rng: random.Random, degree: int, bound: int) -> RatPolynomial:
    """Random rational polynomial of exactly the given degree."""
    def rat() -> Fraction:
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    lead = rat()
    while lead == 0:
        lead = rat()
    return RatPolynomial([rat() for _ in range(degree)] + [lead])


def power(p: RatPolynomial, n: int) -> RatPolynomial:
    """p to the n-th power as a product of n copies of p (n >= 0)."""
    return math.prod([p] * n, start=RatPolynomial([1]))


def binomial_coefficients(p: RatPolynomial) -> list[Fraction]:
    """Reference for `is_integer_valued`: the coefficients c_k of
    p = sum c_k C(x, k), by the triangular system of the values p(0), ...,
    p(n): p(m) = sum_{k<=m} c_k C(m, k), so c_m = p(m) - sum_{k<m} c_k C(m, k).
    p is integer-valued iff every c_k is an integer."""
    cs: list[Fraction] = []
    for m in range(len(p)):
        cs.append(evaluate(p, m) - sum(c * math.comb(m, k) for k, c in enumerate(cs)))
    return cs


def brute_integer_solutions(p: RatPolynomial, v, limit: int) -> list[int]:
    """Oracle: scan |m| <= limit for p(m) = v."""
    target = Fraction(v)
    return [m for m in range(-limit, limit + 1) if evaluate(p, m) == target]


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
            if evaluate(p, m) == target:
                out.add(m)
            m += 1
    return sorted(out)


def uv_strong_lucas_probable_prime(n: int) -> bool:
    """Reference for `primes._strong_lucas_probable_prime`: the same test by
    the U and V sequences together, with the halving steps of a 1 bit
    (U_(2k+1) = (P U_2k + V_2k)/2, V_(2k+1) = (D U_2k + P V_2k)/2 mod n)."""
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    delta = n + 1
    s = (delta & -delta).bit_length() - 1
    t = delta >> s
    u, v, qk = 1, p, q
    for bit in bin(t)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u & 1:
                u += n
            if v & 1:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def strong_probable_prime(n: int, base: int) -> bool:
    """Reference strong test of n >= 2 to any base (`primes._strong_probable_prime`
    is the base-2 case)."""
    if base % n == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 2**64


def three_tier_classify(n: int) -> tuple[str, str]:
    """Reference for `primes._classify`: trial division below 97**2, the
    strong test to the first twelve prime bases from 97**2 to 2**64, where
    no composite passes all twelve, and BPSW above."""
    if n < 2:
        return STATUS_COMPOSITE, "unit_or_zero"
    for p in _SMALL_PRIMES:
        if n == p:
            return STATUS_PRIME, "trial_division"
        if n % p == 0:
            return STATUS_COMPOSITE, "trial_division"
    if n < _SMALL_PRIMES[-1] ** 2:
        return STATUS_PRIME, "trial_division"
    if n < 1 << 64:
        for a in _MR_WITNESSES:
            if not strong_probable_prime(n, a):
                return STATUS_COMPOSITE, "miller_rabin_det"
        return STATUS_PRIME, "miller_rabin_det"
    bpsw = strong_probable_prime(n, 2) and math.isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)
    return (STATUS_PROBABLE if bpsw else STATUS_COMPOSITE), "bpsw"


def fraction_mul(p: RatPolynomial, q) -> RatPolynomial:
    """Reference for `RatPolynomial.__mul__`: the convolution on `Fraction`s,
    skipping the zero coefficients of p; q may be a rational scalar."""
    q = q if isinstance(q, RatPolynomial) else RatPolynomial((q,))
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return RatPolynomial(out)


def anchor_multiplier_poly(anchors, t: int) -> RatPolynomial:
    """Reference for the g of `constructions._multiplier_poly`: prod(x - a)
    multiplied out one anchor at a time on an integer list, then
    g = 1 + t*prod(x - a)."""
    c = [1]  # prod(x - a), ascending integer coefficients
    for a in anchors:
        c = [u - a * v for u, v in zip([0] + c, c + [0])]
    return RatPolynomial([1 + t * c[0]] + [t * v for v in c[1:]])


def rational_nested(coeffs, inners) -> RatPolynomial:
    """Reference for `poly._nested`: c_0 + l_0*(c_1 + ... + l_(n-1)*c_n) by
    one Horner loop on `RatPolynomial`s, each l_k = inners[k] linear."""
    acc = RatPolynomial(coeffs[-1:])
    for c, inner in zip(reversed(coeffs[:-1]), reversed(inners)):
        acc = acc * inner + c
    return acc


def lagrange_interpolate(points, values) -> RatPolynomial:
    """Reference for `poly._interpolate`: the sum over k of
    v_k * prod_(j != k) (x - x_j)/(x_k - x_j)."""
    h = RatPolynomial()
    for t, v in zip(points, values):
        term = RatPolynomial((v,))
        for s in points:
            if s != t:
                term = term * RatPolynomial((Fraction(-s, t - s), Fraction(1, t - s)))
        h = h + term
    return h


def fraction_evaluate(p: RatPolynomial, x) -> Fraction:
    """Reference for `evaluate`: Horner on `Fraction`s."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def forked_eval_scaled_frac(c: list[int], num: int, den: int) -> int:
    """Reference for `_eval_scaled_frac` on nonempty c: the plain integer
    Horner when den == 1, else the power of den grown one step per term."""
    if den == 1:
        return eval_int_scaled(c, num)
    acc = c[-1]
    dp = 1
    for v in reversed(c[:-1]):
        dp *= den
        acc = acc * num + v * dp
    return acc


def record_types(x):
    """The tree of types of x.  A record (a NamedTuple) equals a bare tuple
    of the same values, so a test that compares records compares these too."""
    if isinstance(x, (tuple, list)):
        return type(x), [record_types(v) for v in x]
    return type(x)


def fraction_refine(root: IsolatedRoot, width: Fraction) -> IsolatedRoot:
    """Reference for `IsolatedRoot.refine`: bisection on `Fraction` endpoints."""
    if root.is_exact:
        return root
    c = root.defining
    lo, hi = root.lo, root.hi
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


def _fraction_refine_new(defining, lo: Fraction, hi: Fraction, width: Fraction) -> IsolatedRoot:
    root = fraction_refine(IsolatedRoot(defining, lo, hi), width)
    if not root.is_exact:
        m = math.floor(root.lo) + 1
        while m < root.hi:
            if eval_int_scaled(defining, m) == 0:
                return IsolatedRoot(defining, Fraction(m), Fraction(m))
            m += 1
    return root


def fraction_isolate_roots(p: RatPolynomial) -> list[IsolatedRoot]:
    """Reference for `isolate_roots`: the same Sturm bisection with every
    endpoint a `Fraction`, the zero-at-midpoint window and the integer snap
    written on `Fraction`s."""
    chain = _sturm(_to_int(p))
    c = chain[0]
    if len(c) <= 1:
        return []
    defining = tuple(c)
    if len(c) == 2:
        return [IsolatedRoot(defining, Fraction(-c[0], c[1]), Fraction(-c[0], c[1]))]
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
            found.append(_fraction_refine_new(defining, lo, hi, Fraction(1)))
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


def pq_chain_sign_at(cq: list[int], r: IsolatedRoot) -> int:
    """Reference for `_sign_at`: the Tarski query on the chain of p and p'q
    itself, p'q not reduced mod p."""
    if r.is_exact:
        return _sign(_eval_scaled_frac(cq, r.lo.numerator, r.lo.denominator))
    p = list(r.defining)
    return _count(_chain(p, _mul(_deriv(p), cq)), r.lo, r.hi)


def full_scan_integer_roots(c: list[int]) -> list[int]:
    """Reference for `_integer_roots`: each prime lists every root of c mod q
    before c' is checked at them.  It draws its primes from
    `roots.primes_stream` and reduces by `roots._sturm`, looked up at each
    call, so a test that replaces either sees both routines use it."""
    dc, budget = _deriv(c), len(c) ** 2
    for q in roots.primes_stream(3):
        if c[-1] % q:
            cq = [v % q for v in c]
            found = [r for r in range(q) if _eval_mod(cq, r, q) == 0]
            if all(_eval_mod(dc, r, q) for r in found):
                break
            budget -= q
            if budget < 0:
                c, budget = roots._sturm(c)[0], math.inf
                dc = _deriv(c)
    limit = 2 * _fujiwara_bound(c)
    out = []
    for r in found:
        m = q
        while m <= limit:
            m *= m
            r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
        if r > m // 2:
            r -= m
        if eval_int_scaled(c, r) == 0:
            out.append(r)
    return sorted(out)


def power_2k_factorial_bound(data: SetPairData) -> BoundCheck:
    """Reference for `factorial_lower_bound`: D >= (2/3)^s (1! ... (2k-1)!)^(s/(2k))
    for |a| = k <= s = |b|, compared after raising both sides to the power 2k."""
    k, s = len(data.a), len(data.b)
    fact = math.prod(math.factorial(j) for j in range(1, 2 * k))
    bound_power = Fraction(2 ** (2 * k * s) * fact ** s, 3 ** (2 * k * s))
    return BoundCheck(data, bound_power, 2 * k, data.D ** (2 * k) >= bound_power)


def fraction_ln_interval(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Reference for `_ln_interval`: the atanh series of ln(x), x >= 1, on
    `Fraction`s, summed until the next term is below eps/4."""
    z = (x - 1) / (x + 1)
    z2 = z * z
    total = Fraction(0)
    term = z
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= z2
        k += 1
        nxt = term / (2 * k + 1)
        if nxt < eps / 4:
            return 2 * total, 2 * (total + nxt / (1 - z2))


def _fraction_phi_interval(t: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = fraction_ln_interval(t, eps)
    return t * (2 * lo + Fraction(1, 2)), t * (2 * hi + Fraction(1, 2))


def _fraction_rhs_interval(eps: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = fraction_ln_interval(Fraction(2), eps)
    return 2 * lo - Fraction(1, 2), 2 * hi - Fraction(1, 2)


def fraction_solve_constant(digits: int) -> ConstantSolution:
    """Reference for `solve_constant`: the same bisection on `Fraction`
    endpoints, each comparison decided by rational brackets from the exact
    atanh series, refined until they separate."""
    width = min(Fraction(1, 10 ** (digits + 3)), Fraction(1, 10 ** 13))
    eps = width / 1000
    lo, hi = Fraction(1), Fraction(2)
    rhs = _fraction_rhs_interval(eps)

    def compare(t: Fraction) -> int:
        e, (r_lo, r_hi) = eps, rhs
        while True:
            p_lo, p_hi = _fraction_phi_interval(t, e)
            if p_hi < r_lo:
                return -1
            if p_lo > r_hi:
                return 1
            e /= 16
            r_lo, r_hi = _fraction_rhs_interval(e)

    def decimals_agree(a: Fraction, b: Fraction) -> bool:
        return math.floor(a * 10 ** digits) == math.floor(b * 10 ** digits)

    while hi - lo > width or not (decimals_agree(lo, hi) and decimals_agree(1 + 1 / hi, 1 + 1 / lo)):
        mid = (lo + hi) / 2
        if compare(mid) < 0:
            lo = mid
        else:
            hi = mid

    mid = (lo + hi) / 2
    p_lo, p_hi = _fraction_phi_interval(mid, eps)
    r_lo, r_hi = rhs
    c_lo = 1 + 1 / hi
    return ConstantSolution(
        digits=digits,
        t_lo=lo,
        t_hi=hi,
        c_lo=c_lo,
        c_hi=1 + 1 / lo,
        t_star=truncate_decimal(lo, digits),
        c=truncate_decimal(c_lo, digits),
        residual=max(abs(p_hi - r_lo), abs(p_lo - r_hi)),
    )


def product_bad_points(g: RatPolynomial, h: RatPolynomial) -> list[BadPoint]:
    """Reference for `bad_points`: keep each root of g -+ 1 and h -+ 1 where
    the product f = g*h exceeds 1, tested on f - 1 itself by the unreduced
    Tarski query `pq_chain_sign_at`."""
    f_minus_1 = g * h - 1
    kept = [
        (root, tag)
        for tag, poly in zip(TAG_ORDER, (g - 1, g + 1, h - 1, h + 1))
        for root in isolate_roots(poly)
        if pq_chain_sign_at(_to_int(f_minus_1), root) == 1
    ]
    return [BadPoint(root=root, tags=(tag,)) for root, tag in _separate(kept)]


def statement41_pairs(seed: int):
    """The (g, h) pairs of `statement41 --random --seed seed`, in draw order."""
    rng = random.Random(seed)
    while True:
        dg, dh = rng.randint(1, 4), rng.randint(1, 4)
        gc = [rng.randint(-5, 5) for _ in range(dg)] + [rng.choice([c for c in range(-5, 6) if c])]
        hc = [rng.randint(-5, 5) for _ in range(dh)] + [rng.choice([c for c in range(-5, 6) if c])]
        yield RatPolynomial(gc), RatPolynomial(hc)


def serial_statement41(args) -> tuple[dict, int]:
    """Reference handler for `statement41 --random`: one loop in this
    process that checks each pair before it draws the next, so the first
    failing trial raises.  It calls `cli.block_report`, looked up at each
    call, and a test installs it as `cli._cmd_statement41` to get the bytes
    of the chunked handler from the serial loop."""
    max_k = 0
    for g, h in itertools.islice(statement41_pairs(args.seed), args.trials):
        max_k = max(max_k, cli.block_report(g, h).k)
    return {
        "trials": args.trials,
        "seed": args.seed,
        "checked": args.trials,
        "max_k": max_k,
        "violations": [],
        "pass": True,
    }, cli.EXIT_OK


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
                return ProgressionHit(t, tuple(verdicts))
    raise BudgetExhausted(
        f"no multiplier with |t| <= {t_max} makes 1 + t*{' and 1 + t*'.join(map(str, Ms))} prime",
        frontier=t_max,
    )


def brute_search_exceptional(degree: int, coeff_bound: int) -> SearchReport:
    """Reference for `search_exceptional`: scan every polynomial of the
    coefficient box, lead outermost, and solve f = 1 and f = -1 for each
    one that passes a parity screen."""
    span = range(-coeff_bound, coeff_bound + 1)
    hits = []
    scanned = 0
    for lead in span:
        if lead == 0:
            continue
        for rest in itertools.product(span, repeat=degree):
            coeffs = list(rest) + [lead]
            scanned += 1
            # |f(m)| = 1 needs f(m) odd, and f(m) mod 2 only depends on m mod 2
            if coeffs[0] % 2 == 0 and sum(coeffs) % 2 == 0:
                continue
            f = RatPolynomial(coeffs)
            eplus, eminus = integer_solutions(f, (1, -1))
            if not eplus:
                continue  # f = -1 has at most `degree` solutions, so E <= degree
            E = len(eplus) + len(eminus)
            if E <= degree:
                continue
            if degree >= 4:
                raise TheoremViolation(f"degree-{degree} polynomial {f} has E={E} > degree")
            eq = equivalent_to_list(f)
            if eq is None:
                raise TheoremViolation(f"exceptional polynomial {f} (E={E}) is not list-equivalent")
            hits.append(ExceptionalHit(f, E, tuple(eplus), tuple(eminus), eq))
    return SearchReport(degree, coeff_bound, scanned, len(hits), tuple(hits))


def list_equivalent_candidates(degree: int, coeff_bound: int) -> list[RatPolynomial]:
    """All polynomials in the coefficient box that are list-equivalent;
    the oracle for the completeness direction of the search."""
    out = set()
    shift_limit = 3 * coeff_bound + 6
    for _, h in _LIST_DATA:
        if h.degree != degree:
            continue
        for sigma in (1, -1):
            for tau in (1, -1):
                for a in range(-shift_limit, shift_limit + 1):
                    cand = compose_affine(h, sigma, tau, a)
                    if all(abs(c) <= coeff_bound for c in cand):
                        out.add(cand)
    return sorted(out)
