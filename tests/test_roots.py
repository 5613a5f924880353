import math
import random
import signal
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from primepoly import roots
from primepoly.constructions import build_n_plus_1, build_p_plus
from primepoly.errors import TheoremViolation
from primepoly.poly import RatPolynomial, from_binomial
from primepoly.roots import (
    IsolatedRoot,
    _chain,
    _count,
    _count_roots,
    _deriv,
    _fujiwara_bound,
    _integer_roots,
    _separate,
    _sign_at,
    _sturm,
    _to_int,
    _var_at,
    _var_coeffs,
    integer_solutions,
    isolate_roots,
    sublevel_measure,
)

from helpers import (
    brute_integer_solutions,
    fraction_isolate_roots,
    fraction_refine,
    full_scan_integer_roots,
    power,
    pq_chain_sign_at,
    record_types,
    random_int_poly,
    random_rat_poly,
    sturm_integer_solutions,
)

H2 = RatPolynomial([1, -3, 1])


def test_sturm_count_examples():
    assert _count(_sturm(_to_int(RatPolynomial([-2, 0, 1]))), F(0), F(2)) == 1
    assert _count(_sturm(_to_int(H2)), F(-10), F(10)) == 2
    assert _count(_sturm(_to_int(power(RatPolynomial([-1, 0, 1]), 2))), F(-2), F(2)) == 2  # distinct roots of (x^2-1)^2


def test_sturm_count_endpoint_conventions():
    p = RatPolynomial([0, -3, 1])  # roots 0 and 3
    assert _count(_sturm(_to_int(p)), F(-1), F(3)) == 2   # hi is a root: included
    assert _count(_sturm(_to_int(p)), F(0), F(3)) == 1    # lo is a root: excluded
    assert _count(_sturm(_to_int(p)), F(0), F(2)) == 0
    assert _count(_sturm(_to_int(p)), F(-1), F(0)) == 1


def test_sturm_count_validation():
    assert _count(_sturm(_to_int(RatPolynomial([7]))), F(0), F(1)) == 0


def test_isolate_roots_examples():
    roots = isolate_roots(RatPolynomial([-2, 0, 1]))
    assert len(roots) == 2
    neg, pos = roots
    neg, pos = neg.refine(F(1, 4)), pos.refine(F(1, 4))
    assert F(-2) < neg.lo < neg.hi < F(-1)
    assert F(1) < pos.lo < pos.hi < F(2)

    assert isolate_roots(RatPolynomial([1, 0, 1])) == []

    roots = isolate_roots(RatPolynomial([0, -3, 1]))
    assert [(r.lo, r.hi) for r in roots] == [(0, 0), (3, 3)]


def test_isolate_roots_multiplicity_and_rationals():
    # (x-1)^2 (x+2): distinct roots -2 and 1
    p = power(RatPolynomial([-1, 1]), 2) * RatPolynomial([2, 1])
    roots = isolate_roots(p)
    assert [(r.lo, r.hi) for r in roots] == [(-2, -2), (1, 1)]
    # linear with non-integer rational root
    roots = isolate_roots(RatPolynomial([-1, 3]))
    assert [(r.lo, r.hi) for r in roots] == [(F(1, 3), F(1, 3))]


def test_isolation_matches_sturm_on_random():
    rng = random.Random(77)
    for _ in range(120):
        p = random_int_poly(rng, rng.randint(1, 8), 9)
        roots = isolate_roots(p)
        assert len(roots) == _count_roots(_to_int(p))
        bound = 10 ** 4
        assert len([r for r in roots if -bound < r.lo]) == _count(_sturm(_to_int(p)), F(-bound), F(bound))
        for a, b in zip(roots, roots[1:]):
            assert a.hi <= b.lo or (a.hi < b.hi and a.lo < b.lo)


def test_refine_keeps_invariants():
    root = isolate_roots(RatPolynomial([-2, 0, 1]))[1]
    fine = root.refine(F(1, 2 ** 20))
    assert fine.hi - fine.lo <= F(1, 2 ** 20)
    assert root.lo <= fine.lo and fine.hi <= root.hi
    # endpoints are dyadic by construction
    for end in (fine.lo, fine.hi):
        den = end.denominator
        assert den & (den - 1) == 0


def test_refine_non_dyadic_endpoints_matches_fraction_bisection():
    # a hand-made interval over 6: bisection runs over a common denominator
    sqrt2 = IsolatedRoot((-2, 0, 1), F(4, 3), F(3, 2))
    for w in (F(1, 7), F(1, 3), F(1, 1000), F(1)):
        got, want = sqrt2.refine(w), fraction_refine(sqrt2, w)
        assert got == want and record_types(got) == record_types(want)
    fine = sqrt2.refine(F(1, 7))
    assert fine.hi - fine.lo <= F(1, 7) and fine.lo ** 2 < 2 < fine.hi ** 2
    # the first midpoint 17/12 is the root of (12x - 17)(x^2 + 1)
    r = IsolatedRoot((-17, 12, -17, 12), F(4, 3), F(3, 2))
    got, want = r.refine(F(1, 100)), fraction_refine(r, F(1, 100))
    assert got == want == IsolatedRoot(r.defining, F(17, 12), F(17, 12))
    assert record_types(got) == record_types(want)


_dyadic = st.builds(lambda k, e: F(k, 2 ** e), st.integers(-64, 64), st.integers(0, 6))


@st.composite
def _mixed_root_products(draw):
    """A product of linear factors over integer, dyadic and non-dyadic
    rational roots, some repeated, times a small random factor: midpoints
    land on roots, and integer roots end inside width-1 intervals."""
    roots = draw(st.lists(st.one_of(st.integers(-20, 20).map(F), _dyadic, _rationals), min_size=1, max_size=6))
    roots += draw(st.lists(st.sampled_from(roots), max_size=3))
    p = RatPolynomial(draw(st.lists(st.integers(-6, 6), max_size=3)) + [draw(_nonzero)])
    for r in roots:
        p = p * RatPolynomial([-r, 1])
    return p


@settings(max_examples=200, deadline=None)
@given(
    _mixed_root_products(),
    st.lists(st.fractions(min_value=F(1, 10 ** 6), max_value=2, max_denominator=10 ** 6), min_size=1, max_size=3),
)
@example(RatPolynomial([0, -1, 0, 1]), [F(1, 8)])             # 0 is the first midpoint
@example(RatPolynomial([-3, 1]) * RatPolynomial([-1, 0, 2]), [F(1, 3)])  # 3 sits inside (5/2, 7/2)
@example(power(RatPolynomial([-1, 1]), 2) * RatPolynomial([1, 1]) * RatPolynomial([-5, 4]), [F(1, 5)])
def test_isolate_roots_matches_fraction_bisection(p, widths):
    got = isolate_roots(p)
    assert [(r.defining, r.lo, r.hi) for r in got] == [(r.defining, r.lo, r.hi) for r in fraction_isolate_roots(p)]
    for r in got:
        for w in widths:
            got, want = r.refine(w), fraction_refine(r, w)
            assert got == want and record_types(got) == record_types(want)


def test_integer_solutions_examples():
    assert integer_solutions(H2, [1])[0] == [0, 3]
    assert integer_solutions(H2, [-1])[0] == [1, 2]
    assert integer_solutions(RatPolynomial([0, 0, 1]), [2])[0] == []
    for constant, values in ((5, [5]), (5, []), (0, [0, 1])):
        with pytest.raises(ValueError):
            integer_solutions(RatPolynomial([constant]), values)


def test_integer_solutions_huge_constant_term():
    # (x - 10^40)(x + 10^40 + 1): divisor enumeration of the constant
    # term would be hopeless, isolation is not
    a, b = 10 ** 40, -(10 ** 40) - 1
    p = RatPolynomial([-a, 1]) * RatPolynomial([-b, 1])
    assert integer_solutions(p, [0])[0] == [b, a]


def test_integer_solutions_against_brute_scan():
    rng = random.Random(88)
    for _ in range(60):
        p = random_int_poly(rng, rng.randint(1, 6), 9)
        v = rng.randint(-5, 5)
        got = integer_solutions(p, [v])[0]
        assert got == brute_integer_solutions(p, v, 1000)
        assert all(abs(m) <= 1000 for m in got)


_X = sympy.Symbol("x")


def _sympy_poly(p) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], _X)


def _sympy_integer_roots(p, v) -> list[int]:
    """Oracle: integer roots of p - v from sympy's factorisation over Q."""
    q = _sympy_poly(p - v)
    roots = set()
    for factor, _ in q.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            root = -b / a
            if root.is_integer:
                roots.add(int(root))
    return sorted(roots)


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_nonzero = _rationals.filter(lambda c: c != 0)


@st.composite
def _dense_polys(draw):
    """Degree 1-8, rational coefficients."""
    degree = draw(st.integers(1, 8))
    return RatPolynomial(draw(st.lists(_rationals, min_size=degree, max_size=degree)) + [draw(_nonzero)])


@st.composite
def _linear_products(draw):
    """lc * product of (x - r), roots integers (0 included) or rationals, repeats allowed."""
    roots = draw(st.lists(
        st.one_of(st.integers(-10 ** 6, 10 ** 6), st.just(0), _rationals),
        min_size=1, max_size=8,
    ))
    roots += draw(st.lists(st.sampled_from(roots), max_size=8 - len(roots)))
    p = RatPolynomial([draw(_nonzero)])
    for r in roots:
        p = p * RatPolynomial([-r, 1])
    return p


@settings(max_examples=300, deadline=None)
@given(st.one_of(_dense_polys(), _linear_products()), st.integers(-3, 3))
def test_integer_solutions_match_sympy(p, v):
    assert integer_solutions(p, [v])[0] == _sympy_integer_roots(p, v)
    assert integer_solutions(p + v, [v])[0] == _sympy_integer_roots(p, 0)


@st.composite
def _roots_far_inside_the_bound(draw):
    """Small rational roots, repeats allowed, times lead*x^k + big, so the
    Cauchy bound is about |big| and Fujiwara's about |big|^(1/k); often
    times x, so that 0 is a root."""
    roots = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=6))
    roots += draw(st.lists(st.sampled_from(roots), max_size=2))
    k, big = draw(st.integers(1, 4)), draw(st.integers(-2 ** 80, 2 ** 80).filter(lambda v: v != 0))
    p = RatPolynomial([big] + [0] * (k - 1) + [draw(st.integers(1, 3))])
    for r in roots + draw(st.lists(st.just(F(0)), max_size=2)):
        p = p * RatPolynomial([-r, 1])
    return p


@settings(max_examples=200, deadline=None)
@given(st.one_of(_roots_far_inside_the_bound(), _linear_products()))
@example(RatPolynomial([10 ** 30, 0, 0, 1]) * RatPolynomial([-1, 0, 2]))       # 2^j with j = 88
@example(RatPolynomial([0, 10 ** 30, 0, 0, 1]) * RatPolynomial([-1, 0, 2]))    # c(0) = 0: the full start
def test_isolate_roots_from_fujiwara_cells_matches_full_start(p):
    # fraction_isolate_roots bisects from (-B, B], B the Cauchy bound
    got = isolate_roots(p)
    assert [(r.defining, r.lo, r.hi) for r in got] == [(r.defining, r.lo, r.hi) for r in fraction_isolate_roots(p)]
    assert _count_roots(_to_int(p)) == len(got)


@pytest.mark.parametrize("n", [20, 40, 60])
def test_integer_solutions_match_sturm_on_n_plus_1_fibers(n):
    g = build_n_plus_1(n).factors[1]
    for v in (1, -1):
        assert integer_solutions(g, [v])[0] == sturm_integer_solutions(g, v)


@pytest.mark.parametrize("build,n", [(build_n_plus_1, 60), (build_p_plus, 40)], ids=["nplus1_60", "pplus_40"])
def test_square_free_unit_fibers_never_reach_the_chain(build, n, monkeypatch):
    # g - 1 = t * prod(x - p_i) fails at every prime that leaves two anchors
    # congruent, yet it is square-free: the failing primes never use up the
    # scan budget.  g + 1 = t * prod(x - p_i) + 2 has no integer root,
    # as |z - p_i| would divide 2 for every one of the 39 or more anchors
    def no_reduction(c):
        raise AssertionError("reduced to the square-free part")

    cert = build(n)
    monkeypatch.setattr(roots, "_sturm", no_reduction)
    g = cert.factors[1]
    assert integer_solutions(g, [1])[0] == sorted(cert.anchors)
    assert integer_solutions(g, [-1])[0] == []


@pytest.mark.parametrize(
    "p",
    [
        power(RatPolynomial([-5, 1]), 2) * RatPolynomial([1, 1]),
        power(RatPolynomial([-3, 1]), 3) * RatPolynomial([1, 0, 1]),
        # the g - 1 fiber of the analyze_repeated_anchor_40 golden, made monic
        math.prod((RatPolynomial([-a, 1]) for a in [-75, *range(-75, 78, 4)]), start=RatPolynomial([1])),
    ],
    ids=["double_root", "triple_root", "degree_40_double_anchor"],
)
def test_integer_solutions_reduce_once_on_a_repeated_root(p, monkeypatch):
    # every prime fails; the scans before the one reduction, sum q (n + 1)
    # Horner steps over the primes q before the last, stay within (n + 1)^3
    calls, seen = [], []
    sturm, stream = roots._sturm, roots.primes_stream

    def counted(c):
        calls.append(sum(seen[:-1]))
        return sturm(c)

    def recorded(start):
        for q in stream(start):
            seen.append(q)
            yield q

    monkeypatch.setattr(roots, "_sturm", counted)
    monkeypatch.setattr(roots, "primes_stream", recorded)
    assert integer_solutions(p, [0])[0] == _sympy_integer_roots(p, 0)
    assert len(calls) == 1 and calls[0] <= (p.degree + 1) ** 2


@settings(max_examples=200, deadline=None)
@given(st.one_of(_dense_polys(), _linear_products()))
# x^6 - 1023 x^5 - sum 511^k x^(6-k) has a root near 1337 > 2 * 511: it is
# caught only because each ratio is rounded up to the next power of two
@example(RatPolynomial([-(511 ** k) for k in range(6, 1, -1)] + [-1023, 1]))
def test_fujiwara_bound_holds_every_root(p):
    c = _to_int(p)
    bound = _fujiwara_bound(c)
    assert all(abs(z) < bound for z in _sympy_integer_roots(p, 0))
    assert _count(_sturm(c), F(-bound), F(bound)) == _count_roots(c)


@pytest.mark.parametrize("lead", [1, 3, -1, -3])
def test_fujiwara_bound_at_powers_of_two(lead):
    # lead * x - 2^k: the bit-length rounding is tightest at a power of two
    for k in range(80):
        c = [-(2 ** k), lead]
        assert abs(F(2 ** k, lead)) < _fujiwara_bound(c)
        assert _integer_roots(c) == ([2 ** k * lead] if abs(lead) == 1 else [])


def test_integer_solutions_skips_primes_with_colliding_roots():
    # roots 0, 105 and -1/2: 0 and 105 collide mod 3, 5 and 7, so 0 is a
    # multiple root modulo those primes and the lift starts at 11
    p = RatPolynomial([0, 1]) * RatPolynomial([-105, 1]) * RatPolynomial([1, 2])
    assert integer_solutions(p, [0])[0] == [0, 105] == sturm_integer_solutions(p, 0)
    assert integer_solutions(power(p, 2) + 1, [1])[0] == [0, 105]


def test_sign_at_examples():
    sqrt3 = isolate_roots(RatPolynomial([-3, 0, 1]))[1]
    assert _sign_at(_to_int(RatPolynomial([-3, 1])), sqrt3) == -1       # sqrt3 < 3
    assert _sign_at(_to_int(RatPolynomial([-3, 0, 1])), sqrt3) == 0     # its own root
    neg_sqrt2 = isolate_roots(RatPolynomial([-2, 0, 1]))[0]
    assert _sign_at(_to_int(RatPolynomial([0, 1])), neg_sqrt2) == -1


def test_sign_at_shared_root_engineered():
    rng = random.Random(99)
    for _ in range(40):
        p = random_int_poly(rng, rng.randint(2, 5), 6)
        roots = isolate_roots(p)
        if not roots:
            continue
        r = rng.choice(roots)
        # multiply the defining polynomial into an unrelated one: shared root
        q = p * random_int_poly(rng, rng.randint(0, 3), 6)
        assert _sign_at(_to_int(q), r) == 0
        shifted = p + 1
        s = _sign_at(_to_int(shifted), r)
        assert s == 1  # p(root) = 0, so (p+1)(root) = 1


def test_sign_at_exact_root():
    r = IsolatedRoot((-6, 1), F(6), F(6))
    assert _sign_at(_to_int(RatPolynomial([-5, 1])), r) == 1
    assert _sign_at(_to_int(RatPolynomial([-7, 1])), r) == -1
    assert _sign_at(_to_int(RatPolynomial([-6, 1])), r) == 0


def test_sublevel_measure_examples():
    lo, hi = sublevel_measure(RatPolynomial([0, 0, 1]), 4, F(1, 100))
    assert lo == hi == 4  # exact endpoints +-2

    lo, hi = sublevel_measure(RatPolynomial([-2, 0, 1]), 1, F(1, 100))
    # true measure 2*(sqrt(3) - 1)
    assert hi - lo <= F(1, 100)
    assert (lo / 2 + 1) ** 2 <= 3 <= (hi / 2 + 1) ** 2

    lo, hi = sublevel_measure(RatPolynomial([2, 0, 1]), 1, F(1, 100))
    assert lo == hi == 0


def test_sublevel_measure_rational_boundaries_exact():
    # |x(x-2)| <= 1 on [1-sqrt2, 1+sqrt2] minus nothing; engineered rational case:
    # |2x| <= 4 is [-2, 2], all endpoints rational
    lo, hi = sublevel_measure(RatPolynomial([0, 2]), 4, F(1, 1000))
    assert lo == hi == 4
    # |x^2 - 1| <= 1: the set is [-sqrt2, sqrt2]; 0 is an interior double
    # touch of the lower boundary and must not split the measure
    lo, hi = sublevel_measure(RatPolynomial([-1, 0, 1]), 1, F(1, 10 ** 6))
    assert (lo / 2) ** 2 <= 2 <= (hi / 2) ** 2
    assert hi - lo <= F(1, 10 ** 6)


def test_sublevel_measure_validation():
    with pytest.raises(ValueError):
        sublevel_measure(RatPolynomial([3]), 1, F(1, 10))
    with pytest.raises(ValueError):
        sublevel_measure(H2, 0, F(1, 10))
    with pytest.raises(ValueError):
        sublevel_measure(H2, 1, 0)


def test_count_real_roots():
    assert _count_roots(_to_int(RatPolynomial([0, -1, 0, 1]))) == 3
    assert _count_roots(_to_int(RatPolynomial([1, 0, 1]))) == 0
    assert _count_roots(_to_int(RatPolynomial([9]))) == 0
    assert _count_roots(_to_int(power(RatPolynomial([-1, 1]), 4))) == 1


def _sympy_distinct_real_roots(p) -> list:
    """Oracle: the distinct real roots of p, ascending (Rational or CRootOf)."""
    q = _sympy_poly(p)
    return q.sqf_part().real_roots() if q.degree() >= 1 else []


@st.composite
def _factored_with_endpoints(draw):
    """A product of rational linear factors, some repeated, times a random
    factor, and an interval lo < hi whose ends are often among those roots."""
    roots = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=5))
    roots += draw(st.lists(st.sampled_from(roots), max_size=3))
    p = RatPolynomial(draw(st.lists(st.integers(-6, 6), max_size=3)) + [draw(_nonzero)])
    for r in roots:
        p = p * RatPolynomial([-r, 1])
    ends = st.one_of(st.sampled_from(roots), st.fractions(min_value=-8, max_value=8, max_denominator=6))
    lo, hi = draw(ends), draw(ends)
    assume(lo != hi)
    return p, min(lo, hi), max(lo, hi)


_X1_SQ_X3 = power(RatPolynomial([-1, 1]), 2) * RatPolynomial([-3, 1])


@settings(max_examples=200, deadline=None)
@given(_factored_with_endpoints())
@example((_X1_SQ_X3, F(0), F(1)))  # 1: the repeated root 1 as the right end
@example((_X1_SQ_X3, F(1), F(3)))  # 1: the repeated root as the left end
@example((_X1_SQ_X3, F(1), F(2)))  # 0
@example((power(RatPolynomial([-1, 1]), 3), F(0), F(1)))  # its chain ends at 3 (x - 1)^2
@example((power(RatPolynomial([1, 1]), 2) * power(RatPolynomial([-2, 0, 1]), 2), F(-1), F(2)))
def test_sturm_count_half_open_matches_sympy(case):
    p, lo, hi = case
    lo_s, hi_s = sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
    expect = [r for r in _sympy_distinct_real_roots(p) if lo_s < r <= hi_s]
    assert _count(_sturm(_to_int(p)), F(lo), F(hi)) == len(expect)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_dense_polys(), _linear_products()))
def test_count_real_roots_matches_sympy(p):
    assert _count_roots(_to_int(p)) == len(_sympy_distinct_real_roots(p))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_sign_at_matches_sympy(seed):
    # q, rational and often of higher degree than p = a*b (the shape of
    # f - 1 at a root of g - 1), shares the factor a (sign 0 at the roots
    # of a) or is random, almost always coprime to p; a nonzero q(root) of
    # these small polynomials is far above 10^-40, so 80 digits decide the sign
    rng = random.Random(seed)
    a = random_int_poly(rng, rng.randint(1, 3), 6)
    p = a * random_int_poly(rng, rng.randint(1, 3), 6)
    q = random_rat_poly(rng, rng.randint(0, 8), 9)
    if rng.random() < 0.5:
        q = a * q
    roots = isolate_roots(p)
    expect = _sympy_distinct_real_roots(p)
    assert len(roots) == len(expect)
    q_expr = _sympy_poly(q).as_expr()
    for r, alpha in zip(roots, expect):
        value = q_expr.subs(_X, alpha).evalf(80)
        want = 0 if abs(value) < sympy.Float(10) ** -40 else (1 if value > 0 else -1)
        assert _sign_at(_to_int(q), r) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_sturm_head_matches_sympy(seed):
    # a^2 * b always has a square factor, so the head of `_sturm` is a proper
    # quotient; it keeps the sign of c's leading coefficient
    rng = random.Random(seed)
    a = random_rat_poly(rng, rng.randint(1, 3), 6)
    c = _to_int(power(a, 2) * random_rat_poly(rng, rng.randint(0, 3), 6))
    _, part = sympy.Poly(list(reversed(c)), _X).sqf_part().primitive()
    want = [int(v) for v in reversed(part.all_coeffs())]
    if (want[-1] > 0) != (c[-1] > 0):
        want = [-v for v in want]
    assert _sturm(c)[0] == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(-20, 20), st.integers(2, 3), st.integers(-3, 3))
def test_integer_solutions_with_repeated_integer_root_match_sympy(seed, z, j, v):
    # (x - z)^j is a multiple root of c mod every prime, so the lifting
    # prime is found only after c is replaced by its square-free part
    rng = random.Random(seed)
    a = random_rat_poly(rng, rng.randint(1, 3), 6)
    b = RatPolynomial([1])
    for _ in range(rng.randint(0, 3)):
        b = b * RatPolynomial([rng.randint(-12, 12), rng.randint(1, 3)])
    p = power(a, rng.randint(1, 3)) * b * power(RatPolynomial([-z, 1]), j) + v
    assert integer_solutions(p, [v])[0] == _sympy_integer_roots(p, v)


def test_integer_solutions_first_prime_without_reduction(monkeypatch):
    # x (x^2 + 1)^2 has the one root 0 mod 3, and it is simple there, so 3
    # lifts although the polynomial has a repeated factor
    def no_reduction(c):
        raise AssertionError("reduced to the square-free part")

    monkeypatch.setattr(roots, "_sturm", no_reduction)
    assert integer_solutions(RatPolynomial([0, 1]) * power(RatPolynomial([1, 0, 1]), 2), [0])[0] == [0]


def test_sturm_divides_by_a_primitive_gcd():
    # (x - 1)^3: the chain stops at c' = 3 (x - 1)^2, which is not primitive
    c = _to_int(power(RatPolynomial([-1, 1]), 3))
    assert _chain(c, _deriv(c)) == [c, [3, -6, 3]]
    assert _sturm(c) == [[-1, 1], [3]]
    assert _sturm([1, 0, -1]) == [[1, 0, -1], [0, -2], [-1]]  # square-free: divided by 1


def test_real_root_routines_search_no_prime(monkeypatch):
    def no_primes(start=2):
        raise AssertionError("prime search")

    monkeypatch.setattr(roots, "primes_stream", no_primes)
    p = power(RatPolynomial([-1, 1]), 2) * RatPolynomial([-2, 0, 1])
    assert _count(_sturm(_to_int(p)), F(0), F(2)) == 2
    assert _count_roots(_to_int(p)) == 3
    found = isolate_roots(p)
    assert len(found) == 3
    assert [_sign_at(_to_int(RatPolynomial([0, 1])), r) for r in found] == [-1, 1, 1]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_dense_polys(), _linear_products(), _roots_far_inside_the_bound()))
@example(power(RatPolynomial([-1, 1]), 3))  # its chain ends at 3 (x - 1)^2, divided out
@example(RatPolynomial([0, 0, -3, 1]))      # x^2 (x - 3): 0 a root of the head
def test_variations_read_from_the_coefficients(p):
    # past every root of the head V is V(+-inf): 2F lies past them all
    chain = _sturm(_to_int(p))
    far = 2 * _fujiwara_bound(chain[0])
    assert _var_coeffs(chain) == (_var_at(chain, -far, 1), _var_at(chain, far, 1))


def _int_poly(min_degree: int, max_degree: int):
    """Integer polynomials of the given degrees, coefficients in -9..9."""
    low = st.integers(min_degree, max_degree).flatmap(lambda d: st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    return st.builds(lambda c, lead: RatPolynomial(c + [lead]), low, st.integers(-9, 9).filter(bool))


@st.composite
def _tarski_cases(draw):
    """p = a b and q random, or q sharing the factor a with p, or q a multiple of p."""
    a, b, q = draw(_int_poly(1, 3)), draw(_int_poly(0, 3)), draw(_int_poly(0, 7))
    return a * b, draw(st.sampled_from([q, a * q, a * b * q]))


@settings(max_examples=300, deadline=None)
@given(_tarski_cases())
@example((RatPolynomial([-2, 0, 1]), RatPolynomial([0, 1])))                  # p'q of degree deg p
@example((RatPolynomial([-2, 0, 1]), RatPolynomial([-2, 0, 1]) * RatPolynomial([3, 1])))  # p | q
def test_sign_at_matches_pq_chain_oracle(case):
    # the query runs on p'q mod p; the oracle on p'q itself
    p, q = case
    cq = _to_int(q)
    for r in isolate_roots(p):
        assert _sign_at(cq, r) == pq_chain_sign_at(cq, r)


def _traced(integer_roots, c):
    """integer_roots(c), the primes it drew from `roots.primes_stream` and
    the arguments of its `roots._sturm` calls."""
    drawn, calls = [], []
    stream, sturm = roots.primes_stream, roots._sturm

    def recorded(start):
        for q in stream(start):
            drawn.append(q)
            yield q

    def counted(c):
        calls.append(list(c))
        return sturm(c)

    with mock.patch.object(roots, "primes_stream", recorded), mock.patch.object(roots, "_sturm", counted):
        return integer_roots(c), drawn, calls


@st.composite
def _with_repeated_integer_root(draw):
    """(x - z)^j p: a multiple root mod every prime, so the scans use up the
    budget and c is reduced to its square-free part."""
    z, j = draw(st.integers(-20, 20)), draw(st.integers(2, 3))
    return power(RatPolynomial([-z, 1]), j) * draw(_dense_polys())


@settings(max_examples=300, deadline=None)
@given(st.one_of(_dense_polys(), _linear_products(), _with_repeated_integer_root()))
@example(power(RatPolynomial([-5, 1]), 2) * RatPolynomial([1, 1]))
@example(RatPolynomial([0, 1]) * RatPolynomial([-105, 1]) * RatPolynomial([1, 2]))  # 0 and 105 collide mod 3, 5, 7
def test_integer_roots_match_full_scan_oracle(p):
    # a scan that stops at its first multiple root still draws the same
    # primes and reduces at the same one
    c = _to_int(p)
    got, want = _traced(_integer_roots, c), _traced(full_scan_integer_roots, c)
    assert got == want


@st.composite
def _integer_polys(draw):
    """Degree 1-6, integer coefficients in [-9, 9]."""
    degree = draw(st.integers(1, 6))
    lead = draw(st.integers(-9, 9).filter(lambda c: c != 0))
    return RatPolynomial(draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree)) + [lead])


@st.composite
def _binomial_polys(draw):
    """sum c_k C(x, k) with integer c_k, degree 1-6: integer-valued with
    rational coefficients, so many integers share a value."""
    degree = draw(st.integers(1, 6))
    lead = draw(st.integers(-6, 6).filter(lambda c: c != 0))
    return from_binomial(draw(st.lists(st.integers(-6, 6), min_size=degree, max_size=degree)) + [lead])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_integer_polys(), _binomial_polys(), _with_repeated_integer_root()),
    st.lists(st.integers(-20, 20), max_size=20),
)
@example(RatPolynomial([1, -3, 1]), [1, -1, 1, 0, -1])
@example(from_binomial([0, 0, 0, 0, 1]), [])
def test_integer_solutions_per_value_match_sturm(p, values):
    # one clearing of p serves every value, repeats included, in order
    assert integer_solutions(p, values) == [sturm_integer_solutions(p, v) for v in values]


def test_separate_raises_on_one_real_given_twice():
    def timeout(signum, frame):
        raise TimeoutError("_separate did not return")

    def positive_below_3(p):
        return next(r for r in isolate_roots(p) if 0 < r.hi and r.lo < 3)

    sqrt2 = positive_below_3(RatPolynomial([-2, 0, 1]))
    sqrt2_cubic = positive_below_3(RatPolynomial([10, -2, -5, 1]))  # (x^2 - 2)(x - 5)
    (half,) = isolate_roots(RatPolynomial([-1, 2]))
    assert not sqrt2.is_exact and not sqrt2_cubic.is_exact and half.is_exact
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        for a, b in ((sqrt2, sqrt2), (sqrt2, sqrt2_cubic), (half, half)):
            with pytest.raises(TheoremViolation):
                _separate([(a, "a"), (b, "b")])
        # a distinct real whose interval ends at the exact 1/2 still separates
        wide = IsolatedRoot(sqrt2.defining, F(1, 2), F(3, 2))
        out = _separate([(wide, "w"), (half, "h")])
        assert [tag for _, tag in out] == ["h", "w"] and out[0][0].hi < out[1][0].lo
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
