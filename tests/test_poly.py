import itertools
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from primepoly.exceptional import search_exceptional
from primepoly.poly import (
    RatPolynomial,
    _interpolate,
    _nested,
    compose_affine,
    evaluate,
    from_binomial,
    is_integer_valued,
    parse_poly,
    scale_to_integer,
)

from helpers import (
    binomial_coefficients,
    fraction_mul,
    lagrange_interpolate,
    random_rat_poly,
    rational_nested,
)

H2 = RatPolynomial([1, -3, 1])


def test_make_poly_normalizes():
    assert RatPolynomial([1, -3, 1]).degree == 2
    assert RatPolynomial([]).degree == -1
    assert RatPolynomial([]) == RatPolynomial() == ()
    assert not RatPolynomial([0, 0])
    p = RatPolynomial([5, 0, 0])
    assert p.degree == 0 and p == (F(5),)


def test_arithmetic():
    x = RatPolynomial([0, 1])
    assert (x - 1) * (x - 2) - 1 == H2
    assert x * (x - 3) + 1 == H2
    assert not H2 + (-H2)
    assert (2 * x) * (2 * x) * (2 * x) == RatPolynomial([0, 0, 0, 8])


def test_multiplication_by_zero():
    zero = RatPolynomial()
    for got in (H2 * zero, zero * H2, zero * zero, 3 * zero, H2 * 0, 0 * H2):
        assert type(got) is RatPolynomial and got == () and got.degree == -1


_x = sympy.Symbol("x")
_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# ascending coefficients, some ending in zeros that construction trims
_coeff_lists = st.tuples(st.lists(_rationals, max_size=5), st.integers(0, 2)).map(lambda t: t[0] + [0] * t[1])
_scalars = st.integers(-9, 9) | _rationals


def _sympy_poly(coeffs) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(F(c).numerator, F(c).denominator) for c in reversed(coeffs)] or [0], _x)


def _assert_matches(got, want: sympy.Poly):
    coeffs = () if want.is_zero else tuple(F(int(c.p), int(c.q)) for c in reversed(want.all_coeffs()))
    assert type(got) is RatPolynomial and all(type(c) is F for c in got)
    assert got == coeffs and got.degree == len(coeffs) - 1
    padded = RatPolynomial(list(coeffs) + [0, 0])
    assert got == padded and hash(got) == hash(padded)


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _coeff_lists, _scalars)
def test_arithmetic_matches_sympy(a, b, k):
    p, q = RatPolynomial(a), RatPolynomial(b)
    sp, sq, sk = _sympy_poly(a), _sympy_poly(b), sympy.Rational(F(k).numerator, F(k).denominator)
    for got, want in (
        (p + q, sp + sq),
        (p - q, sp - sq),
        (p * q, sp * sq),
        (-p, -sp),
        (k * p, sp * sk),
        (p * k, sp * sk),
        (-p + k, sk - sp),
        (k + p, sp + sk),
    ):
        _assert_matches(got, want)


def test_evaluate_rational():
    assert evaluate(H2, 0) == 1
    assert evaluate(H2, F(1, 2)) == F(-1, 4)
    assert evaluate(H2, 3) == 1
    assert evaluate(RatPolynomial([]), F(1, 2)) == 0
    with pytest.raises(TypeError):
        evaluate(H2, 0.5)


def test_binomial_basis_examples():
    half = RatPolynomial([0, F(-1, 2), F(1, 2)])  # x(x-1)/2
    x_half = RatPolynomial([0, F(1, 2)])
    for p, coeffs, integer_valued in (
        (half, [0, 0, 1], True),
        (x_half, [0, F(1, 2)], False),
        (H2, [1, -2, 2], True),
        (RatPolynomial([]), [], True),
        (RatPolynomial([3]), [3], True),
        (RatPolynomial([F(1, 2)]), [F(1, 2)], False),
    ):
        assert from_binomial(coeffs) == p
        assert binomial_coefficients(p) == coeffs
        assert is_integer_valued(p) == integer_valued
    # independent identity: x^2 = 2*C(x,2) + C(x,1)
    cx2 = RatPolynomial([0, F(-1, 2), F(1, 2)])
    cx1 = RatPolynomial([0, 1])
    assert 2 * cx2 + cx1 == RatPolynomial([0, 0, 1])


def test_binomial_round_trip_random():
    rng = random.Random(101)
    for _ in range(60):
        p = random_rat_poly(rng, rng.randint(0, 8), 9)
        coeffs = binomial_coefficients(p)
        assert from_binomial(coeffs) == p
        assert binomial_coefficients(from_binomial(coeffs)) == coeffs


def _integer_valued_by_oracles(p) -> bool:
    """Integer-valuedness by the binomial-basis oracle, checked against a
    scan of the values on [-12, 12]."""
    by_basis = all(c.denominator == 1 for c in binomial_coefficients(p))
    by_scan = all(evaluate(p, m).denominator == 1 for m in range(-12, 13))
    assert by_basis == by_scan
    return by_basis


def test_integer_valued_three_way_agreement():
    rng = random.Random(202)
    for _ in range(40):
        p = random_rat_poly(rng, rng.randint(1, 6), 6)
        deg = p.degree
        by_values = all(evaluate(p, m).denominator == 1 for m in range(0, deg + 1))
        assert is_integer_valued(p) == by_values == _integer_valued_by_oracles(p)


def test_integer_valued_from_binomial_integer_coefficients():
    rng = random.Random(212)
    for _ in range(40):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1, 2, 3])]
        p = from_binomial(coeffs)
        assert is_integer_valued(p) and _integer_valued_by_oracles(p)


def test_integer_valued_near_miss_half_binomial():
    # C(x, n)/2 vanishes at 0, ..., n-1 and equals 1/2 at n: every value
    # check but the last one passes
    for n in range(1, 7):
        coeffs = [0] * n + [F(1, 2)]
        p = from_binomial(coeffs)
        assert not is_integer_valued(p) and not _integer_valued_by_oracles(p)
        assert is_integer_valued(2 * p)


def test_scale_to_integer():
    half = RatPolynomial([0, F(-1, 2), F(1, 2)])
    assert scale_to_integer(half) == ([0, -1, 1], 2)
    assert scale_to_integer(H2) == ([1, -3, 1], 1)
    assert scale_to_integer(RatPolynomial([F(1, 6), F(1, 3)])) == ([1, 2], 6)
    assert scale_to_integer(RatPolynomial([F(-3, 4), 0, F(5, 6)])) == ([-9, 0, 10], 12)
    assert scale_to_integer(RatPolynomial([])) == ([], 1)
    c, _ = scale_to_integer(RatPolynomial([F(1, 3), 2]))
    assert all(type(v) is int for v in c)


def test_scale_bound_for_integer_valued():
    import math
    rng = random.Random(303)
    for _ in range(30):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, 3])]
        p = from_binomial(coeffs)
        _, d = scale_to_integer(p)
        assert math.factorial(p.degree) % d == 0


def test_compose_affine_examples():
    assert compose_affine(RatPolynomial([-1, 1]), 1, -1, 2) == RatPolynomial([1, -1])
    assert compose_affine(H2, 1, 1, 0) == H2
    assert compose_affine(H2, 1, 1, 4) == RatPolynomial([5, 5, 1])


def test_compose_affine_inverse_round_trip():
    rng = random.Random(404)
    for _ in range(40):
        p = random_rat_poly(rng, rng.randint(1, 5), 5)
        sigma = rng.choice([1, -1])
        tau = rng.choice([1, -1])
        a = rng.randint(-20, 20)
        q = compose_affine(p, sigma, tau, a)
        # undo: sigma * q(tau*x - tau*a) = p
        back = compose_affine(q, sigma, tau, -tau * a)
        assert back == p


def test_compose_affine_by_evaluation():
    rng = random.Random(505)
    for _ in range(20):
        p = random_rat_poly(rng, rng.randint(0, 5), 6)
        for sigma, tau, a in itertools.product((1, -1), (1, -1), range(-3, 4)):
            q = compose_affine(p, sigma, tau, a)
            assert q.degree == p.degree
            assert all(evaluate(q, m) == sigma * evaluate(p, tau * m + a) for m in range(-5, 6))


def test_nested_examples():
    # (u + v*x)/w with u, v and w distinct, so a swapped or dropped part shows
    assert _nested([0, 1], [(1, 2, 1)]) == RatPolynomial([1, 2])
    assert _nested([F(1, 2), 1], [(1, 2, 3)]) == RatPolynomial([F(5, 6), F(2, 3)])
    assert compose_affine(RatPolynomial([0, 1]), -1, 1, 2) == RatPolynomial([-2, -1])


_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_triples = st.tuples(st.integers(-9, 9), st.integers(-9, 9).filter(bool), st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(st.lists(_fractions, max_size=6), st.integers(0, 2), st.integers(-20, 20), st.data())
def test_nested_matches_rational_horner(coeffs, zeros, a, data):
    coeffs = coeffs + [F(0)] * zeros
    n = max(len(coeffs) - 1, 0)
    inners = data.draw(st.lists(_triples, min_size=n, max_size=n))
    linear = [RatPolynomial((F(u, w), F(v, w))) for u, v, w in inners]
    assert _nested(coeffs, inners) == rational_nested(coeffs, linear)
    p = RatPolynomial(coeffs)
    for sigma, tau in itertools.product((1, -1), repeat=2):
        assert compose_affine(p, sigma, tau, a) == sigma * rational_nested(p, [RatPolynomial((a, tau))] * p.degree)


def test_builders_do_no_rational_polynomial_arithmetic(monkeypatch):
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(*args, _original=getattr(RatPolynomial, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(RatPolynomial, name, counted)
    assert search_exceptional(3, 5).hit_count > 0
    assert from_binomial([1, -2, 3, 0, F(1, 2), 5, 7]).degree == 6
    assert compose_affine(RatPolynomial([F(1, 3), -2, 0, 5]), -1, -1, 4).degree == 3
    assert calls == []
    H2 * H2 + 1
    assert calls == ["__mul__", "__add__"]  # the counter sees the arithmetic


# zero coefficients drawn often, so the lists include zero polynomials
_sparse_lists = st.lists(_fractions | st.just(F(0)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_sparse_lists, _sparse_lists, st.integers(-20, 20) | _fractions)
def test_mul_matches_fraction_convolution(a, b, k):
    p, q = RatPolynomial(a), RatPolynomial(b)
    for got, want in (
        (p * q, fraction_mul(p, q)),
        (q * p, fraction_mul(p, q)),
        (k * p, fraction_mul(p, k)),
        (p * k, fraction_mul(p, k)),
        (3 * p, fraction_mul(p, 3)),
        (p * F(1, 2), fraction_mul(p, F(1, 2))),
    ):
        assert type(got) is RatPolynomial and all(type(c) is F for c in got)
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=1, max_size=6, unique=True).flatmap(
    lambda xs: st.tuples(st.just(xs), st.lists(_fractions, min_size=len(xs), max_size=len(xs)))))
def test_interpolate_matches_lagrange(points_values):
    points, values = points_values
    h = _interpolate(points, values)
    assert h == lagrange_interpolate(points, values)
    assert h.degree < len(points)


def test_interpolate_matches_lagrange_on_every_exceptional_configuration():
    # the (points, signs) pairs that search_exceptional interpolates
    for degree in range(1, 5):
        for rest in itertools.combinations(range(1, 5), degree):
            for signs in itertools.product((1, -1), repeat=degree + 1):
                points = (0,) + rest
                assert _interpolate(points, signs) == lagrange_interpolate(points, signs)


def test_cross_representation_evaluation_agreement():
    rng = random.Random(606)
    for _ in range(25):
        p = random_rat_poly(rng, rng.randint(1, 6), 8)
        ints, d = scale_to_integer(p)
        for m in range(-20, 21):
            direct = evaluate(p, m)
            via_int = F(sum(c * m ** i for i, c in enumerate(ints)), d)
            assert direct == via_int


def test_parse_and_format():
    assert parse_poly("1,-3,1") == H2
    assert parse_poly(" 1, -3 , 1 ") == H2
    assert parse_poly("0,-1/2,1/2") == RatPolynomial([0, F(-1, 2), F(1, 2)])
    assert parse_poly("binom:0,0,1") == RatPolynomial([0, F(-1, 2), F(1, 2)])
    assert str(H2) == "1,-3,1"
    assert str(RatPolynomial([])) == "0"
    assert parse_poly(str(RatPolynomial([F(2, 3), 0, 5]))) == RatPolynomial([F(2, 3), 0, 5])
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("1,x,2")
    with pytest.raises(ValueError):
        parse_poly("1/0")
