import random
from fractions import Fraction as F

import pytest

from primepoly.poly import (
    RatPolynomial,
    NEG_INFINITY,
    compose_affine,
    evaluate,
    format_poly,
    from_binomial,
    is_integer_valued,
    make_poly,
    parse_poly,
    scale_to_integer,
)

from helpers import binomial_coefficients, random_rat_poly

H2 = make_poly([1, -3, 1])


def test_make_poly_normalizes():
    assert make_poly([1, -3, 1]).degree == 2
    assert make_poly([]).degree == NEG_INFINITY
    assert make_poly([]).is_zero
    p = make_poly([5, 0, 0])
    assert p.degree == 0 and p.coeffs == (F(5),)


def test_arithmetic():
    x = make_poly([0, 1])
    assert (x - 1) * (x - 2) - 1 == H2
    assert x * (x - 3) + 1 == H2
    assert (H2 + (-H2)).is_zero
    assert (2 * x) * (2 * x) * (2 * x) == make_poly([0, 0, 0, 8])


def test_evaluate_rational():
    assert evaluate(H2, 0) == 1
    assert evaluate(H2, F(1, 2)) == F(-1, 4)
    assert H2(3) == 1
    assert evaluate(make_poly([]), F(1, 2)) == 0
    with pytest.raises(TypeError):
        evaluate(H2, 0.5)


def test_binomial_basis_examples():
    half = make_poly([0, F(-1, 2), F(1, 2)])  # x(x-1)/2
    x_half = make_poly([0, F(1, 2)])
    for p, coeffs, integer_valued in (
        (half, [0, 0, 1], True),
        (x_half, [0, F(1, 2)], False),
        (H2, [1, -2, 2], True),
        (make_poly([]), [], True),
        (make_poly([3]), [3], True),
        (make_poly([F(1, 2)]), [F(1, 2)], False),
    ):
        assert from_binomial(coeffs) == p
        assert binomial_coefficients(p) == coeffs
        assert is_integer_valued(p) == integer_valued
    # independent identity: x^2 = 2*C(x,2) + C(x,1)
    cx2 = make_poly([0, F(-1, 2), F(1, 2)])
    cx1 = make_poly([0, 1])
    assert 2 * cx2 + cx1 == make_poly([0, 0, 1])


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
        deg = int(p.degree)
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
    half = make_poly([0, F(-1, 2), F(1, 2)])
    assert scale_to_integer(half) == ([0, -1, 1], 2)
    assert scale_to_integer(H2) == ([1, -3, 1], 1)
    assert scale_to_integer(make_poly([F(1, 6), F(1, 3)])) == ([1, 2], 6)
    assert scale_to_integer(make_poly([F(-3, 4), 0, F(5, 6)])) == ([-9, 0, 10], 12)
    assert scale_to_integer(make_poly([])) == ([], 1)
    c, _ = scale_to_integer(make_poly([F(1, 3), 2]))
    assert all(type(v) is int for v in c)


def test_scale_bound_for_integer_valued():
    import math
    rng = random.Random(303)
    for _ in range(30):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, 3])]
        p = from_binomial(coeffs)
        _, d = scale_to_integer(p)
        assert math.factorial(int(p.degree)) % d == 0


def test_compose_affine_examples():
    assert compose_affine(make_poly([-1, 1]), 1, -1, 2) == make_poly([1, -1])
    assert compose_affine(H2, 1, 1, 0) == H2
    assert compose_affine(H2, 1, 1, 4) == make_poly([5, 5, 1])


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
    assert parse_poly("0,-1/2,1/2") == make_poly([0, F(-1, 2), F(1, 2)])
    assert parse_poly("binom:0,0,1") == make_poly([0, F(-1, 2), F(1, 2)])
    assert format_poly(H2) == "1,-3,1"
    assert format_poly(make_poly([])) == "0"
    assert parse_poly(format_poly(make_poly([F(2, 3), 0, 5]))) == make_poly([F(2, 3), 0, 5])
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("1,x,2")
    with pytest.raises(ValueError):
        parse_poly("1/0")
