import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primepoly.bounds import (
    cross_difference_bound,
    factorial_lower_bound,
    level_count_bound,
    polya_measure_check,
    set_pair_data,
    solve_constant,
    truncate_decimal,
)
from primepoly import bounds
from primepoly.bounds import _display_root, _ln_bracket, _ln_interval, _phi_interval, _phi_sign, _rhs_interval
from primepoly.census import level_census
from primepoly.poly import RatPolynomial, from_binomial

from helpers import fraction_ln_interval, fraction_solve_constant, power_2k_factorial_bound, random_int_poly


def test_solve_constant_ten_digits():
    sol = solve_constant(10)
    assert sol.t_star == "1.1463411865"
    assert sol.c == "1.8723406362"
    assert sol.residual <= F(1, 10 ** 12)
    assert sol.t_lo < sol.t_hi
    assert sol.c_lo < sol.c_hi


def test_solve_constant_brackets_are_outward():
    eps = F(1, 10 ** 15)
    lo, hi = _ln_interval(F(2), eps)
    assert lo < hi and hi - lo < eps
    # ln 2 = 0.69314718055994530941... (mpmath, 60 digits), so
    # 0.6931471805599453094 < ln 2 < 0.6931471805599453095: a bracket
    # holding both decimals contains ln 2 with margin on either side
    assert lo < F(6931471805599453094, 10 ** 19)
    assert F(6931471805599453095, 10 ** 19) < hi

    # monotone bracket sanity: phi(1) = 1/2 < rhs < phi(3/2)
    r_lo, r_hi = _rhs_interval(eps)
    p1_lo, p1_hi = _phi_interval(F(1), eps)
    p15_lo, p15_hi = _phi_interval(F(3, 2), eps)
    assert p1_hi < r_lo < r_hi < p15_lo
    assert F(88, 100) < r_lo < r_hi < F(89, 100)


def test_solve_constant_more_digits_nest():
    coarse = solve_constant(8)
    fine = solve_constant(14)
    assert fine.t_lo >= coarse.t_lo and fine.t_hi <= coarse.t_hi
    assert coarse.t_star == "1.14634118"
    assert fine.t_star.startswith("1.1463411865")
    with pytest.raises(ValueError):
        solve_constant(0)
    with pytest.raises(ValueError):
        solve_constant(51)


def test_solve_constant_matches_fraction_bisection_at_every_digit_count():
    for digits in range(1, 51):
        got, want = solve_constant(digits), fraction_solve_constant(digits)
        assert got == want and [type(v) for v in got] == [type(v) for v in want]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 200), st.integers(1, 30))
def test_ln_interval_matches_the_parent_series(num, e):
    x, eps = F(num + 100, 100), F(1, 10 ** e)
    assert _ln_interval(x, eps) == fraction_ln_interval(x, eps)


@st.composite
def _ln_arguments(draw):
    """a/b in (1, 2]: dyadic (b a power of two) or not."""
    b = draw(st.one_of(st.integers(0, 200).map(lambda m: 2 ** m), st.integers(1, 2 ** 200)))
    return b + draw(st.integers(1, b)), b


@settings(max_examples=300, deadline=None)
@given(_ln_arguments(), st.integers(1, 200))
@example((3, 2), 1)      # fails without the tail bound
@example((3, 2), 200)
def test_ln_bracket_contains_the_scaled_logarithm(ab, p):
    a, b = ab
    lo, hi = _ln_bracket(a, b, p)
    with mpmath.workprec(2 * p + 80):
        v = mpmath.ldexp(mpmath.log(mpmath.mpf(a) / b), p)
        assert lo <= int(mpmath.floor(v)) and int(mpmath.ceil(v)) <= hi


def test_phi_sign_raises_precision_near_the_root(monkeypatch):
    sol = solve_constant(50)
    precisions = []

    def recorded(a, b, p):
        precisions.append(p)
        return _ln_bracket(a, b, p)

    monkeypatch.setattr(bounds, "_ln_bracket", recorded)
    highest = []
    for m in range(1, 200, 6):
        k = math.floor(sol.t_lo * 2 ** m)
        precisions.clear()
        got = [_phi_sign(j, m, 8) for j in (k, k + 1)]
        highest.append(max(precisions))
        assert got == [_phi_sign(j, m, 256) for j in (k, k + 1)]
        if 2 ** m * (sol.t_hi - sol.t_lo) <= 1:
            # k/2^m <= t_lo < t* < t_hi <= (k + 1)/2^m
            assert got == [-1, 1]
    # the brackets at p = 8 separate at m = 1; near t* at m ~ 200 only at 256
    assert highest[0] == 8 and max(highest) == 256


def test_truncate_decimal():
    assert truncate_decimal(F(186, 100), 1) == "1.8"
    assert truncate_decimal(F(-186, 100), 1) == "-1.9"
    assert truncate_decimal(F(5), 3) == "5.000"


def test_set_pair_data_identity():
    d = set_pair_data({0, 2}, {1, 3})
    assert (d.U, d.V, d.D, d.W) == (2, 2, 3, 12)
    assert d.W == d.U * d.V * d.D


def test_merged_product_identity_random():
    rng = random.Random(55)
    for _ in range(200):
        k = rng.randint(1, 6)
        vals = rng.sample(range(-50, 51), 2 * k)
        d = set_pair_data(vals[:k], vals[k:])
        assert d.W == d.U * d.V * d.D


def test_cross_difference_bound_examples():
    chk = cross_difference_bound({0}, {1})
    assert chk.holds and chk.bound_power == F(4, 9) and chk.power == 1 and chk.data.D == 1
    chk = cross_difference_bound({0, 2}, {1, 3})
    assert chk.holds and chk.bound_power == F(64, 81) and chk.power == 1
    assert (chk.data.D, chk.data.U, chk.data.V) == (3, 2, 2)


def test_factorial_bound_examples():
    chk = factorial_lower_bound({0, 2}, {1, 3})
    # squared comparison: D^2 = 9 >= (4/9)^2 * 12 = 64/27
    assert chk.holds and chk.power == 2 and chk.bound_power == F(64, 27)
    chk = factorial_lower_bound({5}, {9})
    assert chk.holds and chk.bound_power == F(4, 9)
    chk = factorial_lower_bound({0, 1}, {2, 3})
    assert chk.holds and chk.data.D == 12


def test_unbalanced_factorial_bound_examples():
    # k = 1, s = 2: s/(2k) = 1 needs no root, so the power is 1 (2k = 2 in
    # the power-2k form, with bound (4/9)^2 = 16/81)
    chk = factorial_lower_bound({0}, {1, 5})
    assert chk.holds and chk.data.D == 5
    assert chk.power == 1 and chk.bound_power == F(4, 9)
    assert power_2k_factorial_bound(chk.data)[1:] == (F(16, 81), 2, True)
    # k = 2, s = 3: s/(2k) = 3/4 is in lowest terms, so the power is 2k = 4
    chk = factorial_lower_bound({0, 2}, {1, 3, 5})
    assert chk.data.D == 45 and chk.holds
    assert chk.power == 4 and chk.bound_power == F(2 ** 12 * 12 ** 3, 3 ** 12)
    assert power_2k_factorial_bound(chk.data) == chk
    # k = 2, s = 4: s/(2k) = 1, so power 1 against (2/3)^4 * 1! 2! 3! = 64/27
    chk = factorial_lower_bound({0, 2}, {1, 3, 5, 7})
    assert chk.holds and chk.power == 1 and chk.bound_power == F(64, 27)
    # k = s is the balanced squared comparison; the power-2k form squares it again
    bal = factorial_lower_bound({0, 2}, {1, 3})
    oracle = power_2k_factorial_bound(bal.data)
    assert oracle.power == 4 and oracle.bound_power == bal.bound_power ** 2
    assert oracle.holds == bal.holds


def _least_root_at_least(x: F, n: int) -> int:
    """Least integer D >= 0 with D^n >= x."""
    lo, hi = 0, 1 << (x.numerator.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid ** n < x else (lo, mid)
    return lo


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, 12))), st.integers(-4, 4))
@example((1, 1), -1)
@example((2, 4), -1)    # gcd(2k, s) = 4: power 1
@example((3, 12), 0)    # gcd 6: power 1, product to the power 2
@example((8, 12), -1)   # gcd 4: power 4, product to the power 3
def test_least_power_decides_as_the_power_2k_form(ks, offset):
    # D runs over a window around the least D passing the power-2k form, so
    # both sides of the threshold are checked; a and b only fix k and s
    k, s = ks
    chk = factorial_lower_bound(range(k), range(k, k + s))
    oracle = power_2k_factorial_bound(chk.data)
    threshold = _least_root_at_least(oracle.bound_power, oracle.power)
    D = max(1, threshold + offset)
    data = chk.data._replace(D=D)
    holds = bounds._check(data, chk.bound_power, chk.power).holds
    assert holds == power_2k_factorial_bound(data).holds
    if D == threshold + offset:
        assert holds == (offset >= 0)
    # the power-2k form is this comparison raised to the power gcd(2k, s)
    assert oracle.power == chk.power * math.gcd(2 * k, s)
    assert oracle.bound_power == chk.bound_power ** math.gcd(2 * k, s)


def test_all_three_bounds_hold_randomly():
    rng = random.Random(56)
    for _ in range(300):
        k = rng.randint(1, 6)
        vals = rng.sample(range(-50, 51), 2 * k)
        assert cross_difference_bound(vals[:k], vals[k:]).holds
        assert factorial_lower_bound(vals[:k], vals[k:]).holds
        k2 = rng.randint(1, 4)
        s2 = rng.randint(k2, 6)
        vals = rng.sample(range(-50, 51), k2 + s2)
        assert factorial_lower_bound(vals[:k2], vals[k2:]).holds


def test_polya_examples():
    chk = polya_measure_check(RatPolynomial([0, 0, 1]), 4)
    assert chk.holds and chk.measure_upper == 4 and chk.bound == "8.0"
    chk = polya_measure_check(RatPolynomial([-2, 0, 1]), 1)
    assert chk.holds and chk.bound == "4.0"
    assert F(145, 100) < chk.measure_upper < F(148, 100)
    chk = polya_measure_check(RatPolynomial([2, 0, 1]), 1)
    assert chk.holds and chk.measure_upper == 0


def test_polya_random_suite():
    rng = random.Random(57)
    for _ in range(60):
        f = random_int_poly(rng, rng.randint(1, 6), 9)
        for K in (1, 2, 10):
            assert polya_measure_check(f, K).holds


def test_display_root_of_floats_out_of_range():
    # x = m * 2^e with e = q*n + r; r = e mod n reaches 1023 and beyond only for n >= 1024
    assert _display_root(F(2 ** 1100 - 1), 1100) == 2.0
    rng = random.Random(11)
    cases = [(F(2 ** 1100 - 1), 1100), (F(3 * 2 ** 1022), 1024), (F(2 ** 3000 + 1, 3), 1500)]
    for _ in range(300):
        n = rng.choice([2, 3, 7, 1024, 1025, 2000, rng.randint(1, 3000)])
        x = F(rng.getrandbits(rng.randint(1030, 6000)) | 1, rng.randint(1, 10 ** 6))
        cases.append((x, n))
    for x, n in cases:
        got = _display_root(x, n)
        with mpmath.workdps(40):
            want = mpmath.root(mpmath.mpf(x.numerator) / x.denominator, n)
        if want > mpmath.mpf(2) ** 1024:
            assert got == math.inf
            continue
        assert math.isfinite(got)
        assert abs(got - want) <= 4 * math.ulp(got)
        # where m * 2^r fits a float the result is the one of that expression, bit for bit
        e = x.numerator.bit_length() - x.denominator.bit_length()
        q, r = divmod(e, n)
        if r < 1024 and math.isfinite(scaled := float(x / 2 ** e) * 2.0 ** r):
            assert got == math.ldexp(scaled ** (1 / n), q)


def test_level_count_bound_examples():
    chk = level_count_bound(RatPolynomial([0, F(-1, 2), F(1, 2)]), {0, 1})
    assert chk.census.count == 4 and chk.holds
    assert math.isclose(chk.bound, 2 + 4 * math.sqrt(2))

    chk = level_count_bound(RatPolynomial([0, 0, 1]), {0})
    assert chk.census.count == 1 and chk.K == 0 and chk.holds

    chk = level_count_bound(RatPolynomial([1, -3, 1]), {1, -1})
    assert chk.census.count == 4 and chk.holds

    with pytest.raises(ValueError):
        level_count_bound(RatPolynomial([0, F(1, 2)]), {0})


def test_level_count_bound_random_integer_valued():
    rng = random.Random(58)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1, 2, -2, 3])]
        f = from_binomial(coeffs)
        S = {rng.randint(-10, 10) for _ in range(rng.randint(1, 5))}
        assert level_count_bound(f, S).holds


def test_binomial_family_examples():
    # a*C(x, n) + b over S = {b, a+b}: witnesses 0..n-1, n and -1, so the
    # level count reaches n + 2 for every even n
    def family(n, a, b):
        f = from_binomial([b] + [0] * (n - 1) + [a])
        return level_census(f, (b, a + b))

    cen = family(2, 1, 0)
    assert cen.count == 4 and cen.witnesses == (-1, 0, 1, 2)
    assert {-1, 0, 1, 2, 3, 4} <= set(family(4, 1, 0).witnesses)
    for n in (2, 4, 6, 8, 10):
        for a, b in ((1, 0), (3, 5)):
            assert family(n, a, b).count >= n + 2
