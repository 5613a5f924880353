import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from primepoly.bounds import (
    binomial_level_family,
    cross_difference_bound,
    factorial_lower_bound,
    level_count_bound,
    polya_measure_check,
    set_pair_data,
    solve_constant,
    truncate_decimal,
    unbalanced_factorial_bound,
)
from primepoly.bounds import _display_root, _ln_interval, _phi_interval, _rhs_interval
from primepoly.poly import BinomialForm, from_binomial, make_poly

from helpers import random_int_poly


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


def test_truncate_decimal():
    assert truncate_decimal(F(186, 100), 1) == "1.8"
    assert truncate_decimal(F(-186, 100), 1) == "-1.9"
    assert truncate_decimal(F(5), 3) == "5.000"


def test_set_pair_data_identity():
    d = set_pair_data({0, 2}, {1, 3})
    assert (d.U, d.V, d.D, d.W) == (2, 2, 3, 12)
    assert d.W == d.U * d.V * d.D
    with pytest.raises(ValueError):
        set_pair_data({0, 1}, {1, 2})
    with pytest.raises(ValueError):
        set_pair_data(set(), {1})


def test_merged_product_identity_random():
    rng = random.Random(55)
    for _ in range(200):
        k = rng.randint(1, 6)
        vals = rng.sample(range(-50, 51), 2 * k)
        d = set_pair_data(vals[:k], vals[k:])
        assert d.W == d.U * d.V * d.D


def test_cross_difference_bound_examples():
    chk = cross_difference_bound({0}, {1})
    assert chk.holds and chk.bound == F(4, 9) and chk.data.D == 1
    chk = cross_difference_bound({0, 2}, {1, 3})
    assert chk.holds and chk.bound == F(64, 81)
    assert (chk.data.D, chk.data.U, chk.data.V) == (3, 2, 2)


def test_factorial_bound_examples():
    chk = factorial_lower_bound({0, 2}, {1, 3})
    # squared comparison: D^2 = 9 >= (4/9)^2 * 12 = 64/27
    assert chk.holds and chk.bound_power == F(64, 27)
    chk = factorial_lower_bound({5}, {9})
    assert chk.holds and chk.bound_power == F(4, 9)
    chk = factorial_lower_bound({0, 1}, {2, 3})
    assert chk.holds and chk.data.D == 12


def test_unbalanced_factorial_bound_examples():
    chk = unbalanced_factorial_bound({0}, {1, 5})
    assert chk.holds and chk.data.D == 5
    assert chk.power == 2 and chk.bound_power == F(16, 81)
    # k = s reduces to the balanced bound
    bal = factorial_lower_bound({0, 2}, {1, 3})
    unb = unbalanced_factorial_bound({0, 2}, {1, 3})
    assert unb.bound_power == bal.bound_power ** 2  # power 2k = 4 vs squared
    assert unb.holds == bal.holds
    with pytest.raises(ValueError):
        unbalanced_factorial_bound({0, 2, 4}, {1, 3})


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
        assert unbalanced_factorial_bound(vals[:k2], vals[k2:]).holds


def test_polya_examples():
    chk = polya_measure_check(make_poly([0, 0, 1]), 4)
    assert chk.holds and chk.bracket.upper == 4 and chk.bound == 8.0
    chk = polya_measure_check(make_poly([-2, 0, 1]), 1)
    assert chk.holds and chk.bound == 4.0
    assert F(145, 100) < chk.bracket.upper < F(148, 100)
    chk = polya_measure_check(make_poly([2, 0, 1]), 1)
    assert chk.holds and chk.bracket.upper == 0


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
    chk = level_count_bound(make_poly([0, F(-1, 2), F(1, 2)]), {0, 1})
    assert chk.census.count == 4 and chk.holds
    assert math.isclose(chk.bound, 2 + 4 * math.sqrt(2))

    chk = level_count_bound(make_poly([0, 0, 1]), {0})
    assert chk.census.count == 1 and chk.K == 0 and chk.holds

    chk = level_count_bound(make_poly([1, -3, 1]), {1, -1})
    assert chk.census.count == 4 and chk.holds

    with pytest.raises(ValueError):
        level_count_bound(make_poly([0, F(1, 2)]), {0})


def test_level_count_bound_random_integer_valued():
    rng = random.Random(58)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1, 2, -2, 3])]
        f = from_binomial(BinomialForm(tuple(F(c) for c in coeffs)))
        S = {rng.randint(-10, 10) for _ in range(rng.randint(1, 5))}
        assert level_count_bound(f, S).holds


def test_binomial_family_examples():
    fam = binomial_level_family(2, 1, 0)
    assert fam.S == (0, 1)
    assert fam.census.count == 4 and fam.census.witnesses == (-1, 0, 1, 2)

    fam = binomial_level_family(4, 1, 0)
    assert fam.census.count >= 6
    assert {-1, 0, 1, 2, 3, 4} <= set(fam.census.witnesses)

    fam = binomial_level_family(2, 3, 5)
    assert fam.S == (5, 8) and fam.census.count >= 4

    for n in (2, 4, 6, 8, 10):
        fam = binomial_level_family(n, 1, 0)
        assert fam.census.count >= n + 2

    with pytest.raises(ValueError):
        binomial_level_family(3, 1, 0)
    with pytest.raises(ValueError):
        binomial_level_family(4, 0, 1)
