import random
from fractions import Fraction as F

import pytest
import sympy

from primepoly import census as census_module
from primepoly.census import level_census, prime_census, unit_fibers
from primepoly.errors import TheoremViolation
from primepoly.poly import RatPolynomial, evaluate

from helpers import random_int_poly

H2 = RatPolynomial([1, -3, 1])
X = RatPolynomial([0, 1])


def test_unit_fibers_examples():
    fib = unit_fibers(H2)
    assert fib.eplus == (0, 3) and fib.eminus == (1, 2) and fib.E == 4
    fib = unit_fibers(RatPolynomial([-1, 1]))
    assert fib.eplus == (2,) and fib.eminus == (0,) and fib.E == 2
    fib = unit_fibers(RatPolynomial([0, 0, 1]))
    assert fib.eplus == (-1, 1) and fib.eminus == () and fib.E == 2
    with pytest.raises(ValueError):
        unit_fibers(RatPolynomial([5]))


def test_prime_census_paper_examples():
    census = prime_census([H2, RatPolynomial([29, -11, 1])])
    assert census.P == 8
    assert [w.m for w in census.witnesses] == list(range(8))

    census = prime_census([X, RatPolynomial([-4, 1])])
    assert census.P == 4
    assert [w.m for w in census.witnesses] == [-1, 1, 3, 5]

    census = prime_census([X, X])
    assert census.P == 0 and census.Pplus == 0


def test_prime_census_counts_negative_prime_values():
    census = prime_census([X, RatPolynomial([-4, 1])])
    values = {w.m: w.value for w in census.witnesses}
    assert values[1] == -3 and values[3] == -3  # negative primes counted in P
    assert census.Pplus == 2  # only m = -1, 5 give positive primes


def test_prime_census_validation():
    with pytest.raises(ValueError):
        prime_census([H2])
    with pytest.raises(ValueError):
        prime_census([H2, RatPolynomial([7])])
    with pytest.raises(ValueError):
        # x/2 is not integer-valued: the fiber certificate would be unsound
        prime_census([RatPolynomial([0, F(1, 2)]), RatPolynomial([0, 2])])


def test_prime_census_non_integer_factor_value_is_a_violation(monkeypatch):
    # x/3 is not integer-valued: with that check bypassed, the candidate
    # m = 2 (where x - 1 = 1) gives x/3 = 2/3, which must raise
    monkeypatch.setattr(census_module, "is_integer_valued", lambda g: True)
    with pytest.raises(TheoremViolation, match=r"g0\(2\) = 2/3 is not an integer"):
        prime_census([RatPolynomial([0, F(1, 3)]), RatPolynomial([-1, 1])])


def test_prime_census_three_factors():
    census = prime_census([X, RatPolynomial([-2, 1]), RatPolynomial([-4, 1])])
    scan = [
        m for m in range(-100, 101)
        if sympy.isprime(abs(m * (m - 2) * (m - 4)))
    ]
    assert [w.m for w in census.witnesses] == scan
    assert census.P == len(scan) > 0


def test_witness_certificate_fields():
    census = prime_census([H2, RatPolynomial([-5, 1])])
    assert census.P == 5
    for w in census.witnesses:
        assert abs(evaluate(H2, w.m)) == 1 or abs(evaluate(RatPolynomial([-5, 1]), w.m)) == 1
        assert w.unit_factors  # at least one factor at a unit
        assert sympy.isprime(abs(w.value))
    # every witness sits in some recorded fiber
    fiber_union = {
        m for fib in census.fibers for m in fib.eplus + fib.eminus
    }
    assert {w.m for w in census.witnesses} <= fiber_union
    assert census.P <= census.fiber_bound


def test_prime_census_brute_scan_oracle():
    rng = random.Random(1234)
    for _ in range(40):
        g = random_int_poly(rng, rng.randint(1, 3), 9)
        h = random_int_poly(rng, rng.randint(1, 3), 9)
        census = prime_census([g, h])
        for w in census.witnesses:
            assert w.unit_factors == tuple(i for i, gi in enumerate((g, h)) if abs(evaluate(gi, w.m)) == 1)
        got = {w.m for w in census.witnesses if abs(w.m) <= 500}
        expect = set()
        for m in range(-500, 501):
            v = evaluate(g * h, m)
            assert v.denominator == 1
            if sympy.isprime(abs(int(v))):
                expect.add(m)
        assert got == expect
        # nothing prime outside the candidate set
        candidates = {m for fib in census.fibers for m in fib.eplus + fib.eminus}
        assert expect <= candidates


def test_stackel_bound_and_theorems_on_random():
    rng = random.Random(4321)
    for _ in range(60):
        g = random_int_poly(rng, rng.randint(1, 3), 9)
        h = random_int_poly(rng, rng.randint(1, 3), 9)
        census = prime_census([g, h])
        n = int(g.degree + h.degree)
        assert census.Pplus <= census.P <= census.fiber_bound
        assert census.P <= n + 4
        assert census.Pplus <= n
        if n >= 6:
            assert census.P <= n + 2


def test_level_census_examples():
    cen = level_census(RatPolynomial([0, 0, 1]), {0, 1, 4})
    assert cen.count == 5 and cen.witnesses == (-2, -1, 0, 1, 2)
    cen = level_census(X, {2, 3})
    assert cen.count == 2 and cen.witnesses == (2, 3)
    cen = level_census(RatPolynomial([0, F(-1, 2), F(1, 2)]), {0, 1})
    assert cen.count == 4 and cen.witnesses == (-1, 0, 1, 2)
    with pytest.raises(ValueError):
        level_census(RatPolynomial([3]), {1})
    with pytest.raises(ValueError):
        level_census(X, set())


def test_level_census_brute_scan_oracle():
    rng = random.Random(999)
    for _ in range(40):
        f = random_int_poly(rng, rng.randint(1, 5), 9)
        S = {rng.randint(-20, 20) for _ in range(rng.randint(1, 4))}
        cen = level_census(f, S)
        expect = tuple(
            m for m in range(-500, 501) if int(evaluate(f, m)) in S
        )
        assert tuple(m for m in cen.witnesses if abs(m) <= 500) == expect
