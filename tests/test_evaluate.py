"""The one rational Horner, `poly._eval_scaled_frac`, and `evaluate` built
on it, against the `Fraction` loop and the den == 1 fork they replaced."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from primepoly.poly import RatPolynomial, _eval_scaled_frac, evaluate

from helpers import forked_eval_scaled_frac, fraction_evaluate

_ints = st.integers(-10 ** 6, 10 ** 6) | st.integers(-(2 ** 300), 2 ** 300)
# den = 1, a power of two (the bisection points), or any other denominator
_dens = st.just(1) | st.integers(0, 80).map(lambda e: 2 ** e) | st.integers(1, 10 ** 9)
_rationals = st.builds(F, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)) | _ints.map(F)
# 0, constants and higher degrees, with trailing zeros that construction trims
_polys = st.lists(_rationals, max_size=12).map(RatPolynomial)


@settings(max_examples=300, deadline=None)
@given(_polys, _ints, _dens)
@example(RatPolynomial(), -3, 4).via("the zero polynomial")
@example(RatPolynomial([F(-7, 3)]), 5, 8).via("a constant")
@example(RatPolynomial([F(1, 2), 0, -3]), -1, 1).via("den = 1, negative numerator")
def test_evaluate_matches_fraction_horner(p, num, den):
    x = F(num, den)
    assert evaluate(p, x) == fraction_evaluate(p, x)
    assert evaluate(p, num) == fraction_evaluate(p, num)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ints, min_size=1, max_size=12), _ints, _dens)
@example([0, 0, 5], 7, 1).via("den = 1, a list ending in zeros")
@example([3], -2, 2 ** 40).via("a constant")
def test_eval_scaled_frac_matches_forked_loop(c, num, den):
    assert _eval_scaled_frac(c, num, den) == forked_eval_scaled_frac(c, num, den)


def test_eval_scaled_frac_of_the_empty_list_is_zero():
    assert _eval_scaled_frac([], 3, 4) == 0
