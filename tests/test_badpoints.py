import contextlib
import io
import os
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primepoly import badpoints
from primepoly.badpoints import (
    _at,
    _positive,
    bad_points,
    block_report,
    complex_counterexample,
)
from primepoly.cli import run
from primepoly.poly import RatPolynomial, evaluate
from primepoly.roots import _to_int, isolate_roots

from helpers import pq_chain_sign_at, product_bad_points, random_int_poly, random_rat_poly, record_types

H2 = RatPolynomial([1, -3, 1])


def test_bad_points_quartic_pair():
    g, h = H2, RatPolynomial([29, -11, 1])
    pts = bad_points(g, h)
    assert [(p.root.lo, p.root.hi) for p in pts] == [(0, 0), (3, 3), (4, 4), (7, 7)]
    assert [p.tags for p in pts] == [("g+",), ("g+",), ("h+",), ("h+",)]
    # the four excluded fiber points have f < 1 there
    f = g * h
    for m in (1, 2, 5, 6):
        assert evaluate(f, m) < 1


def test_bad_points_boundary_strictness():
    x = RatPolynomial([0, 1])
    assert bad_points(x, x) == []  # f(+-1) = 1 exactly, not > 1


def test_bad_points_with_irrational_candidates():
    # g = x^2 - 2, h = x - 3: candidates are +-sqrt(3), +-1, 2, 4;
    # f exceeds 1 at -1, 1 (f = 4, 2) and at 4 (f = 14)
    g, h = RatPolynomial([-2, 0, 1]), RatPolynomial([-3, 1])
    pts = bad_points(g, h)
    assert [(p.root.lo, p.root.hi) for p in pts] == [(-1, -1), (1, 1), (4, 4)]
    assert [p.tags for p in pts] == [("g-",), ("g-",), ("h+",)]


def test_bad_points_merges_shared_real():
    # shared-real case: g and h both equal 1 at +-sqrt(2), so f = g*h = 1
    # there and, under the strict f > 1 definition, those points are
    # excluded; only x = 0 (g = -1, h = -3, f = 3) is bad
    g = RatPolynomial([-1, 0, 1])          # g - 1 = x^2 - 2
    h = RatPolynomial([-3, 0, 2])          # h - 1 = 2x^2 - 4 = 2(x^2 - 2)
    pts = bad_points(g, h)
    assert [(p.root.lo, p.root.hi) for p in pts] == [(0, 0)]
    assert [p.tags for p in pts] == [("g-",)]
    x2_minus_2 = RatPolynomial([-2, 0, 1])
    for p in pts:
        assert pq_chain_sign_at(_to_int(x2_minus_2), p.root) != 0   # not at +-sqrt(2)
        assert len(p.tags) == 1


def test_bad_points_separates_overlapping_candidates_with_their_tags():
    # g - 1 = 3x^2 - 3x - 4 and h - 1 = -3x^2 - 3x + 1 have their negative
    # roots -0.758 and -1.264 in the same isolating interval (-3/2, -3/4);
    # only refinement orders them, and each tag must follow its root
    g, h = RatPolynomial([-3, -3, 3]), RatPolynomial([2, -3, -3])
    first_g, first_h = isolate_roots(g - 1)[0], isolate_roots(h - 1)[0]
    assert (first_g.lo, first_g.hi) == (first_h.lo, first_h.hi) == (F(-3, 2), F(-3, 4))
    pts = bad_points(g, h)
    assert [p.tags for p in pts] == [("h+",), ("g+",), ("h-",), ("g-",)]
    at = {"g+": g - 1, "g-": g + 1, "h+": h - 1, "h-": h + 1}
    for p in pts:
        assert pq_chain_sign_at(_to_int(at[p.tags[0]]), p.root) == 0
    for a, b in zip(pts, pts[1:]):
        assert a.root.hi < b.root.lo


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["random", "h=g", "h=-g", "h=g+2", "h=2g-1"]))
def test_bad_points_match_product_filter(seed, shape):
    # h = g, -g, g + 2 and 1 + 2(g - 1) put both factors at +-1 on the same
    # reals; with h - 1 = 2(g - 1) every candidate's interval meets its
    # partner's, so each sign falls back to the Tarski query, and f = 1 there
    rng = random.Random(seed)
    g = random_rat_poly(rng, rng.randint(1, 4), 5)
    h = {
        "random": random_rat_poly(rng, rng.randint(1, 4), 5),
        "h=g": g, "h=-g": -g, "h=g+2": g + 2, "h=2g-1": 2 * g - 1,
    }[shape]
    got, want = bad_points(g, h), product_bad_points(g, h)
    assert got == want and record_types(got) == record_types(want)


def test_bad_points_match_product_filter_with_denominators():
    # the counterexample pair g = x^3/3 - x + 1, h = (2/9)(x - 2)^2 + 1:
    # g = 1 at 0 and +-sqrt(3), h = 1 at 2, f > 1 at all four
    cx = complex_counterexample()
    g0, h0 = cx["g"], cx["h"]
    assert len(bad_points(g0, h0)) == 4
    for g, h in ((g0, h0), (h0, g0), (g0, -h0), (-g0, h0 * F(3, 2))):
        got, want = bad_points(g, h), product_bad_points(g, h)
        assert got == want and record_types(got) == record_types(want)


def test_bad_points_partner_root_at_the_candidate_endpoint():
    # h - 1 = x - lo has its exact root at the left end lo of sqrt(2)'s
    # interval, the candidate of g - 1 = x^2 - 2: the closed intervals meet,
    # so the sign comes from the Tarski query, not from q(lo) = 0
    g = RatPolynomial([-1, 0, 1])
    lo = isolate_roots(RatPolynomial([-2, 0, 1]))[1].lo
    h = RatPolynomial([1 - lo, 1])
    pts = bad_points(g, h)
    assert [(p.root.lo, p.root.hi, p.tags) for p in pts] == [(lo, isolate_roots(g - 1)[1].hi, ("g+",))]
    assert pts == product_bad_points(g, h)


def test_bad_points_ask_few_tarski_queries(monkeypatch):
    # seed 771534 is the statement41 line of the theorem_checks workload at
    # seed 0; a query for every candidate's sign made 5,219 calls there.
    # One CPU keeps all 1,000 pairs in this process, where the count sees them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []

    def counted(cq, r, _original=badpoints._sign_at):
        calls.append(r)
        return _original(cq, r)

    monkeypatch.setattr(badpoints, "_sign_at", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["statement41", "--random", "--trials", "1000", "--seed", "771534"]) == 0
    assert 0 < len(calls) <= 1300


def test_bad_points_builds_no_rational_polynomial(monkeypatch):
    calls = []
    for name in ("__add__", "__neg__"):
        def counted(*args, _original=getattr(RatPolynomial, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(RatPolynomial, name, counted)
    g, h = RatPolynomial([F(-3, 2), -3, 3]), RatPolynomial([2, F(-3, 5), -3])
    assert len(bad_points(g, h)) == 4
    assert calls == []
    g - 1
    assert calls == ["__neg__", "__add__"]  # the counter sees the arithmetic


def test_block_report_quartic_pair():
    rep = block_report(H2, RatPolynomial([29, -11, 1]))
    assert rep.k == 4
    assert rep.degree == 4
    assert rep.types == "[g+ g+ h+ h+]"
    assert rep.block_count == 2
    assert rep.equal_type_pairs == 2
    assert rep.central_blocks == 0
    assert rep.derivative_roots_g == 1
    assert rep.derivative_roots_h == 1
    assert rep.derivative_roots_g + rep.derivative_roots_h >= rep.k - 2


def test_block_structure_no_adjacent_equal_blocks():
    rng = random.Random(11)
    for _ in range(80):
        g = random_int_poly(rng, rng.randint(1, 4), 5)
        h = random_int_poly(rng, rng.randint(1, 4), 5)
        rep = block_report(g, h)
        assert rep.k <= rep.degree
        assert rep.derivative_roots_g + rep.derivative_roots_h >= rep.k - 2
        for b1, b2 in zip(rep.blocks, rep.blocks[1:]):
            assert b1.type != b2.type
            assert b2.start == b1.end + 1
        assert rep.equal_type_pairs == rep.k - rep.block_count
        assert rep.central_blocks == max(0, rep.block_count - 2) or rep.block_count <= 2
        # points are strictly ordered and pairwise disjoint
        for p1, p2 in zip(rep.points, rep.points[1:]):
            assert p1.root.hi <= p2.root.lo or (
                p1.root.hi < p2.root.lo if not p1.root.is_exact else True
            )


def test_block_report_validation():
    with pytest.raises(ValueError):
        block_report(RatPolynomial([2]), RatPolynomial([0, 1]))


def test_complex_counterexample_exact():
    cx = complex_counterexample()
    assert list(cx) == [
        "g", "h", "degree", "bad_count", "points", "factor_identity_ok", "h(2)", "h(2+3i)", "h(2-3i)",
        "g(2+3i)", "f(0)", "f(2)", "f(sqrt3)", "f(-sqrt3)", "f(2+3i)",
    ]
    assert cx["bad_count"] == 6
    assert cx["degree"] == 5
    assert cx["factor_identity_ok"]
    assert cx["h(2)"] == 1
    assert cx["h(2+3i)"] == "-1+0i"
    assert cx["h(2-3i)"] == "-1+0i"
    assert cx["g(2+3i)"] == "-49/3+0i"
    assert cx["f(2+3i)"] == "49/3+0i"
    assert cx["f(0)"] == F(17, 9)
    assert cx["f(2)"] == F(5, 3)
    assert cx["f(sqrt3)"] == "23/9-8/9*sqrt(3)"
    assert cx["f(-sqrt3)"] == "23/9+8/9*sqrt(3)"
    assert cx["bad_count"] > cx["degree"]


_G = RatPolynomial([1, -1, 0, F(1, 3)])                # x^3/3 - x + 1
_H = RatPolynomial([F(17, 9), F(-8, 9), F(2, 9)])      # (2/9)(x-2)^2 + 1
_small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_small_rationals, max_size=6).map(RatPolynomial),
    _small_rationals,
    _small_rationals,
    st.sampled_from([-1, 2, 3, 5]),
)
@example(_H, F(2), F(3), -1).via("h(2+3i) = -1")
@example(_H, F(2), F(-3), -1).via("h(2-3i) = -1")
@example(RatPolynomial([]), F(2), F(3), -1).via("the zero polynomial")
@example(_G, F(0), F(1), 3).via("g(sqrt3) = 1")
@example(_G, F(0), F(-1), 3).via("g(-sqrt3) = 1")
def test_at_matches_sympy(p, a, b, d):
    unit = sympy.sqrt(d)
    z = sympy.Rational(a) + sympy.Rational(b) * unit
    value = sympy.expand(sum(sympy.Rational(c) * z ** k for k, c in enumerate(p)))
    im = value.coeff(unit)
    assert _at(p, a, b, d) == (F(str(sympy.expand(value - im * unit))), F(str(im)))


def test_at_examples():
    assert _at(_H, F(2), F(3), -1) == (-1, 0)
    assert _at(_H, F(2), F(-3), -1) == (-1, 0)
    assert _at(RatPolynomial([0, 0, 1]), F(2), F(3), -1) == (-5, 12)   # (2+3i)^2
    assert _at(RatPolynomial([]), F(2), F(3), -1) == (0, 0)
    assert _at(_G, F(0), F(1), 3) == (1, 0)
    assert _at(_G, F(0), F(-1), 3) == (1, 0)


def test_positive():
    # (23 - 8*sqrt(3))/9 - 1 = (14 - 8*sqrt(3))/9 > 0 since 196 > 192
    assert _positive(F(14, 9), F(-8, 9), 3)
    assert not _positive(F(13, 9), F(-8, 9), 3)  # 169 < 192
    assert _positive(F(-13, 9), F(8, 9), 3) and not _positive(F(-14, 9), F(8, 9), 3)  # the negations
    assert not _positive(F(0), F(0), 3)
    assert not _positive(F(2), F(-1), 4)  # 2 = sqrt(4): the boundary is not positive
    assert not _positive(F(-2), F(1), 4)
    assert _positive(F(0), F(1), 3) and _positive(F(1), F(0), 3) and _positive(F(1), F(1), 3)
    assert not _positive(F(0), F(-1), 3) and not _positive(F(-1), F(0), 3) and not _positive(F(-1), F(-1), 3)


def test_complex_counterexample_real_part_still_capped():
    # restricted to the reals, the same pair obeys the cap
    cx = complex_counterexample()
    rep = block_report(cx["g"], cx["h"])
    assert rep.k <= 5
