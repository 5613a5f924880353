import math
import os
from itertools import islice

import pytest

from primepoly import constructions, poly, primes
from primepoly.census import prime_census
from primepoly.constructions import (
    ConstructionCertificate,
    build_n_plus_1,
    build_p_plus,
    fixed_example,
    pairing_primes,
    quadratic_anchor_points,
    search_n_plus_2,
)
from primepoly.errors import BudgetExhausted, TheoremViolation
from primepoly.poly import RatPolynomial, evaluate
from primepoly.primes import is_prime, primes_stream

from helpers import anchor_multiplier_poly, record_types


def test_fixed_examples():
    expectations = {
        "deg2": ("deg2", 2, 4),
        "deg3": ("deg3", 3, 5),
        "deg4": ("deg4_nplus4", 4, 8),
        "deg5": ("deg5_nplus3", 5, 8),
    }
    for kind, (report_kind, degree, count) in expectations.items():
        cert = fixed_example(kind)
        assert cert.kind == report_kind
        assert cert.degree == degree
        assert cert.claimed == count
        assert cert.census.P == count


def test_deg5_witnesses_are_consecutive():
    cert = fixed_example("deg5")
    assert [w.m for w in cert.census.witnesses] == list(range(8))


def _pairing_products(ps):
    return math.prod(1 - p for p in ps), math.prod(-1 - p for p in ps)


def test_pairing_rule_balances_for_all_n():
    assert _pairing_products([3, -3]) == (-8, -8)
    assert _pairing_products([2, -3, -5]) == (-24, -24)
    for n in range(3, 21):
        ps = pairing_primes(n)
        assert len(ps) == n - 1
        assert len(set(ps)) == n - 1
        left, right = _pairing_products(ps)
        assert left == right
        if n % 2 == 0:
            assert ps[-3:] == [2, -3, -5]


def test_unbalanced_pairing_is_a_theorem_violation(monkeypatch):
    # prod(1 - p) = 2 and prod(-1 - p) = 12 for [2, 3]
    monkeypatch.setattr(constructions, "pairing_primes", lambda n: [2, 3])
    with pytest.raises(TheoremViolation, match="parity rule failed to balance the two products"):
        build_n_plus_1(3)


def test_build_n_plus_1_small_cases():
    cert = build_n_plus_1(3)
    assert cert.anchors == (3, -3)
    assert cert.multiplier_t == 1
    assert cert.product == RatPolynomial([0, -8, 0, 1])  # x(x^2 - 8)
    assert cert.census.P == 4

    cert = build_n_plus_1(4)
    assert cert.anchors == (2, -3, -5)
    assert cert.multiplier_t == 1
    assert cert.census.P >= 5

    cert = build_n_plus_1(5)
    assert cert.anchors == (3, -3, 5, -5)
    assert cert.multiplier_t == 1
    assert cert.induced[0][0] == 193
    assert cert.census.P >= 6


def test_build_n_plus_1_range_and_consistency():
    for n in range(3, 13):
        cert = build_n_plus_1(n)
        assert cert.census.P >= n + 1
        # re-run the census from scratch: certificate must reproduce
        again = prime_census(cert.factors)
        assert again == cert.census
        assert record_types(again) == record_types(cert.census)
        if n >= 6:
            assert cert.census.P <= n + 2
    with pytest.raises(ValueError):
        build_n_plus_1(2)


def test_build_n_plus_1_anchor_values():
    cert = build_n_plus_1(7)
    f = cert.product
    for p in cert.anchors:
        assert evaluate(f, p) == p
    assert abs(evaluate(f, 1)) == abs(cert.induced[0][0])
    assert evaluate(f, 1) == -evaluate(f, -1)
    (v, status), (w, status_w) = cert.induced
    assert w == -v and status_w == status


def test_build_p_plus_examples():
    cert = build_p_plus(3)
    assert cert.anchors == (2, 3)
    assert cert.multiplier_t == 1
    assert cert.product == RatPolynomial([0, 7, -5, 1])  # x(x^2 - 5x + 7)
    assert [w.m for w in cert.census.witnesses if w.value > 0] == [1, 2, 3]

    cert = build_p_plus(2)
    assert cert.anchors == (2,)
    assert cert.multiplier_t == -1
    assert cert.product == RatPolynomial([0, 3, -1])  # x(3 - x)
    assert cert.census.Pplus == 2


def test_build_p_plus_sandwich():
    for n in range(2, 13):
        cert = build_p_plus(n)
        assert cert.census.Pplus == n
    with pytest.raises(ValueError):
        build_p_plus(1)


@pytest.mark.parametrize("n", range(3, 41))
def test_multiplier_matches_anchor_product_oracle(n):
    for cert in (build_n_plus_1(n), build_p_plus(n)):
        x, g = cert.factors
        assert x == RatPolynomial([0, 1])
        assert g == anchor_multiplier_poly(cert.anchors, cert.multiplier_t)


def test_constructions_build_through_the_integer_kernels(monkeypatch):
    calls = []
    for module, name in ((poly, "_mul"), (constructions, "_nested")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    for build, n in ((build_n_plus_1, 12), (build_p_plus, 12), (search_n_plus_2, 6)):
        calls.clear()
        cert = build(n)
        # _multiplier_poly builds g by one _nested call, and _certify
        # multiplies 1 * f_1 * f_2 through two _mul calls
        assert calls == ["_nested", "_mul", "_mul"]
        assert cert.product == math.prod(cert.factors)


def test_budget_exhaustion_propagates():
    with pytest.raises(BudgetExhausted) as info:
        build_p_plus(6, t_max=2)
    assert info.value.anchors == tuple(islice(primes_stream(), 5)) == (2, 3, 5, 7, 11)
    assert info.value.frontier == 2

    with pytest.raises(BudgetExhausted) as info:
        build_n_plus_1(20, t_max=1)
    assert info.value.anchors == tuple(pairing_primes(20))
    assert info.value.frontier == 1


def test_quadratic_anchor_points():
    got = list(quadratic_anchor_points(5))
    assert got == [-1, -2, -3, 4, -4, 5, -5]
    # h2(4) = 5 and h2(-1) = 5 are prime; 0..3 excluded as unit fiber
    h2 = RatPolynomial([1, -3, 1])
    for b in got:
        assert abs(evaluate(h2, b)) not in (0, 1)


def test_search_n_plus_2_small_n():
    for n in (3, 4, 5):
        result = search_n_plus_2(n)
        assert isinstance(result, ConstructionCertificate)
        assert result.census.P >= n + 2
        assert len(result.induced) == 4
        again = prime_census(result.factors)
        assert again == result.census
        assert record_types(again) == record_types(result.census)

    res3 = search_n_plus_2(3)
    assert res3.anchors == (-1,)
    assert res3.multiplier_t == -6
    assert [v for v, _ in res3.induced] == [-5, -11, -17, -23]


def test_search_n_plus_2_fixed_scans_and_their_work(monkeypatch):
    # count, inside the multiplier scan only, the base-2 screens made
    # outside `is_prime` and the values that reach `is_prime`.  One CPU keeps
    # every window's screens in this process, where the counts see them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    screens, verdicts, depth = [], [], {"scan": 0, "is_prime": 0}
    strong, scan = primes._strong_probable_prime, constructions.find_multiplier

    def counted_strong(n):
        if depth["scan"] and not depth["is_prime"]:
            screens.append(n)
        return strong(n)

    def counted_is_prime(n):
        if depth["scan"]:
            verdicts.append(n)
        depth["is_prime"] += 1
        try:
            return is_prime(n)
        finally:
            depth["is_prime"] -= 1

    def counted_scan(*args, **kwargs):
        depth["scan"] += 1
        try:
            return scan(*args, **kwargs)
        finally:
            depth["scan"] -= 1

    monkeypatch.setattr(primes, "_strong_probable_prime", counted_strong)
    monkeypatch.setattr(primes, "is_prime", counted_is_prime)
    monkeypatch.setattr(constructions, "find_multiplier", counted_scan)
    # both hits lie in the deep windows of the scan (|t| > 2,304); the
    # sieve of primes below 2,000 in windows of 4,096 made 4,135 screens at
    # n = 36 and 1,169 at n = 30 (the unsieved scan 28,213 tests at n = 30),
    # the windows that grow with |t| make 1,983 and 798
    for n, t, max_screens in ((36, 44812, 2000), (30, -12923, 800)):
        screens.clear()
        verdicts.clear()
        cert = search_n_plus_2(n)
        assert cert.multiplier_t == t
        # only the hit's four values get a full primality verdict
        assert verdicts == [v for v, _ in cert.induced]
        assert len(screens) < max_screens


def test_search_n_plus_2_budget_returns_frontier():
    with pytest.raises(BudgetExhausted) as info:
        search_n_plus_2(9, b_scan_max=60, t_max=1)
    assert info.value.frontier == 1
    assert info.value.anchors == tuple(quadratic_anchor_points(60))[:7]
    # too few anchors: only -1, -2, -3 have |b| <= 3, and n = 12 needs ten
    with pytest.raises(BudgetExhausted) as info:
        search_n_plus_2(12, b_scan_max=3)
    assert info.value.frontier == 0
    assert info.value.anchors == (-1, -2, -3)
