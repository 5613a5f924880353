import pytest

from primepoly import primes
from primepoly.census import prime_census
from primepoly.constructions import (
    ConstructionCertificate,
    build_n_plus_1,
    build_p_plus,
    check_pairing,
    fixed_example,
    pairing_primes,
    quadratic_anchor_points,
    search_n_plus_2,
)
from primepoly.errors import BudgetExhausted
from primepoly.poly import evaluate, make_poly
from primepoly.primes import first_primes, is_prime


def test_fixed_examples():
    expectations = {
        "deg2": (2, 4),
        "deg3": (3, 5),
        "deg4_nplus4": (4, 8),
        "deg5_nplus3": (5, 8),
    }
    for kind, (degree, count) in expectations.items():
        cert = fixed_example(kind)
        assert cert.f.degree == degree
        assert cert.claimed == count
        assert cert.census.P == count
    with pytest.raises(ValueError):
        fixed_example("deg6")


def test_deg5_witnesses_are_consecutive():
    cert = fixed_example("deg5_nplus3")
    assert [w.m for w in cert.census.witnesses] == list(range(8))


def test_check_pairing():
    res = check_pairing([3, -3])
    assert (res.left, res.right, res.equal) == (-8, -8, True)
    res = check_pairing([2, -3, -5])
    assert (res.left, res.right, res.equal) == (-24, -24, True)
    res = check_pairing([2, 3])
    assert (res.left, res.right, res.equal) == (2, 12, False)
    with pytest.raises(ValueError):
        check_pairing([3, 3])
    with pytest.raises(ValueError):
        check_pairing([1, 2])


def test_pairing_rule_balances_for_all_n():
    for n in range(3, 21):
        ps = pairing_primes(n)
        assert len(ps) == n - 1
        assert len(set(ps)) == n - 1
        assert check_pairing(ps).equal
        if n % 2 == 0:
            assert ps[-3:] == [2, -3, -5]


def test_build_n_plus_1_small_cases():
    cert = build_n_plus_1(3)
    assert cert.anchors == (3, -3)
    assert cert.multiplier_t == 1
    assert cert.f.product == make_poly([0, -8, 0, 1])  # x(x^2 - 8)
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
        again = prime_census(cert.f)
        assert again == cert.census
        if n >= 6:
            assert cert.census.P <= n + 2
    with pytest.raises(ValueError):
        build_n_plus_1(2)


def test_build_n_plus_1_anchor_values():
    cert = build_n_plus_1(7)
    f = cert.f.product
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
    assert cert.f.product == make_poly([0, 7, -5, 1])  # x(x^2 - 5x + 7)
    assert [w.m for w in cert.census.witnesses if w.value > 0] == [1, 2, 3]

    cert = build_p_plus(2)
    assert cert.anchors == (2,)
    assert cert.multiplier_t == -1
    assert cert.f.product == make_poly([0, 3, -1])  # x(3 - x)
    assert cert.census.Pplus == 2


def test_build_p_plus_sandwich():
    for n in range(2, 13):
        cert = build_p_plus(n)
        assert cert.census.Pplus == n
    with pytest.raises(ValueError):
        build_p_plus(1)


def test_budget_exhaustion_propagates():
    with pytest.raises(BudgetExhausted) as info:
        build_p_plus(6, t_max=2)
    assert info.value.anchors == tuple(first_primes(5))
    assert info.value.frontier == 2

    with pytest.raises(BudgetExhausted) as info:
        build_n_plus_1(20, t_max=1)
    assert info.value.anchors == tuple(pairing_primes(20))
    assert info.value.frontier == 1


def test_quadratic_anchor_points():
    got = list(quadratic_anchor_points(5))
    assert got == [-1, -2, -3, 4, -4, 5, -5]
    # h2(4) = 5 and h2(-1) = 5 are prime; 0..3 excluded as unit fiber
    h2 = make_poly([1, -3, 1])
    for b in got:
        assert abs(evaluate(h2, b)) not in (0, 1)


def test_search_n_plus_2_small_n():
    for n in (3, 4, 5):
        result = search_n_plus_2(n)
        assert isinstance(result, ConstructionCertificate)
        assert result.census.P >= n + 2
        assert len(result.induced) == 4
        again = prime_census(result.f)
        assert again == result.census

    res3 = search_n_plus_2(3)
    assert res3.anchors == (-1,)
    assert res3.multiplier_t == -6
    assert [v for v, _ in res3.induced] == [-5, -11, -17, -23]


def test_search_n_plus_2_fixed_scans_and_their_work(monkeypatch):
    # both hits lie beyond the first sieve window of 4,096 values of |t|
    assert search_n_plus_2(36).multiplier_t == 44812
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(primes, "is_prime", counted)
    assert search_n_plus_2(30).multiplier_t == -12923
    # the unsieved scan makes 28,213 tests here, the sieved one 1,169
    assert len(calls) < 2000


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
