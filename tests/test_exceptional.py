import random

import pytest

from primepoly.census import unit_fibers
from primepoly.exceptional import _LIST_DATA, equivalent_to_list, search_exceptional
from primepoly.poly import RatPolynomial, compose_affine

from helpers import brute_search_exceptional, list_equivalent_candidates, record_types

LIST = dict(_LIST_DATA)


def test_list_entries_and_fibers():
    assert sorted(LIST) == [1, 2, 3, 4, 5]
    fibers = {index: unit_fibers(p) for index, p in LIST.items()}
    assert [fibers[i].E for i in range(1, 6)] == [4, 4, 3, 2, 2]
    assert [LIST[i].degree for i in range(1, 6)] == [3, 2, 2, 1, 1]
    assert fibers[1].eplus == (0, 1, 3)
    assert fibers[1].eminus == (2,)
    assert fibers[3].eplus == (0, 2)
    assert fibers[3].eminus == (1,)
    assert fibers[2].E == 4
    # every entry is exceptional, and the search at bound 5 reaches
    # exactly the entries of its degree
    for degree, indices in ((1, {4, 5}), (2, {2, 3}), (3, {1})):
        hits = search_exceptional(degree, 5).hits
        assert {h.equivalence.index for h in hits} == indices
        for i in indices:
            assert LIST[i] in {h.poly for h in hits}


def test_equivalent_to_list_examples():
    eq = equivalent_to_list(RatPolynomial([1, -3, 1]))
    assert (eq.index, eq.sigma, eq.tau, eq.a) == (2, 1, 1, 0)
    eq = equivalent_to_list(RatPolynomial([1, -1]))
    assert (eq.index, eq.sigma, eq.tau, eq.a) == (5, 1, -1, 2)
    assert equivalent_to_list(RatPolynomial([1, 0, 1])) is None
    # no list entry has degree 0 or 4
    assert equivalent_to_list(RatPolynomial([1, 0, 0, 0, 1])) is None
    assert equivalent_to_list(RatPolynomial([7])) is None


def test_equivalence_round_trip_random():
    rng = random.Random(31)
    for _ in range(120):
        entry = LIST[rng.randint(1, 5)]
        sigma, tau = rng.choice([1, -1]), rng.choice([1, -1])
        a = rng.randint(-50, 50)
        image = compose_affine(entry, sigma, tau, a)
        eq = equivalent_to_list(image)
        assert eq is not None
        assert compose_affine(LIST[eq.index], eq.sigma, eq.tau, eq.a) == image


def test_unit_count_invariant_under_transform_group():
    rng = random.Random(32)
    for _ in range(30):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
        coeffs.append(rng.choice([c for c in range(-6, 7) if c]))
        p = RatPolynomial(coeffs)
        e = unit_fibers(p).E
        sigma, tau = rng.choice([1, -1]), rng.choice([1, -1])
        a = rng.randint(-30, 30)
        assert unit_fibers(compose_affine(p, sigma, tau, a)).E == e


def test_search_degree_1_bound_2():
    report = search_exceptional(1, 2)
    polys = {tuple(int(c) for c in h.poly) for h in report.hits}
    assert (-1, 2) in polys   # 2x - 1
    assert (-1, 1) in polys   # x - 1
    assert (1, 1) in polys    # x + 1
    assert (1, -2) in polys   # -2x + 1
    for h in report.hits:
        assert h.equivalence.index in (4, 5)
        assert h.E == 2


def test_search_degree_2_bound_4():
    report = search_exceptional(2, 4)
    polys = {tuple(int(c) for c in h.poly) for h in report.hits}
    assert (1, -3, 1) in polys   # E = 4
    assert (1, -4, 2) in polys   # E = 3
    for h in report.hits:
        assert h.E > 2
        assert h.equivalence.index in (2, 3)


def test_search_is_complete_for_list_equivalents():
    # both directions: every hit is equivalent (asserted inside the
    # search) and every in-range equivalent is a hit
    for degree, bound in ((1, 3), (2, 4), (3, 4)):
        report = search_exceptional(degree, bound)
        hit_polys = {h.poly for h in report.hits}
        for cand in list_equivalent_candidates(degree, bound):
            assert cand in hit_polys
        assert len(hit_polys) == len(list_equivalent_candidates(degree, bound))


@pytest.mark.parametrize(
    "degree,bound", [(d, b) for d in (1, 2, 3) for b in range(1, 6)] + [(4, 1), (4, 2)]
)
def test_search_matches_box_scan(degree, bound):
    got, want = search_exceptional(degree, bound), brute_search_exceptional(degree, bound)
    assert got == want
    assert record_types(got) == record_types(want)


def test_search_degree_3_small_bound_may_be_empty():
    report = search_exceptional(3, 1)
    assert report.hits == ()


def test_search_validation():
    with pytest.raises(ValueError):
        search_exceptional(0, 3)
    with pytest.raises(ValueError):
        search_exceptional(5, 3)
    with pytest.raises(ValueError):
        search_exceptional(2, 0)
