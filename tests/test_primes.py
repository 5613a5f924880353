import math
import operator
import random
from itertools import islice

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    strong_probable_prime,
    three_tier_classify,
    unsieved_find_multiplier,
    uv_strong_lucas_probable_prime,
)
from primepoly import primes
from primepoly.constructions import quadratic_anchor_points
from primepoly.errors import BudgetExhausted
from primepoly.primes import (
    STATUS_COMPOSITE,
    STATUS_PRIME,
    STATUS_PROBABLE,
    ProgressionHit,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    find_multiplier,
    is_prime,
)


def _sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


def test_small_values():
    assert is_prime(29).status == STATUS_PRIME
    assert is_prime(561).status == STATUS_COMPOSITE  # Carmichael number
    assert is_prime(2).status == STATUS_PRIME
    for n in (0, 1, -1):
        assert not is_prime(n).is_prime


def test_negative_judged_by_absolute_value():
    v = is_prime(-7)
    assert v.is_prime and v.value == -7
    assert not is_prime(-8).is_prime


def test_mersenne_and_carmichael():
    assert is_prime(2 ** 61 - 1).status == STATUS_PRIME
    assert sympy.isprime(2 ** 61 - 1)
    # strong pseudoprime to several bases
    assert is_prime(3215031751).status == STATUS_COMPOSITE


def test_strong_pseudoprime_to_the_first_eleven_bases():
    # 149491 * 747451 * 34233211 passes the strong test to every base
    # 2, ..., 31 and fails only at 37, the twelfth witness
    n = 3825123056546413051
    assert _strong_probable_prime(n)
    assert all(strong_probable_prime(n, a) for a in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert not strong_probable_prime(n, 37)
    assert is_prime(n).status == STATUS_COMPOSITE


_ODD_IN_RANGE = st.integers(97 ** 2 // 2, 2 ** 63 - 1).map(lambda k: 2 * k + 1)  # [97**2, 2**64)
# sympy.nextprime of anything up to 2**32 - 6 is at most 2**32 - 5, the largest 32-bit prime
_PRIME_16_32 = st.integers(1 << 15, (1 << 32) - 6).map(sympy.nextprime)


@settings(max_examples=400, deadline=None)
@given(_ODD_IN_RANGE | st.tuples(_PRIME_16_32, _PRIME_16_32).map(lambda pq: pq[0] * pq[1]))
@example(3215031751)  # strong pseudoprime to the bases 2, 3, 5 and 7
@example(3825123056546413051)  # to the first eleven prime bases
@example(1093 ** 2)  # base-2 strong pseudoprimes with no factor below 100
@example(3511 ** 2)
@example(22499)  # 149 * 151, a strong Lucas pseudoprime
@example(2 ** 64 - 59)  # the largest prime below 2**64
@example(2 ** 61 - 1)
def test_bpsw_matches_three_tier_oracle_below_2_64(n):
    status, method = three_tier_classify(n)
    assert is_prime(n) == (n, status, "bpsw" if method == "miller_rabin_det" else method)


def test_status_above_deterministic_range():
    p = 2 ** 89 - 1  # Mersenne prime
    v = is_prime(p)
    assert v.status == STATUS_PROBABLE and v.is_prime
    assert is_prime(2 ** 67 - 1).status == STATUS_COMPOSITE  # 193707721 * 761838257287


def test_agrees_with_sieve_exhaustively():
    limit = 10 ** 6
    flags = _sieve(limit)
    mismatches = [n for n in range(limit + 1) if bool(flags[n]) != is_prime(n).is_prime]
    assert mismatches == []


def test_agrees_with_sympy_on_random_large():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(2, 2 ** 64)
        assert is_prime(n).is_prime == sympy.isprime(n)
    for _ in range(25):
        n = rng.randrange(2 ** 64, 2 ** 80)
        assert is_prime(n).is_prime == sympy.isprime(n)


def test_lucas_ladder_matches_uv_oracle_below_50000():
    mismatches = [
        n
        for n in range(3, 50000, 2)
        if math.isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n) != uv_strong_lucas_probable_prime(n)
    ]
    assert mismatches == []


# the strong Lucas pseudoprimes with Selfridge's parameters below 131,000
_STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
    40309, 58519, 75077, 97439, 100127, 113573, 115639, 130139,
)


@pytest.mark.parametrize("n", _STRONG_LUCAS_PSEUDOPRIMES)
def test_lucas_ladder_passes_strong_lucas_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert _strong_lucas_probable_prime(n) and uv_strong_lucas_probable_prime(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(65, 3000).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)))
@example(2 ** 127 - 1)  # Mersenne primes: t = 1, a one-bit ladder
@example(2 ** 1279 - 1)
def test_lucas_ladder_matches_uv_oracle_on_large_n(n):
    n |= 1
    assume(math.isqrt(n) ** 2 != n)
    assert _strong_lucas_probable_prime(n) == uv_strong_lucas_probable_prime(n)


def test_find_multiplier_examples():
    hit = find_multiplier([-8], positive_required=False, t_max=100)
    assert (hit.t, hit.verdicts[0].value) == (1, -7)
    hit = find_multiplier([24], positive_required=True, t_max=100)
    assert (hit.t, hit.verdicts[0].value) == (3, 73)
    hit = find_multiplier([1], positive_required=False, t_max=10)
    assert (hit.t, hit.verdicts[0].value) == (1, 2)
    assert hit == ProgressionHit(t=1, verdicts=(is_prime(2),))


def test_find_multiplier_minimality_certificate():
    def scan_order():
        a = 1
        while True:
            yield a
            yield -a
            a += 1

    # the four progressions of the n+2 search at n = 5: prod(i - b) over
    # its anchors b, for i = 0, 1, 2, 3
    bs = list(islice(quadratic_anchor_points(200), 3))
    quadruple = [math.prod(i - b for b in bs) for i in range(4)]
    cases = [([M], False) for M in (-8, 24, 192, -480, 1152)] + [(quadruple, False), (quadruple, True)]
    for Ms, positive in cases:
        hit = find_multiplier(Ms, positive_required=positive, t_max=1000)
        assert [v.value for v in hit.verdicts] == [1 + hit.t * M for M in Ms]
        assert all(sympy.isprime(abs(v.value)) and (v.value > 0 or not positive) for v in hit.verdicts)
        for t in scan_order():
            if t == hit.t:
                break
            values = [1 + t * M for M in Ms]
            assert not all(sympy.isprime(abs(v)) and (v > 0 or not positive) for v in values)


def _scan_outcome(scan, Ms, positive, t_max):
    try:
        return scan(Ms, positive, t_max)
    except BudgetExhausted as exc:
        return "budget", str(exc), exc.frontier


# |t| is sieved in the windows of `primes._windows`, each sieving deeper
# than the one before until the bound stops rising; the edges are the first
# and last t of each of the first three windows and each t where the sieve
# bound rises, so a t_max at an edge ends a window exactly or leaves the
# next one a single value
_WINDOWS = list(islice(primes._windows(1 << 30), 6))
_WINDOW_EDGES = sorted(
    {edge for start, n, _ in _WINDOWS[:3] for edge in (start, start + n - 1)}
    | {start for (start, _, bound), (_, _, before) in zip(_WINDOWS[1:], _WINDOWS) if bound > before}
)

# |M| <= 5 lets 1 + t*M equal a sieving prime; 4,095-4,097 were the edges
# of the fixed windows of 4,096 values that the growing windows replaced
_MULTIPLIERS = st.builds(
    operator.mul,
    st.sampled_from([1, -1]),
    st.one_of(st.integers(1, 5), st.integers(1, 10 ** 6), st.integers(1, 10 ** 30)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_MULTIPLIERS, min_size=1, max_size=4),
    st.booleans(),
    st.sampled_from(sorted({1, 2, 60, 4095, 4096, 4097, *_WINDOW_EDGES})),
)
def test_find_multiplier_matches_unsieved_scan(Ms, positive, t_max):
    # ProgressionHit equality covers t and every verdict's value, status and method
    assert _scan_outcome(find_multiplier, Ms, positive, t_max) == _scan_outcome(
        unsieved_find_multiplier, Ms, positive, t_max
    )


@pytest.mark.parametrize(
    "Ms,t",
    [
        ([881038, -670472, -371679, -831773], 4096),
        ([541902, -773301, -733783, -929647], -4096),
        ([182246, -144096, -798712, -171480], 4097),
        ([-618248, 513952, -994746, -722664], -4097),
    ],
)
def test_find_multiplier_hit_at_window_edge(Ms, t):
    # first hits on the last t of the first window and the first t of the second
    assert find_multiplier(Ms, positive_required=False, t_max=abs(t)).t == t
    for t_max in (4095, 4096, 4097):
        assert _scan_outcome(find_multiplier, Ms, False, t_max) == _scan_outcome(
            unsieved_find_multiplier, Ms, False, t_max
        )


def _first_hit_at(t: int) -> tuple[list[int], ProgressionHit]:
    """Six Ms of 12-13 digits whose first hit in the scan order is t, and
    that hit: each 1 + t*M is prime, and the Ms are drawn again until the
    unsieved scan finds no earlier hit."""
    rng = random.Random(t)
    while True:
        Ms = []
        while len(Ms) < 6:
            M = rng.choice([1, -1]) * rng.randrange(10 ** 11, 10 ** 13)
            if sympy.isprime(abs(1 + t * M)):
                Ms.append(M)
        hit = unsieved_find_multiplier(Ms, False, abs(t))
        if hit.t == t:
            return Ms, hit


def test_windows_tile_the_scan_and_deepen():
    for t_max in (1, 255, 256, 257, 2304, 2305, 60000):
        windows = list(primes._windows(t_max))
        ends = [start + n for start, n, _ in windows]
        assert [start for start, _, _ in windows] == [1] + ends[:-1] and ends[-1] == t_max + 1
    # the first window is no longer and no deeper than the fixed sieve it
    # replaced (4,096 values, q < 2,000), so a scan that hits early pays
    # no more; the bound then rises to the end of the prime table
    bounds = [bound for _, _, bound in _WINDOWS]
    assert _WINDOWS[0][1] <= 4096 and bounds[0] <= 2000
    assert bounds == sorted(bounds) and bounds[-1] == primes._SIEVE_LIMIT


@pytest.mark.parametrize("t", [sign * edge for edge in _WINDOW_EDGES for sign in (1, -1)])
def test_find_multiplier_hit_at_schedule_edge(t):
    # |M| > 20,480, so every sieving prime of every window clears values;
    # the hit is also the unsieved scan's at t_max = |t| + 1, as t comes
    # before every t' with |t'| = |t| + 1
    Ms, hit = _first_hit_at(t)
    assert find_multiplier(Ms, False, abs(t)) == hit
    assert find_multiplier(Ms, False, abs(t) + 1) == hit
    if abs(t) > 1:
        assert _scan_outcome(find_multiplier, Ms, False, abs(t) - 1) == _scan_outcome(
            unsieved_find_multiplier, Ms, False, abs(t) - 1
        )


# the screen sees 1 + t*M; with M = v - 1 and t_max = 1 the scan tests v
# at t = 1 (never 1 itself, which needs t*M = 0) and then 2 - v at t = -1
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(-2, 3),
        st.integers(-(97 ** 2), 97 ** 2),
        st.integers(-(2 ** 64), 2 ** 64),
        st.integers(2 ** 64, 2 ** 80),
        st.integers(2 ** 64, 2 ** 80).map(operator.neg),
        st.sampled_from([2 ** 89 - 1, -(2 ** 61 - 1), 2 ** 64 + 13, 2 ** 64 - 59, 97 ** 2 + 2]),
    ).filter(lambda v: v != 1)
)
@example(0)
@example(-1)
@example(2)
@example(-2)
def test_multiplier_screen_never_rejects_a_prime(v):
    outcome = _scan_outcome(find_multiplier, [v - 1], False, 1)
    is_hit = isinstance(outcome, ProgressionHit) and outcome.t == 1
    assert is_hit == sympy.isprime(abs(v))
    if is_hit:
        assert outcome.verdicts == (is_prime(v),)


_STRONG_PSEUDOPRIMES_BASE_2 = (2047, 3277, 4033, 4681, 8321, 1093 ** 2, 3511 ** 2)


@pytest.mark.parametrize("n", _STRONG_PSEUDOPRIMES_BASE_2)
def test_strong_pseudoprimes_pass_the_screen_and_fail_is_prime(n):
    assert _strong_probable_prime(n) and not sympy.isprime(n)
    assert is_prime(n).status == STATUS_COMPOSITE
    assert is_prime(-n).status == STATUS_COMPOSITE


def test_find_multiplier_past_a_pseudoprime_and_a_zero(monkeypatch):
    reached = []

    def counted(value):
        reached.append(value)
        return is_prime(value)

    monkeypatch.setattr(primes, "is_prime", counted)
    # 3511**2 = 1 + 1*M has no factor below 2,000: it survives the sieve
    # and the screen, and only is_prime moves the scan on to t = -7
    Ms = [3511 ** 2 - 1]
    hit = find_multiplier(Ms, False, 100)
    assert hit.t == -7
    assert reached == [3511 ** 2, 1 - 7 * Ms[0]]
    assert hit == unsieved_find_multiplier(Ms, False, 100)
    # t = 1 gives -1 and t = -1 gives 0, neither of which may reach the
    # strong test; t = 2 gives 3 and -3
    hit = find_multiplier([1, -2], False, 10)
    assert hit.t == 2
    assert hit == unsieved_find_multiplier([1, -2], False, 10)


def test_find_multiplier_budget_and_validation():
    with pytest.raises(BudgetExhausted):
        # 1 + 2t is odd; with t_max=1 only |3| and |1| are reachable and
        # the scan-first hit t=1 value 3 is prime, so force a miss instead
        find_multiplier([8], positive_required=True, t_max=1)
    with pytest.raises(ValueError):
        find_multiplier([5], positive_required=False, t_max=0)


def test_prime_table_and_stream_match_sympy():
    # primes_stream yields from the import-time table, then from sieves to
    # 2 * end, 4 * end, ...: the starts past 2 * end lie past the first re-sieve
    table, end = primes._SIEVE_PRIMES, primes._SIEVE_LIMIT
    assert table == tuple(sympy.primerange(end))
    reference = list(sympy.primerange(3 * end + 2000))
    starts = (-5, 0, 2, 3, table[-1] - 1, table[-1], table[-1] + 1, end - 1, end, end + 1, end + 1000)
    for start in starts + (2 * end - 1, 2 * end, 2 * end + 1, 3 * end):
        expected = [p for p in reference if p >= start][:40]
        assert list(islice(primes.primes_stream(start), 40)) == expected
    for count in (1, 3, len(table) - 1, len(table), len(table) + 1, len(table) + 40):
        assert list(islice(primes.primes_stream(), count)) == reference[:count]


def test_primes_stream_past_the_table_tests_no_integer(monkeypatch):
    def refuse(n):
        raise AssertionError(f"primes_stream tested {n}")

    monkeypatch.setattr(primes, "_classify", refuse)
    got = list(islice(primes.primes_stream(primes._SIEVE_LIMIT - 100), 50))
    assert got == list(islice(sympy.primerange(primes._SIEVE_LIMIT - 100, 2 * primes._SIEVE_LIMIT), 50))
