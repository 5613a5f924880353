"""Primality testing with explicit certainty levels and multiplier searches.

Below 2**64 the strong-pseudoprime test with the first twelve prime
witnesses is deterministic, so verdicts there are `prime`/`composite`.
Above 2**64 a Baillie-PSW combination (strong base-2 test plus a strong
Lucas test with Selfridge parameters) is used and positives are honestly
reported as `probable_prime`; no counterexample to BPSW is known.

`find_multiplier` first clears every t with a prime q < 2,000 dividing
1 + t*M (the sieve of Eratosthenes over arithmetic progressions), so
only the survivors reach a primality test.  A survivor's values then
pass one strong base-2 test each before any of them gets a full verdict:
every prime passes it, so no hit is lost, and the verdicts come from
`is_prime` as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, takewhile

from .errors import BudgetExhausted

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 1 << 64
_WINDOW = 4096  # values of |t| sieved at once by find_multiplier


STATUS_PRIME = "prime"
STATUS_COMPOSITE = "composite"
STATUS_PROBABLE = "probable_prime"


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality test; status refers to abs(value)."""

    value: int
    status: str
    method: str

    @property
    def is_prime(self) -> bool:
        return self.status in (STATUS_PRIME, STATUS_PROBABLE)


def _strong_probable_prime(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # Selfridge parameter choice: first D in 5, -7, 9, -11, ... with (D|n) = -1.
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4

    delta = n + 1
    s = (delta & -delta).bit_length() - 1
    t = delta >> s

    u, v, qk = 1, p, q
    for bit in bin(t)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u & 1:
                u += n
            if v & 1:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _classify(n: int) -> tuple[str, str]:
    """(status, method) for n >= 2."""
    if n < 2:
        return STATUS_COMPOSITE, "unit_or_zero"
    for p in _SMALL_PRIMES:
        if n == p:
            return STATUS_PRIME, "trial_division"
        if n % p == 0:
            return STATUS_COMPOSITE, "trial_division"
    if n < _SMALL_PRIMES[-1] ** 2:
        return STATUS_PRIME, "trial_division"
    if n < _DETERMINISTIC_LIMIT:
        for a in _MR_WITNESSES:
            if not _strong_probable_prime(n, a):
                return STATUS_COMPOSITE, "miller_rabin_det"
        return STATUS_PRIME, "miller_rabin_det"
    if not _strong_probable_prime(n, 2):
        return STATUS_COMPOSITE, "bpsw"
    if math.isqrt(n) ** 2 == n:
        return STATUS_COMPOSITE, "bpsw"
    if not _strong_lucas_probable_prime(n):
        return STATUS_COMPOSITE, "bpsw"
    return STATUS_PROBABLE, "bpsw"


def is_prime(n: int) -> PrimalityVerdict:
    """Test n for primality; negative n is judged by its absolute value."""
    status, method = _classify(abs(n))
    return PrimalityVerdict(value=n, status=status, method=method)


@dataclass(frozen=True)
class ProgressionHit:
    """First multiplier t (in the scan order 1, -1, 2, -2, ...) making
    every 1 + t*M prime, with one verdict per M, in the order of Ms."""

    Ms: tuple[int, ...]
    t: int
    verdicts: tuple[PrimalityVerdict, ...]
    positive_required: bool


def find_multiplier(Ms, positive_required: bool, t_max: int) -> ProgressionHit:
    """Scan t = 1, -1, 2, -2, ... up to |t| = t_max for a t making 1 + t*M
    prime for every M in Ms at once.

    Without `positive_required` a value counts when |1 + t*M| is prime;
    with it, 1 + t*M itself must be a positive prime.  Raises
    BudgetExhausted if no multiplier up to t_max works.

    |t| runs in windows of `_WINDOW` values, with one survivor flag per t
    of each sign.  For each prime q < 2,000 not dividing M, the t with
    t*M = -1 (mod q) are cleared, up to the first q >= |M| - 1: below it
    |1 + t*M| >= |M| - 1 > q, so a cleared value is a proper multiple of
    q (for M = 2 the guard keeps t = 1, whose value is the prime 3).
    Only composites are cleared, so testing the survivors in scan order
    finds the same first t with the same verdicts.

    A survivor's values, in the order of Ms, must each have |v| >= 2 and
    pass the strong base-2 test before any reaches `is_prime`; the scan
    moves on at the first that fails.  Every prime passes that test, so a
    t it rejects has a composite, unit or zero value and is no hit; the
    few composites it passes (strong pseudoprimes such as 2047) are
    caught by `is_prime`, whose verdicts make up the hit.  Most t have a
    composite next to a prime, so the Lucas part of BPSW runs on little
    more than the hit's own values.
    """
    Ms = tuple(Ms)
    if not Ms or 0 in Ms:
        raise ValueError("need at least one M, each nonzero")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    residues = [
        (q, pow(M, -1, q))  # t = -inv (mod q) for t > 0, +inv for t < 0
        for M in Ms
        for q in takewhile(lambda q: q < abs(M) - 1, _SIEVE_PRIMES)
        if M % q
    ]
    for start in range(1, t_max + 1, _WINDOW):
        n = min(_WINDOW, t_max + 1 - start)
        pos, neg = bytearray([1]) * n, bytearray([1]) * n
        for q, inv in residues:
            for buf, r in ((pos, -inv), (neg, inv)):
                i = (r - start) % q
                buf[i::q] = bytes(len(range(i, n, q)))
        for i in range(n):
            for t, buf in ((start + i, pos), (-start - i, neg)):
                if not buf[i]:
                    continue
                values = [1 + t * M for M in Ms]
                if positive_required and min(values) <= 0:
                    continue
                if not all(abs(v) >= 2 and _strong_probable_prime(abs(v), 2) for v in values):
                    continue
                verdicts = tuple(map(is_prime, values))
                if all(v.is_prime for v in verdicts):
                    return ProgressionHit(Ms, t, verdicts, positive_required)
    raise BudgetExhausted(
        f"no multiplier with |t| <= {t_max} makes 1 + t*{' and 1 + t*'.join(map(str, Ms))} prime",
        frontier=t_max,
    )


def primes_stream(start: int = 2):
    """Yield primes >= start in increasing order.

    Candidates go to `_classify` directly: `is_prime` is the entry point for
    testing values, and a scan for small primes is not one.
    """
    n = max(2, start)
    while True:
        if _classify(n)[0] != STATUS_COMPOSITE:
            yield n
        n += 1


_SIEVE_PRIMES = tuple(takewhile(lambda p: p < 2000, primes_stream()))


def first_primes(count: int) -> list[int]:
    """First `count` primes, ascending."""
    if count < 1:
        raise ValueError("count must be positive")
    return list(islice(primes_stream(2), count))
