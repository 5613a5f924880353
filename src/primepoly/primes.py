"""Primality testing with explicit certainty levels and multiplier searches.

Trial division by the primes below 100 decides every n < 97**2; every
larger n gets one Baillie-PSW test (a strong base-2 test, a square check
and a strong Lucas test with Selfridge parameters, computed on the V
sequence alone by one ladder).  Below 2**64 that test is exact, so
verdicts there are `prime`/`composite`: Feitsma and Galway listed every
base-2 pseudoprime below 2**64, and Gilchrist checked that none of them
passes the strong Lucas test.  Above 2**64 positives are honestly
reported as `probable_prime`; no counterexample to BPSW is known.

`find_multiplier` sieves |t| in windows that grow with the scan: each
window clears every t with a small prime q dividing 1 + t*M (the sieve
of Eratosthenes over arithmetic progressions), and a longer window
sieves deeper, because the screens a sieving prime saves grow with the
window's survivors while its cost per window stays fixed.  A survivor's
values then pass one strong base-2 test each before any of them gets a
full verdict: every prime passes it, so no hit is lost, and a hit's
verdicts come from `is_prime`.  From the third window on, the survivors
are screened on every CPU (`forkmap.fork_map`); the hit is the first in
scan order, so the result does not depend on the number of CPUs.

The small primes come from one sieve of Eratosthenes at import
(`_SIEVE_PRIMES`); `primes_stream` yields from that table and, past its
end, from the same sieve run to twice the bound, and so on.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress, islice
from typing import NamedTuple

from .errors import BudgetExhausted

_DETERMINISTIC_LIMIT = 1 << 64
# the windows of |t| in find_multiplier (`_windows`); _SIEVE_LIMIT is the
# sieve bound of the longest window and the end of _SIEVE_PRIMES
_FIRST_WINDOW = 256
_WINDOW_GROWTH = 8
_MAX_WINDOW = 1 << 15
_SIEVE_LIMIT = 20480


def _sieve_primes(limit: int) -> tuple[int, ...]:
    """Primes below limit, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = bytes(2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(i for i, flag in enumerate(flags) if flag)


_SIEVE_PRIMES = _sieve_primes(_SIEVE_LIMIT)
_SMALL_PRIMES = _SIEVE_PRIMES[:25]  # trial division: the primes below 100


STATUS_PRIME = "prime"
STATUS_COMPOSITE = "composite"
STATUS_PROBABLE = "probable_prime"


class PrimalityVerdict(NamedTuple):
    """Outcome of a primality test; status refers to abs(value)."""

    value: int
    status: str
    method: str

    @property
    def is_prime(self) -> bool:
        return self.status in (STATUS_PRIME, STATUS_PROBABLE)


def _strong_probable_prime(n: int) -> bool:
    """Strong base-2 test of n >= 2; every prime passes."""
    if n == 2:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(2, d, n)
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
    """Strong Lucas test of odd non-square n (Baillie and Wagstaff 1980): P = 1,
    Q = (1 - D)/4 for the first D in 5, -7, 9, -11, ... with (D|n) = -1, and
    n + 1 = 2^s t, t odd, passes if U_t or a V_(2^r t), r < s, is 0 mod n.
    V alone runs, by the ladder of Joye and Quisquater (1996) over the bits of t:
    V_2k = V_k^2 - 2Q^k, V_(2k+1) = V_k V_(k+1) - Q^k.  U_t = 0 iff 2V_(t+1) = V_t,
    as D U_k = 2V_(k+1) - P V_k and D is a unit mod n."""
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    t = (n + 1) >> s
    v, w, qk = 2, 1, 1  # V_k, V_(k+1) and Q^k at k = 0, with P = 1
    for bit in bin(t)[2:]:
        if bit == "1":  # k -> 2k + 1
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * q) % n, qk * qk * q % n
        else:  # k -> 2k
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    if (2 * w - v) % n == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _classify(n: int) -> tuple[str, str]:
    """(status, method) for n >= 0.  Trial division decides n < 97**2, where it
    beats BPSW: on a 2-vCPU x86 machine with Python 3.11, the 124 `is_prime`
    calls of seed 0 of `census_large` (117 below 97**2) take 3.2 ms, and
    3.6 ms with BPSW alone.  BPSW decides the rest, exactly below 2**64 (see
    the module docstring)."""
    if n < 2:
        return STATUS_COMPOSITE, "unit_or_zero"
    for p in _SMALL_PRIMES:
        if n == p:
            return STATUS_PRIME, "trial_division"
        if n % p == 0:
            return STATUS_COMPOSITE, "trial_division"
    if n < _SMALL_PRIMES[-1] ** 2:
        return STATUS_PRIME, "trial_division"
    if not (_strong_probable_prime(n) and math.isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)):
        return STATUS_COMPOSITE, "bpsw"
    return (STATUS_PRIME if n < _DETERMINISTIC_LIMIT else STATUS_PROBABLE), "bpsw"


def is_prime(n: int) -> PrimalityVerdict:
    """Test n for primality; negative n is judged by its absolute value."""
    status, method = _classify(abs(n))
    return PrimalityVerdict(value=n, status=status, method=method)


class ProgressionHit(NamedTuple):
    """First multiplier t (in the scan order 1, -1, 2, -2, ...) making
    every 1 + t*M prime, with one verdict per M, in the order of Ms."""

    t: int
    verdicts: tuple[PrimalityVerdict, ...]


def _windows(t_max: int):
    """(first |t|, length, sieve bound) of each window of `find_multiplier`
    up to |t| = t_max; the last window is cut at t_max, and its bound is
    that of its full length."""
    start, n = 1, _FIRST_WINDOW
    while start <= t_max:
        yield start, min(n, t_max + 1 - start), n * _SIEVE_LIMIT // _MAX_WINDOW
        start += n
        n = min(n * _WINDOW_GROWTH, _MAX_WINDOW)


def find_multiplier(Ms, positive_required: bool, t_max: int) -> ProgressionHit:
    """Scan t = 1, -1, 2, -2, ... up to |t| = t_max for a t making 1 + t*M
    prime for every M in Ms at once.

    Without `positive_required` a value counts when |1 + t*M| is prime;
    with it, 1 + t*M itself must be a positive prime.  Raises
    BudgetExhausted if no multiplier up to t_max works.

    |t| runs in the windows of `_windows`, with one survivor flag per t of
    each sign in one buffer, in scan order: flag 2i is t = start + i and
    flag 2i + 1 is t = -start - i.  For each prime q below the window's
    sieve bound and not dividing M, the t with t*M = -1 (mod q) are
    cleared by one slice of step 2q per sign, up to the first q >= |M| - 1:
    below it |1 + t*M| >= |M| - 1 > q, so a cleared value is a proper
    multiple of q (for M = 2 the guard keeps t = 1, whose value is the
    prime 3).  Only composites are cleared, so testing the
    survivors in scan order finds the same first t with the same
    verdicts, whatever the windows and their bounds.

    The windows are 256, 2,048, 16,384 and then 32,768 values long, and a
    window of n values sieves with the primes below 5n/8 (160 up to
    20,480).  A screen is one modular exponentiation on a 150-250-bit
    value, 40-100 us on a 2-vCPU x86 machine with Python 3.11, while one
    more sieving prime q costs, per M, each window two slice assignments
    from one zero buffer, about 1 us, and each call one `pow(M, -1, q)`,
    about 1 us.  Among the S survivors of a window, q clears about S/q
    per M, so it pays for itself while S/q is above a few hundredths:
    depth pays in proportion to S, and S grows with the window's length,
    so the bound does too.
    The short first window keeps a scan that hits early (the `nplus1` and
    `pplus` scans of n <= 40 end at |t| <= 53) as cheap as it can be; the
    long ones serve the n+2 scans, which run to |t| in the tens of
    thousands.  The residues of the primes a window adds are computed
    once, when the bound first reaches them.

    A survivor's values, in the order of Ms, must each have |v| >= 2 and
    pass the strong base-2 test before any reaches `is_prime`; the scan
    moves on at the first that fails.  Every prime passes that test, so a
    t it rejects has a composite, unit or zero value and is no hit; the
    few composites it passes (strong pseudoprimes such as 2047) are
    caught by `is_prime`, whose verdicts make up the hit.  Most t have a
    composite next to a prime, so the Lucas part of BPSW runs on little
    more than the hit's own values.

    From the third window on (16,384 values and more), the survivors are
    cut into one contiguous chunk per CPU (`forkmap.fork_map`): chunk 0 is
    screened here and each other chunk in a forked child, which sends back
    the t of its first hit or None.  The first hit in scan order is chunk
    0's, or else the earliest later chunk's, so t, its verdicts and every
    run-out are those of the serial scan on any number of CPUs.  A hit
    screened here keeps its verdicts; a child's t gets `is_prime` here.
    The first two windows stay in this process: the `nplus1` and `pplus`
    scans of n <= 40 end there, and their few hundred survivors do not pay
    for a fork (about 3 ms for two chunks, some 60-100 screens).
    """
    Ms = tuple(Ms)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    found = {}  # t -> verdicts, for each hit screened in this process

    def screen(ks):
        """t of the first hit among the window's survivor flags ks, or None."""
        for k in ks:
            t = -start - k // 2 if k % 2 else start + k // 2
            values = [1 + t * M for M in Ms]
            if positive_required and min(values) <= 0:
                continue
            if not all(abs(v) >= 2 and _strong_probable_prime(abs(v)) for v in values):
                continue
            verdicts = tuple(map(is_prime, values))
            if all(v.is_prime for v in verdicts):
                found[t] = verdicts
                return t
        return None

    residues, depth = [], 0  # the sieve so far: the first `depth` of _SIEVE_PRIMES
    for window, (start, n, bound) in enumerate(_windows(t_max)):
        added = _SIEVE_PRIMES[depth : bisect_left(_SIEVE_PRIMES, bound)]
        depth += len(added)
        residues += [
            (q, pow(M, -1, q))  # t = -inv (mod q) for t > 0, +inv for t < 0
            for M in Ms
            for q in added
            if q < abs(M) - 1 and M % q
        ]
        flags = bytearray([1]) * (2 * n)  # flag 2i: t = start + i; flag 2i + 1: t = -start - i
        zero, last = bytes(2 * n), 2 * n - 1
        for q, inv in residues:  # each k < 2q, so no count below is negative
            step = 2 * q
            k = 2 * ((-inv - start) % q)
            flags[k::step] = zero[: (last - k) // step + 1]
            k = 2 * ((inv - start) % q) + 1
            flags[k::step] = zero[: (last - k) // step + 1]
        survivors = compress(range(2 * n), flags)
        if window < 2:
            t = screen(survivors)
        else:
            from .forkmap import fork_map

            t = next(filter(None, fork_map(screen, list(survivors))), None)  # the earliest chunk's hit (t != 0)
        if t is not None:
            return ProgressionHit(t, found.get(t) or tuple(map(is_prime, [1 + t * M for M in Ms])))
    raise BudgetExhausted(
        f"no multiplier with |t| <= {t_max} makes 1 + t*{' and 1 + t*'.join(map(str, Ms))} prime",
        frontier=t_max,
    )


def primes_stream(start: int = 2):
    """Yield primes >= start in increasing order: from `_SIEVE_PRIMES`, and
    past the end of each table from `_sieve_primes` at twice its bound,
    resuming after the old table's primes or at start, whichever is later."""
    table, limit, i = _SIEVE_PRIMES, _SIEVE_LIMIT, bisect_left(_SIEVE_PRIMES, start)
    while True:
        yield from islice(table, i, None)
        limit *= 2
        old, table = len(table), _sieve_primes(limit)
        i = max(old, bisect_left(table, start))
