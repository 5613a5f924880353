"""Seeded command lines for the primepoly benchmark.

Each workload is a fixed core, the same for every seed, plus seeded
companion command lines of a fixed size.  The core keeps the wall time
comparable across seeds: the cost of `construct` grows steeply and
unevenly with n (the prime-quadruple scan of `nplus2` takes 261 tests at
n = 32 and 228k at n = 39), so drawing n per seed would make the
spread between seeds larger than any regression bound.  The companions
are drawn from the seed at a fixed degree, count or trial number, so a
change is also measured on inputs it was not tuned on.  Inputs are
never filtered by outcome.
"""

from __future__ import annotations

import random

WORKLOADS = ("census_large", "prime_scan", "unit_search", "theorem_checks")
DEFAULT_SEED = 0  # its command lines have recorded reports in reference.json


def _coeffs(poly: list[int]) -> str:
    return ",".join(str(c) for c in poly)


def _mul_linear(poly: list[int], root: int) -> list[int]:
    """Ascending coefficients of poly * (x - root)."""
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] += c
        out[i] -= root * c
    return out


def _random_poly(rng: random.Random, degree: int, bound: int) -> list[int]:
    lead = rng.choice([c for c in range(-bound, bound + 1) if c])
    return [rng.randint(-bound, bound) for _ in range(degree)] + [lead]


def _evaluate(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def census_large(rng: random.Random) -> list[list[str]]:
    # companion: x * (1 + t*(x-a_1)...(x-a_39)), the n+1 shape on seeded
    # odd anchors (as the n+1 anchors are), so the degree-39 fibers are not
    # only those of the primes; a wider pool makes the cost swing 3-fold
    anchors = rng.sample(range(-79, 80, 2), 39)
    g = [1]
    for a in anchors:
        g = _mul_linear(g, a)
    t = rng.choice([-1, 1]) * rng.randint(2, 9)
    g = [t * c for c in g]
    g[0] += 1
    return [
        ["construct", "nplus1", "--n", "40"],
        ["construct", "pplus", "--n", "40"],
        ["analyze", f"--factors=0,1;{_coeffs(g)}"],
    ]


def prime_scan(rng: random.Random) -> list[list[str]]:
    # companions: short multiplier scans on seeded anchor counts; the
    # quadruple scans stay fixed because their length jumps 1000-fold with n
    return [
        ["construct", "nplus2", "--n", "30"],
        ["construct", "nplus2", "--n", "36"],
        ["construct", "pplus", "--n", str(rng.randint(10, 20))],
        ["construct", "nplus1", "--n", str(rng.randint(10, 20))],
    ]


def _levels(rng: random.Random, degree: int) -> list[str]:
    poly = _random_poly(rng, degree, 9)
    # half the targets are values f(m), so hits occur; half are arbitrary
    targets = {_evaluate(poly, rng.randint(-20, 20)) for _ in range(100)}
    while len(targets) < 200:
        targets.add(rng.randint(-2000, 2000))
    return ["levels", f"--poly={_coeffs(poly)}", "--set=" + ",".join(map(str, sorted(targets)))]


def unit_search(rng: random.Random) -> list[list[str]]:
    return [
        ["exceptional", "--degree", "3", "--bound", "5"],
        _levels(rng, 3),
        _levels(rng, 4),
    ]


def theorem_checks(rng: random.Random) -> list[list[str]]:
    lines = [
        ["constant", "--digits", "50"],
        ["statement41", "--random", "--trials", "1000", "--seed", str(rng.randrange(10 ** 6))],
    ]
    for degree in (6, 8, 10, 12):
        poly = _random_poly(rng, degree, 9)
        lines.append(["polya", f"--poly={_coeffs(poly)}", "--K", str(rng.randint(1, 50))])
    return lines


def generate(workload: str, seed: int) -> list[list[str]]:
    """The command lines (argv lists, without `--json`) of one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return globals()[workload](random.Random(f"{workload}:{seed}"))
