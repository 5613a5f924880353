"""Check that the test suite catches each seeded mutant of `src/`.

    python tests/mutants.py [NAME ...] [--timeout SECONDS]

For each mutant in `MUTANTS` (or each one named) it copies `src/`,
`tests/`, `perfbench/` and `pyproject.toml` to a temporary directory,
replaces one text that must occur exactly once in one source file, runs
the mutant's tests there with pytest under the timeout (in a session of
their own, so a timeout kills every process the run forked), and prints one of
`caught` (a test failed), `caught (timeout)` (the tests did not finish:
the mutant hangs), `survived` (every test passed) or `stale` (the text no
longer occurs exactly once, so the mutant needs rewriting).  The named
tests are first run on an unmutated copy, which they must pass.  It exits
1 unless every mutant is caught.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str                   # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]      # pytest node ids


_CENSUS, _ROOTS, _BAD = "src/primepoly/census.py", "src/primepoly/roots.py", "src/primepoly/badpoints.py"
_POLY, _PRIMES = "src/primepoly/poly.py", "src/primepoly/primes.py"
_CONSTRUCTIONS, _CLI, _FORKMAP = "src/primepoly/constructions.py", "src/primepoly/cli.py", "src/primepoly/forkmap.py"
_BOUNDS, _EXCEPTIONAL = "src/primepoly/bounds.py", "src/primepoly/exceptional.py"
# the fixed examples first: pytest runs with -x, and the property test can
# spend most of a timeout shrinking its first failure
_NESTED_TESTS = ("tests/test_poly.py::test_nested_examples", "tests/test_poly.py::test_nested_matches_rational_horner")
_MUL_TESTS = ("tests/test_poly.py::test_mul_matches_fraction_convolution",)
_LUCAS_TESTS = (
    "tests/test_primes.py::test_lucas_ladder_matches_uv_oracle_below_50000",
    "tests/test_primes.py::test_lucas_ladder_passes_strong_lucas_pseudoprimes",
)
_LEVEL_TESTS = ("tests/test_census.py::test_level_census_examples", "tests/test_census.py::test_level_census_brute_scan_oracle")
_PRODUCT_FILTER = "tests/test_badpoints.py::test_bad_points_match_product_filter"
_ISOLATE_TESTS = (
    "tests/test_roots.py::test_isolate_roots_matches_fraction_bisection",
    "tests/test_roots.py::test_isolate_roots_from_fujiwara_cells_matches_full_start",
)
_FULL_SCAN = ("tests/test_roots.py::test_integer_roots_match_full_scan_oracle",)
_CHUNKS = "tests/test_fork_map.py::test_statement41_random_chunks_match_the_serial_loop"
_FIRST_FAILING = "tests/test_fork_map.py::test_statement41_random_reports_the_first_failing_trial"
_KILLED_CHILD = "tests/test_fork_map.py::test_statement41_random_runs_a_killed_childs_chunk_here"
_CHUNK_0_WINS = "tests/test_fork_map.py::test_find_multiplier_takes_chunk_0s_hit_over_a_later_chunks"
_LATER_CHUNK = "tests/test_fork_map.py::test_find_multiplier_takes_the_earliest_later_chunks_hit"
_GOLDEN_ANALYZE = ("tests/test_cli.py::test_cli_golden[text-analyze]", "tests/test_cli.py::test_cli_golden[json-analyze]")

MUTANTS = (
    Mutant("level_census keeps only the first target's roots", _CENSUS,
           "integer_solutions(f, targets) for m", "integer_solutions(f, targets)[:1] for m", _LEVEL_TESTS),
    Mutant("integer_solutions shifts by +v*d", _ROOTS,
           "_plus(c, -v * d)", "_plus(c, v * d)",
           ("tests/test_roots.py::test_integer_solutions_per_value_match_sturm",)),
    Mutant("unit_fibers swaps its two lists", _CENSUS,
           "eplus, eminus = map(", "eminus, eplus = map(",
           ("tests/test_census.py::test_unit_fibers_examples",)),
    Mutant("the odd-i bad-point target is +1", _BAD,
           "== (1, -1)[i % 2]", "== (1, 1)[i % 2]",
           ("tests/test_badpoints.py::test_bad_points_with_irrational_candidates", _PRODUCT_FILTER)),
    Mutant("the partner index is i ^ 3", _BAD,
           "_sign_near(units[i ^ 2], root, isolated[i ^ 2])", "_sign_near(units[i ^ 3], root, isolated[i ^ 3])",
           ("tests/test_badpoints.py::test_bad_points_merges_shared_real", _PRODUCT_FILTER)),
    Mutant("_sign_near compares open intervals", _BAD,
           "root.hi < p.lo or p.hi < root.lo", "root.hi <= p.lo or p.hi <= root.lo",
           ("tests/test_badpoints.py::test_bad_points_partner_root_at_the_candidate_endpoint",)),
    # keeps a real where g - 1 and h - 1 both vanish, twice: _separate raises
    Mutant("_sign_near evaluates at lo without the disjointness test", _BAD,
           "root.is_exact or all(root.hi < p.lo or p.hi < root.lo for p in partner)", "True",
           ("tests/test_badpoints.py::test_bad_points_merges_shared_real",)),
    Mutant("_nested drops W_k from a_k*W_k", _POLY,
           "acc[0] += ak * wk", "acc[0] += ak", _NESTED_TESTS),
    Mutant("_nested divides by D alone", _POLY,
           "Fraction(x, d * wk)", "Fraction(x, d)", _NESTED_TESTS),
    Mutant("_nested swaps u and v", _POLY,
           "for ak, (u, v, w) in zip", "for ak, (v, u, w) in zip", _NESTED_TESTS),
    Mutant("compose_affine drops sigma", _POLY,
           "[sigma * c for c in p]", "list(p)", _NESTED_TESTS),
    Mutant("RatPolynomial.__mul__ divides by da alone", _POLY,
           "Fraction(v, da * db)", "Fraction(v, da)", _MUL_TESTS),
    Mutant("_mul assigns instead of accumulating", _POLY,
           "out[i + j] += av * bv", "out[i + j] = av * bv", _MUL_TESTS),
    Mutant("_multiplier_poly puts t at the constant end", _CONSTRUCTIONS,
           "[1] + [0] * (len(anchors) - 1) + [hit.t]", "[hit.t] + [0] * (len(anchors) - 1) + [1]",
           ("tests/test_constructions.py::test_multiplier_matches_anchor_product_oracle",)),
    Mutant("the Lucas ladder skips the U_t check", _PRIMES,
           "if (2 * w - v) % n == 0 or v == 0:", "if v == 0:", _LUCAS_TESTS),
    Mutant("the Lucas tail loop does not square Q^k", _PRIMES,
           "qk = qk * qk % n", "qk = qk % n", _LUCAS_TESTS),
    Mutant("find_multiplier swaps the residues of the two signs", _PRIMES,
           "((-inv - start) % q)\n            flags[k::step] = zero[: (last - k) // step + 1]\n"
           "            k = 2 * ((inv - start)",
           "((inv - start) % q)\n            flags[k::step] = zero[: (last - k) // step + 1]\n"
           "            k = 2 * ((-inv - start)",
           ("tests/test_primes.py::test_find_multiplier_matches_unsieved_scan",)),
    Mutant("_sign_at returns 1 on a zero remainder", _ROOTS,
           "if rem else 0", "if rem else 1",
           ("tests/test_roots.py::test_sign_at_matches_pq_chain_oracle",)),
    Mutant("_eval_scaled_frac never raises dp", _POLY,
           "dp * den", "dp", ("tests/test_evaluate.py::test_eval_scaled_frac_matches_forked_loop",)),
    Mutant("_bisect's midpoint is lo + hi + 1", _ROOTS,
           "mid, den = lo + hi, 2 * den", "mid, den = lo + hi + 1, 2 * den",
           ("tests/test_roots.py::test_refine_non_dyadic_endpoints_matches_fraction_bisection",
            "tests/test_roots.py::test_isolate_roots_matches_fraction_bisection")),
    Mutant("_isolate's midpoint is lo + hi + 1", _ROOTS,
           "mid = lo + hi\n", "mid = lo + hi + 1\n", _ISOLATE_TESTS),
    Mutant("_integer_roots charges the budget per residue scanned", _ROOTS,
           "budget -= q", "budget -= r + 1", _FULL_SCAN),
    Mutant("_integer_roots starts with a budget of len(c) ** 3", _ROOTS,
           "_deriv(c), len(c) ** 2", "_deriv(c), len(c) ** 3", _FULL_SCAN),
    Mutant("find_multiplier swaps the flag-to-t map of the two signs", _PRIMES,
           "t = -start - k // 2 if k % 2 else start + k // 2", "t = start + k // 2 if k % 2 else -start - k // 2",
           ("tests/test_primes.py::test_find_multiplier_matches_unsieved_scan",)),
    Mutant("statement41 --random keeps only chunk 0's max", _CLI,
           "max(fork_map(lambda chunk: max(block_report(g, h).k for g, h in chunk), pairs))",
           "next(fork_map(lambda chunk: max(block_report(g, h).k for g, h in chunk), pairs))", (_CHUNKS,)),
    # the next two keep the helper's old name, `cli._fork_map`, which their test ids carry
    Mutant("_fork_map raises the last failing chunk's exception", _FORKMAP,
           "for i, chunk in enumerate(chunks):", "for i, chunk in reversed(list(enumerate(chunks))):",
           (_FIRST_FAILING,)),
    Mutant("_fork_map's chunk bounds drop the last item", _FORKMAP,
           "len(items) * (i + 1) // n]", "(len(items) - 1) * (i + 1) // n]", (_CHUNKS, _FIRST_FAILING)),
    Mutant("a chunk that sends nothing is dropped, not run here", _FORKMAP,
           "yield pickle.loads(data) if data else func(chunk)",
           "yield from [pickle.loads(data)] if data else [] if i in children else [func(chunk)]",
           (_FIRST_FAILING, _KILLED_CHILD)),
    Mutant("fork_map drops the item at each chunk boundary", _FORKMAP,
           "items[len(items) * i // n:", "items[len(items) * i // n + (i > 0):", (_LATER_CHUNK,)),
    Mutant("find_multiplier takes the last chunk's hit", _PRIMES,
           "next(filter(None, fork_map(screen, list(survivors))), None)",
           "next(filter(None, reversed(list(fork_map(screen, list(survivors))))), None)", (_CHUNK_0_WINS,)),
    Mutant("_var_coeffs reads V(+-inf) without the degree parity", _ROOTS,
           "s ** (len(e) - 1)", "s", ("tests/test_roots.py::test_isolate_roots_examples",)),
    Mutant("_integer_roots' residue scan skips the c' check", _ROOTS,
           "if _eval_mod(dc, r, q) == 0:", "if False:", ("tests/test_roots.py::test_integer_solutions_examples",)),
    Mutant("factorial_lower_bound raises the factorial product to q", _BOUNDS,
           "_factorial_product(2 * k - 1) ** p", "_factorial_product(2 * k - 1) ** q",
           ("tests/test_bounds.py::test_factorial_bound_examples",
            "tests/test_bounds.py::test_unbalanced_factorial_bound_examples")),
    Mutant("search_exceptional's window is {0, 1, 2}", _EXCEPTIONAL,
           "itertools.combinations(range(1, 5), degree)", "itertools.combinations(range(1, 3), degree)",
           ("tests/test_exceptional.py::test_search_is_complete_for_list_equivalents",)),
    Mutant("prime_census counts unit factors by v == 1", _CENSUS,
           "abs(v) == 1", "v == 1", ("tests/test_census.py::test_witness_certificate_fields",)),
    Mutant("_report leaves a value key a number", _CLI,
           'str(v) if key == "value" else _report(v)', "_report(v)", _GOLDEN_ANALYZE),
    Mutant("_render_text indents by one space", _CLI,
           'pad = "  " * indent', 'pad = " " * indent', _GOLDEN_ANALYZE),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests: tuple[str, ...], timeout: float) -> str:
    """`passed`, `failed` or `timeout` for pytest over `tests` in `tree`."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    with subprocess.Popen(command, cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          start_new_session=True) as run:
        try:
            return "passed" if run.wait(timeout=timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            return "timeout"


def check(mutant: Mutant, timeout: float) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        source = tree / mutant.path
        text = source.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        baseline = _run_tests(tree, mutant.tests, timeout)
        if baseline != "passed":
            sys.exit(f"{mutant.name}: the unmutated tree {baseline} {' '.join(mutant.tests)}")
        source.write_text(text.replace(mutant.old, mutant.new))
        outcome = _run_tests(tree, mutant.tests, timeout)
    return {"failed": "caught", "timeout": "caught (timeout)", "passed": "survived"}[outcome]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS")
    args = parser.parse_args()
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"no mutant named {', '.join(sorted(unknown))}")
    all_caught = True
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        outcome = check(mutant, args.timeout)
        print(f"{outcome}: {mutant.name}", flush=True)
        all_caught &= outcome.startswith("caught")
    sys.exit(0 if all_caught else 1)


if __name__ == "__main__":
    main()
