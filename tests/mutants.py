"""Check that the test suite catches each seeded mutant of `src/`.

    python tests/mutants.py [NAME ...] [--timeout SECONDS]

For each mutant in `MUTANTS` (or each one named) it copies `src/`,
`tests/`, `perfbench/` and `pyproject.toml` to a temporary directory,
replaces one text that must occur exactly once in one source file, runs
the mutant's tests there with pytest under the timeout, and prints one of
`caught` (a test failed), `caught (timeout)` (the tests did not finish:
the mutant hangs), `survived` (every test passed) or `stale` (the text no
longer occurs exactly once, so the mutant needs rewriting).  The named
tests are first run on an unmutated copy, which they must pass.  It exits
1 unless every mutant is caught.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import shutil
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
_LEVEL_TESTS = ("tests/test_census.py::test_level_census_examples", "tests/test_census.py::test_level_census_brute_scan_oracle")
_PRODUCT_FILTER = "tests/test_badpoints.py::test_bad_points_match_product_filter"

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
    # keeps a real where g - 1 and h - 1 both vanish, twice: _separate loops
    Mutant("_sign_near evaluates at lo without the disjointness test", _BAD,
           "root.is_exact or all(root.hi < p.lo or p.hi < root.lo for p in partner)", "True",
           ("tests/test_badpoints.py::test_bad_points_merges_shared_real",)),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests: tuple[str, ...], timeout: float) -> str:
    """`passed`, `failed` or `timeout` for pytest over `tests` in `tree`."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


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
