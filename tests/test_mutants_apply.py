"""Every mutant in `tests/mutants.py` still applies to the tree: its old
text occurs exactly once in its file, and each test node it names is a
test function of its test file.  A refactor that moves a mutant's text or
renames one of its tests fails here, without running the mutant.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@cache
def _test_functions(path: Path) -> frozenset[str]:
    tree = ast.parse(path.read_text())
    return frozenset(node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert name.split("[")[0] in _test_functions(ROOT / path), node
