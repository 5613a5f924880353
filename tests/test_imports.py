"""Every module-level import of a primepoly module is used by that module,
every module-level private name, public function and public method or
property is referenced somewhere in primepoly, and no module imports
`dataclasses`.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "primepoly"
MODULES = sorted(SRC.glob("*.py"))
TREES = {p.stem: ast.parse(p.read_text()) for p in MODULES}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    assert _unused_imports(TREES[path.stem]) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    # result records are NamedTuples and RatPolynomial is a tuple: a frozen
    # dataclass costs about a millisecond to create at import, and importing
    # `dataclasses` loads `inspect`, both paid by every CLI process
    assert [module for module, tree in TREES.items() if "dataclasses" in _imported_modules(tree)] == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # in a fresh interpreter: pytest itself has loaded `inspect` here
    probe = "import sys, primepoly.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=SRC.parent, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _referenced_names() -> set[str]:
    """Names loaded or read as attributes anywhere in primepoly.  An import
    alone is no reference: every import is used where it is made."""
    referenced = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def test_no_dead_private_names():
    referenced = _referenced_names()
    defined = [(module, name) for module, tree in TREES.items() for name in _private_definitions(tree)]
    assert defined
    assert [(module, name) for module, name in defined if name not in referenced] == []


# public functions that only tests call; each is waiting for a CLI caller
CLI_PENDING = {
    ("bounds", "level_count_bound"),  # the `levels` bound check (ROADMAP item 9)
}


def test_every_public_function_has_a_caller_in_src():
    referenced = _referenced_names()
    public = [
        (module, node.name)
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert public
    assert [d for d in public if d[1] not in referenced and d not in CLI_PENDING] == []


def test_every_public_method_has_a_caller_in_src():
    referenced = _referenced_names()
    public = [
        (cls.name, node.name)
        for tree in TREES.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert public
    assert [d for d in public if d[1] not in referenced] == []
