"""Every module-level import of a primepoly module is used by that module,
every module-level private name is referenced somewhere in primepoly, and
only `poly.py` defines dataclasses.

`__init__.py` is skipped by the import check: it imports names only to
re-export them, so its `__all__` must list exactly the names it imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import primepoly

SRC = Path(__file__).resolve().parent.parent / "src" / "primepoly"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    assert _unused_imports(ast.parse(path.read_text())) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_only_poly_imports_dataclasses():
    # result records are NamedTuples: a frozen dataclass costs about a
    # millisecond to create at import, paid by every CLI process.
    # RatPolynomial and QuadExtElement stay dataclasses (value types)
    users = [p.name for p in sorted(SRC.glob("*.py")) if "dataclasses" in _imported_modules(ast.parse(p.read_text()))]
    assert users == ["poly.py"]


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_no_dead_private_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    defined = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree)]
    assert defined
    assert [(module, name) for module, name in defined if name not in referenced] == []


def test_all_lists_exactly_the_reexported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names
    }
    assert len(primepoly.__all__) == len(set(primepoly.__all__))
    assert set(primepoly.__all__) == imported
    assert all(hasattr(primepoly, name) for name in primepoly.__all__)
