"""Every name a package module imports is referenced in that module,
and so is every private (``_name``) function or class it defines at
module level.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "torlen"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; ``__future__`` is skipped."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, including inside string
    annotations such as ``"TorsionCertificate"``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            found |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return found


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )


def unused_private_definitions(source: str) -> list[str]:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return sorted(
        f"{node.name} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    assert unused_private_definitions(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Sequence, Iterable\n"
        "def f(x: 'Iterable[int]'):\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["Sequence (line 3)", "os (line 2)"]


def test_scan_flags_an_unused_private_definition():
    source = (
        "def _used():\n"
        "    return 1\n"
        "def _orphan():\n"
        "    return _used()\n"
        "class _Orphan:\n"
        "    def _method(self):\n"
        "        return 2\n"
        "def public():\n"
        "    return 3\n"
    )
    assert unused_private_definitions(source) == ["_Orphan (line 5)", "_orphan (line 3)"]
