"""Every name a udigate module imports is used.

A stdlib-only stand-in for a linter's unused-import rule (F401): the scan
reads each module's AST, collects the names its imports bind, and reports
those that no expression, annotation or ``__all__`` entry refers to. An
import line marked ``# noqa: F401`` is kept on purpose and not reported.
"""

import ast
from pathlib import Path

import udigate

PACKAGE = Path(udigate.__file__).parent


def _bound_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return [alias.asname or alias.name for alias in node.names if alias.name != "*"]


def _referenced(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations ("FileTree") and __all__ entries name a
            # binding too; anything that does not parse is plain text
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never refers to."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _referenced(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for name in _bound_names(node):
            if name not in used and name != "annotations":
                unused.append((node.lineno, name))
    return unused


def test_scan_reports_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Optional, Sequence\n"
        "from x import (kept,  # noqa: F401\n"
        "               also_kept)\n"
        "__all__ = ['exported']\n"
        "from y import exported\n"
        "def f(a: Sequence[int]) -> 'Thing':\n"
        "    return os.path.join(a)\n"
        "from z import Thing\n"
    )
    assert unused_imports(source) == [(3, "j"), (4, "Optional")]


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [f"{m.name}:{line}: {name}"
             for m in modules
             for line, name in unused_imports(m.read_text(encoding="utf-8"))]
    assert found == []
