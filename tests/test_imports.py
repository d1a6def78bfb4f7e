"""Every name a udigate module imports is used, and every module-level
function and class is reached from the package or the benchmark.

A stdlib-only stand-in for a linter's unused-import rule (F401): the scan
reads each module's AST, collects the names its imports bind, and reports
those that no expression, annotation or ``__all__`` entry refers to. An
import line marked ``# noqa: F401`` is kept on purpose and not reported.

The second scan keeps production code that only tests reach out of the
package: a module-level def or class, and a method of a module-level class
(dunder methods aside), must be named by code in ``src/udigate`` or
``wallbench/`` (as a name, an attribute, or a string, since the benchmark
wraps functions by name). Only a method may be on an allowlist that says
why it stays: one that http.server calls by name, or that documentation
names. What only tests need lives in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

import udigate

PACKAGE = Path(udigate.__file__).parent
WALLBENCH = PACKAGE.parent.parent / "wallbench"

# methods that no package or benchmark code names, and why they stay
METHODS_TEST_ONLY = {
    "LocalRegistry.save_to_dir": "writes the directory layout that load_from_dir and `registry serve` "
                                 "read; README names it as the way to write one",
    "_JsonHandler.log_message": "http.server calls it by name for each request log line",
    "_GatewayHandler.do_GET": "http.server dispatches a GET to it by name",
    "_GatewayHandler.do_POST": "http.server dispatches a POST to it by name",
    "_RegistryHandler.do_GET": "http.server dispatches a GET to it by name",
}


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


def _named_and_trees():
    """Every name the package and the benchmark refer to, and the parsed
    package modules."""
    package = sorted(PACKAGE.glob("*.py"))
    bench = sorted(WALLBENCH.glob("*.py"))
    assert len(package) > 10 and bench
    trees = {m: ast.parse(m.read_text(encoding="utf-8")) for m in package + bench}
    # a name, or an attribute (module.function), or a string: the benchmark
    # wraps functions by name
    named = set().union(*(_referenced(t) | {n.attr for n in ast.walk(t) if isinstance(n, ast.Attribute)}
                          for t in trees.values()))
    return named, [trees[m] for m in package]


def _defs(body):
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_every_module_level_definition_is_reached():
    named, package = _named_and_trees()
    defined = {node.name for tree in package for node in _defs(tree.body)}
    assert sorted(defined - named) == []


def test_every_method_is_reached():
    named, package = _named_and_trees()
    methods = {(cls.name, node.name) for tree in package for cls in _defs(tree.body)
               if isinstance(cls, ast.ClassDef) for node in _defs(cls.body)
               if not (node.name.startswith("__") and node.name.endswith("__"))}
    unreached = {f"{cls}.{name}" for cls, name in methods if name not in named}
    assert sorted(unreached) == sorted(METHODS_TEST_ONLY)
