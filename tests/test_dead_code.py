"""Tier-1 gate: every definition in ``src/repro`` is named somewhere.

A stdlib ``ast`` scan.  The definitions are every module-level
function, class and assignment target, plus every method of a
module-level class; dunder names are protocol hooks and are skipped.
A definition counts as used when its name appears anywhere under
``src/``, ``tests/``, ``examples/`` or ``perfbench/`` as a loaded
name, an attribute, an import alias or an identifier string (such as
an ``__all__`` entry or a ``getattr`` argument).  Its own binding does
not count.  There is no allowlist: delete what this flags, or use it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
USE_ROOTS = ("src", "tests", "examples", "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(body: list[ast.stmt]):
    """Names bound at module level (recursing into ``if``/``try``)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    yield item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          *[h.body for h in getattr(node, "handlers", [])],
                          getattr(node, "finalbody", [])):
                yield from _definitions(block)


def _uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) \
                and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_definition_is_named_somewhere():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in USE_ROOTS
             for path in (REPO_ROOT / root).rglob("*.py")}
    used = {name for tree in trees.values() for name in _uses(tree)}
    package = REPO_ROOT / "src" / "repro"
    unused = [f"{path.relative_to(REPO_ROOT)}: {name}"
              for path in sorted(trees) if package in path.parents
              for name in _definitions(trees[path].body)
              if not _is_dunder(name) and name not in used]
    assert not unused, "never named anywhere:\n  " + "\n  ".join(unused)
