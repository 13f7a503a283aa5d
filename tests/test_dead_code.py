"""Tier-1 gate: every definition in ``src/repro`` has a production user.

A stdlib ``ast`` scan.  The definitions are every module-level
function, class and assignment target, plus every method of a
module-level class; dunder names are protocol hooks and are skipped.
A definition counts as used when its name appears under ``src/``,
``examples/`` or ``perfbench/`` as a loaded name, an attribute, an
import alias or an identifier string (such as an ``__all__`` entry or
a ``getattr`` argument).  Its own binding does not count, and neither
does a test: an oracle that only tests call lives in
``tests/oracles/``.

A package ``__init__.py`` under ``src/`` re-exports without using, so
its imports and ``__all__`` entries count only when

* the package is a front door that ``tests/test_public_api.py`` pins
  (:data:`FRONT_DOORS`), or
* the ``__init__`` loads the imported name itself, as the lint
  registry does (``RULE as R001_...`` feeding ``ALL_RULES``).

There is no allowlist: delete what this flags, or use it.

Blind spot: the scan matches names, not bindings.  A definition stays
invisible while any other definition of the same name is used, so a
method such as ``reset``, ``summary`` or ``read`` passes whenever some
other class's method of that name has a user.  A reach probe finds
these.  Run the production entry points under a ``sys.setprofile``
hook that records the code object of every call whose file lies under
``src/repro``:

* perfbench's two workloads at ``tiny`` size, in process, with
  telemetry off and on;
* ``python -m repro.experiments all --days 6``;
* ``python -m repro.fleet run --scenarios 40 --telemetry --offline-gap
  --robustness 0.1``, then ``report``, ``stats`` and ``stats --all``
  on its store;
* ``python -m repro.lint src/repro`` and every ``examples/*.py``.

A definition that no run called is a candidate.  Healthy runs skip
error handling, the fault harness, pool recovery, CLI branches and
protocol stubs on purpose, so read the candidates by hand.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
USE_ROOTS = ("src", "examples", "perfbench")
FRONT_DOORS = frozenset({"repro", "repro.sim", "repro.fleet"})


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


def _all_entries(tree: ast.Module) -> set[int]:
    """``id``s of the string constants listed in ``__all__``."""
    return {id(leaf) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in getattr(node, "targets", None)
                    or [node.target])
            and node.value is not None
            for leaf in ast.walk(node.value)}


def _uses(tree: ast.Module, reexports: bool = True):
    """Every name ``tree`` uses.  With ``reexports=False`` (a package
    ``__init__`` that is not a front door) an import counts only when
    the module loads the name it binds, and ``__all__`` never counts."""
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)}
    exported = set() if reexports else _all_entries(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) \
                and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            bound = node.asname or node.name.split(".")[0]
            if reexports or bound in loaded:
                yield from node.name.split(".")
                if node.asname:
                    yield node.asname
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and node.value.isidentifier() \
                and id(node) not in exported:
            yield node.value


def unused_definitions(repo_root: Path,
                       use_roots: tuple[str, ...] = USE_ROOTS) -> list[str]:
    """``"<path>: <name>"`` for every definition under
    ``<repo_root>/src/repro`` that nothing under ``use_roots`` uses."""
    src = repo_root / "src"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in use_roots
             for path in (repo_root / root).rglob("*.py")}
    used: set[str] = set()
    for path, tree in trees.items():
        reexports = True
        if path.name == "__init__.py" and src in path.parents:
            package = ".".join(path.parent.relative_to(src).parts)
            reexports = package in FRONT_DOORS
        used.update(_uses(tree, reexports))
    package_dir = src / "repro"
    return [f"{path.relative_to(repo_root).as_posix()}: {name}"
            for path in sorted(trees) if package_dir in path.parents
            for name in _definitions(trees[path].body)
            if not _is_dunder(name) and name not in used]


def test_every_definition_is_named_somewhere():
    """Somewhere in production code: tests do not count."""
    unused = unused_definitions(REPO_ROOT)
    assert not unused, ("named by no production code:\n  "
                        + "\n  ".join(unused))


def test_gate_counts_only_production_users(tmp_path):
    """The rule itself, on a small tree: tests and non-front-door
    re-exports are not users; front-door exports and an ``__init__``
    that loads what it imports are."""
    files = {
        "src/repro/__init__.py":
            "from repro.pkg.impl import public\n"
            "__all__ = ['public']\n",
        "src/repro/pkg/__init__.py":
            "from repro.pkg.impl import reexported\n"
            "__all__ = ['reexported']\n",
        "src/repro/pkg/impl.py":
            "def public(): pass\n"
            "def reexported(): pass\n"
            "def tested_only(): pass\n",
        "src/repro/rules/__init__.py":
            "from repro.rules.one import RULE as R001_ONE\n"
            "ALL_RULES = (R001_ONE,)\n"
            "__all__ = ['ALL_RULES']\n",
        "src/repro/rules/one.py": "RULE = object()\n",
        "src/repro/cli.py": "from repro.rules import ALL_RULES\n",
        "tests/test_impl.py":
            "from repro.pkg.impl import tested_only\n"
            "def test_it(): tested_only()\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert sorted(unused_definitions(tmp_path)) == [
        "src/repro/pkg/impl.py: reexported",
        "src/repro/pkg/impl.py: tested_only",
    ]
