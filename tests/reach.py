"""Reach probe: which ``src/repro`` functions no production entry point runs.

``tests/test_dead_code.py`` matches names, so a method stays invisible
while any same-named definition elsewhere has a user.  This probe
matches code objects instead.  It runs the production entry points in
one process under a :func:`sys.setprofile` hook that records the code
object of every call, then prints each function or method defined
under ``src/repro`` that never ran, as ``file:line``, qualified name
and size in lines.  The entry points are:

* perfbench's two workloads at ``tiny`` size, in process, each into a
  store, with telemetry off and then on (the second time under
  perfbench's layer timers);
* ``python -m repro.experiments all --days 6``;
* ``python -m repro.fleet run --scenarios 40 --telemetry --offline-gap
  --robustness 0.1``, then ``report``, ``stats`` and ``stats --all`` on
  its store;
* ``python -m repro.lint src/repro``;
* every ``examples/*.py`` (``fleet_sweep.py`` at 400 scenarios).

Healthy runs skip error handling, the fault harness, pool recovery,
CLI branches and protocol stubs on purpose, so read what it lists by
hand.  Stores, example outputs and every other file the entry points
write go to a temporary directory, which is also the working
directory while they run; nothing is written into the repository.
The probe uses only the standard library (and the repository itself)
and is not part of the tier-1 suite (pytest does not collect it).

Run:  ``make reach``, or ``python tests/reach.py`` from the repository
root.  Exit status 0 whatever it finds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
for _path in (ROOT / "perfbench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: Extra command-line arguments per example (default: none).
EXAMPLE_ARGV = {"fleet_sweep.py": ["400"]}


def _call(main, *argv: str) -> None:
    """Run one CLI ``main(argv)``; a non-zero status stops the probe."""
    status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"{main.__module__} {' '.join(argv)} exited "
                           f"{status}")


def _perfbench(work: Path) -> None:
    from layers import ShardLog, tracing
    from measure import run_fleet
    from workloads import DEFAULT_SEED, WORKLOADS, build_specs

    for workload in WORKLOADS.values():
        specs = build_specs(workload, DEFAULT_SEED, tiny=True)
        store = work / f"bench-{workload.name}"
        run_fleet(workload, specs, store, max_workers=None)
        with tracing():
            run_fleet(workload, specs, store, telemetry=True,
                      log=ShardLog(), max_workers=None)


def _experiments() -> None:
    from repro.experiments.__main__ import main

    _call(main, "all", "--days", "6")


def _fleet_cli(work: Path) -> None:
    from repro.fleet.__main__ import main

    out = str(work / "fleet")
    _call(main, "run", "--scenarios", "40", "--telemetry", "--offline-gap",
          "--robustness", "0.1", "--out", out)
    _call(main, "report", "--out", out)
    _call(main, "stats", out)
    _call(main, "stats", out, "--all")


def _lint() -> None:
    from repro.lint.__main__ import main

    _call(main, str(PACKAGE))


def _examples() -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        argv = sys.argv
        sys.argv = [str(script), *EXAMPLE_ARGV.get(script.name, [])]
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = argv


def run_entry_points(work: Path) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object called while the
    entry points run.  Their output is swallowed; an entry point that
    fails prints what it wrote to stderr and stops the probe."""
    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    entry_points = (lambda: _perfbench(work), _experiments,
                    lambda: _fleet_cli(work), _lint, _examples)
    cwd = os.getcwd()
    os.chdir(work)
    sys.setprofile(hook)
    try:
        for entry_point in entry_points:
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    entry_point()
            except BaseException:
                sys.stderr.write(err.getvalue()[-4000:])
                raise
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in seen}


def definitions(path: Path):
    """``(first lines, qualified name, span, def line)`` of every
    function and method in one module, nested ones included.  A code
    object's first line is its first decorator's, so both that and the
    ``def`` line are keys."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                lines = {child.lineno,
                         *(d.lineno for d in child.decorator_list)}
                yield (lines, name, child.end_lineno - child.lineno + 1,
                       child.lineno)
                yield from walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def never_ran(called: set[tuple[str, int]]) -> list[tuple[str, int, str,
                                                            int]]:
    """``(file, line, name, span)`` of each definition no call hit."""
    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        rel = path.relative_to(ROOT).as_posix()
        for first_lines, name, span, line in definitions(path):
            if not any((real, first) in called for first in first_lines):
                missed.append((rel, line, name, span))
    return missed


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        called = run_entry_points(Path(tmp))
    missed = never_ran(called)
    for rel, line, name, span in missed:
        print(f"{rel}:{line}  {name}  ({span} lines)")
    total = sum(span for *_, span in missed)
    print(f"{len(missed)} functions ({total} lines) never ran; the probe "
          f"took {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
