"""R006 telemetry-guard: disabled-path instrumentation costs nothing.

Telemetry stays cheap (perfbench's ``tracing.overhead`` metric
measures the traced-over-untraced wall-clock) and never changes a
record (``tests/equivalence/test_telemetry_identity.py`` pins records
bit-identical on/off) because instrumented hot sites follow one of
two shapes:

* call through the collector with a **literal** span/counter name —
  disabled calls hit :data:`repro.telemetry.TELEMETRY_OFF`'s
  allocation-free no-ops, so the only cost is the call itself; or
* guard the site with ``if tele.enabled:`` before doing anything that
  allocates — f-string names, formatted labels, snapshot work.

Every instrumented layer holds a collector, never ``None``, so an
``is not None`` test on a collector is always true and guards nothing:
it does not count as a guard.

What breaks the pattern is a *dynamic* name reaching an unguarded
site: ``tele.count(f"shard_{i}")`` builds the string every call,
enabled or not.  The rule flags calls to the telemetry surface
(``span`` / ``count`` on a receiver whose name mentions ``tele``)
where the name argument is not a string literal, or any argument is
an f-string/string-concat, unless the call sits inside an
``.enabled`` guard on that receiver.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, dotted_name

_EXEMPT_FRAGMENT = "repro/telemetry/"

_METHODS = frozenset({"span", "count"})


def _is_allocating(node: ast.AST) -> bool:
    """Whether evaluating ``node`` builds a string (f-string/concat)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.JoinedStr):
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add):
            for side in (sub.left, sub.right):
                if isinstance(side, ast.Constant) \
                        and isinstance(side.value, str):
                    return True
    return False


def _is_guarded(ctx: ModuleContext, node: ast.Call,
                receiver: str) -> bool:
    """Whether an ancestor ``if`` gates this site on
    ``<receiver>.enabled``."""
    for ancestor in ctx.ancestors(node):
        if not isinstance(ancestor, ast.If):
            continue
        try:
            test = ast.unparse(ancestor.test)
        except Exception:  # pragma: no cover - unparse is total on 3.10+
            continue
        if f"{receiver}.enabled" in test:
            return True
    return False


class TelemetryGuard(Rule):
    id = "R006"
    name = "telemetry-guard"
    summary = ("instrumented hot sites use literal names or an "
               "enabled-guard; no allocation on the disabled path")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _EXEMPT_FRAGMENT in ctx.posix:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in _METHODS:
                continue
            receiver = dotted_name(func.value)
            if receiver is None or "tele" not in receiver.lower():
                continue
            dynamic_name = (not node.args
                            or not isinstance(node.args[0], ast.Constant)
                            or not isinstance(node.args[0].value, str))
            allocating = any(_is_allocating(arg) for arg in node.args)
            if not dynamic_name and not allocating:
                continue
            if _is_guarded(ctx, node, receiver):
                continue
            problem = ("a non-literal name"
                       if dynamic_name else "an allocating argument")
            yield self.finding(
                ctx, node,
                f"unguarded telemetry call `{receiver}.{func.attr}` "
                f"with {problem}; use a literal name or guard the "
                f"site with `if {receiver}.enabled:` so the disabled "
                "path allocates nothing")


RULE = TelemetryGuard()
