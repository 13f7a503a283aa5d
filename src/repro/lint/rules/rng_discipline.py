"""R001 rng-discipline: Generators are minted only via ``repro.rng``.

The bit-identity seed contract (scalar == batch == streamed ==
workspace records, seed-deterministic fleet resume) holds because every
stochastic draw comes from a named, independently-seeded
``numpy.random.Generator`` handed down from :mod:`repro.rng`.  A stray
``np.random.default_rng()``, a module-level ``np.random.*`` draw, or
stdlib :mod:`random` would tie results to construction order or global
state and silently break replay.

Flagged anywhere under ``src/repro`` except ``repro/rng.py`` (the one
module allowed to touch seeding machinery):

* ``import random`` / ``from random import ...`` (stdlib PRNG);
* any runtime reference into the ``np.random`` / ``numpy.random``
  namespace — ``default_rng``, ``seed``, draw functions,
  ``RandomState`` — except the :class:`~numpy.random.Generator` /
  ``BitGenerator`` *types* (legitimate in signatures and isinstance
  checks).  Type annotations are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, dotted_name

#: np.random attributes that are types, not seeding/drawing machinery.
_ALLOWED_ATTRS = frozenset({"Generator", "BitGenerator"})

_EXEMPT_SUFFIX = "repro/rng.py"


class RngDiscipline(Rule):
    id = "R001"
    name = "rng-discipline"
    summary = ("mint Generators only via repro.rng; no stdlib random, "
               "no np.random draws or default_rng")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.posix.endswith(_EXEMPT_SUFFIX):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            ctx, node,
                            "stdlib `random` is forbidden; draw from a "
                            "repro.rng substream Generator instead")
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None \
                        and node.module.split(".")[0] == "random":
                    yield self.finding(
                        ctx, node,
                        "stdlib `random` is forbidden; draw from a "
                        "repro.rng substream Generator instead")
                elif node.module in ("numpy.random", "numpy"):
                    for alias in node.names:
                        if alias.name in ("default_rng", "RandomState",
                                          "seed", "random"):
                            yield self.finding(
                                ctx, node,
                                f"importing numpy.random.{alias.name} "
                                "bypasses the repro.rng seed contract")
            elif isinstance(node, ast.Attribute):
                if ctx.in_annotation(node):
                    continue
                name = dotted_name(node)
                if name is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if name.startswith(prefix):
                        attr = name[len(prefix):].split(".")[0]
                        if attr not in _ALLOWED_ATTRS:
                            yield self.finding(
                                ctx, node,
                                f"`{name}` bypasses the repro.rng seed "
                                "contract; mint Generators with "
                                "repro.rng.make_rng")
                        break


RULE = RngDiscipline()
