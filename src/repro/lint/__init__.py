"""repro-lint: AST-based enforcement of this repo's coding invariants.

See ``repro/lint/README.md`` for the rule catalogue and the inline
suppression syntax.  CLI::

    PYTHONPATH=src python -m repro.lint src/repro

Programmatic::

    from repro.lint import run_lint
    report = run_lint(["src/repro"])
    assert report.clean, report.findings
"""

from repro.lint.core import (
    Finding,
    LintReport,
    ModuleContext,
    Rule,
    build_context,
    run_lint,
)
from repro.lint.rules import ALL_RULES, RULES_BY_ID

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "ModuleContext",
    "RULES_BY_ID",
    "Rule",
    "build_context",
    "run_lint",
]
