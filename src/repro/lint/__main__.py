"""CLI for repro-lint: ``python -m repro.lint [paths...]``.

Exit status: 0 when clean (after inline suppressions), 1 when
live findings remain, 2 on usage errors.  ``--format json`` emits one
machine-readable report object; the default human format prints one
``path:line: [Rxxx] message`` per finding, grouped by file.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.exceptions import ReproError
from repro.lint.core import run_lint
from repro.lint.rules import ALL_RULES, RULES_BY_ID


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="repro-specific invariant checker (see "
                    "repro/lint/README.md)")
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)")
    parser.add_argument(
        "--rules", metavar="R001,R003,...",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    return parser


def _select_rules(spec: str | None):
    if spec is None:
        return ALL_RULES
    selected = []
    for rule_id in spec.split(","):
        rule_id = rule_id.strip()
        rule = RULES_BY_ID.get(rule_id)
        if rule is None:
            known = ", ".join(sorted(RULES_BY_ID))
            raise ReproError(
                f"unknown rule {rule_id!r}; known rules: {known}")
        selected.append(rule)
    return tuple(selected)


def _print_human(report) -> None:
    current_path = None
    for finding in report.findings:
        if finding.path != current_path:
            current_path = finding.path
            print(current_path)
        print(f"  {finding.line}: [{finding.rule}] {finding.message}")
        if finding.snippet:
            print(f"      {finding.snippet}")
    tail = (f"{report.files_scanned} files, "
            f"{len(report.findings)} finding(s), "
            f"{report.suppressed_count} suppressed")
    print(("FAIL: " if report.findings else "clean: ") + tail)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id} {rule.name}: {rule.summary}")
        return 0

    try:
        rules = _select_rules(args.rules)
        report = run_lint(args.paths, rules=rules)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        _print_human(report)
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
