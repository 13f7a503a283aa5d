"""The repro-lint engine: findings, rules, suppressions, file walking.

``repro.lint`` is a purpose-built static checker for the handful of
coding disciplines this reproduction's headline guarantees rest on
(bit-identical records, seed-deterministic resume, torn-write-tolerant
stores).  It is **not** a general linter: every rule encodes one
repo-specific invariant, checked against the stdlib :mod:`ast` so the
whole tool has zero dependencies and runs in well under ten seconds
over ``src/repro``.

Vocabulary:

* A :class:`Rule` inspects one parsed module (:class:`ModuleContext`)
  and yields :class:`Finding` objects.  One module per rule lives in
  :mod:`repro.lint.rules`.
* An inline comment ``# replint: ignore[R00x] <reason>`` on the
  flagged line suppresses that rule there; the reason is mandatory
  (an unexplained suppression is itself a finding, ``R000``).  It is
  the one way to accept a finding.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ConfigurationError

#: Pseudo-rule id for problems with the lint run itself (unparseable
#: file, malformed suppression comment).  Never suppressed.
META_RULE_ID = "R000"

_SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*ignore\[(?P<rules>R\d{3}(?:\s*,\s*R\d{3})*)\]"
    r"\s*(?P<reason>.*)$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str      #: rule id, e.g. ``"R003"``
    path: str      #: posix path of the offending file
    line: int      #: 1-based line number
    message: str   #: human-readable statement of the violation
    snippet: str = ""  #: the stripped offending source line

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "snippet": self.snippet}


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`check`.
    Rules are stateless: one instance serves every module, and
    ``check`` receives everything it needs via the context.
    """

    id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "ModuleContext", node: ast.AST,
                message: str) -> Finding:
        """A finding anchored at ``node`` in ``ctx``'s module."""
        line = getattr(node, "lineno", 1)
        return Finding(rule=self.id, path=ctx.display_path, line=line,
                       message=message, snippet=ctx.source_line(line))


@dataclass
class ModuleContext:
    """One parsed module plus the derived lookups rules share."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    lines: Sequence[str]
    #: line -> set of rule ids suppressed there (reason already vetted)
    suppressions: Mapping[int, frozenset]
    _annotation_nodes: frozenset = field(default_factory=frozenset)
    _parents: dict = field(default_factory=dict)

    @property
    def posix(self) -> str:
        """Full posix path, for scope matching (stable under cwd)."""
        return self.path.as_posix()

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def is_suppressed(self, finding: Finding) -> bool:
        return finding.rule in self.suppressions.get(finding.line,
                                                     frozenset())

    # -- annotation tracking -------------------------------------------

    def in_annotation(self, node: ast.AST) -> bool:
        """Whether ``node`` sits inside a type annotation.

        Annotations are type-level references, not runtime compute, so
        e.g. ``np.random.Generator`` in a signature never violates
        rng-discipline.
        """
        return id(node) in self._annotation_nodes

    # -- ancestry ------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_annotation_nodes(tree: ast.Module) -> frozenset:
    """ids of every AST node lying inside a type annotation."""
    collected: set[int] = set()

    def mark(node: ast.AST | None) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            collected.add(id(sub))

    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            mark(node.annotation)
        elif isinstance(node, ast.arg):
            mark(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mark(node.returns)
    return frozenset(collected)


def _collect_parents(tree: ast.Module) -> dict:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def parse_suppressions(lines: Sequence[str]
                       ) -> tuple[dict, list]:
    """Per-line suppression table from ``# replint: ignore[...]``.

    Returns ``(suppressions, problems)`` where ``problems`` is a list
    of ``(line, message)`` for malformed suppressions (missing
    reason): an inline waiver with no justification is treated as a
    finding in its own right, not honored silently.
    """
    suppressions: dict[int, frozenset] = {}
    problems: list[tuple[int, str]] = []
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(part.strip()
                          for part in match.group("rules").split(","))
        reason = match.group("reason").strip()
        if not reason:
            problems.append(
                (number, "suppression comment has no reason; write "
                 "`# replint: ignore[R00x] <why this is exempt>`"))
            continue
        suppressions[number] = rules
    return suppressions, problems


def build_context(path: Path, display_path: str | None = None
                  ) -> tuple[ModuleContext | None, list]:
    """Parse one file into a :class:`ModuleContext`.

    Returns ``(context, meta_findings)``; an unparseable file yields
    ``(None, [R000 finding])`` so a syntax error fails the lint run
    loudly instead of silently shrinking its coverage.
    """
    display = display_path or _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as err:
        return None, [Finding(rule=META_RULE_ID, path=display, line=1,
                              message=f"cannot read file: {err}")]
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return None, [Finding(rule=META_RULE_ID, path=display,
                              line=err.lineno or 1,
                              message=f"syntax error: {err.msg}")]
    lines = source.splitlines()
    suppressions, problems = parse_suppressions(lines)
    meta = [Finding(rule=META_RULE_ID, path=display, line=line,
                    message=message,
                    snippet=lines[line - 1].strip()
                    if line <= len(lines) else "")
            for line, message in problems]
    ctx = ModuleContext(
        path=path, display_path=display, source=source, tree=tree,
        lines=lines, suppressions=suppressions,
        _annotation_nodes=_collect_annotation_nodes(tree),
        _parents=_collect_parents(tree))
    return ctx, meta


def _display_path(path: Path) -> str:
    """cwd-relative posix path when possible (stable fingerprints)."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Python files under ``paths`` (dirs recursed, sorted, deduped)."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            candidates = [path]
        elif not path.exists():
            raise ConfigurationError(f"lint path does not exist: {path}")
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list       #: live findings (not suppressed)
    suppressed_count: int
    files_scanned: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed_count,
            "findings": [f.as_dict() for f in self.findings],
        }


def run_lint(paths: Iterable[str | Path],
             rules: Sequence[Rule] | None = None) -> LintReport:
    """Run ``rules`` over every Python file under ``paths``.

    ``rules`` defaults to the full registry
    (:data:`repro.lint.rules.ALL_RULES`).
    """
    if rules is None:
        from repro.lint.rules import ALL_RULES

        rules = ALL_RULES
    live: list[Finding] = []
    suppressed = 0
    files = 0
    for path in iter_python_files(paths):
        files += 1
        ctx, meta = build_context(path)
        live.extend(meta)
        if ctx is None:
            continue
        for rule in rules:
            for finding in rule.check(ctx):
                if ctx.is_suppressed(finding):
                    suppressed += 1
                else:
                    live.append(finding)
    live.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(findings=live, suppressed_count=suppressed,
                      files_scanned=files)
