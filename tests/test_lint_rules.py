"""Fixture tests for every repro-lint rule: one firing and one clean
snippet each, plus the suppression machinery and the CLI."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, RULES_BY_ID, run_lint

pytestmark = pytest.mark.lint


def lint_snippet(tmp_path: Path, source: str,
                 relpath: str = "repro/mod.py",
                 rules=None):
    """Write ``source`` at ``tmp_path/relpath`` and lint it.

    ``relpath`` matters: several rules scope by path fragment
    (``repro/fleet/``, ``repro/telemetry/``, the kernel modules).
    """
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([target], rules=rules)


def rule_ids(report):
    return [f.rule for f in report.findings]


# ----------------------------------------------------------------------
# R001 rng-discipline
# ----------------------------------------------------------------------

class TestR001RngDiscipline:
    RULES = (RULES_BY_ID["R001"],)

    def test_default_rng_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import numpy as np
            rng = np.random.default_rng(42)
        """, rules=self.RULES)
        assert rule_ids(report) == ["R001"]

    def test_stdlib_random_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import random
            x = random.random()
        """, rules=self.RULES)
        assert "R001" in rule_ids(report)

    def test_module_level_draw_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import numpy as np
            noise = np.random.normal(0.0, 1.0, 8)
        """, rules=self.RULES)
        assert rule_ids(report) == ["R001"]

    def test_generator_annotation_is_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import numpy as np

            def draw(rng: np.random.Generator) -> float:
                return float(rng.normal())
        """, rules=self.RULES)
        assert report.clean

    def test_isinstance_generator_is_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import numpy as np

            def check(rng):
                return isinstance(rng, np.random.Generator)
        """, rules=self.RULES)
        assert report.clean

    def test_rng_module_is_exempt(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import numpy as np
            rng = np.random.default_rng(0)
        """, relpath="repro/rng.py", rules=self.RULES)
        assert report.clean


# ----------------------------------------------------------------------
# R003 exception-taxonomy
# ----------------------------------------------------------------------

class TestR003ExceptionTaxonomy:
    RULES = (RULES_BY_ID["R003"],)

    @pytest.mark.parametrize("name", ["ValueError", "RuntimeError",
                                      "Exception"])
    def test_forbidden_raise_fires(self, tmp_path, name):
        report = lint_snippet(tmp_path, f"""
            def check(x):
                if x < 0:
                    raise {name}("bad")
        """, rules=self.RULES)
        assert rule_ids(report) == ["R003"]

    def test_bare_raise_name_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def check(x):
                raise ValueError
        """, rules=self.RULES)
        assert rule_ids(report) == ["R003"]

    def test_typed_raise_is_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            from repro.exceptions import ConfigurationError

            def check(x):
                if x < 0:
                    raise ConfigurationError(f"bad {x}")
        """, rules=self.RULES)
        assert report.clean

    def test_reraise_and_typeerror_are_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def check(x):
                if not isinstance(x, int):
                    raise TypeError("x must be an int")
                try:
                    return 1 / x
                except ZeroDivisionError:
                    raise
        """, rules=self.RULES)
        assert report.clean

    def test_unpicklable_exception_init_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class ShardError(Exception):
                def __init__(self, message, shard):
                    super().__init__(message)
                    self.shard = shard
        """, rules=self.RULES)
        assert rule_ids(report) == ["R003"]
        assert "__reduce__" in report.findings[0].message

    def test_defaulted_extras_are_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class ShardError(Exception):
                def __init__(self, message, shard=None):
                    super().__init__(message)
                    self.shard = shard
        """, rules=self.RULES)
        assert report.clean

    def test_reduce_makes_required_extras_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            class ShardError(Exception):
                def __init__(self, message, shard):
                    super().__init__(message)
                    self.shard = shard

                def __reduce__(self):
                    return (type(self), (self.args[0], self.shard))
        """, rules=self.RULES)
        assert report.clean


# ----------------------------------------------------------------------
# R004 store-discipline
# ----------------------------------------------------------------------

class TestR004StoreDiscipline:
    RULES = (RULES_BY_ID["R004"],)

    def test_append_open_fires_in_fleet(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def log(path, line):
                with open(path, "a") as handle:
                    handle.write(line)
        """, relpath="repro/fleet/sidecar.py", rules=self.RULES)
        assert rule_ids(report) == ["R004"]

    def test_path_open_append_fires_in_fleet(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def log(path, line):
                with path.open(mode="ab") as handle:
                    handle.write(line)
        """, relpath="repro/fleet/sidecar.py", rules=self.RULES)
        assert rule_ids(report) == ["R004"]

    def test_json_dump_fires_in_fleet(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import json

            def write(record, handle):
                json.dump(record, handle)
        """, relpath="repro/fleet/sidecar.py", rules=self.RULES)
        assert rule_ids(report) == ["R004"]

    def test_read_open_and_dumps_are_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import json

            def read(path):
                with open(path, "r") as handle:
                    return [json.loads(line) for line in handle]

            def serialize(record):
                return json.dumps(record, sort_keys=True)
        """, relpath="repro/fleet/sidecar.py", rules=self.RULES)
        assert report.clean

    def test_out_of_fleet_is_out_of_scope(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def log(path, line):
                with open(path, "a") as handle:
                    handle.write(line)
        """, relpath="repro/analysis/dumper.py", rules=self.RULES)
        assert report.clean


# ----------------------------------------------------------------------
# R005 wallclock-hygiene
# ----------------------------------------------------------------------

class TestR005WallclockHygiene:
    RULES = (RULES_BY_ID["R005"],)

    @pytest.mark.parametrize("expr", [
        "time.time()", "time.perf_counter()", "time.monotonic()",
    ])
    def test_time_reads_fire(self, tmp_path, expr):
        report = lint_snippet(tmp_path, f"""
            import time
            t0 = {expr}
        """, rules=self.RULES)
        assert rule_ids(report) == ["R005"]

    def test_datetime_now_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import datetime
            stamp = datetime.datetime.now().isoformat()
        """, rules=self.RULES)
        assert rule_ids(report) == ["R005"]

    def test_telemetry_package_is_exempt(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import time
            t0 = time.perf_counter()
        """, relpath="repro/telemetry/core.py", rules=self.RULES)
        assert report.clean

    def test_blessed_monotonic_and_sleep_are_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            import time

            from repro.telemetry import monotonic

            def timed(fn):
                t0 = monotonic()
                fn()
                time.sleep(0.0)
                return monotonic() - t0
        """, rules=self.RULES)
        assert report.clean


# ----------------------------------------------------------------------
# R006 telemetry-guard
# ----------------------------------------------------------------------

class TestR006TelemetryGuard:
    RULES = (RULES_BY_ID["R006"],)

    def test_fstring_name_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def run(tele, shard):
                tele.count(f"shard_{shard}")
        """, rules=self.RULES)
        assert rule_ids(report) == ["R006"]

    def test_dynamic_name_fires(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def run(tele, name):
                with tele.span(name):
                    pass
        """, rules=self.RULES)
        assert rule_ids(report) == ["R006"]

    def test_literal_name_is_clean(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def run(tele, plan):
                with tele.span("plan"):
                    plan()
                tele.count("boundaries")
        """, rules=self.RULES)
        assert report.clean

    def test_enabled_guard_allows_dynamic_names(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def run(tele, counters):
                if tele.enabled:
                    for name, value in counters.items():
                        tele.count(name, value)
        """, rules=self.RULES)
        assert report.clean

    def test_is_not_none_guard_fires(self, tmp_path):
        # Collectors are never None (TELEMETRY_OFF is the default), so
        # this test is always true and guards nothing.
        report = lint_snippet(tmp_path, """
            def run(parent_tele, counters):
                if parent_tele is not None:
                    for name, value in counters.items():
                        parent_tele.count(name, value)
        """, rules=self.RULES)
        assert rule_ids(report) == ["R006"]

    def test_non_telemetry_receiver_is_out_of_scope(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def run(collection, name):
                collection.count(name)
        """, rules=self.RULES)
        assert report.clean


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_inline_suppression_with_reason(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def check(x):
                raise ValueError("x")  # replint: ignore[R003] legacy shim
        """)
        assert report.clean
        assert report.suppressed_count == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def check(x):
                raise ValueError("x")  # replint: ignore[R001] wrong rule
        """)
        assert rule_ids(report) == ["R003"]

    def test_reasonless_suppression_is_a_finding(self, tmp_path):
        report = lint_snippet(tmp_path, """
            def check(x):
                raise ValueError("x")  # replint: ignore[R003]
        """)
        ids = rule_ids(report)
        assert "R000" in ids  # the naked waiver itself
        assert "R003" in ids  # and it does not suppress

    def test_syntax_error_is_a_finding(self, tmp_path):
        report = lint_snippet(tmp_path, "def broken(:\n    pass\n")
        assert rule_ids(report) == ["R000"]
        assert "syntax error" in report.findings[0].message


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def run_cli(self, *args, cwd=None):
        env = {"PYTHONPATH": str(Path("src").resolve())}
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True, text=True, cwd=cwd, env=env)

    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "repro" / "ok.py"
        target.parent.mkdir()
        target.write_text("X = 1\n")
        result = self.run_cli(str(target))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_findings_exit_one_and_json_shape(self, tmp_path):
        target = tmp_path / "repro" / "bad.py"
        target.parent.mkdir()
        target.write_text('raise ValueError("x")\n')
        result = self.run_cli(str(target), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "R003"

    def test_list_rules_names_all_five(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        assert [rule.id for rule in ALL_RULES] == [
            "R001", "R003", "R004", "R005", "R006"]
        for rule in ALL_RULES:
            assert rule.id in result.stdout
        assert "R002" not in result.stdout
