"""Analysis utilities: tables, and the Theorem 2 oracle."""

import pytest

from oracles.theory import all_hold, verify_theorem2
from repro.analysis.tables import format_series, format_table
from repro.baselines.impatient import ImpatientController
from repro.config.presets import paper_controller_config
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator
from repro.exceptions import ConfigurationError


@pytest.fixture
def pair(small_system, small_traces):
    smart = Simulator(small_system,
                      SmartDPSS(paper_controller_config()),
                      small_traces).run()
    impatient = Simulator(small_system, ImpatientController(),
                          small_traces).run()
    return smart, impatient


class TestTheoremChecks:
    def test_battery_and_availability_hold(self, pair):
        smart, _ = pair
        checks = verify_theorem2(smart, v=1.0, epsilon=0.5,
                                 price_cap_normalized=20.0)
        by_claim = {c.claim: c for c in checks}
        assert by_claim["battery level >= Bmin (Thm 2-2)"].holds
        assert by_claim["battery level <= Bmax (Thm 2-2)"].holds
        assert by_claim[
            "availability = 1 (Thm 2-2 corollary)"].holds

    def test_queue_bound_checked(self, pair):
        smart, _ = pair
        checks = verify_theorem2(smart, 1.0, 0.5, 20.0)
        q_check = next(c for c in checks if "Qmax" in c.claim)
        assert q_check.holds

    def test_delay_bound_checked(self, pair):
        smart, _ = pair
        checks = verify_theorem2(smart, 1.0, 0.5, 20.0)
        delay = next(c for c in checks if "lambda_max" in c.claim)
        assert delay.holds

    def test_cost_gap_with_offline(self, pair):
        smart, _ = pair
        checks = verify_theorem2(
            smart, 1.0, 0.5, 20.0,
            offline_time_average=smart.time_average_cost - 1.0)
        gap = next(c for c in checks if "cost gap" in c.claim)
        # H2/V for the paper system is enormous; a $1 gap passes.
        assert gap.holds

    def test_y_peak_optional(self, pair):
        smart, _ = pair
        with_y = verify_theorem2(smart, 1.0, 0.5, 20.0, y_peak=1.0)
        without_y = verify_theorem2(smart, 1.0, 0.5, 20.0)
        assert len(with_y) == len(without_y) + 1

    def test_all_hold_helper(self, pair):
        smart, _ = pair
        checks = verify_theorem2(smart, 1.0, 0.5, 20.0)
        assert all_hold(checks) == all(c.holds for c in checks)

    def test_check_str_renders(self, pair):
        smart, _ = pair
        check = verify_theorem2(smart, 1.0, 0.5, 20.0)[0]
        assert "OK" in str(check) or "FAIL" in str(check)


class TestTables:
    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [[1.0, "x"], [2.5, "yy"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_title(self):
        table = format_table(["a"], [[1.0]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_format_table_bad_row_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1.0]])

    def test_format_series(self):
        line = format_series("costs", [1, 2], [3.0, 4.5],
                             precision=1)
        assert line == "costs: 1=3.0 2=4.5"

    def test_format_series_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_series("x", [1], [1.0, 2.0])
