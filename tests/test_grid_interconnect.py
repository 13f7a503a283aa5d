"""Grid interconnect cap (constraint 5)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.grid.interconnect import GridInterconnect


class TestInterconnect:
    def test_max_block_purchase(self):
        grid = GridInterconnect(2.0)
        assert grid.max_block_purchase(24) == pytest.approx(48.0)

    def test_max_block_invalid_t_rejected(self):
        with pytest.raises(ConfigurationError):
            GridInterconnect(2.0).max_block_purchase(0)

    def test_negative_pgrid_rejected(self):
        with pytest.raises(ConfigurationError):
            GridInterconnect(-1.0)

    def test_zero_pgrid_blocks_everything(self):
        grid = GridInterconnect(0.0)
        assert grid.max_block_purchase(24) == 0.0
