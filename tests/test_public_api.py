"""The package front doors export only names that exist."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.sim", "repro.fleet"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__
               if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
