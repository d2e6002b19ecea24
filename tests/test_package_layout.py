"""The package ships no test oracles: they live in ``tests/oracles/``."""

from __future__ import annotations

import pkgutil

import repro


def test_no_reference_modules_in_package():
    names = [module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.core.objective" in names
    assert [name for name in names if name.endswith("_reference")] == []
