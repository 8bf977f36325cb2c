"""Every name a kcn module lists in `__all__` is defined in that module."""

import importlib

import pytest

MODULES = ["algebra", "codes", "kc", "noise", "protocols", "suites", "wire",
           "analysis.bandwidth", "analysis.error_rates", "analysis.pmf", "analysis.security"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"kcn.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
