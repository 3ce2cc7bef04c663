"""Star imports work: every name a module's __all__ lists exists."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["eamac", "gaussian", "channel", "fock", "region", "planner", "validate"])
def test_star_import_binds_every_public_name(module):
    name = module if module == "eamac" else f"eamac.{module}"
    namespace = {}
    # a stale __all__ entry makes the star import itself raise AttributeError
    exec(f"from {name} import *", namespace)
    assert set(getattr(importlib.import_module(name), "__all__", ())) <= namespace.keys()
