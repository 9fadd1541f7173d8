"""Every name a lapwalk module exports must resolve: tools that walk
``__all__`` (the perfbench tracer wraps each exported function) fail on a
stale entry."""

import importlib
import pkgutil

import pytest

import lapwalk

MODULES = ["lapwalk"] + [f"lapwalk.{info.name}" for info in pkgutil.iter_modules(lapwalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
