"""Every name a ``harmonicflow`` module lists in ``__all__`` is defined there.

A stale entry breaks ``from harmonicflow.<module> import *`` only, so nothing
else in the suite would notice one left behind when a function is removed.
"""

import importlib
import pkgutil

import pytest

import harmonicflow

MODULES = [
    name for _, name, _ in pkgutil.iter_modules(harmonicflow.__path__)
    if hasattr(importlib.import_module(f"harmonicflow.{name}"), "__all__")
]


def test_modules_with_export_lists():
    assert {"energy", "meshes", "charts", "flow", "lojasiewicz"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"harmonicflow.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing
