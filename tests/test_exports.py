"""Every name a module exports through __all__ exists, so a rename that
misses an export fails here rather than at a user's import."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import clustersc

MODULES = ["clustersc"] + [
    f"clustersc.{info.name}" for info in pkgutil.iter_modules(clustersc.__path__)
]


def test_modules_found():
    assert {"clustersc", "clustersc.cli", "clustersc.evaluate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
