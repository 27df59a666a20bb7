"""Every exported name resolves, so ``from slqkit import *`` and its
per-module forms never break on a stale entry of an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import slqkit

MODULES = ["slqkit"] + [f"slqkit.{info.name}" for info in pkgutil.iter_modules(slqkit.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(exported) <= set(namespace)
