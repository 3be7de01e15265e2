"""Each exported name is declared once, in the ``__all__`` of the module that defines it,
and the package re-exports exactly the union of those lists."""
from __future__ import annotations

import importlib
import types

import pytest

import mwrobust

MODULES = tuple(
    importlib.import_module(f"mwrobust.{name}")
    for name in ("core", "rules", "perturb", "radius", "counting", "constructions")
)


def knows_its_module(obj) -> bool:
    # classes and functions record where they were defined; constants and type aliases do not
    return isinstance(obj, types.FunctionType) or isinstance(obj, type) and not isinstance(obj, types.GenericAlias)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_lists_names_it_defines(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        obj = getattr(module, name)
        if knows_its_module(obj):
            assert obj.__module__ == module.__name__, name


def test_package_exports_the_disjoint_union_of_module_lists():
    lists = [set(module.__all__) for module in MODULES]
    union = set().union(*lists)
    assert sum(map(len, lists)) == len(union)
    assert len(mwrobust.__all__) == len(set(mwrobust.__all__))
    assert set(mwrobust.__all__) == union


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from mwrobust import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(mwrobust.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name
