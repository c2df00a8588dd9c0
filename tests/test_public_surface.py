"""Every name a safeval module exports resolves, so that a star-import works.

A name left in ``__all__`` after its definition moved or was removed breaks
``from safeval.<module> import *`` with an ``AttributeError``.
"""

import importlib
import pkgutil

import pytest

import safeval

MODULES = ["safeval"] + [f"safeval.{m.name}" for m in pkgutil.iter_modules(safeval.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
