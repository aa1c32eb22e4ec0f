import importlib
import pkgutil

import pytest

import brslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(brslab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"brslab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
