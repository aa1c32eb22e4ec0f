import importlib
import inspect
import pkgutil

import pytest

import brslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(brslab.__path__))
# modules that declare their public surface
EXPORTING = [m for m in MODULES if hasattr(importlib.import_module(f"brslab.{m}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"brslab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("name", EXPORTING)
def test_every_public_definition_is_exported(name):
    mod = importlib.import_module(f"brslab.{name}")
    unlisted = [
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
        and n not in mod.__all__
    ]
    assert unlisted == []
