import importlib
import pkgutil

import pytest

import ruinlab

MODULES = ["ruinlab"] + [f"ruinlab.{m.name}" for m in pkgutil.iter_modules(ruinlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing
