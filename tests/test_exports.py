"""Every exported name exists, and the package exports only what its
modules export."""

import importlib
import pkgutil

import torusflow

MODULES = [importlib.import_module(f"torusflow.{info.name}")
           for info in pkgutil.iter_modules(torusflow.__path__)]


def test_module_exports_are_defined():
    for module in MODULES:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_exports_come_from_module_exports():
    exported = {name for module in MODULES for name in getattr(module, "__all__", ())}
    assert [name for name in torusflow.__all__
            if name != "__version__" and name not in exported] == []
