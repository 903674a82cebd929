"""Export consistency: every `__all__` name exists, and the package
re-exports only names that some module lists in its `__all__`."""

import importlib
import inspect
import pkgutil

import egflow

MODULES = [importlib.import_module(f"egflow.{m.name}")
           for m in pkgutil.iter_modules(egflow.__path__)]


def test_every_module_lists_its_exports():
    assert MODULES
    for mod in MODULES:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing {missing}"


def test_package_reexports_only_module_exports():
    exported = set().union(*(mod.__all__ for mod in MODULES))
    public = {name for name, value in vars(egflow).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public and public <= exported, sorted(public - exported)
