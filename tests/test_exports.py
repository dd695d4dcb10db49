"""The public names of the package and its modules."""

import importlib
import pkgutil

import fermifields


def test_every_exported_name_resolves():
    modules = [fermifields] + [
        importlib.import_module(f"fermifields.{info.name}")
        for info in pkgutil.iter_modules(fermifields.__path__)]
    assert len(modules) > 10
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
