"""The package's public names: every exported name resolves where it is listed."""

import importlib
import pkgutil

import pytest

import scalemix

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(scalemix.__path__) if info.name != "__main__"
)


def reexports():
    """``(module, name)`` for each name the package loads from a submodule on first use."""
    return [(module, name) for name, module in scalemix._EXPORTS.items()]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"scalemix.{module}")
    listed = getattr(mod, "__all__", [])
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(mod, name)] == []


def test_package_names_are_listed_by_their_modules():
    # a name re-exported from a module it has moved out of still resolves
    # there when that module imports it, so each must be in its module's __all__
    names = reexports()
    assert names
    stale = [
        (module, name)
        for module, name in names
        if name not in importlib.import_module(f"scalemix.{module}").__all__
    ]
    assert stale == []
    assert [name for _, name in names if not hasattr(scalemix, name)] == []


def test_package_lists_every_name():
    names = {name for _, name in reexports()}
    assert sorted(scalemix.__all__) == sorted(names)
    assert names <= set(dir(scalemix))
    star = {}
    exec("from scalemix import *", star)
    assert names <= set(star)
