"""The package's public names: every exported name resolves where it is listed."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import scalemix

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(scalemix.__path__) if info.name != "__main__"
)


def reexports():
    """``(module, name)`` for each ``from .module import name`` in ``scalemix/__init__.py``."""
    tree = ast.parse(Path(scalemix.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


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
