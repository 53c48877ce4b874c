"""The benchmark's traced spans wrap package functions by module and name.

``benchmarks/spans.py`` replaces each ``(module, attribute)`` in its
``WRAPPED`` table at run time, so renaming or removing one of them breaks
traced benchmark runs. This test fails first instead. The file is read
and executed without importing it, so nothing is written next to it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def wrapped_targets():
    return [(module, attr) for module, attr, *_ in runpy.run_path(str(SPANS))["WRAPPED"]]


@pytest.mark.parametrize("module, attr", wrapped_targets())
def test_wrapped_attribute_is_callable(module, attr):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} is missing or not callable"
