"""The benchmark's traced spans wrap package functions by module and name,
and each of its workloads runs at its smallest size.

``benchmarks/spans.py`` replaces each ``(module, attribute)`` in its
``WRAPPED`` table at run time, so renaming or removing one of them breaks
traced benchmark runs. The first test fails first instead. The second
fails when a module only imports a wrapped name without calling it, so
its span would read 0 and the import would stay only for the benchmark.
The file is read and executed without importing it, so nothing is
written next to it.
The workload tests drive ``benchmarks/run.py`` in process, untraced, on
``--size tiny`` inputs; each command still runs in its own interpreter.
"""

import ast
import importlib
import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def wrapped_targets():
    return [(module, attr) for module, attr, *_ in runpy.run_path(str(SPANS))["WRAPPED"]]


@pytest.mark.parametrize("module, attr", wrapped_targets())
def test_wrapped_attribute_is_callable(module, attr):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} is missing or not callable"


# wrapped names a module imports but does not call, each until the span moves
NOT_CALLED = {
    # the fold fits go through nu_select.fit_each (ROADMAP item 1a)
    ("scalemix.nu_select", "fit"),
}


def called_names(module):
    """The names that ``module``'s source calls directly, as ``name(...)``."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text(encoding="utf-8"))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


@pytest.mark.parametrize("module, attr", wrapped_targets())
def test_wrapped_attribute_is_called_in_its_module(module, attr):
    called = attr in called_names(module)
    if (module, attr) in NOT_CALLED:
        assert not called, f"{module}.{attr} is called again; drop it from NOT_CALLED"
    else:
        assert called, f"{module} does not call {attr}, so its span would read 0"


@pytest.fixture
def bench_run(monkeypatch, tmp_path):
    """``benchmarks/run.py`` loaded as a module, writing its work under ``tmp_path``.

    Its ``import inputs`` and ``import spans`` find their files beside it;
    no bytecode is written there, and both leave ``sys.modules`` afterwards.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SPANS.parent))
    for name in ("inputs", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("bench_run", SPANS.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    # the warm-up only steadies timings, which this test does not read
    monkeypatch.setattr(run, "warm_up", lambda: None)
    yield run
    for name in ("inputs", "spans"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["predict_csv", "protocol_select"])
def test_tiny_workload_runs_without_a_failed_command(bench_run, workload):
    # untraced, the least the benchmark runs: two commands on one input,
    # whose outputs must match each other and pass the workload's check
    records, attempted, failed, problems, accuracy = bench_run.run(
        workload, seed=0, seconds=0.0, trace=0, size="tiny"
    )
    assert (attempted, failed, problems) == (2, 0, [])
    assert len(records) == 2 and accuracy >= bench_run.ACCURACY_FLOOR[workload]
