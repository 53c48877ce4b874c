"""The package's public names: its submodules' ``__all__``, each loaded on first use."""

import collections
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import scalemix

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(scalemix.__path__) if info.name != "__main__"
)

# the library's surface, sorted; a change here is a change to its API
SURFACE = [
    "CholeskyFactor", "ClassModel", "DataFormatError", "FeatureDataset",
    "NotPositiveDefiniteError", "NuSearchConfig", "NumericalFailure", "Posteriors",
    "PriorHyperparameters", "QuadratureError", "SignalBlock", "StudentParams",
    "TrainedClassifier", "VbConfig", "accuracy", "build_default_prior", "butter2_coeffs",
    "butterworth2_lowpass", "cholesky", "classifier_from_dict", "classifier_to_dict",
    "conditional_entropy", "confusion_matrix", "default_nu_grid", "e_step", "elbo", "fit",
    "fit_ml_nu", "generate_simulation", "load_csv", "load_model", "log_det",
    "log_marginal_density", "m_step", "mahalanobis_sq_batch", "mav_window",
    "pipeline_rect_smooth", "precision_recall", "predict_batch", "prepare",
    "probability_of_superiority", "prune", "quadrature_marginal_density", "rectify", "sample",
    "save_csv", "save_model", "select_nu", "split_by_trials", "stratified_folds", "subsample",
]

# the submodules whose names load no scipy
SCIPY_FREE = ("data", "features", "metrics", "numerics", "model")


def listed():
    """``(module, name)`` for each name a submodule lists in its ``__all__``."""
    return [
        (module, name)
        for module in MODULES
        for name in getattr(importlib.import_module(f"scalemix.{module}"), "__all__", [])
    ]


def fresh(code):
    """Standard output of ``code`` run in a new interpreter."""
    src = str(Path(scalemix.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout.strip()


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"scalemix.{module}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(mod, name)] == []


def test_surface_is_pinned():
    assert sorted(scalemix.__all__) == SURFACE


def test_no_name_is_listed_by_two_modules():
    counts = collections.Counter(name for _, name in listed())
    assert [name for name, count in counts.items() if count > 1] == []


def test_package_searches_every_module_that_lists_names():
    assert sorted(scalemix._SUBMODULES) == sorted({module for module, _ in listed()})


def test_package_lists_every_name():
    star = {}
    exec("from scalemix import *", star)
    del star["__builtins__"]
    names = {name for _, name in listed()}
    assert sorted(scalemix.__all__) == sorted(names) == sorted(star)
    assert names <= set(dir(scalemix))
    for module, name in listed():
        defined = getattr(importlib.import_module(f"scalemix.{module}"), name)
        assert getattr(scalemix, name) is defined and star[name] is defined
    assert not hasattr(scalemix, "no_such_name")


def test_module_names_load_nothing():
    # from . import data asks the package for data before it imports the module
    probe = (
        "import sys, scalemix\n"
        f"print([m for m in {MODULES!r} if hasattr(scalemix, m)], 'numpy' in sys.modules)\n"
    )
    assert fresh(probe) == "[] False"


@pytest.mark.parametrize("module", SCIPY_FREE)
def test_scipy_free_names_load_no_scipy(module):
    name = importlib.import_module(f"scalemix.{module}").__all__[0]
    probe = f"import sys, scalemix\nscalemix.{name}\nprint('scipy' in sys.modules)\n"
    assert fresh(probe) == "False"
