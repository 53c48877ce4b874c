"""Bayesian classification with finite mixtures of multivariate scale
mixture (Student-t) models.

Per-class generative models are trained by variational inference with
conjugate Dirichlet and Gaussian-inverse-Wishart priors; redundant mixture
components prune themselves, the shared tail-weight parameter is selected
by held-out mutual information, and classification evaluates a closed-form
plug-in posterior predictive. A feature pipeline (rectification, low-pass
smoothing, windowed mean absolute value), dataset utilities, evaluation
metrics, and a command-line interface round out the package.

The public names are those the submodules list in ``__all__``. A name
loads, on first use, the submodules in ``_SUBMODULES`` order up to the
first that lists it, and with them numpy, so ``import scalemix`` alone
imports neither; this lets :mod:`scalemix.cli` choose the BLAS thread
count before numpy is loaded.
"""

import importlib

# searched in this order for a public name; the first five load no scipy
_SUBMODULES = (
    "data", "features", "metrics", "numerics", "model", "density", "predict", "vb", "nu_select",
)

__version__ = "0.1.0"


def _modules():
    """The submodules in search order, each imported when reached."""
    return (importlib.import_module(f".{module}", __name__) for module in _SUBMODULES)


def __getattr__(name):
    if name == "__all__":
        return [public for module in _modules() for public in module.__all__]
    # a module name is left to the import system, which loads that module alone
    if name not in _SUBMODULES and name != "cli":
        for module in _modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
