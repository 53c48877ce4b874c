"""Bayesian classification with finite mixtures of multivariate scale
mixture (Student-t) models.

Per-class generative models are trained by variational inference with
conjugate Dirichlet and Gaussian-inverse-Wishart priors; redundant mixture
components prune themselves, the shared tail-weight parameter is selected
by held-out mutual information, and classification evaluates a closed-form
plug-in posterior predictive. A feature pipeline (rectification, low-pass
smoothing, windowed mean absolute value), dataset utilities, evaluation
metrics, and a command-line interface round out the package.

The names below load their submodule, and with it numpy, on first use, so
``import scalemix`` alone imports neither; this lets :mod:`scalemix.cli`
choose the BLAS thread count before numpy is loaded.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "DataFormatError", "FeatureDataset", "generate_simulation", "load_csv",
            "save_csv", "split_by_trials", "subsample",
        ),
        "data",
    ),
    **dict.fromkeys(
        (
            "QuadratureError", "StudentParams", "log_marginal_density",
            "quadrature_marginal_density",
        ),
        "density",
    ),
    **dict.fromkeys(
        (
            "SignalBlock", "butter2_coeffs", "butterworth2_lowpass", "mav_window",
            "pipeline_rect_smooth", "rectify",
        ),
        "features",
    ),
    **dict.fromkeys(
        ("accuracy", "confusion_matrix", "precision_recall", "probability_of_superiority"),
        "metrics",
    ),
    **dict.fromkeys(
        (
            "ClassModel", "Posteriors", "PriorHyperparameters", "TrainedClassifier",
            "build_default_prior", "classifier_from_dict", "classifier_to_dict",
            "load_model", "save_model",
        ),
        "model",
    ),
    **dict.fromkeys(
        (
            "NuSearchConfig", "conditional_entropy", "default_nu_grid", "select_nu",
            "stratified_folds",
        ),
        "nu_select",
    ),
    **dict.fromkeys(
        (
            "CholeskyFactor", "NotPositiveDefiniteError", "cholesky", "log_det",
            "mahalanobis_sq_batch",
        ),
        "numerics",
    ),
    **dict.fromkeys(("predict_batch", "prepare", "sample"), "predict"),
    **dict.fromkeys(
        (
            "NumericalFailure", "VbConfig", "e_step", "elbo", "fit", "fit_ml_nu", "m_step",
            "prune",
        ),
        "vb",
    ),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
