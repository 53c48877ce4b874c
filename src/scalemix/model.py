"""Prior and posterior parameter records, default priors, and persistence.

The conjugate prior couples a Dirichlet over mixing weights with a
Gaussian-inverse-Wishart over each component's mean and scale matrix; the
degrees of freedom carry no prior and are fixed to a shared value during
training. All records are immutable after construction and freely
shareable across threads.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_psd, cholesky

__all__ = [
    "PriorHyperparameters",
    "ComponentPosterior",
    "ClassModel",
    "TrainedClassifier",
    "LatentStatistics",
    "build_default_prior",
    "classifier_to_dict",
    "classifier_from_dict",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


def _frozen_array(values, dtype=float, ndim=None):
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PriorHyperparameters:
    """Shared conjugate prior plus the fixed degrees of freedom.

    Fields
    ------
    alpha0 : Dirichlet concentration (small values prune aggressively).
    beta0 : scale of the mean's precision relative to the component scale.
    m0 : prior mean vector.
    W0 : inverse-Wishart scale matrix.
    eta0 : inverse-Wishart degrees of freedom, must exceed dim - 1.
    nu_fixed : degrees of freedom shared by every class and component.
    k_init : initial number of components per class.
    """

    alpha0: float
    beta0: float
    m0: np.ndarray
    W0: np.ndarray
    eta0: float
    nu_fixed: float
    k_init: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m0", _frozen_array(self.m0, ndim=1))
        object.__setattr__(self, "W0", _frozen_array(as_psd(self.W0)))
        for name in ("alpha0", "beta0", "eta0", "nu_fixed"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "k_init", int(self.k_init))
        d = self.m0.shape[0]
        if self.W0.shape != (d, d):
            raise ValueError(f"W0 shape {self.W0.shape} does not match m0 dim {d}")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if not self.beta0 > 0:
            raise ValueError("beta0 must be positive")
        if not self.eta0 > d - 1:
            raise ValueError(f"eta0 must exceed dim - 1 = {d - 1}, got {self.eta0}")
        if not (self.nu_fixed > 0 and math.isfinite(self.nu_fixed)):
            raise ValueError(f"nu_fixed must be positive and finite, got {self.nu_fixed!r}")
        if self.k_init < 1:
            raise ValueError("k_init must be at least 1")
        cholesky(self.W0)  # fail fast if W0 is not positive definite

    @property
    def dim(self):
        return self.m0.shape[0]


@dataclass(frozen=True, eq=False)
class ComponentPosterior:
    """Variational posterior parameters of a single mixture component."""

    alpha: float
    beta: float
    m: np.ndarray
    W: np.ndarray
    eta: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen_array(self.m, ndim=1))
        object.__setattr__(self, "W", _frozen_array(as_psd(self.W)))
        for name in ("alpha", "beta", "eta", "nu"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.alpha > 0 and self.beta > 0 and self.nu > 0):
            raise ValueError("alpha, beta, and nu must all be positive")
        d = self.m.shape[0]
        if self.W.shape != (d, d):
            raise ValueError(f"W shape {self.W.shape} does not match m dim {d}")
        if not self.eta > d - 1:
            raise ValueError(f"eta must exceed dim - 1 = {d - 1}, got {self.eta}")
        cholesky(self.W)  # scale matrix must be positive definite

    @property
    def dim(self):
        return self.m.shape[0]


@dataclass(frozen=True, eq=False)
class ClassModel:
    """Surviving components of one class plus training bookkeeping."""

    class_id: int
    components: tuple
    alpha_hat: float
    elbo_trace: tuple
    n_pruned: int
    converged: bool = True

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a class model needs at least one component")
        object.__setattr__(self, "class_id", int(self.class_id))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "alpha_hat", float(self.alpha_hat))
        object.__setattr__(self, "elbo_trace", tuple(float(v) for v in self.elbo_trace))
        object.__setattr__(self, "n_pruned", int(self.n_pruned))
        object.__setattr__(self, "converged", bool(self.converged))
        total = sum(c.alpha for c in comps)
        if abs(total - self.alpha_hat) > 1e-10 * max(1.0, abs(total)):
            raise ValueError(
                f"alpha_hat {self.alpha_hat!r} does not match component sum {total!r}"
            )
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {sorted(dims)}")

    @property
    def dim(self):
        return self.components[0].dim

    @property
    def n_components(self):
        return len(self.components)


@dataclass(frozen=True, eq=False)
class TrainedClassifier:
    """All class models plus log class priors; immutable after training."""

    classes: tuple
    class_log_prior: np.ndarray
    dim: int
    prior: PriorHyperparameters

    def __post_init__(self):
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(
            self, "class_log_prior", _frozen_array(self.class_log_prior, ndim=1)
        )
        object.__setattr__(self, "dim", int(self.dim))
        if len(classes) != self.class_log_prior.shape[0]:
            raise ValueError("class_log_prior length does not match class count")
        total = float(np.sum(np.exp(self.class_log_prior)))
        if abs(total - 1.0) > 1e-12 * len(classes):
            raise ValueError(f"class priors must sum to 1, got {total!r}")
        for cm in classes:
            if cm.dim != self.dim:
                raise ValueError(
                    f"class {cm.class_id} has dim {cm.dim}, classifier has {self.dim}"
                )

    @property
    def class_ids(self):
        return [cm.class_id for cm in self.classes]

    @property
    def n_classes(self):
        return len(self.classes)


@dataclass(frozen=True, eq=False)
class LatentStatistics:
    """Responsibility-weighted statistics produced between the two steps."""

    N: np.ndarray
    omega: np.ndarray
    xbar: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "N", _frozen_array(self.N, ndim=1))
        object.__setattr__(self, "omega", _frozen_array(self.omega, ndim=1))
        object.__setattr__(self, "xbar", _frozen_array(self.xbar, ndim=2))
        object.__setattr__(self, "S", _frozen_array(self.S))
        if np.any(self.N < 0) or np.any(self.omega < 0):
            raise ValueError("effective counts and omega must be nonnegative")


def build_default_prior(data, nu_fixed, k_init=1, alpha0=0.001):
    """Data-driven default prior.

    Sets ``beta0 = 1``, ``eta0 = dim + 1``, the prior mean to the sample
    mean of all training features, and the inverse-Wishart scale to their
    sample covariance (the unbiased 1/(N-1) estimator), symmetrized and
    jittered when singular. A zero-variance feature therefore yields a
    jittered diagonal rather than a silent NaN.
    """
    n = data.n_rows
    if n == 0:
        raise ValueError("cannot build a prior from an empty dataset")
    feats = data.features
    d = feats.shape[1]
    m0 = feats.mean(axis=0)
    if n >= 2:
        w0 = np.cov(feats, rowvar=False, ddof=1)
        w0 = np.atleast_2d(np.asarray(w0, dtype=float))
    else:
        w0 = np.eye(d)
    w0 = 0.5 * (w0 + w0.T)
    try:
        cholesky(w0)
    except np.linalg.LinAlgError:
        trace = float(np.trace(w0))
        bump = 1e-8 * (trace / d if trace > 0 else 1.0)
        w0 = w0 + bump * np.eye(d)
        cholesky(w0)  # re-raise if still singular
    return PriorHyperparameters(
        alpha0=alpha0,
        beta0=1.0,
        m0=m0,
        W0=w0,
        eta0=d + 1.0,
        nu_fixed=nu_fixed,
        k_init=k_init,
    )


def _matrix_to_rows(matrix):
    return [[float(v) for v in row] for row in np.asarray(matrix)]


def classifier_to_dict(classifier):
    """Self-describing dictionary form of a trained classifier.

    Floats survive a JSON round trip bit-exactly: they are rendered with
    repr semantics (up to 17 significant digits).
    """
    prior = classifier.prior
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": classifier.dim,
        "prior": {
            "alpha0": prior.alpha0,
            "beta0": prior.beta0,
            "m0": [float(v) for v in prior.m0],
            "W0": _matrix_to_rows(prior.W0),
            "eta0": prior.eta0,
            "nu_fixed": prior.nu_fixed,
            "k_init": prior.k_init,
        },
        "class_log_prior": [float(v) for v in classifier.class_log_prior],
        "classes": [
            {
                "class_id": cm.class_id,
                "alpha_hat": cm.alpha_hat,
                "n_pruned": cm.n_pruned,
                "converged": cm.converged,
                "elbo_trace": list(cm.elbo_trace),
                "components": [
                    {
                        "alpha": c.alpha,
                        "beta": c.beta,
                        "m": [float(v) for v in c.m],
                        "W": _matrix_to_rows(c.W),
                        "eta": c.eta,
                        "nu": c.nu,
                    }
                    for c in cm.components
                ],
            }
            for cm in classifier.classes
        ],
    }


def classifier_from_dict(payload):
    """Inverse of :func:`classifier_to_dict`."""
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    p = payload["prior"]
    prior = PriorHyperparameters(
        alpha0=p["alpha0"],
        beta0=p["beta0"],
        m0=p["m0"],
        W0=p["W0"],
        eta0=p["eta0"],
        nu_fixed=p["nu_fixed"],
        k_init=p["k_init"],
    )
    classes = []
    for cm in payload["classes"]:
        comps = tuple(
            ComponentPosterior(
                alpha=c["alpha"],
                beta=c["beta"],
                m=c["m"],
                W=c["W"],
                eta=c["eta"],
                nu=c["nu"],
            )
            for c in cm["components"]
        )
        classes.append(
            ClassModel(
                class_id=cm["class_id"],
                components=comps,
                alpha_hat=cm["alpha_hat"],
                elbo_trace=tuple(cm["elbo_trace"]),
                n_pruned=cm["n_pruned"],
                converged=cm["converged"],
            )
        )
    return TrainedClassifier(
        classes=tuple(classes),
        class_log_prior=payload["class_log_prior"],
        dim=payload["dim"],
        prior=prior,
    )


def save_model(classifier, path):
    """Write a classifier as a JSON text document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(classifier_to_dict(classifier), fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a classifier written by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        return classifier_from_dict(json.load(fh))
