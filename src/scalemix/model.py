"""Prior and posterior parameter records, default priors, and persistence.

The conjugate prior couples a Dirichlet over mixing weights with a
Gaussian-inverse-Wishart over each component's mean and scale matrix; the
degrees of freedom carry no prior and are fixed to a shared value during
training. A class's components are one stack of arrays (:class:`Posteriors`)
from the variational fit to the predictor. Validated records are immutable
after construction and freely shareable across threads.
"""

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .numerics import CholeskyFactor, NotPositiveDefiniteError, as_psd, cholesky

__all__ = [
    "PriorHyperparameters",
    "Posteriors",
    "ClassModel",
    "TrainedClassifier",
    "build_default_prior",
    "classifier_to_dict",
    "classifier_from_dict",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


def _frozen_array(values, ndim=None):
    arr = np.array(values, dtype=float)
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

    ``W0_factor`` is the Cholesky factor of ``W0``, kept from validation.
    """

    alpha0: float
    beta0: float
    m0: np.ndarray
    W0: np.ndarray
    eta0: float
    nu_fixed: float
    k_init: int = 1
    W0_factor: CholeskyFactor = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m0", _frozen_array(self.m0, ndim=1))
        object.__setattr__(self, "W0", _frozen_array(as_psd(self.W0)))
        for name in ("alpha0", "beta0", "eta0", "nu_fixed"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "k_init", int(self.k_init))
        d = self.m0.shape[0]
        if self.W0.shape != (d, d):
            raise ValueError(f"W0 shape {self.W0.shape} does not match m0 dim {d}")
        for name in ("alpha0", "beta0", "m0", "W0", "eta0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
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
        # fails fast if W0 is not positive definite
        object.__setattr__(self, "W0_factor", cholesky(self.W0))

    @property
    def dim(self):
        return self.m0.shape[0]


@dataclass(frozen=True, eq=False)
class Posteriors:
    """Parameter posteriors of a class's ``k`` components, stacked.

    ``alpha (k,)`` Dirichlet concentrations, ``beta (k,)`` mean precision
    scales, ``m (k, d)`` means, ``W (k, d, d)`` inverse-Wishart scales and
    ``eta (k,)`` inverse-Wishart degrees of freedom. Not validated: the
    variational fit builds one every iteration, and :class:`ClassModel`
    checks the one it keeps.
    """

    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    W: np.ndarray
    eta: np.ndarray


def _require(ok, class_id, message, values=None):
    """Raise ``ValueError`` naming the first component where ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        j = int(bad[0])
        got = "" if values is None else f", got {values[j]}"
        raise ValueError(f"component {j} of class {class_id}: {message}{got}")


@dataclass(frozen=True, eq=False)
class ClassModel:
    """Surviving components of one class, stacked, plus training bookkeeping.

    ``nu (k,)`` holds the components' degrees of freedom. Construction
    copies and freezes the arrays and checks the whole stack (one stacked
    factorisation); an error names the class and the component.
    """

    class_id: int
    components: Posteriors
    nu: np.ndarray
    elbo_trace: tuple
    n_pruned: int
    converged: bool = True

    def __post_init__(self):
        cid = int(self.class_id)
        if cid < 1:
            raise ValueError(f"class {cid}: class_id must be at least 1")
        arrays = {key: np.array(v, dtype=float) for key, v in vars(self.components).items()}
        arrays["nu"] = np.array(self.nu, dtype=float)
        k = arrays["alpha"].size
        d = arrays["m"].shape[-1] if arrays["m"].ndim else 0
        if not k:
            raise ValueError(f"class {cid} has no components")
        for key, arr in arrays.items():
            shape = {"m": (k, d), "W": (k, d, d)}.get(key, (k,))
            if arr.shape != shape:
                raise ValueError(f"class {cid}: {key} has shape {arr.shape}, expected {shape}")
            _require(np.isfinite(arr.reshape(k, -1)).all(axis=1), cid, f"{key} is not finite")
        positive = (arrays["alpha"] > 0) & (arrays["beta"] > 0) & (arrays["nu"] > 0)
        _require(positive, cid, "alpha, beta, and nu must all be positive")
        _require(arrays["eta"] > d - 1, cid, f"eta must exceed dim - 1 = {d - 1}", arrays["eta"])
        try:
            arrays["W"] = as_psd(arrays["W"])
            cholesky(arrays["W"])  # scale matrices must be positive definite
        except ValueError as exc:  # NotPositiveDefiniteError is one too
            raise ValueError(f"class {cid}: {exc}") from exc
        trace = tuple(float(v) for v in self.elbo_trace)
        if not all(map(math.isfinite, trace)):
            raise ValueError(f"class {cid}: elbo_trace is not finite")
        for arr in arrays.values():
            arr.setflags(write=False)
        nu = arrays.pop("nu")
        for name, value in (
            ("class_id", cid), ("components", Posteriors(**arrays)), ("nu", nu),
            ("elbo_trace", trace), ("n_pruned", int(self.n_pruned)),
            ("converged", bool(self.converged)),
        ):
            object.__setattr__(self, name, value)

    @property
    def dim(self):
        return self.components.m.shape[1]

    @property
    def n_components(self):
        return self.components.alpha.shape[0]

    @property
    def alpha_hat(self):
        """The components' alpha summed in order, as the variational fit sums them."""
        return sum(self.components.alpha.tolist())


@dataclass(frozen=True, eq=False)
class TrainedClassifier:
    """All class models, of one shared ``dim``, plus log class priors; immutable.

    ``classes`` lists the models by strictly increasing class id, the one
    class order that every per-class column follows.
    """

    classes: tuple
    class_log_prior: np.ndarray
    prior: PriorHyperparameters

    def __post_init__(self):
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_log_prior", _frozen_array(self.class_log_prior, ndim=1))
        if len(classes) != self.class_log_prior.shape[0]:
            raise ValueError("class_log_prior length does not match class count")
        if not np.isfinite(self.class_log_prior).all():
            raise ValueError("class_log_prior is not finite")
        total = float(np.sum(np.exp(self.class_log_prior)))
        if abs(total - 1.0) > 1e-12 * len(classes):
            raise ValueError(f"class priors must sum to 1, got {total!r}")
        for cm in classes:
            if cm.dim != self.dim:
                raise ValueError(f"class {cm.class_id} has dim {cm.dim}, not {self.dim}")
        for i, (a, b) in enumerate(zip(self.class_ids, self.class_ids[1:])):
            if b <= a:
                raise ValueError(f"class records {i}, {i + 1}: class_ids {a}, {b} do not increase")

    @property
    def dim(self):
        return self.classes[0].dim

    @property
    def class_ids(self):
        return [cm.class_id for cm in self.classes]


def build_default_prior(data, nu_fixed, k_init=1, alpha0=0.001):
    """Data-driven default prior.

    Sets ``beta0 = 1``, ``eta0 = dim + 1``, the prior mean to the sample
    mean of all training features, and the inverse-Wishart scale to their
    sample covariance (the unbiased 1/(N-1) estimator), jittered when
    singular, so that a zero-variance feature yields a jittered diagonal
    rather than a silent NaN. A covariance counts as singular when it
    does not factorise, or when a pivot's square is at most 16 (dim + 1)
    eps of its diagonal entry, times the largest ``|mean| / std`` of a
    feature when that exceeds 1: a ratio that does not depend on the
    features' scales, against the rounding that centring them leaves.
    :class:`PriorHyperparameters` symmetrizes it.
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
    fields = dict(alpha0=alpha0, beta0=1.0, m0=m0, eta0=d + 1.0, nu_fixed=nu_fixed, k_init=k_init)
    # the constructor factorises W0; a failure after the jitter re-raises
    with suppress(NotPositiveDefiniteError):
        prior = PriorHyperparameters(W0=w0, **fields)
        # a rank-deficient W0 may factorise on a pivot of rounding error: 16 (d + 1)
        # eps held 95-100% of those on exactly rank-deficient integer rows (d = 2-8),
        # while benchmark inputs read 0.42-0.50 and two 3-d clusters 1e7 apart 5e-14;
        # centring loses about eps |mean| / std of a feature, so a feature far from
        # zero for its spread raises the cutoff by that factor
        var = np.diagonal(prior.W0)
        pivots = np.diagonal(prior.W0_factor.lower) ** 2 / var
        offset = max(1.0, float(np.max(np.abs(m0) / np.sqrt(var))))
        if pivots.min() > 16 * (d + 1) * np.finfo(float).eps * offset:
            return prior
    trace = float(np.trace(w0))
    bump = 1e-8 * (trace / d if trace > 0 else 1.0)
    return PriorHyperparameters(W0=w0 + bump * np.eye(d), **fields)


_PRIOR_FIELDS = ("alpha0", "beta0", "m0", "W0", "eta0", "nu_fixed", "k_init")
_COMPONENT_FIELDS = ("alpha", "beta", "m", "W", "eta", "nu")


def _component_records(cm):
    """One format-1 ``components`` record per component of a class model."""
    post = cm.components
    columns = (post.alpha, post.beta, post.m, post.W, post.eta, cm.nu)
    return [dict(zip(_COMPONENT_FIELDS, values)) for values in zip(*(c.tolist() for c in columns))]


def classifier_to_dict(classifier):
    """Self-describing dictionary form of a trained classifier.

    Each class's stacked components are listed one record per component.
    Floats survive a JSON round trip bit-exactly: they are rendered with
    repr semantics (up to 17 significant digits).
    """
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": classifier.dim,
        "prior": {
            key: np.asarray(getattr(classifier.prior, key)).tolist() for key in _PRIOR_FIELDS
        },
        "class_log_prior": classifier.class_log_prior.tolist(),
        "classes": [
            {
                "class_id": cm.class_id,
                "alpha_hat": cm.alpha_hat,
                "n_pruned": cm.n_pruned,
                "converged": cm.converged,
                "elbo_trace": list(cm.elbo_trace),
                "components": _component_records(cm),
            }
            for cm in classifier.classes
        ],
    }


_KIND_NAMES = {bool: "boolean", int: "integer", float: "number", list: "array"}


def _is(value, kind, shape=()):
    """Whether ``value`` is a JSON ``kind``, or nested arrays of them.

    ``kind`` is ``list``, ``bool``, ``int`` or ``float`` (an integer is
    also a float); ``shape`` lists the array lengths, ``None`` for any.
    """
    if shape:
        return (
            isinstance(value, list)
            and shape[0] in (None, len(value))
            and all(_is(v, kind, shape[1:]) for v in value)
        )
    if kind in (bool, list) or isinstance(value, bool):
        return type(value) is kind
    if kind is float:  # an integer too large for a float is not a number here
        return isinstance(value, float) or isinstance(value, int) and value.bit_length() < 1024
    return isinstance(value, int)


def _fields(record, where, **kinds):
    """``{key: record[key]}`` for a JSON object; a ``ValueError`` names a fault.

    Each key maps to the kind its value must have (see :func:`_is`), as
    ``kind`` or ``(kind, shape)``, or to ``None`` for any JSON value.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(record).__name__}")
    for key, kind in kinds.items():
        if key not in record:
            raise ValueError(f"{where} has no {key!r} field")
        kind, shape = kind if isinstance(kind, tuple) else (kind, ())
        if kind is not None and not _is(record[key], kind, shape):
            what = f"array of {_KIND_NAMES[kind]}s" if shape else _KIND_NAMES[kind]
            sized = f" of shape {shape}" if shape and None not in shape else ""
            raise ValueError(f"{where}: {key!r} is not a JSON {what}{sized}")
    return {key: record[key] for key in kinds}


def classifier_from_dict(payload):
    """Inverse of :func:`classifier_to_dict`.

    Stacks each class's component records. Raises ``ValueError`` naming
    the record at fault: a missing field, a value of the wrong JSON type,
    a number that is not finite, a component that breaks a rule of
    :class:`ClassModel`, an ``alpha_hat`` more than 1e-10 relative from
    the sum of the class's alpha, or class records whose ``class_id`` does
    not increase (a duplicate included).
    """
    version = _fields(payload, "model", format_version=int)["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    top = _fields(
        payload, "model", dim=int, prior=None, class_log_prior=(float, (None,)), classes=list
    )
    vector, square = (float, (top["dim"],)), (float, (top["dim"], top["dim"]))
    fields = _fields(
        top["prior"], "prior", alpha0=float, beta0=float, m0=vector, W0=square, eta0=float,
        nu_fixed=float, k_init=int,
    )
    try:
        prior = PriorHyperparameters(**fields)
    except ValueError as exc:  # NotPositiveDefiniteError is one too
        raise ValueError(f"prior: {exc}") from exc
    classes = []
    for i, cm in enumerate(top["classes"]):
        where = f"class record {i}"
        record = _fields(
            cm, where, class_id=int, alpha_hat=float, n_pruned=int, converged=bool,
            elbo_trace=(float, (None,)), components=list,
        )
        comps = [
            _fields(
                c, f"component {j} of {where}", alpha=float, beta=float, m=vector, W=square,
                eta=float, nu=float,
            )
            for j, c in enumerate(record.pop("components"))
        ]
        stack = {key: np.array([c[key] for c in comps], dtype=float) for key in _COMPONENT_FIELDS}
        nu = stack.pop("nu")
        alpha_hat = record.pop("alpha_hat")
        cm = ClassModel(components=Posteriors(**stack), nu=nu, **record)
        if not abs(cm.alpha_hat - alpha_hat) <= 1e-10 * max(1.0, abs(cm.alpha_hat)):
            raise ValueError(
                f"class {cm.class_id}: alpha_hat {alpha_hat!r} does not match component sum "
                f"{cm.alpha_hat!r}"
            )
        classes.append(cm)
    return TrainedClassifier(tuple(classes), top["class_log_prior"], prior)


def save_model(classifier, path):
    """Write a classifier as a JSON text document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(classifier_to_dict(classifier), fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a classifier written by :func:`save_model`.

    A file that is not such a classifier raises ``ValueError``, its
    message led by ``path``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return classifier_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
