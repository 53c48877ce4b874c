"""Posterior predictive classification and ancestral sampling.

The per-class predictive density plugs posterior expectations into the
scale-mixture form: mixing weights ``alpha_k / alpha_hat``, locations
``m_k``, and scale matrices ``W_k / (eta_k - dim - 1)``, with the shared
degrees of freedom left untouched. Class posteriors follow from Bayes'
rule over the per-class predictives and the class priors, all in log
space; Student-t tails keep every class density finite at double
precision for any reasonable query point.

Batch prediction factors the per-component preparations out of the loop,
which is what makes microsecond-scale per-record throughput possible.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .data import CHUNK_ROWS
from .density import log_t_kernel
from .numerics import cholesky, log_det

__all__ = [
    "ClassPosterior",
    "class_log_predictive",
    "class_posterior",
    "classify",
    "predict_batch",
    "sample",
]


@dataclass(frozen=True)
class ClassPosterior:
    """Log posterior probabilities over classes and the winning index."""

    log_probs: np.ndarray
    argmax: int


class _Mixture:
    """Precomputed plug-in mixture for one class model.

    Stores the inverse Cholesky factor of each expected scale so a batch
    Mahalanobis evaluation is a single matrix product per component.
    """

    __slots__ = (
        "log_w", "means", "lowers", "stacked_inv", "stacked_offset",
        "log_norms", "nus", "half_exponents", "dim", "n_components",
    )

    def __init__(self, cm, nu_override=None):
        d = cm.dim
        k = cm.n_components
        self.dim = d
        self.n_components = k
        self.log_w = np.empty(k)
        self.means = np.empty((k, d))
        self.lowers = []
        self.log_norms = np.empty(k)
        self.nus = np.empty(k)
        # all component whitening transforms stacked so a batch Mahalanobis
        # evaluation is a single (k d, d) x (d, n) product
        self.stacked_inv = np.empty((k * d, d))
        self.stacked_offset = np.empty((k * d, 1))
        eye = np.eye(d)
        for j, comp in enumerate(cm.components):
            if not comp.eta > d + 1:
                raise ValueError(
                    f"component {j} of class {cm.class_id} has eta = {comp.eta}, "
                    f"needs eta > dim + 1 = {d + 1} for a finite expected scale"
                )
            nu = float(nu_override) if nu_override is not None else comp.nu
            sigma = comp.W / (comp.eta - d - 1.0)
            f = cholesky(sigma)
            inv_lower = solve_triangular(f.lower, eye, lower=True, check_finite=False)
            self.log_w[j] = math.log(comp.alpha / cm.alpha_hat)
            self.means[j] = comp.m
            self.lowers.append(f.lower)
            self.stacked_inv[j * d : (j + 1) * d] = inv_lower
            self.stacked_offset[j * d : (j + 1) * d, 0] = inv_lower @ comp.m
            self.nus[j] = nu
            self.log_norms[j] = log_t_kernel(0.0, log_det(f), d, nu)
        self.half_exponents = 0.5 * (self.nus + d)

    def log_density_t(self, pts_t):
        """Log mixture density given points already transposed to (dim, n)."""
        n = pts_t.shape[1]
        k = self.n_components
        y = self.stacked_inv @ pts_t
        y -= self.stacked_offset
        y *= y
        d2 = y.reshape(k, self.dim, n).sum(axis=1)
        comp_log = np.log1p(d2 / self.nus[:, None])
        comp_log *= -self.half_exponents[:, None]
        comp_log += (self.log_w + self.log_norms)[:, None]
        if k == 1:
            return comp_log[0]
        top = comp_log.max(axis=0)
        comp_log -= top
        np.exp(comp_log, out=comp_log)
        total = comp_log.sum(axis=0)
        np.log(total, out=total)
        total += top
        return total

    def log_density(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]}, model has dim {self.dim}"
            )
        return self.log_density_t(np.ascontiguousarray(pts.T))


def class_log_predictive(x, cm, nu_override=None):
    """Log plug-in predictive density of one class at a single point."""
    mix = _Mixture(cm, nu_override)
    return float(mix.log_density(np.asarray(x, dtype=float)[None, :])[0])


def predict_batch(classifier, points, nu_override=None):
    """Log class posteriors and hard labels for a matrix of points.

    Returns ``(log_posteriors, labels)`` where ``log_posteriors`` has one
    column per class (normalized per row) and ``labels`` holds class ids,
    ties resolved toward the lowest id.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != classifier.dim:
        raise ValueError(
            f"points have dim {pts.shape[1]}, classifier has dim {classifier.dim}"
        )
    n = pts.shape[0]
    c = classifier.n_classes
    mixes = [_Mixture(cm, nu_override) for cm in classifier.classes]
    joint = np.empty((c, n))
    # chunking keeps each class's whitened coordinates resident in cache
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        pts_t = np.ascontiguousarray(pts[lo:hi].T)
        for i, mix in enumerate(mixes):
            joint[i, lo:hi] = mix.log_density_t(pts_t)
    joint += classifier.class_log_prior[:, None]
    top = joint.max(axis=0)
    shifted = joint - top
    np.exp(shifted, out=shifted)
    log_norm = shifted.sum(axis=0)
    np.log(log_norm, out=log_norm)
    log_norm += top
    joint -= log_norm
    ids = np.asarray(classifier.class_ids)
    labels = ids[np.argmax(joint, axis=0)]
    return np.ascontiguousarray(joint.T), labels


def class_posterior(x, classifier):
    """Normalized class posterior at one point."""
    log_post, _ = predict_batch(classifier, np.asarray(x, dtype=float)[None, :])
    row = log_post[0]
    return ClassPosterior(log_probs=row, argmax=int(np.argmax(row)))


def classify(x, classifier):
    """Class id with the maximum posterior probability (ties: lowest id)."""
    _, labels = predict_batch(classifier, np.asarray(x, dtype=float)[None, :])
    return int(labels[0])


def sample(cm, n, seed):
    """Ancestral draws from one class's plug-in mixture.

    For each row: pick a component from the expected mixing weights, draw
    the latent scale from ``IG(nu/2, nu/2)`` (as the reciprocal of a gamma
    variate, which remains valid for shapes below 1), then draw from the
    scaled Gaussian. Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    mix = _Mixture(cm)
    weights = np.exp(mix.log_w)
    weights = weights / weights.sum()
    k = rng.choice(weights.shape[0], size=n, p=weights)
    shape = 0.5 * mix.nus[k]
    u = 1.0 / rng.gamma(shape=shape, scale=1.0 / shape)
    z = rng.standard_normal((n, mix.dim))
    out = np.empty((n, mix.dim))
    for j in range(weights.shape[0]):
        rows = k == j
        if not rows.any():
            continue
        out[rows] = mix.means[j] + np.sqrt(u[rows])[:, None] * (
            z[rows] @ mix.lowers[j].T
        )
    return out
