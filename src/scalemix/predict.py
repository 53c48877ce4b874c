"""Posterior predictive classification and ancestral sampling.

The per-class predictive density plugs posterior expectations into the
scale-mixture form: mixing weights ``alpha_k / alpha_hat``, locations
``m_k``, and scale matrices ``W_k / (eta_k - dim - 1)``, with the shared
degrees of freedom left untouched. Class posteriors follow from Bayes'
rule over the per-class predictives and the class priors, all in log
space; Student-t tails keep every class density finite at double
precision for any reasonable query point.

:func:`predict_batch` is the one classification path: it takes a matrix
of points (one row for a single point) and returns log posteriors and
labels. :func:`prepare` builds each class's mixture once from its stacked
components (one stacked Cholesky factorisation of the expected scales,
their inverse factors from one batched ``CholeskyFactor.inverse`` and the
stacked whitening of every component), and batch prediction reuses it
for every block of rows, which is what makes microsecond-scale
per-record throughput possible. The degrees of freedom enter only
through three small per-component arrays, so :meth:`_Mixture.with_nu`
swaps them without refactorising, and :func:`log_posteriors_over_nu`
scores a grid of values from one whitening of the points.
"""

import copy
import math
from typing import NamedTuple

import numpy as np

from .data import CHUNK_ROWS
from .density import log_t_kernel
from .numerics import cholesky, log_det

__all__ = [
    "PreparedClassifier",
    "log_posteriors_over_nu",
    "predict_batch",
    "prepare",
    "sample",
]


class _Mixture:
    """Precomputed plug-in mixture for one class model.

    Refuses a component with ``eta <= dim + 1``, whose expected scale is
    not finite. Factorises the expected scales of all components in one
    stacked :func:`cholesky` call and stores the inverse factors that
    :attr:`~scalemix.numerics.CholeskyFactor.inverse` gives, so a batch
    Mahalanobis evaluation is a single matrix product per class.
    """

    __slots__ = (
        "log_w", "means", "lowers", "log_dets", "stacked_inv", "stacked_offset",
        "log_norms", "nus", "half_exponents", "dim", "n_components",
    )

    def __init__(self, cm):
        d = cm.dim
        post = cm.components
        if not np.all(post.eta > d + 1):
            j = int(np.argmin(post.eta > d + 1))  # the first component at fault
            raise ValueError(
                f"component {j} of class {cm.class_id} has eta = {post.eta[j]}, "
                f"needs eta > dim + 1 = {d + 1} for a finite expected scale"
            )
        self.dim = d
        self.n_components = cm.n_components
        f = cholesky(post.W / (post.eta - d - 1.0)[:, None, None])
        self.lowers = f.lower
        self.log_dets = log_det(f)
        # math.log, not np.log: the two differ in the last bit for some weights
        self.log_w = np.array([math.log(w) for w in (post.alpha / cm.alpha_hat).tolist()])
        self.means = post.m
        self.nus = cm.nu
        # log_t_kernel takes one nu at a time
        self.log_norms = np.array(
            [log_t_kernel(0.0, ld, d, nu) for ld, nu in zip(self.log_dets, self.nus)]
        )
        self.half_exponents = 0.5 * (self.nus + d)
        # all component whitening transforms stacked so a batch Mahalanobis
        # evaluation is a single (k d, d) x (d, n) product
        self.stacked_inv = f.inverse.reshape(-1, d)
        self.stacked_offset = (f.inverse @ self.means[:, :, None]).reshape(-1, 1)

    def with_nu(self, nu):
        """The same mixture with every component's degrees of freedom at ``nu``.

        Shares the whitening arrays with ``self``; only ``nus``,
        ``log_norms`` and ``half_exponents`` are recomputed, bit-identical
        to a mixture built from components that carry ``nu``.
        """
        nu = float(nu)
        out = copy.copy(self)
        out.nus = np.full(self.n_components, nu)
        out.log_norms = log_t_kernel(0.0, self.log_dets, self.dim, nu)
        out.half_exponents = 0.5 * (out.nus + self.dim)
        return out

    def whiten(self, pts_t):
        """Squared Mahalanobis distances ``(k, n)`` of points given as ``(dim, n)``."""
        y = self.stacked_inv @ pts_t
        y -= self.stacked_offset
        y *= y
        return y.reshape(self.n_components, self.dim, pts_t.shape[1]).sum(axis=1)

    def log_density_d2(self, d2):
        """Log mixture density from the squared distances :meth:`whiten` gives."""
        comp_log = np.log1p(d2 / self.nus[:, None])
        comp_log *= -self.half_exponents[:, None]
        comp_log += (self.log_w + self.log_norms)[:, None]
        if self.n_components == 1:
            return comp_log[0]
        top = comp_log.max(axis=0)
        comp_log -= top
        np.exp(comp_log, out=comp_log)
        total = comp_log.sum(axis=0)
        np.log(total, out=total)
        total += top
        return total


class PreparedClassifier(NamedTuple):
    """A classifier's class mixtures, built once, with its log-priors and ids."""

    mixtures: tuple
    class_log_prior: np.ndarray
    class_ids: np.ndarray

    @property
    def dim(self):
        return self.mixtures[0].dim


def prepare(classifier):
    """Build every class's mixture once; a prepared classifier is returned as is."""
    if isinstance(classifier, PreparedClassifier):
        return classifier
    return PreparedClassifier(
        tuple(_Mixture(cm) for cm in classifier.classes),
        classifier.class_log_prior,
        np.asarray(classifier.class_ids),
    )


def _as_points(points, dim):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"points have dim {pts.shape[1]}, classifier has dim {dim}")
    return pts


def _column_blocks(pts):
    """``(lo, hi, rows lo:hi transposed)`` for blocks of ``CHUNK_ROWS`` rows.

    Every whitening goes through these blocks: the block width is the
    column count of the matrix product, and OpenBLAS can round the last
    bit differently when that count changes.
    """
    n = pts.shape[0]
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        yield lo, hi, np.ascontiguousarray(pts[lo:hi].T)


def _normalise(joint, class_log_prior):
    """Class log posteriors, in place, from per-class log densities ``(c, n)``."""
    joint += class_log_prior[:, None]
    top = joint.max(axis=0)
    shifted = joint - top
    np.exp(shifted, out=shifted)
    log_norm = shifted.sum(axis=0)
    np.log(log_norm, out=log_norm)
    log_norm += top
    joint -= log_norm
    return joint


def predict_batch(classifier, points):
    """Log class posteriors and hard labels for a matrix of points.

    ``classifier`` is a trained or a prepared classifier (see
    :func:`prepare`); prepare it once when predicting many batches.
    Returns ``(log_posteriors, labels)`` where ``log_posteriors`` has one
    column per class (normalized per row) and ``labels`` holds class ids,
    ties resolved toward the lowest id.
    """
    prepared = prepare(classifier)
    pts = _as_points(points, prepared.dim)
    joint = np.empty((len(prepared.mixtures), pts.shape[0]))
    # blocking keeps each class's whitened coordinates resident in cache
    for lo, hi, pts_t in _column_blocks(pts):
        for i, mix in enumerate(prepared.mixtures):
            joint[i, lo:hi] = mix.log_density_d2(mix.whiten(pts_t))
    _normalise(joint, prepared.class_log_prior)
    labels = prepared.class_ids[np.argmax(joint, axis=0)]
    return np.ascontiguousarray(joint.T), labels


def log_posteriors_over_nu(classifier, points, nus):
    """Class log posteriors ``(c, n)`` at each shared degrees of freedom in turn.

    The points are whitened once per class; each value of ``nus`` then
    swaps only the normalisers (:meth:`_Mixture.with_nu`). Each yielded
    array equals, bit for bit, the transposed posteriors
    :func:`predict_batch` gives for the classifier with that value in
    every component.
    """
    prepared = prepare(classifier)
    pts = _as_points(points, prepared.dim)
    blocks = [
        (lo, hi, [mix.whiten(pts_t) for mix in prepared.mixtures])
        for lo, hi, pts_t in _column_blocks(pts)
    ]
    for nu in nus:
        mixes = [mix.with_nu(nu) for mix in prepared.mixtures]
        joint = np.empty((len(mixes), pts.shape[0]))
        for lo, hi, d2s in blocks:
            for i, (mix, d2) in enumerate(zip(mixes, d2s)):
                joint[i, lo:hi] = mix.log_density_d2(d2)
        yield _normalise(joint, prepared.class_log_prior)


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
