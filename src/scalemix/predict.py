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
components (one stacked Cholesky factorisation of the expected scales
and one batched ``CholeskyFactor.inverse`` of its factors), and batch
prediction reuses it for every block of rows, which is what makes
microsecond-scale per-record throughput possible. The squared distances
of a block come from :func:`~scalemix.numerics.mahalanobis_sq_batch`,
which variational training uses only for a batch it fits in two passes
(see :func:`scalemix.vb._expansion_loss`). The degrees of freedom enter
only through a triple of small arrays (:func:`_grid_terms`), so one
log-density kernel, :meth:`_Mixture.log_density_d2`, serves both a
classifier's own values and a grid of shared ones:
:func:`log_posteriors_over_nu` takes each block's distances once per
class and scores the whole grid on them in broadcast passes over a
leading grid axis, without refactorising.
"""

import math
from typing import NamedTuple

import numpy as np

from .data import BLOCK_ROWS
from .density import log_t_kernel
from .numerics import cholesky, log_det, mahalanobis_sq_batch

__all__ = [
    "predict_batch",
    "prepare",
    "sample",
]

# numbers in one (values, k, width) array of grid log densities, which sets
# how many values log_posteriors_over_nu scores per pass; from an
# in-process sweep
_GRID_NUMBERS = 2**15


class UnscorableRowError(ValueError):
    """Row ``args[0]`` has log posteriors that are not finite: a finite feature
    so large that its squared distance to every component of a class overflows."""

    @property
    def row(self):
        return self.args[0]

    def __str__(self):
        return f"row {self.row}: log posteriors are not finite; a feature is too large"


class _Mixture:
    """Precomputed plug-in mixture for one class model.

    Refuses a component with ``eta <= dim + 1``, whose expected scale is
    not finite. Factorises the expected scales of all components in one
    stacked :func:`cholesky` call and inverts the factors once, so scoring
    a block of points is one :func:`mahalanobis_sq_batch` call per class.
    ``terms`` holds the components' own degrees of freedom as
    :func:`_grid_terms` gives them.
    """

    __slots__ = ("log_w", "means", "factor", "log_dets", "terms")

    def __init__(self, cm):
        d = cm.dim
        post = cm.components
        if not np.all(post.eta > d + 1):
            j = int(np.argmin(post.eta > d + 1))  # the first component at fault
            raise ValueError(
                f"component {j} of class {cm.class_id} has eta = {post.eta[j]}, "
                f"needs eta > dim + 1 = {d + 1} for a finite expected scale"
            )
        self.factor = cholesky(post.W / (post.eta - d - 1.0)[:, None, None])
        self.factor.inverse  # inverted here, so scoring never writes to a mixture
        self.log_dets = log_det(self.factor)
        # math.log, not np.log: the two differ in the last bit for some weights
        self.log_w = np.array([math.log(w) for w in (post.alpha / cm.alpha_hat).tolist()])
        self.means = post.m
        self.terms = _grid_terms(cm.nu, d)

    def log_density_d2(self, d2, terms):
        """Log mixture density from the ``(k, n)`` squared distances ``d2``.

        ``terms`` is a :func:`_grid_terms` triple. The mixture's own
        ``terms``, one value per component, give ``(n,)``; a grid of ``G``
        shared values, each ``(G, 1)``, gives ``(G, n)``, row ``g``
        bit-identical to a mixture built with ``nus[g]`` in every component.
        """
        nus, half_exponents, log_consts = terms
        comp_log = np.log1p(d2 / nus[..., None])
        comp_log *= -half_exponents[..., None]
        comp_log += (self.log_w + (log_consts - 0.5 * self.log_dets))[..., None]
        top = comp_log.max(axis=-2)
        comp_log -= top[..., None, :]
        np.exp(comp_log, out=comp_log)
        total = comp_log.sum(axis=-2)
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
        return self.mixtures[0].means.shape[1]


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
    """``(lo, hi, rows lo:hi transposed)`` for blocks of ``BLOCK_ROWS`` rows.

    Every distance here is taken on these blocks. A row's distances, and so
    its log posteriors, do not depend on the width of its block, except in
    a one-row block: there numpy's one-column product and contiguous sums,
    in :func:`~scalemix.numerics.mahalanobis_sq_batch` and in
    :func:`_normalise`, round the last bit differently. (Measured at d = 8,
    k = 3 on 1024 rows: every width of 2-64, 100, 333, 1000 and 1023
    leaves every bit; width 1 moves about half the distances.) So the ν
    grid still shares these block boundaries.
    """
    n = pts.shape[0]
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        yield lo, hi, np.ascontiguousarray(pts[lo:hi].T)


def _normalise(joint, class_log_prior):
    """Class log posteriors, in place, from per-class log densities ``(..., c, n)``."""
    joint += class_log_prior[:, None]
    top = joint.max(axis=-2)
    shifted = joint - top[..., None, :]
    np.exp(shifted, out=shifted)
    log_norm = shifted.sum(axis=-2)
    np.log(log_norm, out=log_norm)
    log_norm += top
    joint -= log_norm[..., None, :]
    return joint


def _check_finite(log_post):
    """Refuse the first column (row scored) of ``log_post`` ``(m, n)`` that is not finite.

    Both scoring paths run with overflow and invalid warnings off and end here.
    """
    bad = ~np.isfinite(log_post).all(axis=0)
    if bad.any():
        raise UnscorableRowError(int(np.argmax(bad)))


def predict_batch(classifier, points):
    """Log class posteriors and hard labels for a matrix of points.

    ``classifier`` is a trained or a prepared classifier (see
    :func:`prepare`); prepare it once when predicting many batches.
    Returns ``(log_posteriors, labels)`` where ``log_posteriors`` has one
    column per class, by increasing class id (normalized per row), and
    ``labels`` holds class ids, a tie going to the lowest id. A row that
    cannot be scored raises :class:`UnscorableRowError`.
    """
    prepared = prepare(classifier)
    pts = _as_points(points, prepared.dim)
    joint = np.empty((len(prepared.mixtures), pts.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        # blocking keeps each class's whitened coordinates resident in cache
        for lo, hi, pts_t in _column_blocks(pts):
            for i, mix in enumerate(prepared.mixtures):
                d2 = mahalanobis_sq_batch(pts_t, mix.means, mix.factor)
                joint[i, lo:hi] = mix.log_density_d2(d2, mix.terms)
        _normalise(joint, prepared.class_log_prior)
    _check_finite(joint)
    # argmax takes the first of tied classes, which has the lowest id
    labels = prepared.class_ids[np.argmax(joint, axis=0)]
    return np.ascontiguousarray(joint.T), labels


def _grid_terms(nus, dim):
    """``(nus, half_exponents, log_consts)`` for degrees of freedom ``nus``.

    Each has the shape of ``nus``. ``log_consts`` holds
    ``log_t_kernel(0, 0, dim, nu)``: less half a component's
    log-determinant, it is bit for bit the normaliser
    ``log_t_kernel(0, log_det, dim, nu)``.
    """
    nus = np.asarray(nus, dtype=float)
    log_consts = [log_t_kernel(0.0, 0.0, dim, nu) for nu in nus.ravel().tolist()]
    return nus, 0.5 * (nus + dim), np.reshape(log_consts, nus.shape)


def log_posteriors_over_nu(classifier, points, nus, columns):
    """Log posterior ``(G, n)`` of class column ``columns[i]`` at row ``i``, per value.

    Row ``g`` takes ``nus[g]`` as every component's degrees of freedom and
    equals, bit for bit, the same entries of the posteriors
    :func:`predict_batch` gives for the classifier with that value in
    every component. Each block's distances are taken once per class, in
    the same blocks as :func:`predict_batch`; each block is then scored
    for many values at once, in broadcast passes whose ``(values, k, block
    width)`` arrays hold at most ``_GRID_NUMBERS`` numbers (one value at a
    time when a block alone is larger). A row that cannot be scored at
    some value raises :class:`UnscorableRowError`.
    """
    prepared = prepare(classifier)
    pts = _as_points(points, prepared.dim)
    grid = _grid_terms(np.reshape(nus, (-1, 1)), prepared.dim)
    out = np.empty((grid[0].shape[0], pts.shape[0]))
    k_max = max(mix.means.shape[0] for mix in prepared.mixtures)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, pts_t in _column_blocks(pts):
            d2s = [
                mahalanobis_sq_batch(pts_t, mix.means, mix.factor) for mix in prepared.mixtures
            ]
            cols, at = columns[lo:hi], np.arange(hi - lo)
            step = max(1, _GRID_NUMBERS // (k_max * (hi - lo)))
            for g in range(0, out.shape[0], step):
                part = tuple(terms[g : g + step] for terms in grid)
                joint = np.empty((part[0].shape[0], len(d2s), hi - lo))
                for i, (mix, d2) in enumerate(zip(prepared.mixtures, d2s)):
                    joint[:, i] = mix.log_density_d2(d2, part)
                _normalise(joint, prepared.class_log_prior)
                out[g : g + step, lo:hi] = joint[:, cols, at]
    _check_finite(out)
    return out


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
    shape = 0.5 * cm.nu[k]
    u = 1.0 / rng.gamma(shape=shape, scale=1.0 / shape)
    z = rng.standard_normal((n, cm.dim))
    out = np.empty((n, cm.dim))
    for j in range(weights.shape[0]):
        rows = k == j
        out[rows] = mix.means[j] + np.sqrt(u[rows])[:, None] * (
            z[rows] @ mix.factor.lower[j].T
        )
    return out
