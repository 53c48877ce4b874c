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
through three small per-component arrays, so one log-density kernel,
:meth:`_Mixture.log_density_d2`, serves both a classifier's own values
and a grid of shared ones: :func:`log_posteriors_over_nu` whitens each
block of points once per class and scores the whole grid on it in
broadcast passes over a leading grid axis, without refactorising.
"""

import math
from typing import NamedTuple

import numpy as np

from .data import BLOCK_ROWS
from .density import log_t_kernel
from .numerics import cholesky, log_det

__all__ = [
    "PreparedClassifier",
    "UnscorableRowError",
    "log_posteriors_over_nu",
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

    def whiten(self, pts_t):
        """Squared Mahalanobis distances ``(k, n)`` of points given as ``(dim, n)``."""
        y = self.stacked_inv @ pts_t
        y -= self.stacked_offset
        y *= y
        return y.reshape(self.n_components, self.dim, pts_t.shape[1]).sum(axis=1)

    def log_density_d2(self, d2, grid=None):
        """Log mixture density from the squared distances :meth:`whiten` gives.

        ``d2`` is ``(k, n)``. With no ``grid`` each component takes its own
        degrees of freedom and the result is ``(n,)``. A grid of ``G``
        shared values (:func:`_grid_terms`) gives ``(G, n)``, row ``g``
        bit-identical to a mixture built with ``nus[g]`` in every component.
        """
        if grid is None:
            nus, half_exponents, log_norms = self.nus, self.half_exponents, self.log_norms
        else:
            nus, half_exponents, log_consts = grid
            log_norms = log_consts - 0.5 * self.log_dets
        comp_log = np.log1p(d2 / nus[..., None])
        comp_log *= -half_exponents[..., None]
        comp_log += (self.log_w + log_norms)[..., None]
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
    """``(lo, hi, rows lo:hi transposed)`` for blocks of ``BLOCK_ROWS`` rows.

    Every whitening goes through these blocks. The log posteriors of a row
    do not depend on the width of its block, except for a one-row block:
    there numpy's one-column product in :meth:`_Mixture.whiten` and the
    contiguous class-axis sum in :func:`_normalise` round the last bit
    differently. So the ν grid still shares these block boundaries.
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
    column per class (normalized per row) and ``labels`` holds class ids,
    ties resolved toward the lowest id. A row that cannot be scored raises
    :class:`UnscorableRowError`.
    """
    prepared = prepare(classifier)
    pts = _as_points(points, prepared.dim)
    joint = np.empty((len(prepared.mixtures), pts.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        # blocking keeps each class's whitened coordinates resident in cache
        for lo, hi, pts_t in _column_blocks(pts):
            for i, mix in enumerate(prepared.mixtures):
                joint[i, lo:hi] = mix.log_density_d2(mix.whiten(pts_t))
        _normalise(joint, prepared.class_log_prior)
    _check_finite(joint)
    labels = prepared.class_ids[np.argmax(joint, axis=0)]
    return np.ascontiguousarray(joint.T), labels


def _grid_terms(nus, dim):
    """``(nus, half_exponents, log_consts)``, each ``(G, 1)``, for shared values.

    ``log_consts`` holds ``log_t_kernel(0, 0, dim, nu)``: less half a
    component's log-determinant, it is bit for bit the normaliser
    ``log_t_kernel(0, log_det, dim, nu)`` a mixture built at ``nu`` holds.
    """
    grid = np.asarray(nus, dtype=float).reshape(-1, 1)
    log_consts = [log_t_kernel(0.0, 0.0, dim, nu) for nu in grid[:, 0].tolist()]
    return grid, 0.5 * (grid + dim), np.array(log_consts).reshape(-1, 1)


def log_posteriors_over_nu(classifier, points, nus, columns):
    """Log posterior ``(G, n)`` of class column ``columns[i]`` at row ``i``, per value.

    Row ``g`` takes ``nus[g]`` as every component's degrees of freedom and
    equals, bit for bit, the same entries of the posteriors
    :func:`predict_batch` gives for the classifier with that value in
    every component. The points are whitened once per class in the same
    blocks as :func:`predict_batch`; each block is then scored for many
    values at once, in broadcast passes whose ``(values, k, block width)``
    arrays hold at most ``_GRID_NUMBERS`` numbers (one value at a time when
    a block alone is larger). A row that cannot be scored at some value
    raises :class:`UnscorableRowError`.
    """
    prepared = prepare(classifier)
    pts = _as_points(points, prepared.dim)
    grid = _grid_terms(nus, prepared.dim)
    out = np.empty((grid[0].shape[0], pts.shape[0]))
    k_max = max(mix.n_components for mix in prepared.mixtures)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, pts_t in _column_blocks(pts):
            d2s = [mix.whiten(pts_t) for mix in prepared.mixtures]
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
