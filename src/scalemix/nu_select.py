"""Discriminative selection of the shared degrees of freedom.

The tail-weight parameter has no conjugate prior and likelihood-based
point estimates generalize poorly, so it is chosen to maximize the mutual
information between features and labels on held-out folds. Training rows
are split into L stratified folds; for each fold, models are fit on the
remaining folds with the degrees of freedom pinned to a large preset, and
a grid of candidate values is scored by the conditional entropy of the
true labels under the plug-in predictive (swapping only the degrees of
freedom, leaving every fitted posterior untouched). Each fold contributes
its minimizer and the smallest one wins overall.

The models of all L folds are fit in one pass, one
:func:`~scalemix.vb.fit_each` call, so the classes of every fold share
the lockstep batches of the variational fit.

The whole grid is scored from one whitening per fold: the validation
points are whitened once per class, and the candidates are then scored
together in broadcast passes, a leading grid axis on the degrees of
freedom and normalisers (:func:`~scalemix.predict.log_posteriors_over_nu`).
Only the true class's log posterior is kept, one row per candidate.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .predict import log_posteriors_over_nu
# fit is not called here; it stays importable until the benchmark wraps vb.fit_each
from .vb import VbConfig, fit, fit_each

__all__ = [
    "NuSearchConfig",
    "default_nu_grid",
    "stratified_folds",
    "conditional_entropy",
    "select_nu",
]


def default_nu_grid():
    """40 logarithmically spaced candidates spanning [1e-3, 200]."""
    return np.geomspace(1e-3, 200.0, 40)


@dataclass(frozen=True, eq=False)
class NuSearchConfig:
    """Fold count, pre-training value and candidate grid."""

    folds: int = 5
    nu_pre: float = 200.0
    grid: np.ndarray = None

    def __post_init__(self):
        grid = self.grid if self.grid is not None else default_nu_grid()
        grid = np.asarray(grid, dtype=float).reshape(-1)
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if not (self.nu_pre > 0 and math.isfinite(self.nu_pre)):
            raise ValueError(f"nu_pre must be positive and finite, got {self.nu_pre!r}")
        if grid.size == 0:
            raise ValueError("grid must be nonempty")
        bad = grid[~np.isfinite(grid)]
        if bad.size:
            raise ValueError(f"grid values must be finite, got {float(bad[0])!r}")
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be positive and strictly increasing")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)


def stratified_folds(labels, n_folds, seed):
    """Fold index per row, class-stratified and seeded.

    Within each class the rows are shuffled and dealt round-robin, so each
    fold's class histogram deviates from the global one by at most one
    count per class. Raises if any class has fewer rows than folds.
    """
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=int)
    for cid in sorted(int(v) for v in np.unique(labels)):
        rows = np.flatnonzero(labels == cid)
        if rows.shape[0] < n_folds:
            raise ValueError(
                f"class {cid} has {rows.shape[0]} rows, fewer than {n_folds} folds"
            )
        perm = rng.permutation(rows.shape[0])
        fold_of[rows[perm]] = np.arange(rows.shape[0]) % n_folds
    return fold_of


def conditional_entropy(nus, fold_classifier, validation):
    """Average negative log posterior of the true labels, one per value of ``nus``.

    ``nus`` is a 1-d grid of candidate degrees of freedom. Each candidate
    is swapped into every component's predictive density; the fitted
    posteriors (and the expected scale they induce) stay fixed.
    Nonnegative, zero only for a perfect classifier.
    """
    grid = np.asarray(nus, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"nus must be a 1-d grid, got shape {grid.shape}")
    bad = grid[~(np.isfinite(grid) & (grid > 0))]
    if bad.size:
        raise ValueError(f"nus must be positive and finite, got {float(bad[0])!r}")
    if validation.n_rows == 0:
        raise ValueError("validation fold is empty")
    ids = np.asarray(fold_classifier.class_ids)
    labels = np.asarray(validation.labels)
    order = np.argsort(ids)
    found = np.searchsorted(ids, labels, sorter=order)
    columns = order[np.minimum(found, ids.size - 1)]
    missing = ids[columns] != labels
    if missing.any():
        label = int(labels[np.argmax(missing)])
        raise ValueError(f"validation label {label} missing from the fold model")
    log_post = log_posteriors_over_nu(fold_classifier, validation.features, grid, columns)
    return -log_post.mean(axis=1)


def select_nu(data, prior, cfg=None, vb_config=None, table_sink=None):
    """Degrees of freedom minimizing held-out conditional entropy.

    Fits a model on each fold's complement with the preset value (uniform
    class prior, as :func:`~scalemix.vb.fit` always trains); all L fits
    run in one :func:`~scalemix.vb.fit_each` call, and each matches a
    :func:`~scalemix.vb.fit` of its complement alone up to the last bits.
    Then scans the grid on each held-out fold and records the per-fold
    minimizer; the smallest minimizer across folds is returned (always a
    grid member). ``vb_config.seed`` seeds the folds as well as the fits,
    so the result is deterministic for a fixed seed. ``table_sink``, when
    given, receives one row ``(fold, nu, J)`` (an int and two floats) per
    fold and grid value, in fold then grid order.
    """
    cfg = cfg or NuSearchConfig()
    vb_config = vb_config or VbConfig()
    fold_of = stratified_folds(data.labels, cfg.folds, vb_config.seed)
    # every class has at least as many rows as folds and is dealt
    # round-robin, so every complement holds every class
    held = [fold_of == fold for fold in range(cfg.folds)]
    pre_prior = replace(prior, nu_fixed=float(cfg.nu_pre))
    fold_models = fit_each([data.subset(~mask) for mask in held], pre_prior, vb_config)
    winners = []
    for fold, (mask, fold_model) in enumerate(zip(held, fold_models)):
        scores = conditional_entropy(cfg.grid, fold_model, data.subset(mask))
        winners.append(float(cfg.grid[int(np.argmin(scores))]))
        if table_sink is not None:
            for nu, score in zip(cfg.grid.tolist(), scores.tolist()):
                table_sink((fold, nu, score))
    return min(winners)
