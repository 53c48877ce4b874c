"""Classification metrics, the probability-of-superiority effect size,
and confusion matrices.

These functions compute values only. ``scalemix evaluate`` writes them to
``metrics.csv``, ``confusion.csv`` and ``report.txt``; wall-clock timings
are not metrics here and go to their own ``timings.csv``, apart from the
byte-reproducible reports.
"""

import warnings

import numpy as np

__all__ = [
    "accuracy",
    "confusion_matrix",
    "precision_recall",
    "probability_of_superiority",
]


def _as_labels(values, name):
    arr = np.asarray(values, dtype=int)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d label vector")
    return arr


def accuracy(pred, truth):
    """Fraction of exactly matching labels."""
    pred = _as_labels(pred, "pred")
    truth = _as_labels(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ValueError("cannot score an empty prediction vector")
    return float(np.mean(pred == truth))


def confusion_matrix(pred, truth, n_classes):
    """Counts indexed [true class - 1, predicted class - 1]."""
    pred = _as_labels(pred, "pred")
    truth = _as_labels(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.size and (arr.min() < 1 or arr.max() > n_classes):
            raise ValueError(f"{name} labels must lie in 1..{n_classes}")
    out = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(out, (truth - 1, pred - 1), 1)
    return out


def precision_recall(pred, truth, n_classes):
    """Per-class precision and recall.

    A class never predicted (or never present) has an undefined ratio; it
    is reported as 0 and flagged through a warning naming the class.
    """
    conf = confusion_matrix(pred, truth, n_classes)
    tp = np.diag(conf).astype(float)
    ratios = []
    for name, totals, why in (
        ("precision", conf.sum(axis=0), "no predictions"),
        ("recall", conf.sum(axis=1), "no support"),
    ):
        ratios.append(np.divide(tp, totals, out=np.zeros(n_classes), where=totals > 0))
        empty = (np.flatnonzero(totals == 0) + 1).tolist()
        if empty:
            warnings.warn(
                f"{name} undefined ({why}) for classes {empty}; reported as 0", stacklevel=2
            )
    return tuple(ratios)


def probability_of_superiority(acc_a, acc_b):
    """Fraction of paired entries where ``acc_a`` strictly exceeds ``acc_b``.

    Ties count as non-wins.
    """
    a = np.asarray(acc_a, dtype=float)
    b = np.asarray(acc_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 1:
        raise ValueError("need two equal-length nonempty vectors")
    return float(np.mean(a > b))
