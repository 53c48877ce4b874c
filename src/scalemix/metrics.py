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


def _label_pair(pred, truth):
    """``pred`` and ``truth`` as 1-d label vectors of one length."""
    pred, truth = np.asarray(pred, dtype=int), np.asarray(truth, dtype=int)
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.ndim != 1:
            raise ValueError(f"{name} must be a 1-d label vector")
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    return pred, truth


def accuracy(pred, truth):
    """Fraction of exactly matching labels."""
    pred, truth = _label_pair(pred, truth)
    if pred.shape[0] == 0:
        raise ValueError("cannot score an empty prediction vector")
    return float(np.mean(pred == truth))


def _label_columns(labels, class_ids, name):
    """The index of each of ``labels`` in the nonempty, strictly increasing ``class_ids``.

    A label not among them is refused, the error naming the labels ``name``.
    """
    ids, labels = np.asarray(class_ids), np.asarray(labels)
    at = np.minimum(np.searchsorted(ids, labels), ids.size - 1)
    missing = labels[ids[at] != labels]
    if missing.size:
        raise ValueError(f"{name} labels must be among {ids.tolist()}, got {missing[0]}")
    return at


def confusion_matrix(pred, truth, class_ids):
    """Counts indexed [true class, predicted class], in the order of ``class_ids``.

    ``class_ids`` are the strictly increasing labels the matrix counts;
    any other label in ``pred`` or ``truth`` is refused.
    """
    pred, truth = _label_pair(pred, truth)
    ids = np.asarray(class_ids, dtype=int)
    if ids.ndim != 1 or not ids.size or np.any(np.diff(ids) <= 0):
        raise ValueError(f"class_ids must be strictly increasing, got {list(class_ids)}")
    pred_at, truth_at = _label_columns(pred, ids, "pred"), _label_columns(truth, ids, "truth")
    return np.bincount(truth_at * ids.size + pred_at, minlength=ids.size**2).reshape(ids.size, -1)


def precision_recall(conf, class_ids):
    """Per-class precision and recall of the confusion matrix ``conf``.

    ``conf`` is indexed as :func:`confusion_matrix` returns it, over
    ``class_ids``. A class never predicted (or never present) has an
    undefined ratio; it is reported as 0 and flagged through a warning
    naming the class.
    """
    conf = np.asarray(conf)
    tp = np.diag(conf).astype(float)
    ratios = []
    for name, totals, why in (
        ("precision", conf.sum(axis=0), "no predictions"),
        ("recall", conf.sum(axis=1), "no support"),
    ):
        ratios.append(np.divide(tp, totals, out=np.zeros(tp.size), where=totals > 0))
        empty = [int(class_ids[i]) for i in np.flatnonzero(totals == 0)]
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
