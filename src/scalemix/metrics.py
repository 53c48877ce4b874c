"""Classification metrics, the probability-of-superiority effect size,
and confusion matrices.

Wall-clock timings are not metrics here: the CLI writes them to their own
``timings.csv``, apart from the byte-reproducible reports.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricsReport",
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
    pred_totals = conf.sum(axis=0).astype(float)
    true_totals = conf.sum(axis=1).astype(float)
    precision = np.zeros(n_classes)
    recall = np.zeros(n_classes)
    empty_prec = []
    empty_rec = []
    for c in range(n_classes):
        if pred_totals[c] > 0:
            precision[c] = tp[c] / pred_totals[c]
        else:
            empty_prec.append(c + 1)
        if true_totals[c] > 0:
            recall[c] = tp[c] / true_totals[c]
        else:
            empty_rec.append(c + 1)
    if empty_prec:
        warnings.warn(
            f"precision undefined (no predictions) for classes {empty_prec}; reported as 0",
            stacklevel=2,
        )
    if empty_rec:
        warnings.warn(
            f"recall undefined (no support) for classes {empty_rec}; reported as 0",
            stacklevel=2,
        )
    return precision, recall


def probability_of_superiority(acc_a, acc_b):
    """Fraction of paired entries where ``acc_a`` strictly exceeds ``acc_b``.

    Ties count as non-wins.
    """
    a = np.asarray(acc_a, dtype=float)
    b = np.asarray(acc_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 1:
        raise ValueError("need two equal-length nonempty vectors")
    return float(np.mean(a > b))


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Aggregate classification quality."""

    accuracy: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    confusion: np.ndarray

    def __post_init__(self):
        conf = np.asarray(self.confusion, dtype=int)
        object.__setattr__(self, "confusion", conf)
        object.__setattr__(
            self, "per_class_precision", np.asarray(self.per_class_precision, dtype=float)
        )
        object.__setattr__(
            self, "per_class_recall", np.asarray(self.per_class_recall, dtype=float)
        )
        total = conf.sum()
        if total:
            trace_acc = float(np.trace(conf)) / float(total)
            if abs(trace_acc - self.accuracy) > 1e-12:
                raise ValueError(
                    f"accuracy {self.accuracy!r} disagrees with confusion trace {trace_acc!r}"
                )

    def to_csv(self):
        c = self.per_class_precision.shape[0]
        lines = ["metric,value"]
        lines.append(f"accuracy,{float(self.accuracy)!r}")
        for i in range(c):
            lines.append(f"precision_{i + 1},{float(self.per_class_precision[i])!r}")
        for i in range(c):
            lines.append(f"recall_{i + 1},{float(self.per_class_recall[i])!r}")
        return "\n".join(lines) + "\n"

    def confusion_csv(self):
        c = self.confusion.shape[0]
        lines = ["true\\pred," + ",".join(str(i + 1) for i in range(c))]
        for i in range(c):
            lines.append(
                str(i + 1) + "," + ",".join(str(v) for v in self.confusion[i])
            )
        return "\n".join(lines) + "\n"

    def to_table(self):
        c = self.per_class_precision.shape[0]
        rows = [
            f"accuracy              {self.accuracy:.4f}",
            f"macro precision       {float(self.per_class_precision.mean()):.4f}",
            f"macro recall          {float(self.per_class_recall.mean()):.4f}",
            "",
            "class  precision  recall",
        ]
        for i in range(c):
            rows.append(
                f"{i + 1:>5}  {self.per_class_precision[i]:>9.4f}  "
                f"{self.per_class_recall[i]:>6.4f}"
            )
        return "\n".join(rows) + "\n"
