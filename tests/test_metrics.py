import numpy as np
import pytest

from scalemix.metrics import (
    accuracy,
    confusion_matrix,
    precision_recall,
    probability_of_superiority,
)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_correct(self):
        assert accuracy([1, 1, 1], [2, 2, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 1, 2], [1, 2, 1, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_label_arrays_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="pred must be a 1-d label vector"):
            accuracy([[1, 2]], [1, 2])
        with pytest.raises(ValueError, match="truth must be a 1-d label vector"):
            confusion_matrix([1, 2], [[1], [2]], [1, 2])


class TestConfusion:
    def test_row_sums_are_support(self):
        truth = [1, 1, 2, 2, 2, 3]
        pred = [1, 2, 2, 2, 1, 3]
        conf = confusion_matrix(pred, truth, [1, 2, 3])
        assert conf.sum() == 6
        assert np.array_equal(conf.sum(axis=1), [2, 3, 1])

    def test_accuracy_equals_trace_over_total(self, rng):
        truth = rng.integers(1, 5, 200)
        pred = rng.integers(1, 5, 200)
        conf = confusion_matrix(pred, truth, [1, 2, 3, 4])
        assert accuracy(pred, truth) == np.trace(conf) / 200

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match=r"pred labels must be among \[1, 2, 3, 4\]"):
            confusion_matrix([1, 5], [1, 2], [1, 2, 3, 4])
        # a label the ids skip is refused too
        with pytest.raises(ValueError, match=r"truth labels must be among \[1, 3\]"):
            confusion_matrix([1, 3], [1, 2], [1, 3])

    def test_indexed_in_the_order_of_the_class_ids(self):
        conf = confusion_matrix([3, 3, 7, 1], [3, 7, 7, 3], [1, 3, 7])
        assert conf.tolist() == [[0, 0, 0], [1, 1, 0], [0, 1, 1]]

    @pytest.mark.parametrize("class_ids", [[2, 1], [1, 1, 2], [], [[1, 2]]])
    def test_class_ids_must_be_strictly_increasing(self, class_ids):
        with pytest.raises(ValueError, match="class_ids must be strictly increasing"):
            confusion_matrix([1], [1], class_ids)


def scored(pred, truth, class_ids):
    """Precision and recall of the confusion matrix of ``pred`` against ``truth``."""
    return precision_recall(confusion_matrix(pred, truth, class_ids), class_ids)


class TestPrecisionRecall:
    def test_perfect_predictions(self):
        prec, rec = scored([1, 2, 3], [1, 2, 3], [1, 2, 3])
        assert np.array_equal(prec, [1.0, 1.0, 1.0])
        assert np.array_equal(rec, [1.0, 1.0, 1.0])

    def test_single_class_predictor(self):
        truth = [1, 1, 2, 2]
        pred = [1, 1, 1, 1]
        with pytest.warns(UserWarning, match="precision undefined"):
            prec, rec = scored(pred, truth, [1, 2])
        assert np.allclose(prec, [0.5, 0.0])
        assert np.allclose(rec, [1.0, 0.0])

    def test_undefined_ratios_warn_once_each_naming_classes(self):
        # class 2 is predicted but never present; class 3 is neither
        conf = confusion_matrix([1, 2, 1], [1, 1, 1], [1, 2, 3])
        with pytest.warns(UserWarning) as record:
            prec, rec = precision_recall(conf, [1, 2, 3])
        assert [str(w.message) for w in record] == [
            "precision undefined (no predictions) for classes [3]; reported as 0",
            "recall undefined (no support) for classes [2, 3]; reported as 0",
        ]
        assert {w.filename for w in record} == {__file__}
        assert prec.tolist() == [1.0, 0.0, 0.0]
        assert rec.tolist() == [2 / 3, 0.0, 0.0]

    def test_equals_per_class_ratios_bit_for_bit(self, rng):
        # classes 5 and 6 are never predicted; class 6 is never present
        truth = rng.integers(1, 6, 300)
        pred = rng.integers(1, 5, 300)
        conf = confusion_matrix(pred, truth, range(1, 7))
        with pytest.warns(UserWarning):
            prec, rec = precision_recall(conf, range(1, 7))
        for c in range(6):
            col, row = conf[:, c].sum(), conf[c].sum()
            assert prec[c] == (float(conf[c, c]) / float(col) if col else 0.0)
            assert rec[c] == (float(conf[c, c]) / float(row) if row else 0.0)

    def test_hand_confusion_example(self):
        # confusion [[8,2],[1,9]] by construction
        truth = [1] * 10 + [2] * 10
        pred = [1] * 8 + [2] * 2 + [1] * 1 + [2] * 9
        prec, rec = scored(pred, truth, [1, 2])
        assert np.allclose(prec, [8 / 9, 9 / 11])
        assert np.allclose(rec, [0.8, 0.9])

    def test_macro_recall_equals_accuracy_on_balanced_data(self, rng):
        truth = np.repeat([1, 2, 3, 4], 50)
        pred = np.where(rng.random(200) < 0.8, truth, rng.integers(1, 5, 200))
        prec, rec = scored(pred, truth, [1, 2, 3, 4])
        assert float(rec.mean()) == pytest.approx(accuracy(pred, truth), abs=1e-12)

    def test_classes_are_named_by_their_ids(self):
        # labels 2, 5 and 9: no row or column for a label between them
        with pytest.warns(UserWarning) as record:
            prec, rec = scored([2, 2, 9], [2, 5, 9], [2, 5, 9])
        assert [str(w.message) for w in record] == [
            "precision undefined (no predictions) for classes [5]; reported as 0",
        ]
        assert prec.tolist() == [0.5, 0.0, 1.0]
        assert rec.tolist() == [1.0, 0.0, 1.0]


class TestProbabilityOfSuperiority:
    def test_all_wins(self):
        a = np.linspace(0.8, 0.9, 8)
        assert probability_of_superiority(a, a - 0.01) == 1.0

    def test_seven_of_eight(self):
        a = np.full(8, 0.8)
        b = np.full(8, 0.7)
        b[3] = 0.9
        assert probability_of_superiority(a, b) == 0.875

    def test_ties_are_not_wins(self):
        a = np.full(5, 0.8)
        assert probability_of_superiority(a, a) == 0.0

    def test_bounds(self, rng):
        for _ in range(20):
            a = rng.random(10)
            b = rng.random(10)
            assert 0.0 <= probability_of_superiority(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            probability_of_superiority([0.5], [0.5, 0.6])

