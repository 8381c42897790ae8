"""Unit tests for extended classification metrics."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.evaluation import (
    classification_report,
    confusion_matrix,
)


class TestConfusionMatrix:
    def test_diagonal_for_perfect_predictions(self):
        t = np.array([0, 1, 2, 1])
        matrix = confusion_matrix(t, t)
        assert np.array_equal(matrix, np.diag([1, 2, 1]))

    def test_off_diagonal_placement(self):
        # true class 0 predicted as 1 lands in C[0, 1].
        matrix = confusion_matrix(np.array([1]), np.array([0]),
                                  num_classes=2)
        assert matrix[0, 1] == 1
        assert matrix.sum() == 1

    def test_explicit_num_classes(self):
        matrix = confusion_matrix(np.array([0]), np.array([0]),
                                  num_classes=5)
        assert matrix.shape == (5, 5)

    def test_total_preserved(self, rng):
        p = rng.integers(0, 4, 100)
        t = rng.integers(0, 4, 100)
        assert confusion_matrix(p, t).sum() == 100

    def test_length_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            confusion_matrix(np.array([0]), np.array([0, 1]))

    def test_negative_class_rejected(self):
        with pytest.raises(TrainingError):
            confusion_matrix(np.array([-1]), np.array([0]))


class TestClassificationReport:
    def test_perfect_predictions(self):
        t = np.array([0, 0, 1, 1, 2])
        report = classification_report(t, t)
        assert np.allclose(report.precision, 1.0)
        assert np.allclose(report.recall, 1.0)
        assert report.macro_f1 == 1.0
        assert report.support.tolist() == [2, 2, 1]

    def test_known_values(self):
        # true:      0 0 1 1
        # predicted: 0 1 1 1
        report = classification_report(np.array([0, 1, 1, 1]),
                                       np.array([0, 0, 1, 1]))
        assert report.precision[0] == pytest.approx(1.0)      # 1/1
        assert report.recall[0] == pytest.approx(0.5)         # 1/2
        assert report.precision[1] == pytest.approx(2 / 3)
        assert report.recall[1] == pytest.approx(1.0)
        f1_0 = 2 * 1.0 * 0.5 / 1.5
        assert report.f1[0] == pytest.approx(f1_0)

    def test_never_predicted_class_zero_precision(self):
        report = classification_report(np.array([0, 0]), np.array([0, 1]),
                                       num_classes=2)
        assert report.precision[1] == 0.0
        assert report.recall[1] == 0.0
        assert report.f1[1] == 0.0

    def test_rows_structure(self):
        report = classification_report(np.array([0, 1]), np.array([0, 1]))
        rows = report.rows()
        assert len(rows) == 2
        assert set(rows[0]) == {"class", "precision", "recall", "f1",
                                "support"}

    def test_macro_average_definition(self, rng):
        p = rng.integers(0, 3, 200)
        t = rng.integers(0, 3, 200)
        report = classification_report(p, t)
        assert report.macro_f1 == pytest.approx(report.f1.mean())
