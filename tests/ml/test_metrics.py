"""Tests for evaluation metrics."""

import numpy as np

from repro.ml.labeling import ClassInfo
from repro.ml.metrics import range_accuracy, training_error
from repro.ml.tree import DecisionTree


def fitted_tree():
    x = np.array([[0], [0], [1], [1]], dtype=np.uint8)
    y = np.array([0, 0, 1, 1])
    return DecisionTree().fit(x, y), x, y


class TestTrainingError:
    def test_perfect(self):
        t, x, y = fitted_tree()
        assert training_error(t, x, y) == 0.0

    def test_half_wrong(self):
        t, x, _ = fitted_tree()
        y_flipped = np.array([0, 1, 1, 0])
        assert training_error(t, x, y_flipped) == 0.5


class TestRangeAccuracy:
    def test_all_within_range(self):
        t, x, _ = fitted_tree()
        classes = [
            ClassInfo(label=0, start=0, stop=2, t_min=1.0, t_max=2.0),
            ClassInfo(label=1, start=2, stop=4, t_min=3.0, t_max=4.0),
        ]
        times = np.array([1.5, 1.9, 3.5, 3.9])
        assert range_accuracy(t, x, times, classes) == 1.0

    def test_out_of_range_counted_wrong(self):
        t, x, _ = fitted_tree()
        classes = [
            ClassInfo(label=0, start=0, stop=2, t_min=1.0, t_max=2.0),
            ClassInfo(label=1, start=2, stop=4, t_min=3.0, t_max=4.0),
        ]
        # Second sample's time (5.0) is outside class 0's range; the last
        # two are inside class 1's.
        times = np.array([1.5, 5.0, 3.5, 3.9])
        assert range_accuracy(t, x, times, classes) == 0.75

    def test_empty_inputs(self):
        t, _, _ = fitted_tree()
        assert range_accuracy(t, np.zeros((0, 1)), np.array([]), []) == 0.0
