"""Tests for performance-class labeling (paper §IV-A / Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LabelingError
from repro.ml.labeling import (
    LabelingConfig,
    label_by_performance,
    step_kernel_convolution,
)


def two_level_data(n0=50, n1=50, lo=1.0, hi=2.0, jitter=0.01, seed=0):
    rng = np.random.default_rng(seed)
    a = lo + jitter * rng.random(n0)
    b = hi + jitter * rng.random(n1)
    data = np.concatenate([a, b])
    rng.shuffle(data)
    return data


class TestConvolution:
    def test_jump_produces_peak(self):
        data = np.sort(two_level_data())
        conv = step_kernel_convolution(data, radius=3)
        peak_pos = int(np.argmax(conv))
        # Output index i maps to sorted index i + radius.
        assert abs((peak_pos + 3) - 50) <= 1

    def test_flat_signal_zero(self):
        conv = step_kernel_convolution(np.ones(40), radius=2)
        assert np.allclose(conv, 0.0)

    def test_short_signal_empty(self):
        assert step_kernel_convolution(np.ones(3), radius=2).size == 0

    def test_invalid_radius(self):
        with pytest.raises(LabelingError):
            step_kernel_convolution(np.ones(10), radius=0)


class TestLabeling:
    def test_two_clear_classes(self):
        data = two_level_data()
        res = label_by_performance(data)
        assert res.n_classes == 2
        # Every sample in the fast cluster gets class 0.
        assert (res.labels[data < 1.5] == 0).all()
        assert (res.labels[data > 1.5] == 1).all()

    def test_three_classes(self):
        rng = np.random.default_rng(1)
        data = np.concatenate(
            [1 + 0.01 * rng.random(40),
             2 + 0.01 * rng.random(40),
             3 + 0.01 * rng.random(40)]
        )
        rng.shuffle(data)
        res = label_by_performance(data)
        assert res.n_classes == 3

    def test_uniform_data_single_class(self):
        res = label_by_performance(np.linspace(1.0, 1.001, 100))
        # No prominent jump: everything may collapse to very few classes.
        assert res.n_classes <= 2

    def test_class_ranges_ordered_disjoint(self):
        res = label_by_performance(two_level_data())
        classes = res.classes
        for a, b in zip(classes, classes[1:]):
            assert a.t_max <= b.t_min
            assert a.stop == b.start

    def test_labels_in_original_order(self):
        data = two_level_data()
        res = label_by_performance(data)
        for value, label in zip(data, res.labels):
            c = res.classes[label]
            assert c.t_min <= value <= c.t_max

    def test_empty_rejected(self):
        with pytest.raises(LabelingError):
            label_by_performance([])

    def test_radius_scaling(self):
        cfg = LabelingConfig()
        assert cfg.radius(100) == 1       # max(1, 0.5) -> min radius
        assert cfg.radius(2000) == 10     # 0.5% of 2000
        assert cfg.radius(10) == 1

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_on_arbitrary_data(self, values):
        res = label_by_performance(values)
        n = len(values)
        assert len(res.labels) == n
        # Every sample is labeled with an existing class.
        assert set(np.unique(res.labels)) <= {c.label for c in res.classes}
        # Class sizes partition the data.
        assert sum(c.size for c in res.classes) == n
        # Boundaries strictly inside (0, n).
        assert ((res.boundaries > 0) & (res.boundaries < n)).all()

    def test_spmv_labeling_three_classes(self, spmv_noisy_exhaustive):
        """The paper's SpMV yields 3 performance classes."""
        res = label_by_performance(spmv_noisy_exhaustive.times())
        assert res.n_classes == 3
