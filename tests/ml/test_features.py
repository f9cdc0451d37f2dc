"""Tests for the sequence-to-vector feature transformation (§IV-B)."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.features import FeatureExtractor, OrderFeature, StreamFeature


class TestFeatureNaming:
    def test_order_feature_text(self):
        f = OrderFeature("Pack", "yL")
        assert f.describe(True) == "Pack before yL"
        assert f.describe(False) == "yL before Pack"

    def test_stream_feature_text(self):
        f = StreamFeature("Pack", "yL")
        assert f.describe(True) == "Pack same stream as yL"
        assert f.describe(False) == "Pack different stream than yL"


class TestExtractor:
    def test_unfitted_transform_rejected(self, spmv_schedules):
        with pytest.raises(TrainingError):
            FeatureExtractor().transform(spmv_schedules[:2])

    def test_fit_on_empty_rejected(self):
        with pytest.raises(TrainingError):
            FeatureExtractor().fit([])

    def test_constant_columns_dropped(self, spmv_schedules):
        fx = FeatureExtractor()
        fm = fx.fit_transform(spmv_schedules)
        # No column is constant.
        for j in range(fm.n_features):
            col = fm.matrix[:, j]
            assert col.min() != col.max()

    def test_forced_orders_not_features(self, spmv_schedules):
        """DAG-implied orders (e.g. Pack before PostSends) are constant and
        must have been pruned."""
        fx = FeatureExtractor()
        fx.fit(spmv_schedules)
        pairs = {
            (f.u, f.v)
            for f in fx.features
            if isinstance(f, OrderFeature)
        }
        assert ("Pack", "PostSends") not in pairs
        assert ("PostSends", "WaitSend") not in pairs

    def test_stream_features_for_gpu_pairs(self, spmv_schedules):
        fx = FeatureExtractor()
        fx.fit(spmv_schedules)
        stream_pairs = {
            frozenset((f.u, f.v))
            for f in fx.features
            if isinstance(f, StreamFeature)
        }
        assert stream_pairs == {
            frozenset(("Pack", "yL")),
            frozenset(("Pack", "yR")),
            frozenset(("yL", "yR")),
        }

    def test_values_match_schedule(self, spmv_schedules):
        fx = FeatureExtractor()
        fm = fx.fit_transform(spmv_schedules)
        s = spmv_schedules[123]
        row = fm.matrix[123]
        for j, f in enumerate(fm.features):
            if isinstance(f, OrderFeature):
                expected = s.position(f.u) < s.position(f.v)
            else:
                expected = s.stream_of(f.u) == s.stream_of(f.v)
            assert bool(row[j]) == expected

    def test_transform_consistent_on_subset_then_full(self, spmv_schedules):
        """Fitting on a subset must featurize the full space consistently
        (the Table V generalization path)."""
        fx = FeatureExtractor()
        fx.fit(spmv_schedules[:100])
        fm_full = fx.transform(spmv_schedules)
        assert fm_full.matrix.shape == (len(spmv_schedules), len(fx.features))

    def test_matrix_dtype_binary(self, spmv_schedules):
        fm = FeatureExtractor().fit_transform(spmv_schedules[:50])
        assert fm.matrix.dtype == np.uint8
        assert set(np.unique(fm.matrix)) <= {0, 1}

    def test_column_lookup(self, spmv_schedules):
        fx = FeatureExtractor()
        fm = fx.fit_transform(spmv_schedules[:50])
        f = fm.features[0]
        assert np.array_equal(fm.column(f), fm.matrix[:, 0])
