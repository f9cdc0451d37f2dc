"""Tests for band-diagonal matrix generation."""

import numpy as np
import pytest

from repro.apps.spmv.matrix import band_matrix, matrix_stats, row_ids


class TestBandMatrix:
    def test_shape_and_nnz(self):
        a = band_matrix(1000, 10_000, bandwidth=250, seed=0)
        assert a.shape == (1000, 1000)
        # Duplicates within a row merge, so nnz is close to but at most 10k.
        assert 0.9 * 10_000 <= a.nnz <= 10_000

    def test_band_respected(self):
        a = band_matrix(500, 5000, bandwidth=50, seed=1)
        assert (np.abs(row_ids(a.indptr) - a.indices) <= 50).all()

    def test_deterministic_for_seed(self):
        a = band_matrix(200, 1000, 25, seed=3)
        b = band_matrix(200, 1000, 25, seed=3)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = band_matrix(200, 1000, 25, seed=3)
        b = band_matrix(200, 1000, 25, seed=4)
        assert not (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )

    def test_rows_balanced(self):
        a = band_matrix(300, 3000, 50, seed=0)
        per_row = np.diff(a.indptr)
        assert per_row.min() >= 1
        assert per_row.max() <= 10

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            band_matrix(0, 10, 5)

    def test_paper_case_balances_local_remote(self):
        """bandwidth = n/4 on 4 ranks gives ~equal local/remote nnz
        (the property the paper states the bandwidth was chosen for)."""
        from repro.apps.spmv.partition import partition_spmv

        n = 8000
        a = band_matrix(n, n * 10, bandwidth=n / 4, seed=0)
        parts = partition_spmv(a, 4).parts
        inner = parts[1]  # middle ranks see both neighbours
        ratio = inner.nnz_remote / max(1, inner.nnz_local)
        assert 0.7 < ratio < 1.4

    def test_stats(self):
        a = band_matrix(100, 1000, 20, seed=0)
        s = matrix_stats(a)
        assert s["n_rows"] == 100
        assert s["max_band"] <= 20
        assert 5 <= s["nnz_per_row"] <= 10
