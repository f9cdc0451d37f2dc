"""Tests for SpMV row partitioning and local/remote split."""

import numpy as np
import pytest

from repro.apps.spmv.matrix import CsrMatrix, band_matrix
from repro.apps.spmv.partition import partition_spmv, row_ranges


class TestRowRanges:
    def test_even_split(self):
        assert row_ranges(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_uneven_split_front_loaded(self):
        ranges = row_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert ranges[-1][1] == 10

    def test_covers_all_rows(self):
        ranges = row_ranges(1234, 7)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 1234
        for a, b in zip(ranges, ranges[1:]):
            assert a[1] == b[0]


@pytest.fixture(scope="module")
def parted():
    a = band_matrix(1200, 12_000, bandwidth=300, seed=2)
    return a, partition_spmv(a, 4)


class TestPartition:
    def test_nnz_conserved(self, parted):
        a, part = parted
        total = sum(p.nnz_local + p.nnz_remote for p in part.parts)
        assert total == a.nnz

    def test_remote_cols_not_owned(self, parted):
        _, part = parted
        for p in part.parts:
            lo, hi = p.row_lo, p.row_hi
            assert not ((p.remote_cols >= lo) & (p.remote_cols < hi)).any()

    def test_send_recv_symmetry(self, parted):
        """q sends to r exactly the columns r needs from q."""
        _, part = parted
        for p in part.parts:
            for owner, cols in p.needed_from.items():
                send = part.parts[owner].send_idx[p.rank]
                assert np.array_equal(
                    send + part.ranges[owner][0], cols
                )

    def test_message_pairs_consistent(self, parted):
        _, part = parted
        for src, dst, count in part.message_pairs():
            assert count == len(part.parts[dst].needed_from[src])
            assert src != dst

    def test_local_spmv_equals_reference(self, parted):
        """Per-rank local+remote multiply reassembles to A @ x exactly."""
        a, part = parted
        rng = np.random.default_rng(0)
        x = rng.standard_normal(a.shape[0])
        pieces = []
        for p in part.parts:
            x_local = x[p.row_lo : p.row_hi]
            y = p.a_local @ x_local
            x_remote = x[p.remote_cols]
            y = y + p.a_remote @ x_remote
            pieces.append(y)
        assert np.allclose(np.concatenate(pieces), a @ x)

    def test_rectangular_matrix_rejected(self):
        no_cols = np.zeros(0, dtype=np.int32)
        wide = CsrMatrix((10, 20), np.zeros(11, dtype=np.int32), no_cols, np.zeros(0))
        with pytest.raises(ValueError, match="square"):
            partition_spmv(wide, 2)
