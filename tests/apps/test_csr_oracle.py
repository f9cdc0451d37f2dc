"""The numpy CSR build against the scipy build it replaced.

``reference_band_matrix`` and ``reference_partition`` are the earlier
scipy construction (COO -> CSR with summed duplicates, then each rank's
row block sliced by columns through CSC).  The numpy build must give the
same CSR arrays, blocks, halo lists and products bit for bit, and the same
SpMV programs.

scipy sorts a row's columns with ``std::sort``, which libstdc++ runs as a
stable insertion sort on up to 16 entries; past that it may reorder a
repeated column's draws, and their sum can differ in its last bits from
the draw-order sum.  So values are compared bit for bit up to 16 draws per
row (every case the program builds has 10) and to rounding beyond.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro.apps.spmv.dag as spmv_dag
from repro.apps.spmv import SpmvCase, build_spmv_program
from repro.apps.spmv.matrix import band_matrix
from repro.apps.spmv.partition import (
    RankPart,
    SpmvPartition,
    partition_spmv,
    row_ranges,
)

#: Draws per row up to which scipy's in-row sort is stable.
_STABLE_ROW = 16


def reference_band_matrix(n_rows, nnz, bandwidth, seed=0):
    """The scipy construction: same draws, COO -> CSR, summed duplicates."""
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    per_row = max(1, int(round(nnz / n_rows)))
    half = max(1.0, float(bandwidth))
    rng = np.random.default_rng(seed)

    rows = np.repeat(np.arange(n_rows, dtype=np.int64), per_row)
    lo = np.maximum(0, (np.arange(n_rows) - half).astype(np.int64))
    hi = np.minimum(n_rows - 1, (np.arange(n_rows) + half).astype(np.int64))
    width = hi - lo + 1
    u = rng.random((n_rows, per_row))
    cols = (lo[:, None] + (u * width[:, None])).astype(np.int64)
    cols = np.minimum(cols, hi[:, None]).ravel()
    vals = rng.standard_normal(rows.shape[0])

    a = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_rows)).tocsr()
    a.sum_duplicates()
    return a


def reference_partition(a, n_ranks):
    """The scipy partition: CSC column slicing of each rank's row block."""
    n = a.shape[0]
    ranges = row_ranges(n, n_ranks)
    owners = np.empty(n, dtype=np.int64)
    for r, (lo, hi) in enumerate(ranges):
        owners[lo:hi] = r

    parts = []
    for rank, (lo, hi) in enumerate(ranges):
        block = a[lo:hi, :].tocsc()
        local_mask = owners == rank
        a_local = block[:, np.flatnonzero(local_mask)].tocsr()
        remote_candidates = np.flatnonzero(~local_mask)
        sub = block[:, remote_candidates]
        used = np.flatnonzero(np.diff(sub.indptr) > 0)
        remote_cols = remote_candidates[used]
        a_remote = sub[:, used].tocsr()
        needed_from = {}
        for owner in np.unique(owners[remote_cols]):
            needed_from[int(owner)] = remote_cols[owners[remote_cols] == owner]
        parts.append(
            RankPart(
                rank=rank,
                row_lo=lo,
                row_hi=hi,
                a_local=a_local,
                a_remote=a_remote,
                remote_cols=remote_cols,
                needed_from=needed_from,
            )
        )
    for part in parts:
        for owner, cols in part.needed_from.items():
            parts[owner].send_idx[part.rank] = cols - ranges[owner][0]
    return SpmvPartition(n_rows=n, n_ranks=n_ranks, ranges=ranges, parts=parts)


def assert_same_csr(ours, ref, exact_values=True):
    assert ours.shape == ref.shape
    assert ours.nnz == ref.nnz
    assert ours.indptr.dtype == ref.indptr.dtype
    assert ours.indices.dtype == ref.indices.dtype
    assert np.array_equal(ours.indptr, ref.indptr)
    assert np.array_equal(ours.indices, ref.indices)
    if exact_values:
        assert ours.data.tobytes() == ref.data.tobytes()
    else:
        assert np.allclose(ours.data, ref.data, rtol=1e-12, atol=1e-12)


def assert_same_product(ours, ref, x, exact_values=True):
    got, want = ours @ x, ref @ x
    assert got.dtype == want.dtype
    if exact_values:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    n_rows=st.integers(1, 300),
    data=st.data(),
    bandwidth=st.floats(0.0, 400.0),
    seed=st.integers(0, 2**32 - 1),
    n_ranks=st.integers(1, 6),
)
def test_matches_scipy_build(n_rows, data, bandwidth, seed, n_ranks):
    nnz = data.draw(st.integers(1, 24 * n_rows), label="nnz")
    exact = max(1, round(nnz / n_rows)) <= _STABLE_ROW
    ours = band_matrix(n_rows, nnz, bandwidth, seed=seed)
    ref = reference_band_matrix(n_rows, nnz, bandwidth, seed=seed)
    assert_same_csr(ours, ref, exact)
    x = np.random.default_rng(seed + 1).standard_normal(n_rows)
    assert_same_product(ours, ref, x, exact)

    got = partition_spmv(ours, n_ranks)
    want = reference_partition(ref, n_ranks)
    assert got.ranges == want.ranges
    assert got.message_pairs() == want.message_pairs()
    for p, q in zip(got.parts, want.parts, strict=True):
        assert (p.rank, p.row_lo, p.row_hi) == (q.rank, q.row_lo, q.row_hi)
        assert_same_csr(p.a_local, q.a_local, exact)
        assert_same_csr(p.a_remote, q.a_remote, exact)
        assert p.remote_cols.dtype == q.remote_cols.dtype
        assert np.array_equal(p.remote_cols, q.remote_cols)
        for mine, theirs in (
            (p.needed_from, q.needed_from),
            (p.send_idx, q.send_idx),
        ):
            assert list(mine) == list(theirs)
            for key in mine:
                assert mine[key].dtype == theirs[key].dtype
                assert np.array_equal(mine[key], theirs[key])
        x_local = x[p.row_lo : p.row_hi]
        assert_same_product(p.a_local, q.a_local, x_local, exact)
        assert_same_product(p.a_remote, q.a_remote, x[p.remote_cols], exact)


def _scipy_instance(case, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spmv_dag, "band_matrix", reference_band_matrix)
        m.setattr(spmv_dag, "partition_spmv", reference_partition)
        return build_spmv_program(case)


@pytest.mark.parametrize("factor", [1.0, 0.1, 0.05, 0.025])
def test_programs_match_scipy_build(factor, monkeypatch):
    case = SpmvCase() if factor == 1.0 else SpmvCase().scaled(factor)
    ours = build_spmv_program(case)
    ref = _scipy_instance(case, monkeypatch)
    assert ours.program.work_overrides == ref.program.work_overrides
    assert ours.program.comm == ref.program.comm
    assert ours.program.name == ref.program.name
    assert ours.reference_result().tobytes() == ref.reference_result().tobytes()
