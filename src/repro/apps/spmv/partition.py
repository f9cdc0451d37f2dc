"""Row-wise partitioning and local/remote split of the SpMV (paper §III-A).

"A common distributed memory implementation evenly divides contiguous rows
of A, x, and y across MPI ranks.  A rank's y entries can then be computed
as the sum of a 'local' and 'remote' matrix-vector multiplication
y_L = A_L x_L and y_R = A_R x_R. ... A_R's x_R must wait for x_R to be
assembled from the remote x entries that correspond to non-zero columns in
A_R."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.spmv.matrix import CsrMatrix, row_ids


def row_ranges(n_rows: int, n_ranks: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced [lo, hi) row ranges per rank."""
    base = n_rows // n_ranks
    extra = n_rows % n_ranks
    ranges = []
    lo = 0
    for r in range(n_ranks):
        hi = lo + base + (1 if r < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass
class RankPart:
    """One rank's share of the distributed SpMV."""

    rank: int
    row_lo: int
    row_hi: int
    #: Local block: columns owned by this rank, over this rank's rows.
    a_local: CsrMatrix
    #: Remote block, column-compressed: only columns this rank must fetch.
    a_remote: CsrMatrix
    #: Global column index of each compressed remote column.
    remote_cols: np.ndarray
    #: remote_cols grouped by owning rank: owner -> global col indices.
    needed_from: Dict[int, np.ndarray]
    #: For each peer that needs our entries: peer -> local indices to pack.
    send_idx: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def nnz_local(self) -> int:
        return int(self.a_local.nnz)

    @property
    def nnz_remote(self) -> int:
        return int(self.a_remote.nnz)


@dataclass
class SpmvPartition:
    """Complete partitioning of A across ranks."""

    n_rows: int
    n_ranks: int
    ranges: List[Tuple[int, int]]
    parts: List[RankPart]

    def message_pairs(self) -> List[Tuple[int, int, int]]:
        """(src, dst, n_entries) for every required point-to-point message."""
        out = []
        for part in self.parts:
            for owner, cols in sorted(part.needed_from.items()):
                out.append((owner, part.rank, len(cols)))
        return out


def _rows_block(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape: Tuple[int, int]
) -> CsrMatrix:
    """CSR block of the entries with row ids ``rows`` (ascending)."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CsrMatrix(
        shape=shape,
        indptr=indptr,
        indices=cols.astype(np.int32, copy=False),
        data=data,
    )


def partition_spmv(a: CsrMatrix, n_ranks: int) -> SpmvPartition:
    """Partition ``a`` row-wise and split each block into local/remote."""
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    ranges = row_ranges(n, n_ranks)
    owners = np.empty(n, dtype=np.int64)
    for r, (lo, hi) in enumerate(ranges):
        owners[lo:hi] = r

    parts: List[RankPart] = []
    for rank, (lo, hi) in enumerate(ranges):
        entries = slice(a.indptr[lo], a.indptr[hi])
        rows = row_ids(a.indptr[lo : hi + 1])
        cols = a.indices[entries]
        data = a.data[entries]
        # Local block, restricted to owned columns (kept at local width).
        local = (cols >= lo) & (cols < hi)
        a_local = _rows_block(
            rows[local], cols[local] - lo, data[local], (hi - lo, hi - lo)
        )
        # Remote block: compress to referenced columns only.
        remote = ~local
        remote_cols, compressed = np.unique(
            cols[remote].astype(np.int64), return_inverse=True
        )
        a_remote = _rows_block(
            rows[remote], compressed, data[remote], (hi - lo, len(remote_cols))
        )
        needed_from: Dict[int, np.ndarray] = {}
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

    # Fill send-side index lists: if rank r needs cols C from owner q, then
    # q packs its local entries C - q.row_lo for r.
    for part in parts:
        for owner, cols in part.needed_from.items():
            parts[owner].send_idx[part.rank] = cols - ranges[owner][0]
    return SpmvPartition(n_rows=n, n_ranks=n_ranks, ranges=ranges, parts=parts)
