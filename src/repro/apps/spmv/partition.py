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
import scipy.sparse as sp


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
    a_local: sp.csr_matrix
    #: Remote block, column-compressed: only columns this rank must fetch.
    a_remote: sp.csr_matrix
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


def partition_spmv(a: sp.csr_matrix, n_ranks: int) -> SpmvPartition:
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
        block = a[lo:hi, :].tocsc()
        col_owner = owners
        local_mask = (col_owner == rank)
        # Local block, restricted to owned columns (kept at local width).
        a_local_full = block[:, np.flatnonzero(local_mask)].tocsr()
        # Remote block: compress to referenced columns only.
        remote_candidates = np.flatnonzero(~local_mask)
        sub = block[:, remote_candidates]
        col_nnz = np.diff(sub.indptr)
        used = np.flatnonzero(col_nnz > 0)
        remote_cols = remote_candidates[used]
        a_remote = sub[:, used].tocsr()
        needed_from: Dict[int, np.ndarray] = {}
        for owner in np.unique(col_owner[remote_cols]):
            needed_from[int(owner)] = remote_cols[
                col_owner[remote_cols] == owner
            ]
        parts.append(
            RankPart(
                rank=rank,
                row_lo=lo,
                row_hi=hi,
                a_local=a_local_full,
                a_remote=a_remote.tocsr(),
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
