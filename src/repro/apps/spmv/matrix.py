"""Band-diagonal sparse matrix generation (paper §III).

"The matrix A is a band-diagonal matrix with 150 000 rows/columns,
1 500 000 non-zeros and a bandwidth of 150000/4.  This bandwidth
approximately balances the size of local and remote matrix
multiplications.  The non-zeros are uniformly randomly distributed within
the band."

The matrix is a :class:`CsrMatrix`: compressed sparse rows held in plain
numpy arrays, with each row's columns ascending and duplicates summed.
Its arrays and its ``A @ x`` equal those of the equivalent
``scipy.sparse.csr_matrix`` bit for bit (``tests/apps/test_csr_oracle.py``
keeps the scipy construction as the oracle), so scipy is not needed to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Rows generated per block: bounds the sort and merge temporaries of
#: :func:`band_matrix` (a few MB on the paper's 10 non-zeros per row).
_BLOCK_ROWS = 8192


def row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row index of each entry of the CSR rows that ``indptr`` delimits,
    counted from the first of them."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in compressed sparse row form.

    Row ``i``'s entries are ``indices[indptr[i]:indptr[i + 1]]`` (columns,
    ascending, no repeats) and the matching ``data``.  Equality and hashing
    are by identity, since the fields are arrays.
    """

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a vector ``x``: each row summed in index order from
        0.0, as scipy's CSR multiply does."""
        if np.shape(x) != (self.shape[1],):
            raise ValueError(f"cannot multiply {self.shape} by {np.shape(x)}")
        y = np.bincount(
            row_ids(self.indptr),
            weights=self.data * x[self.indices],
            minlength=self.shape[0],
        )
        return y.astype(np.float64, copy=False)  # int64 when there are no entries


def band_matrix(
    n_rows: int,
    nnz: int,
    bandwidth: float,
    seed: int = 0,
) -> CsrMatrix:
    """Generate a band-diagonal CSR matrix.

    ``bandwidth`` is the band *half*-width: non-zero (i, j) satisfy
    ``|i - j| <= bandwidth``.  This interpretation makes the paper's
    statement hold — with bandwidth n/4 on 4 ranks (block width n/4), the
    expected local and remote non-zero counts are approximately equal,
    "approximately balanc[ing] the size of local and remote matrix
    multiplications".  ``nnz // n_rows`` entries are drawn per row,
    uniformly within the row's band window.  A column drawn twice in a row
    is one entry whose value is the draws' sum, added in draw order.
    """
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    per_row = max(1, int(round(nnz / n_rows)))
    half = max(1.0, float(bandwidth))
    rng = np.random.default_rng(seed)

    lo = np.maximum(0, (np.arange(n_rows) - half).astype(np.int64))
    hi = np.minimum(n_rows - 1, (np.arange(n_rows) + half).astype(np.int64))
    width = hi - lo + 1
    # Draw per-row columns uniformly in the row's band window.
    u = rng.random((n_rows, per_row))
    vals = rng.standard_normal(n_rows * per_row).reshape(n_rows, per_row)

    counts, indices, data = [], [], []
    for b in range(0, n_rows, _BLOCK_ROWS):
        rows = slice(b, b + _BLOCK_ROWS)
        cols = (lo[rows, None] + (u[rows] * width[rows, None])).astype(np.int64)
        cols = np.minimum(cols, hi[rows, None])
        order = np.argsort(cols, axis=1, kind="stable")
        cols = np.take_along_axis(cols, order, axis=1)
        sums = np.take_along_axis(vals[rows], order, axis=1)
        # In rows with a repeated column, sum each run of equal columns
        # left to right, so the run's last entry holds its total.
        repeat = cols[:, 1:] == cols[:, :-1]
        dup = np.flatnonzero(repeat.any(axis=1))
        runs = sums[dup]
        for k in range(per_row - 1):
            hit = repeat[dup, k]
            runs[hit, k + 1] += runs[hit, k]
        sums[dup] = runs
        last = np.ones(cols.shape, dtype=bool)
        last[:, :-1] = ~repeat
        counts.append(last.sum(axis=1))
        indices.append(cols[last].astype(np.int32))
        data.append(sums[last])
    # Free the draws before joining the blocks, so they never coexist with
    # both copies of the result.
    del u, vals

    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return CsrMatrix(
        shape=(n_rows, n_rows),
        indptr=indptr,
        indices=np.concatenate(indices),
        data=np.concatenate(data),
    )


def matrix_stats(a: CsrMatrix) -> dict:
    """Summary statistics used in reports."""
    n = a.shape[0]
    band = np.abs(row_ids(a.indptr) - a.indices)
    return {
        "n_rows": n,
        "nnz": int(a.nnz),
        "nnz_per_row": a.nnz / n,
        "max_band": int(band.max()) if a.nnz else 0,
    }
