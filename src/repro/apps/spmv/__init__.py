"""Distributed sparse-matrix vector multiplication (the paper's workload)."""

from repro.apps.spmv.dag import (
    SpmvCase,
    SpmvInstance,
    build_spmv_program,
    spmv_paper_case,
)
from repro.apps.spmv.matrix import CsrMatrix, band_matrix, matrix_stats
from repro.apps.spmv.partition import (
    RankPart,
    SpmvPartition,
    partition_spmv,
    row_ranges,
)

__all__ = [
    "CsrMatrix",
    "RankPart",
    "SpmvCase",
    "SpmvInstance",
    "SpmvPartition",
    "band_matrix",
    "build_spmv_program",
    "matrix_stats",
    "partition_spmv",
    "row_ranges",
    "spmv_paper_case",
]
