"""Build the distributed SpMV program DAG (paper Fig. 3).

Operations (per rank, SPMD):

* ``Pack`` (GPU) — copy the local x entries each peer needs into per-peer
  send buffers.
* ``PostSends`` / ``PostRecvs`` (CPU) — post the non-blocking MPI
  operations for the halo of x entries.
* ``WaitSend`` / ``WaitRecv`` (CPU) — complete them; ``WaitRecv``
  additionally assembles the compressed remote vector x_R.
* ``yL`` (GPU) — local multiply y_L = A_L x_L.
* ``yR`` (GPU) — remote multiply y_R = A_R x_R, dependent on ``WaitRecv``.

Dependencies: start -> {Pack, PostRecvs, yL}; Pack -> PostSends ->
WaitSend -> end; PostRecvs -> WaitRecv -> yR -> end; yL -> end.  The
``Pack -> PostSends`` edge is GPU -> CPU, so scheduling inserts
``CER-after-Pack`` and ``CES-b4-PostSends`` exactly as in the paper.

By default both post operations additionally precede both wait operations
(``PostSends -> WaitRecv`` and ``PostRecvs -> WaitSend``).  Without these
edges the space contains SPMD orders in which *every* rank blocks in a
wait before posting the operations that would satisfy its peers — a real
deadlock on real hardware (our simulator's deadlock detector catches it;
see ``tests/sim/test_deadlock.py``).  The paper's Fig. 3c DAG is not fully
recoverable from the text (its vertex glyphs are mangled in the source),
and no reconstruction we tried reproduces the reported 2036
implementations exactly; the safe DAG yields 540 implementations on two
streams, the unsafe one 2016.  Pass ``safe_waits=False`` to get the
unsafe space (used by the deadlock tests).

Cost characterization: kernels are memory-bound; sparse kernels see a
fraction of peak bandwidth (random x gathers), captured by the
``sparse_efficiency`` derate.  The result, on the perlmutter-like platform,
is a local multiply comparable to the halo communication time — the same
balance the paper engineered via the matrix bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.apps.spmv.matrix import CsrMatrix, band_matrix
from repro.apps.spmv.partition import SpmvPartition, partition_spmv
from repro.dag.graph import Graph
from repro.dag.program import CommPlan, Message, Program
from repro.dag.vertex import Action, ActionKind, Work, cpu_op, gpu_op
from repro.sim.semantics import PayloadContext, RankContext

#: Bytes per CSR non-zero visited (value + column index + amortized row ptr).
_CSR_BYTES_PER_NNZ = 12.0
#: Bytes per row (y write + row pointer reads).
_CSR_BYTES_PER_ROW = 16.0
#: Bytes per packed element (read + write).
_PACK_BYTES_PER_ELEM = 16.0


@dataclass(frozen=True)
class SpmvCase:
    """Parameters of one SpMV experiment instance."""

    n_rows: int = 150_000
    nnz: int = 1_500_000
    bandwidth: float = 150_000 / 4
    n_ranks: int = 4
    seed: int = 0
    #: Fraction of peak memory bandwidth sparse kernels achieve.
    sparse_efficiency: float = 0.10
    #: Fraction of peak memory bandwidth the pack gather achieves.
    pack_efficiency: float = 0.30
    comm_group: str = "halo"

    def scaled(self, factor: float) -> "SpmvCase":
        """Proportionally smaller/larger instance (tests use ~1/40 scale)."""
        return SpmvCase(
            n_rows=max(self.n_ranks * 4, int(self.n_rows * factor)),
            nnz=max(self.n_ranks * 8, int(self.nnz * factor)),
            bandwidth=max(2.0, self.bandwidth * factor),
            n_ranks=self.n_ranks,
            seed=self.seed,
            sparse_efficiency=self.sparse_efficiency,
            pack_efficiency=self.pack_efficiency,
            comm_group=self.comm_group,
        )


def spmv_paper_case() -> SpmvCase:
    """The paper's exact instance: 150k rows, 1.5M nnz, bandwidth n/4."""
    return SpmvCase()


@dataclass
class SpmvInstance:
    """Everything needed to explore and verify one SpMV case."""

    case: SpmvCase
    matrix: CsrMatrix
    x: np.ndarray
    partition: SpmvPartition
    program: Program

    def payload_init(self, ctx: PayloadContext) -> None:
        """Initialize per-rank numeric buffers (x_local, matrix blocks)."""
        for part in self.partition.parts:
            rc = ctx[part.rank]
            rc.buffers["x_local"] = self.x[part.row_lo : part.row_hi].copy()
            rc.scratch["part"] = part
            ctx.hazards.mark_ready(part.rank, "x_local", 0.0)

    def reference_result(self) -> np.ndarray:
        """Ground truth y = A x, the whole matrix's CSR multiply (each row
        summed in column order), against which the ranks' local plus remote
        products are checked."""
        return self.matrix @ self.x

    def gather_result(self, ctx: PayloadContext) -> np.ndarray:
        """Assemble the distributed result from per-rank buffers."""
        pieces = []
        for part in self.partition.parts:
            rc = ctx[part.rank]
            y = rc.buffers["yL"] + rc.buffers["yR"]
            pieces.append(y)
        return np.concatenate(pieces)


def _spmv_work(nnz: int, n_rows: int, efficiency: float) -> Work:
    """Effective memory traffic of a sparse multiply at derated bandwidth."""
    raw = _CSR_BYTES_PER_NNZ * nnz + _CSR_BYTES_PER_ROW * n_rows
    return Work(flops=2.0 * nnz, bytes_read=raw / max(efficiency, 1e-6))


def _make_payloads(partition: SpmvPartition) -> Dict[str, Callable]:
    """Numeric callbacks keyed by name; each receives a RankContext."""

    def pack(rc: RankContext) -> None:
        part = rc.scratch["part"]
        x_local = rc.buffers["x_local"]
        for dst, idx in part.send_idx.items():
            rc.buffers[f"send_to_{dst}"] = x_local[idx]

    def assemble_xr(rc: RankContext) -> None:
        part = rc.scratch["part"]
        xr = np.empty(len(part.remote_cols), dtype=float)
        col_pos = {c: i for i, c in enumerate(part.remote_cols)}
        for owner, cols in part.needed_from.items():
            data = rc.buffers.get(f"recv_from_{owner}")
            if data is None:
                data = np.zeros(len(cols))
            for c, val in zip(cols, data):
                xr[col_pos[c]] = val
        rc.buffers["x_remote"] = xr

    def y_local(rc: RankContext) -> None:
        part = rc.scratch["part"]
        rc.buffers["yL"] = part.a_local @ rc.buffers["x_local"]

    def y_remote(rc: RankContext) -> None:
        part = rc.scratch["part"]
        xr = rc.buffers.get("x_remote")
        if xr is None:
            xr = np.zeros(len(part.remote_cols))
        rc.buffers["yR"] = part.a_remote @ xr

    return {
        "pack": pack,
        "assemble_xr": assemble_xr,
        "yl": y_local,
        "yr": y_remote,
    }


def build_spmv_program(case: SpmvCase, *, safe_waits: bool = True) -> SpmvInstance:
    """Generate the matrix, partition it, and build the SpMV Program.

    ``safe_waits=True`` (default) adds the posts-before-waits edges that
    exclude SPMD-deadlocking schedules (see module docstring).
    """
    a = band_matrix(case.n_rows, case.nnz, case.bandwidth, seed=case.seed)
    rng = np.random.default_rng(case.seed + 1)
    x = rng.standard_normal(case.n_rows)
    partition = partition_spmv(a, case.n_ranks)
    group = case.comm_group

    pack = gpu_op("Pack", payload="pack", writes=("send_bufs",))
    post_sends = cpu_op(
        "PostSends", action=Action(ActionKind.POST_SENDS, group)
    )
    post_recvs = cpu_op(
        "PostRecvs", action=Action(ActionKind.POST_RECVS, group)
    )
    wait_send = cpu_op(
        "WaitSend", action=Action(ActionKind.WAIT_SENDS, group)
    )
    wait_recv = cpu_op(
        "WaitRecv",
        action=Action(ActionKind.WAIT_RECVS, group),
        payload="assemble_xr",
        writes=("x_remote",),
    )
    y_l = gpu_op("yL", payload="yl", reads=("x_local",), writes=("yL",))
    y_r = gpu_op("yR", payload="yr", reads=("x_remote",), writes=("yR",))

    edges = [
        ("Pack", "PostSends"),
        ("PostSends", "WaitSend"),
        ("PostRecvs", "WaitRecv"),
        ("WaitRecv", "yR"),
    ]
    if safe_waits:
        edges += [("PostSends", "WaitRecv"), ("PostRecvs", "WaitSend")]
    g = Graph.from_edges(
        vertices=[pack, post_sends, post_recvs, wait_send, wait_recv, y_l, y_r],
        edges=edges,
    ).with_start_end()

    messages = []
    for src, dst, count in partition.message_pairs():
        messages.append(
            Message(
                src=src,
                dst=dst,
                nbytes=8.0 * count,
                tag=0,
                src_buf=f"send_to_{dst}",
                dst_buf=f"recv_from_{src}",
                hazard_buf="send_bufs",
            )
        )
    plan = CommPlan(group=group, messages=tuple(messages))

    work_overrides: Dict[Tuple[str, int], Work] = {}
    for part in partition.parts:
        work_overrides[("yL", part.rank)] = _spmv_work(
            part.nnz_local, part.n_rows, case.sparse_efficiency
        )
        work_overrides[("yR", part.rank)] = _spmv_work(
            part.nnz_remote, part.n_rows, case.sparse_efficiency
        )
        pack_elems = sum(len(v) for v in part.send_idx.values())
        work_overrides[("Pack", part.rank)] = Work(
            bytes_read=_PACK_BYTES_PER_ELEM
            * pack_elems
            / max(case.pack_efficiency, 1e-6)
        )

    program = Program(
        graph=g,
        n_ranks=case.n_ranks,
        comm={group: plan},
        payloads=_make_payloads(partition),
        work_overrides=work_overrides,
        name=f"spmv(n={case.n_rows},nnz={case.nnz},bw={case.bandwidth:g})",
    )
    return SpmvInstance(
        case=case, matrix=a, x=x, partition=partition, program=program
    )
