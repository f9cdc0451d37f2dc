"""Synchronization-operation insertion (paper Table III).

The program DAG does not contain synchronization operations; they are
required by particular (prefix, binding) combinations and therefore appear
during scheduling:

==============  ===============  =========================================
u kind          v kind           Inserted between u -> v
==============  ===============  =========================================
CPU             anything         nothing (CPU ops are synchronous)
BoundGPU(i)     CPU              cudaEventRecord -> cudaEventSynchronize
BoundGPU(i)     BoundGPU(i)      nothing (same-stream FIFO order)
BoundGPU(i)     BoundGPU(j)      cudaEventRecord -> cudaStreamWaitEvent
==============  ===============  =========================================

Naming matches the paper's automatically generated names ("CES-b4-PostSend
is an inserted (and automatically named) synchronization operation before
PostSend"; the record is "CER-after-Pack").

Placement freedom: the record (CER) and CPU-side sync (CES) are launch-
sequence entries whose position *is part of the design space* — the paper's
design rules constrain them (e.g. "yL before CES-b4-PostSend").  The
cross-stream wait (CSWE) is inserted atomically with the dependent kernel
because its stream is only known once that kernel is bound; this collapses
a small amount of CSWE-placement freedom (the SpMV program has no GPU->GPU
edges, so its space is unaffected).

Edges into the artificial ``end`` vertex need no inserted ops: ``end`` is
modeled as a device-wide synchronize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.dag.graph import Graph
from repro.dag.vertex import OpKind, Vertex


def cer_name(u: str) -> str:
    """Name of the inserted ``cudaEventRecord`` after GPU op ``u``."""
    return f"CER-after-{u}"


def ces_name(u: str, v: str, ambiguous: bool) -> str:
    """Name of the inserted ``cudaEventSynchronize`` before CPU op ``v``.

    When ``v`` has several GPU predecessors the source is appended to keep
    names unique (the paper's example has a single predecessor, giving the
    short form ``CES-b4-PostSend``).
    """
    return f"CES-b4-{v}-after-{u}" if ambiguous else f"CES-b4-{v}"


def cswe_name(u: str, v: str) -> str:
    """Name of the inserted ``cudaStreamWaitEvent`` making ``v`` wait on ``u``."""
    return f"CSWE-{v}-waits-{u}"


def event_name(u: str) -> str:
    """CUDA event name recorded by ``CER-after-u``."""
    return f"ev-{u}"


@dataclass(frozen=True)
class SyncPlan:
    """Precomputed synchronization structure of a program DAG.

    Attributes
    ----------
    cer_sources:
        GPU vertices that may need a standalone ``cudaEventRecord`` action
        (those with at least one non-``end`` CPU successor).
    ces_edges:
        (u, v) pairs — GPU u with CPU successor v — each requiring a
        ``cudaEventSynchronize`` before v.
    ces_name_of:
        Edge -> generated CES op name.
    gpu_gpu_edges:
        (u, v) pairs of GPU -> GPU dependencies; these trigger atomic
        CER/CSWE insertion when v is bound to a different stream than u.
    """

    cer_sources: FrozenSet[str]
    ces_edges: Tuple[Tuple[str, str], ...]
    ces_name_of: Dict[Tuple[str, str], str] = field(hash=False)
    gpu_gpu_edges: Tuple[Tuple[str, str], ...] = ()


def build_sync_plan(graph: Graph) -> SyncPlan:
    """Analyze ``graph`` and derive its synchronization structure."""
    cer_sources: List[str] = []
    ces_edges: List[Tuple[str, str]] = []
    gpu_gpu: List[Tuple[str, str]] = []
    # Count GPU predecessors per CPU vertex to resolve name ambiguity.
    gpu_pred_count: Dict[str, int] = {}
    for u, v in graph.edges():
        if u.kind is OpKind.GPU and v.kind is OpKind.CPU:
            gpu_pred_count[v.name] = gpu_pred_count.get(v.name, 0) + 1
    for u, v in graph.edges():
        if u.kind is not OpKind.GPU:
            continue
        if v.kind is OpKind.CPU:
            if u.name not in cer_sources:
                cer_sources.append(u.name)
            ces_edges.append((u.name, v.name))
        elif v.kind is OpKind.GPU:
            gpu_gpu.append((u.name, v.name))
    names = {
        (u, v): ces_name(u, v, ambiguous=gpu_pred_count[v] > 1)
        for (u, v) in ces_edges
    }
    return SyncPlan(
        cer_sources=frozenset(cer_sources),
        ces_edges=tuple(ces_edges),
        ces_name_of=names,
        gpu_gpu_edges=tuple(gpu_gpu),
    )


def make_cer_vertex(u: str) -> Vertex:
    return Vertex(name=cer_name(u), kind=OpKind.EVENT_RECORD)


def make_ces_vertex(name: str) -> Vertex:
    return Vertex(name=name, kind=OpKind.EVENT_SYNC)


def make_cswe_vertex(u: str, v: str) -> Vertex:
    return Vertex(name=cswe_name(u, v), kind=OpKind.STREAM_WAIT)
