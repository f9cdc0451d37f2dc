"""Vertex taxonomy for CUDA+MPI program DAGs (paper Table II).

The paper distinguishes three vertex types:

======================  =====================================================
Vertex type             Description
======================  =====================================================
``CPU``                 A synchronous CPU operation.
``GPU``                 An asynchronous GPU operation not yet assigned to a
                        stream.
``BoundGPU``            A GPU vertex assigned to an execution stream (this
                        binding happens during scheduling, so it lives in
                        :mod:`repro.schedule`, not here).
======================  =====================================================

In addition, scheduling inserts synchronization operations
(``cudaEventRecord`` / ``cudaEventSynchronize`` / ``cudaStreamWaitEvent``)
per paper Table III; those also have :class:`OpKind` entries so the
simulator can interpret them uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class OpKind(enum.Enum):
    """Kind of a DAG vertex / schedulable operation."""

    #: Artificial program entry point (paper §III-A).
    START = "start"
    #: Artificial program exit; modeled as a device-wide synchronize.
    END = "end"
    #: Synchronous CPU operation (may carry an MPI action).
    CPU = "cpu"
    #: Asynchronous GPU operation, not yet bound to a stream.
    GPU = "gpu"
    #: ``cudaEventRecord`` inserted during scheduling.
    EVENT_RECORD = "cudaEventRecord"
    #: ``cudaEventSynchronize`` inserted during scheduling (CPU blocks).
    EVENT_SYNC = "cudaEventSynchronize"
    #: ``cudaStreamWaitEvent`` inserted during scheduling (stream blocks).
    STREAM_WAIT = "cudaStreamWaitEvent"

    @property
    def is_gpu(self) -> bool:
        """True for operations that execute on a GPU stream."""
        return self in (OpKind.GPU,)


class ActionKind(enum.Enum):
    """Semantic action a CPU vertex performs when executed."""

    #: Pure delay; no side effects.
    NOOP = "noop"
    #: Post the rank's non-blocking sends for a communication group.
    POST_SENDS = "post_sends"
    #: Post the rank's non-blocking receives for a communication group.
    POST_RECVS = "post_recvs"
    #: Block until all of the rank's sends in a group complete.
    WAIT_SENDS = "wait_sends"
    #: Block until all of the rank's receives in a group complete.
    WAIT_RECVS = "wait_recvs"


@dataclass(frozen=True)
class Action:
    """Semantic action attached to a CPU vertex.

    ``group`` names a :class:`~repro.dag.program.CommPlan` on the enclosing
    :class:`~repro.dag.program.Program`; post/wait actions with the same
    group operate on the same set of MPI requests.
    """

    kind: ActionKind
    group: str = "default"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.kind.value}({self.group})"


@dataclass(frozen=True)
class Work:
    """Characterization of the work a vertex performs.

    The platform cost model (:mod:`repro.platform.costs`) converts ``Work``
    into a duration.  Any combination of fields may be zero; a vertex with
    all-zero work and no explicit duration costs only its launch/dispatch
    overhead.
    """

    #: Floating-point operations performed.
    flops: float = 0.0
    #: Bytes read from (GPU or CPU) memory.
    bytes_read: float = 0.0
    #: Bytes written to memory.
    bytes_written: float = 0.0

    @property
    def bytes_moved(self) -> float:
        """Total memory traffic in bytes."""
        return self.bytes_read + self.bytes_written

    def scaled(self, factor: float) -> "Work":
        """Return a copy with all fields multiplied by ``factor``."""
        return Work(
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )


@dataclass(frozen=True)
class Vertex:
    """A single operation in a CUDA+MPI program DAG.

    Vertices are identified by ``name`` within a :class:`~repro.dag.graph.Graph`;
    two vertices with the same name are considered the same operation.

    Parameters
    ----------
    name:
        Unique identifier, also used in generated design rules (so choose
        human-meaningful names such as ``"Pack"`` or ``"yL"``).
    kind:
        The :class:`OpKind` of the operation.
    duration:
        Optional explicit duration in seconds.  When set, it overrides the
        cost model.
    work:
        Optional :class:`Work` characterization used by the cost model.
    action:
        Optional semantic :class:`Action` (CPU vertices only).
    payload:
        Optional name of a numeric callback registered on the enclosing
        :class:`~repro.dag.program.Program`; the simulator invokes it when
        the operation completes, enabling end-to-end numeric verification.
    reads / writes:
        Names of logical buffers this operation reads / marks ready, used by
        the data-hazard tracker.
    """

    name: str
    kind: OpKind
    duration: Optional[float] = None
    work: Optional[Work] = None
    action: Optional[Action] = None
    payload: Optional[str] = None
    reads: Tuple[str, ...] = field(default=())
    writes: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.action is not None and self.kind is not OpKind.CPU:
            raise ValueError(
                f"vertex {self.name!r}: actions are only valid on CPU "
                f"vertices, not {self.kind.value}"
            )
        if not self.name:
            raise ValueError("vertex name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def cpu_op(
    name: str,
    *,
    duration: Optional[float] = None,
    work: Optional[Work] = None,
    action: Optional[Action] = None,
    payload: Optional[str] = None,
    reads: Tuple[str, ...] = (),
    writes: Tuple[str, ...] = (),
) -> Vertex:
    """Convenience constructor for a synchronous CPU vertex."""
    return Vertex(
        name=name,
        kind=OpKind.CPU,
        duration=duration,
        work=work,
        action=action,
        payload=payload,
        reads=reads,
        writes=writes,
    )


def gpu_op(
    name: str,
    *,
    duration: Optional[float] = None,
    work: Optional[Work] = None,
    payload: Optional[str] = None,
    reads: Tuple[str, ...] = (),
    writes: Tuple[str, ...] = (),
) -> Vertex:
    """Convenience constructor for an (unbound) GPU kernel vertex."""
    return Vertex(
        name=name,
        kind=OpKind.GPU,
        duration=duration,
        work=work,
        payload=payload,
        reads=reads,
        writes=writes,
    )


#: Shared artificial entry vertex (paper §III-A).
START = Vertex(name="start", kind=OpKind.START)

#: Shared artificial exit vertex, modeled as a device-wide synchronize.
END = Vertex(name="end", kind=OpKind.END)
