"""A complete CUDA+MPI program: DAG + communication plans + numeric payloads.

The DAG (:class:`~repro.dag.graph.Graph`) captures *structure*; the
:class:`Program` adds everything the simulator needs to execute a schedule
of that DAG on an SPMD machine:

* per-rank communication plans (who sends what to whom, in which
  communication *group* — the link between ``post_sends`` and
  ``wait_sends`` actions),
* optional per-(vertex, rank) work overrides (ranks rarely have identical
  local problem sizes), and
* an optional registry of numeric payload callbacks so that executing a
  schedule also computes a real result (used to verify, e.g., that every
  explored SpMV schedule computes the correct ``y = Ax``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dag.graph import Graph
from repro.dag.vertex import ActionKind, OpKind, Vertex, Work
from repro.errors import GraphError


@dataclass(frozen=True)
class Message:
    """One point-to-point message in a communication plan.

    ``src_buf``/``dst_buf`` optionally name logical buffers in the numeric
    payload context; on transfer completion the simulator copies the source
    rank's ``src_buf`` into the destination rank's ``dst_buf``.
    """

    src: int
    dst: int
    nbytes: float
    tag: int = 0
    src_buf: Optional[str] = None
    dst_buf: Optional[str] = None
    #: Logical buffer name the transfer *reads* for hazard tracking; the
    #: producer vertex must list it in ``writes``.  Optional and distinct
    #: from ``src_buf`` so hazard granularity can be coarser than the
    #: concrete per-destination arrays.
    hazard_buf: Optional[str] = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("self-messages are not modeled")
        if self.nbytes < 0:
            raise ValueError("message size must be non-negative")


@dataclass
class CommPlan:
    """All messages of one communication group, for all ranks.

    A *group* ties the four MPI actions together: ``post_sends(g)`` posts
    every message in ``sends_from(rank)``, ``wait_sends(g)`` waits for them,
    and analogously for receives.
    """

    group: str
    messages: Tuple[Message, ...] = ()

    def sends_from(self, rank: int) -> Tuple[Message, ...]:
        return tuple(m for m in self.messages if m.src == rank)

    def recvs_to(self, rank: int) -> Tuple[Message, ...]:
        return tuple(m for m in self.messages if m.dst == rank)

    @property
    def n_messages(self) -> int:
        return len(self.messages)


#: Signature of a numeric payload callback: receives the per-rank context
#: (see :class:`repro.sim.semantics.RankContext`) when the op completes.
PayloadFn = Callable[[object], None]


@dataclass
class Program:
    """A CUDA+MPI program ready for design-space exploration.

    Parameters
    ----------
    graph:
        The operation DAG, including artificial ``start``/``end`` vertices
        (use :meth:`repro.dag.graph.Graph.with_start_end`).
    n_ranks:
        Number of MPI ranks the program targets (SPMD: every rank executes
        the same schedule).
    comm:
        Communication plans by group name.
    payloads:
        Numeric callbacks by name, referenced from ``Vertex.payload``.
    work_overrides:
        Per-(vertex name, rank) :class:`Work` overriding ``Vertex.work``.
    name:
        Human-readable identifier used in reports.
    """

    graph: Graph
    n_ranks: int = 1
    comm: Dict[str, CommPlan] = field(default_factory=dict)
    payloads: Dict[str, PayloadFn] = field(default_factory=dict)
    work_overrides: Dict[Tuple[str, int], Work] = field(default_factory=dict)
    name: str = "program"

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.graph.validate()
        self._check_actions()

    def _check_actions(self) -> None:
        """Every post/wait action must reference a known comm group, and
        every group referenced by a wait must also be posted somewhere."""
        posted: Dict[str, List[str]] = {}
        waited: Dict[str, List[str]] = {}
        for v in self.graph:
            if v.action is None:
                continue
            if v.action.kind in (ActionKind.POST_SENDS, ActionKind.POST_RECVS):
                posted.setdefault(v.action.group, []).append(v.name)
            elif v.action.kind in (ActionKind.WAIT_SENDS, ActionKind.WAIT_RECVS):
                waited.setdefault(v.action.group, []).append(v.name)
            if v.action.group not in self.comm:
                raise GraphError(
                    f"vertex {v.name!r} references unknown comm group "
                    f"{v.action.group!r}"
                )
        for group, names in waited.items():
            if group not in posted:
                raise GraphError(
                    f"comm group {group!r} is waited on by {names} but never "
                    f"posted"
                )

    # ------------------------------------------------------------------
    def work_for(self, vertex: Vertex | str, rank: int) -> Optional[Work]:
        """Effective :class:`Work` of ``vertex`` on ``rank``."""
        name = vertex.name if isinstance(vertex, Vertex) else vertex
        override = self.work_overrides.get((name, rank))
        if override is not None:
            return override
        return self.graph.vertex(name).work

    def payload_fn(self, vertex: Vertex) -> Optional[PayloadFn]:
        if vertex.payload is None:
            return None
        try:
            return self.payloads[vertex.payload]
        except KeyError:
            raise GraphError(
                f"vertex {vertex.name!r} references unknown payload "
                f"{vertex.payload!r}"
            ) from None

    def comm_plan(self, group: str) -> CommPlan:
        try:
            return self.comm[group]
        except KeyError:
            raise GraphError(f"unknown comm group {group!r}") from None

    def schedulable_vertices(self) -> Tuple[Vertex, ...]:
        """Program vertices that appear in schedules (excludes start/end)."""
        return tuple(
            v
            for v in self.graph
            if v.kind not in (OpKind.START, OpKind.END)
        )

    def gpu_vertices(self) -> Tuple[Vertex, ...]:
        return self.graph.gpu_vertices()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program({self.name!r}, ranks={self.n_ranks}, "
            f"|V|={len(self.graph)}, groups={sorted(self.comm)})"
        )
