"""Jittered durations of one simulated sample.

Noise jitters a simulated duration by ``NoiseModel.jitter(base, sample,
*key)``.  The keys are defined here and nowhere else:

======================  =====================  ==========================
duration                base                   key after ``sample``
======================  =====================  ==========================
CPU op                  cost model             ``rank, op``
GPU launch overhead     launch overhead        ``rank, op, "launch"``
GPU kernel              cost model             ``rank, op``
posting one message     per-message post cost  ``rank, post op, peer``
wire time of a message  ``α + nbytes·β``       ``"xfer", src, dst, tag``
======================  =====================  ==========================

Sync calls (event record / sync, stream wait) and wait overheads are
not jittered.

A key names no schedule, so a duration depends only on ``(program,
machine, sample)``.  :func:`sample_durations` therefore evaluates every
one of them once per sample into a :class:`SampleDurations` table, which
both engines read: the reference engine
(:class:`~repro.sim.executor.ScheduleExecutor` and its
:class:`~repro.sim.network.Network`) and batch replay
(:class:`~repro.sim.batch.CompiledContext`).  The per-duration functions
below also price what no table holds: ops that are not the program's
own vertices, and the ad-hoc messages of :mod:`repro.mpi`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.dag.program import Message, Program
from repro.dag.vertex import ActionKind, OpKind, Vertex
from repro.platform.costs import CostModel
from repro.platform.machine import MachineConfig, NetworkModel
from repro.platform.noise import NoiseModel


def op_time(
    cost: CostModel, program: Program, v: Vertex, rank: int, sample: int
) -> float:
    """CPU op duration, or GPU kernel duration, of ``v`` on ``rank``."""
    base = cost.base_duration(program, v, rank)
    return cost.machine.noise.jitter(base, sample, rank, v.name)


def launch_time(cost: CostModel, v: Vertex, rank: int, sample: int) -> float:
    """Launch overhead of GPU op ``v`` on ``rank``."""
    return cost.machine.noise.jitter(
        cost.launch_overhead(), sample, rank, v.name, "launch"
    )


def post_costs(
    cost: CostModel,
    v: Vertex,
    rank: int,
    messages: Sequence[Message],
    sample: int,
) -> Tuple[Tuple[Message, float], ...]:
    """``(message, post cost)`` of each message post vertex ``v`` posts
    on ``rank``; the peer is a send's destination, a receive's source."""
    assert v.action is not None
    sending = v.action.kind is ActionKind.POST_SENDS
    base = cost.post_message_cost()
    noise = cost.machine.noise
    return tuple(
        (m, noise.jitter(base, sample, rank, v.name, m.dst if sending else m.src))
        for m in messages
    )


def wire_time(
    model: NetworkModel, noise: NoiseModel, msg: Message, sample: int
) -> float:
    """Wire time of ``msg`` (no queueing)."""
    return noise.jitter(
        model.transfer_time(msg.nbytes), sample, "xfer", msg.src, msg.dst, msg.tag
    )


class SampleDurations:
    """Every jittered duration of one ``(program, machine, sample)``.

    Per-rank rows index the program's schedulable vertices in
    ``vertices`` order (``index`` maps a name to its position):

    * ``adv[rank][j]`` — what the CPU spends on vertex ``j``: a CPU op's
      duration, a GPU op's launch overhead, or a sync vertex's
      (unjittered) call overhead;
    * ``kdur[rank][j]`` — a GPU op's kernel duration (0 otherwise);
    * ``posts[rank][op]`` — ``(message, post cost)`` pairs, in plan
      order, that post vertex ``op`` posts on ``rank``;
    * ``sends[rank][group]`` / ``recvs[rank][group]`` — the messages
      ``rank`` sends / receives in each comm group;
    * ``wire[message]`` — each message's wire time.

    Values are raw: a negative explicit duration stays negative, and
    each engine applies its own rule (advance only on positive
    durations, or clamp at zero).
    """

    __slots__ = (
        "vertices", "index", "adv", "kdur", "posts", "sends", "recvs", "wire"
    )

    def __init__(
        self,
        vertices: Tuple[Vertex, ...],
        adv: List[List[float]],
        kdur: List[List[float]],
        posts: List[Dict[str, Tuple[Tuple[Message, float], ...]]],
        sends: List[Dict[str, Tuple[Message, ...]]],
        recvs: List[Dict[str, Tuple[Message, ...]]],
        wire: Dict[Message, float],
    ) -> None:
        self.vertices = vertices
        self.index = {v.name: j for j, v in enumerate(vertices)}
        self.adv = adv
        self.kdur = kdur
        self.posts = posts
        self.sends = sends
        self.recvs = recvs
        self.wire = wire

    def position(self, v: Vertex) -> int:
        """``v``'s position in the rows, or -1 unless ``v`` is the
        program's own vertex of that name (same object, or equal)."""
        j = self.index.get(v.name, -1)
        if j >= 0:
            known = self.vertices[j]
            if known is not v and known != v:
                return -1
        return j


def sample_durations(
    program: Program, machine: MachineConfig, sample: int
) -> SampleDurations:
    """Evaluate the :class:`SampleDurations` of ``sample``."""
    cost = CostModel(machine)
    vertices = program.schedulable_vertices()
    adv: List[List[float]] = []
    kdur: List[List[float]] = []
    posts: List[Dict[str, Tuple[Tuple[Message, float], ...]]] = []
    sends: List[Dict[str, Tuple[Message, ...]]] = []
    recvs: List[Dict[str, Tuple[Message, ...]]] = []
    for rank in range(machine.n_ranks):
        a: List[float] = []
        k: List[float] = []
        for v in vertices:
            if v.kind is OpKind.CPU:
                a.append(op_time(cost, program, v, rank, sample))
                k.append(0.0)
            elif v.kind is OpKind.GPU:
                a.append(launch_time(cost, v, rank, sample))
                k.append(op_time(cost, program, v, rank, sample))
            else:
                a.append(cost.base_duration(program, v, rank))
                k.append(0.0)
        adv.append(a)
        kdur.append(k)
        sends.append({g: p.sends_from(rank) for g, p in program.comm.items()})
        recvs.append({g: p.recvs_to(rank) for g, p in program.comm.items()})
        own: Dict[str, Tuple[Tuple[Message, float], ...]] = {}
        for v in vertices:
            if v.action is None:
                continue
            if v.action.kind is ActionKind.POST_SENDS:
                messages = sends[rank][v.action.group]
            elif v.action.kind is ActionKind.POST_RECVS:
                messages = recvs[rank][v.action.group]
            else:
                continue
            own[v.name] = post_costs(cost, v, rank, messages, sample)
        posts.append(own)
    wire = {
        m: wire_time(machine.net, machine.noise, m, sample)
        for plan in program.comm.values()
        for m in plan.messages
    }
    return SampleDurations(vertices, adv, kdur, posts, sends, recvs, wire)
