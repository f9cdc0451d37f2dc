"""Execute a :class:`~repro.schedule.schedule.Schedule` on a simulated machine.

Every rank runs the same launch sequence (SPMD), interpreted by a CPU
process exactly as the paper describes the programming model (§III-A): "a
CPU control thread offloads the bulk of the compute to asynchronous GPU
operations, coordinated with asynchronous MPI communication, and
interspersed with a small amount of synchronous CPU operations".

Per-op CPU behaviour:

=====================  ==================================================
Op kind                CPU behaviour
=====================  ==================================================
CPU                    advance by the op duration; perform its MPI action
                       (post / wait) if any
GPU (bound)            pay launch overhead, enqueue kernel on its stream
cudaEventRecord        pay call overhead, enqueue record on its stream
cudaEventSynchronize   pay call overhead, block until the event fires
cudaStreamWaitEvent    pay call overhead, enqueue wait on its stream
=====================  ==================================================

After the sequence the rank performs a device synchronize (the artificial
``end`` vertex) and waits for any still-pending MPI requests it posted.
The run's elapsed time is the maximum completion time across ranks.

Two paths compute the same results:

* **The event loop** (:meth:`ScheduleExecutor.run_event_loop`) runs one
  CPU process per rank on :mod:`repro.sim.engine`; a process yields each
  time advance as a plain ``float`` delay, one queue entry and no event.
  It is the reference every other path is checked against, and the only
  one that records a timeline, runs numeric payloads, or raises on a
  degenerate schedule.
* **The direct path** evaluates a sample in one pass per rank.  Within a
  rank, CPU ops, GPU streams and CUDA events are the IEEE-exact
  ``(+, max)`` recurrences batch replay uses (see :mod:`repro.sim.batch`).
  Ranks meet only at message posts, which it takes in global time order
  from a heap over each rank's next post; a rank whose wait has
  unresolved requests pauses until a later post resolves them, and
  posts no earlier than they complete.  Posts that share an instant
  interact in two ways only.  Each ``(src, dst, tag)`` key has one
  sending and one receiving rank, each posting in program order, so FIFO
  matching, a pair's ready time and an eager receive's completion do not
  depend on which post comes first.  A NIC channel (one rank's send or
  receive side, under ``serialize_nic``) is granted at the instant of
  the post that triggers it (an eager send's own post, the later post
  of a rendezvous pair), and grants on distinct channels commute; only
  the event loop's ``seq`` orders two grants of one channel at one
  instant.  Such a grant, a wait before its post, unmatched requests, a
  deadlock or a schedule :func:`schedule_defect` declines hands the
  sample to the event loop.

:meth:`ScheduleExecutor.run` counts each sample under the path that ran
it (:attr:`ScheduleExecutor.path_counts`): ``direct``, or
``event_loop.<reason>`` with the reason ``trace``, ``payload``, a
:func:`schedule_defect` kind, ``channel``, ``wait-before-post``,
``deadlock`` or ``unmatched``.

Jittered durations (CPU ops, launches, kernels, message posts, wire
times) come from the sample's :class:`~repro.sim.durations.SampleDurations`
table, built once per sample index on first use and shared by every
schedule this executor runs — the same table batch replay reads.  An op
whose vertex is not the program's own keeps the per-op path: a sync op
the design space inserted pays its unjittered call overhead, and a
same-name vertex that differs is jittered per op by the same functions,
so degenerate schedules keep their results and errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.dag.program import Message, Program
from repro.dag.vertex import Action, ActionKind, OpKind, Vertex
from repro.errors import ScheduleError, SimulationError
from repro.platform.costs import CostModel
from repro.platform.machine import MachineConfig, Protocol
from repro.schedule.schedule import BoundOp, Schedule
from repro.sim.durations import (
    SampleDurations,
    launch_time,
    op_time,
    post_costs,
    sample_durations,
)
from repro.sim.engine import Environment
from repro.sim.network import MpiRequest, Network
from repro.sim.semantics import PayloadContext
from repro.sim.stream import StreamItem, StreamSet
from repro.sim.trace import Trace

# Enum members as module globals: ``OpKind.CPU`` costs a class-attribute
# lookup on every op of every rank.
_CPU, _GPU = OpKind.CPU, OpKind.GPU
_EVENT_RECORD, _EVENT_SYNC, _STREAM_WAIT = (
    OpKind.EVENT_RECORD, OpKind.EVENT_SYNC, OpKind.STREAM_WAIT
)
_POST_SENDS, _POST_RECVS = ActionKind.POST_SENDS, ActionKind.POST_RECVS
_WAIT_SENDS, _WAIT_RECVS = ActionKind.WAIT_SENDS, ActionKind.WAIT_RECVS
#: The op kinds a forward pass evaluates: all but START and END.
_FORWARD_KINDS = frozenset((_CPU, _GPU, _EVENT_RECORD, _EVENT_SYNC, _STREAM_WAIT))

#: One op of a schedule plan: its kind, its position in the duration rows
#: (-1 for a vertex that is not the program's own), and the op.
Step = Tuple[OpKind, int, BoundOp]

#: One op of a direct-path plan: kind, position in the duration rows (CPU
#: and GPU ops), sync-call overhead (sync ops), stream, event, action, name.
DirectStep = Tuple[
    OpKind, int, float, Optional[int], Optional[str], Optional[Action], str
]

#: One message post of a sample: its matching key ``(src, dst, tag)``,
#: wire time, whether it goes eager, and whether it is a send.
Post = Tuple[Tuple[int, int, int], float, bool, bool]

#: Direct-path request: ``[completion time or None, owner rank, end of an
#: eager send's injection or None]``.
Request = list


def schedule_defect(
    schedule: Schedule, vertices: Mapping[str, Vertex], n_streams: int
) -> Optional[str]:
    """Why ``schedule`` cannot be evaluated in one forward pass, or ``None``.

    ``vertices`` maps the names of the program's schedulable vertices to
    them.  A forward pass (batch replay, the executor's direct path) needs
    program-owned CPU and GPU ops, streams in ``0..n_streams-1``, each
    CUDA event recorded once and before any use, and no START/END vertex.
    The schedules this declines are the ones the event loop raises on,
    deadlocks on or prices op by op, so leaving them to it keeps its
    results and errors.  A reason's kind (before ``:``) names its
    ``sim.reference.<kind>`` and ``sim.path.event_loop.<kind>`` counters.
    """
    recorded = set()
    for op in schedule.ops:
        v = op.vertex
        kind = v.kind
        if kind not in _FORWARD_KINDS:
            return f"op-kind:{kind.value}"
        known = vertices.get(v.name)
        if known is not None:
            if known is not v and known != v:
                return f"op-mismatch:{v.name}"
        elif kind is _CPU or kind is _GPU:
            # Sync ops are inserted by the design space and priced from
            # machine scalars alone; program ops must be the program's.
            return f"unknown-op:{v.name}"
        if op.stream is not None and not 0 <= op.stream < n_streams:
            return f"stream-out-of-range:{op.stream}"
        if kind is _EVENT_RECORD:
            if op.event in recorded:
                return f"event-rerecord:{op.event}"
            recorded.add(op.event)
        elif (kind is _EVENT_SYNC or kind is _STREAM_WAIT) and (
            op.event not in recorded
        ):
            return f"event-before-record:{op.event}"
    return None


@dataclass
class SimResult:
    """Outcome of simulating one schedule once."""

    #: Completion time of the slowest rank (the program's elapsed time).
    elapsed: float
    #: Completion time per rank.
    per_rank: List[float]
    #: Timeline (populated when tracing was requested).
    trace: Optional[Trace] = None
    #: Numeric buffers (populated when a payload context was supplied).
    payload: Optional[PayloadContext] = None
    #: Number of point-to-point transfers performed.
    n_transfers: int = 0

    @property
    def hazard_free(self) -> bool:
        return self.payload is None or self.payload.hazards.clean


#: Optional factory initializing per-rank buffers before execution.
PayloadInit = Callable[[PayloadContext], None]


class ScheduleExecutor:
    """Runs schedules of one program on one machine configuration."""

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        *,
        collect_trace: bool = False,
        payload_init: Optional[PayloadInit] = None,
        strict_hazards: bool = False,
    ) -> None:
        if program.n_ranks != machine.n_ranks:
            raise SimulationError(
                f"program targets {program.n_ranks} ranks but machine has "
                f"{machine.n_ranks}"
            )
        self.program = program
        self.machine = machine
        self.cost = CostModel(machine)
        self.collect_trace = collect_trace
        self.payload_init = payload_init
        self.strict_hazards = strict_hazards
        self._tables: Dict[Optional[int], SampleDurations] = {}
        # Direct path: the program's vertices and their rows by name, each
        # sample's posts (keyed like the tables), and the last schedule's
        # plan, which a measurement reuses for every sample.
        vertices = program.schedulable_vertices()
        self._vertices = {v.name: v for v in vertices}
        self._index = {v.name: j for j, v in enumerate(vertices)}
        self._posts: Dict[Optional[int], List[Dict[str, Tuple]]] = {}
        self._last_plan: Tuple[Optional[Schedule], Union[List[DirectStep], str]] = (
            None, []
        )
        #: Samples :meth:`run` simulated since :meth:`take_path_counts`,
        #: by path: ``direct`` or ``event_loop.<reason>``.
        self.path_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def durations(self, sample: int) -> SampleDurations:
        """The jittered durations of ``sample``, evaluated on first use
        (without noise every sample shares one table)."""
        key = sample if self.machine.noise.enabled else None
        table = self._tables.get(key)
        if table is None:
            table = sample_durations(self.program, self.machine, sample)
            self._tables[key] = table
        return table

    def run(self, schedule: Schedule, sample: int = 0) -> SimResult:
        """Simulate one invocation of ``schedule``; deterministic in
        ``(schedule, sample, machine.noise.seed)``.

        An untraced run without payloads takes the direct path unless it
        defers to the event loop; both give the same results and errors.
        The sample counts in :attr:`path_counts` under the path that ran
        it.
        """
        counts = self.path_counts
        if self.collect_trace:
            path = "event_loop.trace"
        elif self.payload_init is not None:
            path = "event_loop.payload"
        else:
            result = self._run_direct(schedule, sample)
            if type(result) is SimResult:
                counts["direct"] = counts.get("direct", 0) + 1
                return result
            path = f"event_loop.{result}"
        counts[path] = counts.get(path, 0) + 1
        return self.run_event_loop(schedule, sample)

    def take_path_counts(self) -> Dict[str, int]:
        """Return :attr:`path_counts` and restart them from zero."""
        counts, self.path_counts = self.path_counts, {}
        return counts

    def run_event_loop(self, schedule: Schedule, sample: int = 0) -> SimResult:
        """:meth:`run` on the discrete-event engine, the reference path."""
        table = self.durations(sample)
        # What every rank would otherwise look up per op, looked up once.
        plan: List[Step] = [
            (op.vertex.kind, table.position(op.vertex), op) for op in schedule.ops
        ]
        env = Environment()
        trace = Trace() if self.collect_trace else None
        payload: Optional[PayloadContext] = None
        if self.payload_init is not None:
            payload = PayloadContext(
                self.program.n_ranks, strict_hazards=self.strict_hazards
            )
            self.payload_init(payload)

        def on_transfer(msg: Message, begin: float, end: float) -> None:
            if trace is not None:
                trace.add(msg.src, "net", f"xfer->{msg.dst}", begin, end)
            if payload is not None:
                if msg.hazard_buf:
                    payload.hazards.check_read(
                        msg.src,
                        f"transfer:{msg.src}->{msg.dst}",
                        msg.hazard_buf,
                        begin,
                    )
                if msg.src_buf and msg.dst_buf:
                    payload.transfer(msg.src, msg.dst, msg.src_buf, msg.dst_buf)
                    payload.hazards.mark_ready(msg.dst, msg.dst_buf, end)

        hooked = trace is not None or payload is not None
        net = Network(
            env,
            self.machine.net,
            table.wire,
            on_transfer=on_transfer if hooked else None,
        )
        stream_sets = [
            StreamSet(env, rank, self.machine.n_streams)
            for rank in range(self.machine.n_ranks)
        ]
        finish_at: List[float] = [0.0] * self.machine.n_ranks
        for rank in range(self.machine.n_ranks):
            env.process(
                self._cpu_process(
                    env, rank, plan, sample, table, net, stream_sets[rank],
                    trace, payload, finish_at,
                ),
                name=f"rank{rank}.cpu",
            )
        env.run()
        net.assert_drained()
        elapsed = max(finish_at)
        return SimResult(
            elapsed=elapsed,
            per_rank=list(finish_at),
            trace=trace,
            payload=payload,
            n_transfers=net.n_transfers,
        )

    # ------------------------------------------------------------------
    def _run_direct(self, schedule: Schedule, sample: int) -> Union[SimResult, str]:
        """:meth:`run` in one pass per rank, or why the event loop must
        decide: the :func:`schedule_defect` kind of a declined schedule,
        ``channel`` (a NIC channel granted twice at one instant),
        ``wait-before-post``, ``deadlock`` or ``unmatched``."""
        plan = self._direct_plan(schedule)
        if type(plan) is str:
            return plan
        table = self.durations(sample)
        posts = self._post_table(sample, table)
        n_ranks = self.machine.n_ranks
        walks = [
            self._walk(rank, plan, table, posts[rank]) for rank in range(n_ranks)
        ]
        finish = [0.0] * n_ranks
        # The unresolved requests each paused rank waits on.
        paused: List[Optional[List[Request]]] = [None] * n_ranks
        # ``(time, rank, post)`` of each rank's next message post.
        heap: List[Tuple[float, int, Post]] = []

        def resume(rank: int, value: Optional[Request]) -> bool:
            """Run ``rank`` to its next post, pause or end; False when it
            found a wait before its post."""
            try:
                out = walks[rank].send(value)
            except StopIteration as stop:
                finish[rank] = stop.value
                return True
            if type(out) is tuple:
                heappush(heap, out)
            elif out is None:
                return False
            else:
                paused[rank] = out
            return True

        for rank in range(n_ranks):
            if not resume(rank, None):
                return "wait-before-post"
        serialize = self.machine.net.serialize_nic
        send_free = [0.0] * n_ranks
        recv_free = [0.0] * n_ranks
        # The instant of each channel's last grant.  Grants come in time
        # order, so a channel granted at ``now`` already was when this
        # equals ``now``.
        send_granted: List[Optional[float]] = [None] * n_ranks
        recv_granted: List[Optional[float]] = [None] * n_ranks
        # Unmatched sends and receives by key, indexed by whether a post
        # sends: a send looks for its receive at ``unmatched[True]``.
        unmatched: Tuple[Dict[tuple, Deque[Request]], ...] = ({}, {})

        def occupy(
            key: Tuple[int, int, int], now: float, wire: float
        ) -> Optional[float]:
            """End of a transfer granted at ``now``
            (Network._occupy_channels), or ``None`` when a channel it needs
            was already granted at ``now``: grants on distinct channels
            commute, but only the event loop's seq orders those two."""
            if not serialize:
                return now + wire
            src, dst = key[0], key[1]
            if send_granted[src] == now or recv_granted[dst] == now:
                return None
            send_granted[src] = recv_granted[dst] = ready = now
            if send_free[src] > ready:
                ready = send_free[src]
            if recv_free[dst] > ready:
                ready = recv_free[dst]
            end = send_free[src] = recv_free[dst] = ready + wire
            return end

        n_transfers = 0
        while heap:
            now, rank, (key, wire, eager, sending) = heappop(heap)
            req: Request = [None, rank, None]
            if sending and eager:
                # Buffered injection at post time (Network._inject_eager).
                end = req[2] = occupy(key, now, wire)
                if end is None:
                    return "channel"
                req[0] = end if end > now else now
            peers = unmatched[sending].get(key)
            other = peers.popleft() if peers else None
            if other is None:
                unmatched[not sending].setdefault(key, deque()).append(req)
            else:
                # Network._complete_pair, with ``now`` the later post.
                n_transfers += 1
                send, recv = (req, other) if sending else (other, req)
                if eager:
                    end = send[2]
                    recv[0] = end if end > now else now
                else:
                    end = occupy(key, now, wire)
                    if end is None:
                        return "channel"
                    send[0] = recv[0] = end if end > now else now
            if not resume(rank, req):
                return "wait-before-post"
            if other is not None:
                owner = other[1]
                waits = paused[owner]
                if waits is not None and all(r[0] is not None for r in waits):
                    paused[owner] = None
                    if not resume(owner, None):
                        return "wait-before-post"
        if any(w is not None for w in paused):
            return "deadlock"
        if any(queue for side in unmatched for queue in side.values()):
            return "unmatched"
        return SimResult(
            elapsed=max(finish), per_rank=finish, n_transfers=n_transfers
        )

    def _walk(
        self,
        rank: int,
        plan: List[DirectStep],
        table: SampleDurations,
        posts: Dict[str, Tuple[Tuple[float, Post], ...]],
    ):
        """``rank``'s pass over ``plan``, as a generator.  It yields
        ``(time, rank, post)`` at each message post, and is sent the
        post's request; the list of unresolved requests at a wait that
        must pause, and is sent ``None`` once they are resolved; ``None``
        at a wait before its post.  It returns the rank's finish time."""
        adv = table.adv[rank]
        kdur = table.kdur[rank]
        expected = (table.recvs[rank], table.sends[rank])
        wait_dt = self.cost.wait_overhead()
        clock = [0.0] * self.machine.n_streams
        # Fire time of each CUDA event.
        fired: Dict[str, float] = {}
        requests: Dict[Tuple[str, bool], List[Request]] = {}
        t = 0.0
        for kind, j, dur, s, event, action, name in plan:
            if kind is _CPU:
                d = adv[j]
                if d > 0:
                    t += d
                if action is None:
                    continue
                a = action.kind
                if a is _POST_SENDS or a is _POST_RECVS:
                    reqs = requests.setdefault((action.group, a is _POST_SENDS), [])
                    for dt, post in posts[name]:
                        if dt > 0:
                            t += dt
                        reqs.append((yield t, rank, post))
                elif a is _WAIT_SENDS or a is _WAIT_RECVS:
                    sending = a is _WAIT_SENDS
                    reqs = requests.get((action.group, sending))
                    if not reqs and expected[sending][action.group]:
                        yield None  # a wait before its post
                    if wait_dt > 0:
                        t += wait_dt
                    if reqs:
                        waits = [r for r in reqs if r[0] is None]
                        if waits:
                            yield waits
                        for r in reqs:
                            if r[0] > t:
                                t = r[0]
            elif kind is _GPU:
                d = adv[j]
                if d > 0:
                    t += d
                c = clock[s]
                if t > c:
                    c = t
                d = kdur[j]
                clock[s] = c + d if d > 0 else c
            else:
                if dur > 0:
                    t += dur
                if kind is _EVENT_RECORD:
                    c = clock[s]
                    if t > c:
                        c = clock[s] = t
                    fired[event] = c
                elif kind is _EVENT_SYNC:
                    at = fired[event]
                    if at > t:
                        t = at
                else:  # stream wait
                    at = fired[event]
                    c = clock[s]
                    if t > c:
                        c = t
                    if at > c:
                        c = at
                    clock[s] = c
        # Device synchronize, then every request still in flight.
        for c in clock:
            if c > t:
                t = c
        waits = [r for reqs in requests.values() for r in reqs if r[0] is None]
        if waits:
            yield waits
        for reqs in requests.values():
            for r in reqs:
                if r[0] > t:
                    t = r[0]
        return t

    def _direct_plan(self, schedule: Schedule) -> Union[List[DirectStep], str]:
        """``schedule``'s direct-path plan, or the kind of the reason
        :func:`schedule_defect` declines it; the last one is kept."""
        last, plan = self._last_plan
        if last is schedule:
            return plan
        defect = schedule_defect(schedule, self._vertices, self.machine.n_streams)
        if defect is not None:
            plan = defect.split(":", 1)[0]
        else:
            plan = []
            for op in schedule.ops:
                v = op.vertex
                if v.kind is _CPU or v.kind is _GPU:
                    j, dur = self._index[v.name], 0.0
                else:
                    # A sync call's overhead is unjittered and the same on
                    # every rank (the table's ``adv`` holds it likewise).
                    j, dur = -1, self.cost.base_duration(self.program, v, 0)
                plan.append((v.kind, j, dur, op.stream, op.event, v.action, v.name))
        self._last_plan = (schedule, plan)
        return plan

    def _post_table(
        self, sample: int, table: SampleDurations
    ) -> List[Dict[str, Tuple[Tuple[float, Post], ...]]]:
        """Per rank and post op, ``(post cost, post)`` of each message of
        ``sample``, built on first use like the duration tables."""
        key = sample if self.machine.noise.enabled else None
        posts = self._posts.get(key)
        if posts is None:
            net = self.machine.net
            all_eager = net.protocol is Protocol.EAGER
            posts = []
            for rank in range(self.machine.n_ranks):
                own = {}
                for name, pairs in table.posts[rank].items():
                    action = table.vertices[table.index[name]].action
                    sending = action.kind is _POST_SENDS
                    own[name] = tuple(
                        (
                            dt,
                            (
                                (m.src, m.dst, m.tag),
                                table.wire[m],
                                all_eager or net.is_eager(m.nbytes),
                                sending,
                            ),
                        )
                        for m, dt in pairs
                    )
                posts.append(own)
            self._posts[key] = posts
        return posts

    # ------------------------------------------------------------------
    def _cpu_process(
        self,
        env: Environment,
        rank: int,
        plan: List[Step],
        sample: int,
        table: SampleDurations,
        net: Network,
        streams: StreamSet,
        trace: Optional[Trace],
        payload: Optional[PayloadContext],
        finish_at: List[float],
    ):
        program = self.program
        cost = self.cost
        adv = table.adv[rank]
        kdurs = table.kdur[rank]
        requests: Dict[str, Dict[str, List[MpiRequest]]] = {}
        # Payload and kernel hooks exist only when a run collects them.
        run_payload = None
        if payload is not None:

            def run_payload(op: BoundOp, start: float) -> None:
                """Hazard checks + numeric callback at op completion."""
                v = op.vertex
                for buf in v.reads:
                    payload.hazards.check_read(rank, v.name, buf, start)
                fn = program.payload_fn(v)
                if fn is not None:
                    fn(payload[rank])
                for buf in v.writes:
                    payload.hazards.mark_ready(rank, buf, env.now)

        hooked = trace is not None or payload is not None

        for kind, j, op in plan:
            v = op.vertex
            start = env.now
            if kind is _CPU:
                dur = adv[j] if j >= 0 else op_time(cost, program, v, rank, sample)
                if dur > 0:
                    yield dur
                if v.action is not None:
                    yield from self._do_action(
                        env, rank, op, sample, table if j >= 0 else None,
                        net, requests, payload,
                    )
                if run_payload is not None:
                    run_payload(op, start)
            elif kind is _GPU:
                launch = adv[j] if j >= 0 else launch_time(cost, v, rank, sample)
                if launch > 0:
                    yield launch
                kdur = kdurs[j] if j >= 0 else op_time(cost, program, v, rank, sample)
                kernel_done = None
                if hooked:

                    def kernel_done(kstart: float, op=op) -> None:
                        if trace is not None:
                            trace.add(
                                rank, f"stream{op.stream}", op.name, kstart, env.now
                            )
                        if run_payload is not None:
                            run_payload(op, kstart)

                streams.stream(op.stream).enqueue(
                    StreamItem("kernel", v.name, kdur, None, kernel_done)
                )
            elif kind is _EVENT_RECORD:
                dur = adv[j] if j >= 0 else cost.base_duration(program, v, rank)
                if dur > 0:
                    yield dur
                evt = streams.cuda_event(op.event)
                streams.stream(op.stream).enqueue(
                    StreamItem("record", v.name, 0.0, evt)
                )
            elif kind is _EVENT_SYNC:
                dur = adv[j] if j >= 0 else cost.base_duration(program, v, rank)
                if dur > 0:
                    yield dur
                evt = streams.cuda_event(op.event)
                if not evt.fired:
                    yield evt.wait_event
            elif kind is _STREAM_WAIT:
                dur = adv[j] if j >= 0 else cost.base_duration(program, v, rank)
                if dur > 0:
                    yield dur
                evt = streams.cuda_event(op.event)
                streams.stream(op.stream).enqueue(
                    StreamItem("wait", v.name, 0.0, evt)
                )
            elif kind in (OpKind.START, OpKind.END):
                raise ScheduleError(
                    f"artificial vertex {v.name!r} must not appear in a "
                    f"schedule"
                )
            else:  # pragma: no cover - exhaustive above
                raise SimulationError(f"unhandled op kind {kind}")
            if trace is not None and env.now > start:
                name = f"launch:{v.name}" if kind is _GPU else v.name
                trace.add(rank, "cpu", name, start, env.now)

        # Artificial `end`: device synchronize + complete leftover requests.
        sync_start = env.now
        yield streams.device_synchronize_event()
        pending = [
            req.done
            for groups in requests.values()
            for reqs in groups.values()
            for req in reqs
            if not req.is_complete
        ]
        if pending:
            yield env.all_of(pending, label=("rank{}.finalize", rank))
        if trace is not None and env.now > sync_start:
            trace.add(rank, "cpu", "end", sync_start, env.now)
        finish_at[rank] = env.now

    # ------------------------------------------------------------------
    def _do_action(
        self,
        env: Environment,
        rank: int,
        op: BoundOp,
        sample: int,
        table: Optional[SampleDurations],
        net: Network,
        requests: Dict[str, Dict[str, List[MpiRequest]]],
        payload: Optional[PayloadContext],
    ):
        """Perform ``op``'s MPI action; ``table`` is ``None`` when ``op``
        is not the program's own vertex, which prices it per message."""
        v = op.vertex
        action = v.action
        assert action is not None
        group = requests.get(action.group)
        if group is None:
            group = requests[action.group] = {"sends": [], "recvs": []}
        if table is not None:
            sends = table.sends[rank][action.group]
            recvs = table.recvs[rank][action.group]
        else:
            plan = self.program.comm_plan(action.group)
            sends = plan.sends_from(rank)
            recvs = plan.recvs_to(rank)
        if action.kind in (_POST_SENDS, _POST_RECVS):
            sending = action.kind is _POST_SENDS
            kind = "sends" if sending else "recvs"
            post = net.post_send if sending else net.post_recv
            if table is not None:
                posts = table.posts[rank][v.name]
            else:
                posts = post_costs(
                    self.cost, v, rank, sends if sending else recvs, sample
                )
            for msg, dt in posts:
                if dt > 0:
                    yield dt
                group[kind].append(post(msg))
        elif action.kind in (_WAIT_SENDS, _WAIT_RECVS):
            kind = "sends" if action.kind is _WAIT_SENDS else "recvs"
            expected = sends if kind == "sends" else recvs
            if expected and not group[kind]:
                raise ScheduleError(
                    f"rank {rank}: {v.name!r} waits on comm group "
                    f"{action.group!r} before its messages were posted"
                )
            dt = self.cost.wait_overhead()
            if dt > 0:
                yield dt
            outstanding = [r.done for r in group[kind] if not r.done.triggered]
            if outstanding:
                yield env.all_of(outstanding, label=("rank{}.{}", rank, v.name))
        elif action.kind is ActionKind.NOOP:
            return
        else:  # pragma: no cover - exhaustive above
            raise SimulationError(f"unhandled action {action.kind}")
