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
A CPU process yields each time advance as a plain ``float`` delay, one
queue entry and no event (see :mod:`repro.sim.engine`).

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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dag.program import Message, Program
from repro.dag.vertex import ActionKind, OpKind
from repro.errors import ScheduleError, SimulationError
from repro.platform.costs import CostModel
from repro.platform.machine import MachineConfig
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

#: One op of a schedule plan: its kind, its position in the duration rows
#: (-1 for a vertex that is not the program's own), and the op.
Step = Tuple[OpKind, int, BoundOp]


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
        ``(schedule, sample, machine.noise.seed)``."""
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
            self.machine.noise,
            sample=sample,
            on_transfer=on_transfer if hooked else None,
            wire_times=table.wire,
        )
        stream_sets = [
            StreamSet(
                env,
                rank,
                self.machine.n_streams,
                n_gpus=self.machine.n_gpus,
                cross_gpu_extra_s=self.machine.gpu.cross_gpu_sync_extra_s,
            )
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
