"""Oracle test: the reference engine on its callback queue against the
generator-driven, event-only engine it replaced.

The engine pieces below are the implementation the current engine
replaced, kept as they were (without docstrings and type hints, trimmed to what the
executor uses): every queue entry was an event (a timeout for each CPU
delay and kernel, a ``fire_at`` event for each network completion), a
GPU stream ran as a generator process (a start kick, a wakeup event per
idle spell), processes resumed through a new lambda per ``yield``,
composites through closures, ``run`` popped before checking
``until``, every label was formatted eagerly, and the executor built its
trace and payload hooks for every op whether or not a run collected
them, and a device synchronize put a drain marker on every stream.
``reference_run`` drives them, on stream sets made of
:class:`GeneratorStream` streams.  The reference has its own
environment, queue, processes, timeouts, composites, network completions
and device synchronize; it shares with the live engine only ``Event``,
``CudaEvent``, ``StreamItem``, message matching and NIC channels.

Both engines must push every queue entry that does something at the same
point, so they must fire the same entries in the same order: each run
logs its queue pops, and the logs must match, leaving out only the
reference streams' start kicks.  The live engine's bare callbacks are
named as the reference's events were labelled (:func:`entry_name`): a
process's start ``<process>.start`` and its delay ``timeout+<delay>``, a
kernel's end the kernel's name, and a network completion
``eager_injected``, ``xfer_send_done`` or ``xfer_recv_done`` with its
``src->dst``.  Results are compared exactly as well: per-rank and
elapsed times, transfer counts, every trace record in order
(``collect_trace=True``) and, on spmv, every payload buffer and hazard.
The cases cover the paper's MPI programs and two synthetic families,
exact ties (σ = 0) and noise (σ = 0.05), eager and rendezvous messages,
and NIC serialization on and off.
"""

from __future__ import annotations

import heapq
import re
import sys
from collections import deque
from dataclasses import replace
from functools import lru_cache, partial
from itertools import islice
from typing import Any, Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.engine as engine_module
from repro.apps.spmv import SpmvCase, build_spmv_program
from repro.dag.program import Message
from repro.dag.vertex import ActionKind, OpKind
from repro.errors import DeadlockError, ScheduleError, SimulationError
from repro.platform import perlmutter_like
from repro.platform.machine import Protocol
from repro.schedule.space import DesignSpace
from repro.sim.durations import launch_time, op_time, post_costs
from repro.sim.engine import Event, Process
from repro.sim.executor import ScheduleExecutor, SimResult
from repro.sim.network import MpiRequest, Network
from repro.sim.semantics import PayloadContext
from repro.sim.stream import CudaEvent, Stream, StreamItem, StreamSet
from repro.sim.trace import Trace
from repro.workloads import WorkloadSpec, build_workload


# -- reference: the generator-driven engine --------------------------------
class RefTimeout(Event):
    __slots__ = ()

    def __init__(self, env, delay, label=""):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(env, label or f"timeout+{delay:g}")
        env._schedule(env.now + delay, self)


class RefComposite(Event):
    __slots__ = ("_pending",)

    def __init__(self, env, events, label):
        super().__init__(env, label)
        events = list(events)
        self._pending = 0
        if not events:
            env._schedule(env.now, self)
            return
        self._arm(events)


class RefAllOf(RefComposite):
    __slots__ = ()

    def _arm(self, events):
        self._pending = len(events)

        def on_fire(_evt):
            self._pending -= 1
            if self._pending == 0 and not self.triggered:
                self.succeed()

        for e in events:
            e.add_callback(on_fire)


class RefProcess:
    __slots__ = ("env", "name", "_gen", "done", "_waiting_on", "daemon")

    def __init__(self, env, gen, name="process", daemon=False):
        self.env = env
        self.name = name
        self._gen = gen
        self.daemon = daemon
        self.done = Event(env, label=f"{name}.done")
        self._waiting_on = None
        env._live_processes.append(self)
        kick = Event(env, label=f"{name}.start")
        env._schedule(env.now, kick)
        kick.add_callback(lambda _e: self._resume(None))

    @property
    def waiting_on(self):
        return self._waiting_on

    def _resume(self, value):
        self._waiting_on = None
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.env._live_processes.remove(self)
            self.done.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances"
            )
        self._waiting_on = target
        target.add_callback(lambda evt: self._resume(evt.value))


class RefEnvironment:
    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self._live_processes = []

    def _schedule(self, at, event):
        if at < self.now:
            raise SimulationError(
                f"cannot schedule event at {at} before now={self.now}"
            )
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, event))

    def event(self, label=""):
        return Event(self, label)

    def timeout(self, delay, label=""):
        return RefTimeout(self, delay, label)

    def all_of(self, events, label="all"):
        return RefAllOf(self, events, label)

    def process(self, gen, name="process", daemon=False):
        return RefProcess(self, gen, name, daemon)

    def fire_at(self, at, label=""):
        e = Event(self, label or f"at{at:g}")
        self._schedule(at, e)
        return e

    def run(self, until=None):
        while self._queue:
            at, _seq, event = heapq.heappop(self._queue)
            if until is not None and at > until:
                self.now = until
                return self.now
            self.now = at
            if not event.triggered:
                event.succeed(event.value)
        blocked = [p for p in self._live_processes if not p.daemon]
        if blocked:
            waiters = ", ".join(
                f"{p.name} waiting on {p.waiting_on!r}" for p in blocked
            )
            raise DeadlockError(
                f"simulation deadlock at t={self.now:g}: {waiters}"
            )
        return self.now


class RefNetwork(Network):
    """The network with its completions as ``fire_at`` events; matching
    and channel occupation are the live network's."""

    def _inject_eager(self, send):
        msg = send.message
        begin, end = self._occupy_channels(msg, send.posted_at, self._wire_times[msg])
        send.transfer_interval = (begin, end)

        def complete_send(_evt, req=send, at=end):
            req.completed_at = at
            req.done.succeed()

        self.env.fire_at(
            max(end, self.env.now), f"eager_injected:{msg.src}->{msg.dst}"
        ).add_callback(complete_send)

    def _complete_pair(self, send, recv):
        msg = send.message
        self.n_transfers += 1
        if self._protocol_for(msg) is Protocol.EAGER:
            begin, end = send.transfer_interval
            recv_done_at = max(end, recv.posted_at, self.env.now)
        else:
            ready = max(send.posted_at, recv.posted_at, self.env.now)
            begin, end = self._occupy_channels(msg, ready, self._wire_times[msg])
            send_done_at = max(end, self.env.now)
            recv_done_at = send_done_at

            def complete_send(_evt, req=send, at=send_done_at):
                req.completed_at = at
                req.done.succeed()

            self.env.fire_at(
                send_done_at, f"xfer_send_done:{msg.src}->{msg.dst}"
            ).add_callback(complete_send)

        def complete_recv(_evt, req=recv, at=recv_done_at, b=begin):
            req.completed_at = at
            if self.on_transfer is not None:
                self.on_transfer(req.message, b, at)
            req.done.succeed()

        self.env.fire_at(
            recv_done_at, f"xfer_recv_done:{msg.src}->{msg.dst}"
        ).add_callback(complete_recv)


class GeneratorStream:
    """FIFO GPU stream as a simulation process."""

    def __init__(self, env, rank, stream_id):
        self.env = env
        self.rank = rank
        self.stream_id = stream_id
        self.name = f"rank{rank}.stream{stream_id}"
        self._queue = deque()
        self._wakeup = None
        self._idle = True
        self._drained = Event(env, label=f"{self.name}.init-drained")
        self._drained.succeed()
        self.busy_until = 0.0
        env.process(self._run(), name=self.name, daemon=True)

    def enqueue(self, item):
        self._queue.append(item)
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.triggered:
            self._wakeup = None
            wakeup.succeed()

    def drained_event(self):
        marker = CudaEvent(self.env, f"{self.name}.drain")
        self.enqueue(
            StreamItem(kind="record", name=f"{self.name}.drain", event=marker)
        )
        return marker.wait_event

    def _run(self):
        while True:
            if not self._queue:
                self._wakeup = Event(self.env, label=f"{self.name}.wakeup")
                yield self._wakeup
                continue
            item = self._queue.popleft()
            if item.kind == "kernel":
                start = self.env.now
                if item.duration > 0:
                    yield self.env.timeout(item.duration, label=item.name)
                self.busy_until = self.env.now
                if item.on_complete is not None:
                    item.on_complete(start)
            elif item.kind == "record":
                assert item.event is not None
                item.event.fire()
                if item.on_complete is not None:
                    item.on_complete(self.env.now)
            elif item.kind == "wait":
                assert item.event is not None
                if not item.event.fired:
                    yield item.event.wait_event
                if item.on_complete is not None:
                    item.on_complete(self.env.now)
            else:
                raise SimulationError(f"unknown stream item kind {item.kind!r}")


class RefStreamSet(StreamSet):
    """The live stream set with :class:`GeneratorStream` streams, and a
    drain marker on every stream at device sync."""

    def __init__(self, env, rank, n_streams):
        super().__init__(env, rank, 0)
        self.streams = [GeneratorStream(env, rank, s) for s in range(n_streams)]

    def device_synchronize_event(self):
        return self.env.all_of(
            [s.drained_event() for s in self.streams],
            label=f"rank{self.rank}.device_sync",
        )


def reference_run(executor: ScheduleExecutor, schedule, sample: int = 0) -> SimResult:
    """``ScheduleExecutor.run`` on the reference engine."""
    self = executor
    table = self.durations(sample)
    env = RefEnvironment()
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

    net = RefNetwork(env, self.machine.net, table.wire, on_transfer=on_transfer)
    stream_sets = [
        RefStreamSet(env, rank, self.machine.n_streams)
        for rank in range(self.machine.n_ranks)
    ]
    assert all(
        isinstance(s, GeneratorStream) for ss in stream_sets for s in ss.streams
    )
    finish_at: List[float] = [0.0] * self.machine.n_ranks
    for rank in range(self.machine.n_ranks):
        env.process(
            reference_cpu_process(
                self, env, rank, schedule, sample, table, net,
                stream_sets[rank], trace, payload, finish_at,
            ),
            name=f"rank{rank}.cpu",
        )
    env.run()
    net.assert_drained()
    return SimResult(
        elapsed=max(finish_at),
        per_rank=list(finish_at),
        trace=trace,
        payload=payload,
        n_transfers=net.n_transfers,
    )


def reference_cpu_process(
    self, env, rank, schedule, sample, table, net, streams, trace, payload,
    finish_at,
):
    program = self.program
    cost = self.cost
    adv = table.adv[rank]
    kdurs = table.kdur[rank]
    requests: Dict[str, Dict[str, List[Any]]] = {}

    def record_cpu(op_name, start):
        if trace is not None and env.now > start:
            trace.add(rank, "cpu", op_name, start, env.now)

    def run_payload(op, start):
        if payload is None:
            return
        v = op.vertex
        for buf in v.reads:
            payload.hazards.check_read(rank, v.name, buf, start)
        fn = program.payload_fn(v)
        if fn is not None:
            fn(payload[rank])
        for buf in v.writes:
            payload.hazards.mark_ready(rank, buf, env.now)

    for op in schedule.ops:
        v = op.vertex
        start = env.now
        j = table.position(v)
        if v.kind is OpKind.CPU:
            dur = adv[j] if j >= 0 else op_time(cost, program, v, rank, sample)
            if dur > 0:
                yield env.timeout(dur)
            if v.action is not None:
                yield from reference_do_action(
                    self, env, rank, op, sample, table if j >= 0 else None,
                    net, requests,
                )
            run_payload(op, start)
            record_cpu(v.name, start)
        elif v.kind is OpKind.GPU:
            launch = adv[j] if j >= 0 else launch_time(cost, v, rank, sample)
            if launch > 0:
                yield env.timeout(launch)
            kdur = kdurs[j] if j >= 0 else op_time(cost, program, v, rank, sample)

            def kernel_done(kstart, op=op):
                if trace is not None:
                    trace.add(rank, f"stream{op.stream}", op.name, kstart, env.now)
                run_payload(op, kstart)

            streams.stream(op.stream).enqueue(
                StreamItem(
                    kind="kernel",
                    name=v.name,
                    duration=kdur,
                    on_complete=kernel_done,
                )
            )
            record_cpu(f"launch:{v.name}", start)
        elif v.kind is OpKind.EVENT_RECORD:
            dur = cost.base_duration(program, v, rank)
            if dur > 0:
                yield env.timeout(dur)
            evt = streams.cuda_event(op.event)
            streams.stream(op.stream).enqueue(
                StreamItem(kind="record", name=v.name, event=evt)
            )
            record_cpu(v.name, start)
        elif v.kind is OpKind.EVENT_SYNC:
            dur = cost.base_duration(program, v, rank)
            if dur > 0:
                yield env.timeout(dur)
            evt = streams.cuda_event(op.event)
            if not evt.fired:
                yield evt.wait_event
            record_cpu(v.name, start)
        elif v.kind is OpKind.STREAM_WAIT:
            dur = cost.base_duration(program, v, rank)
            if dur > 0:
                yield env.timeout(dur)
            evt = streams.cuda_event(op.event)
            streams.stream(op.stream).enqueue(
                StreamItem(kind="wait", name=v.name, event=evt)
            )
            record_cpu(v.name, start)
        elif v.kind in (OpKind.START, OpKind.END):
            raise ScheduleError(
                f"artificial vertex {v.name!r} must not appear in a schedule"
            )
        else:
            raise SimulationError(f"unhandled op kind {v.kind}")

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
        yield env.all_of(pending, label=f"rank{rank}.finalize")
    record_cpu("end", sync_start)
    finish_at[rank] = env.now


def reference_do_action(self, env, rank, op, sample, table, net, requests):
    action = op.vertex.action
    group = requests.setdefault(action.group, {"sends": [], "recvs": []})
    if table is not None:
        sends = table.sends[rank][action.group]
        recvs = table.recvs[rank][action.group]
    else:
        plan = self.program.comm_plan(action.group)
        sends = plan.sends_from(rank)
        recvs = plan.recvs_to(rank)
    if action.kind in (ActionKind.POST_SENDS, ActionKind.POST_RECVS):
        sending = action.kind is ActionKind.POST_SENDS
        kind = "sends" if sending else "recvs"
        post = net.post_send if sending else net.post_recv
        if table is not None:
            posts = table.posts[rank][op.name]
        else:
            posts = post_costs(
                self.cost, op.vertex, rank, sends if sending else recvs, sample
            )
        for msg, dt in posts:
            if dt > 0:
                yield env.timeout(dt)
            group[kind].append(post(msg))
    elif action.kind in (ActionKind.WAIT_SENDS, ActionKind.WAIT_RECVS):
        kind = "sends" if action.kind is ActionKind.WAIT_SENDS else "recvs"
        expected = sends if kind == "sends" else recvs
        if expected and not group[kind]:
            raise ScheduleError(
                f"rank {rank}: {op.name!r} waits on comm group "
                f"{action.group!r} before its messages were posted"
            )
        dt = self.cost.wait_overhead()
        if dt > 0:
            yield env.timeout(dt)
        outstanding = [r.done for r in group[kind] if not r.is_complete]
        if outstanding:
            yield env.all_of(outstanding, label=f"rank{rank}.{op.name}")
    elif action.kind is ActionKind.NOOP:
        return
    else:
        raise SimulationError(f"unhandled action {action.kind}")


# -- cases -------------------------------------------------------------------
SPMV_SCALE = 0.025
PROGRAMS = {
    "halo3d x": WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    ),
    "halo3d xy": WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "xy"},
    ),
    "tree_allreduce": WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    "layered_random": WorkloadSpec("layered_random"),
    "stencil_reduce": WorkloadSpec("stencil_reduce"),
}
NAMES = ("spmv",) + tuple(PROGRAMS)
#: Protocols as message-size thresholds: below every message, above every one.
THRESHOLD = {"rendezvous": -1.0, "eager": float("inf")}


@lru_cache(maxsize=None)
def spmv_instance():
    return build_spmv_program(SpmvCase().scaled(SPMV_SCALE))


@lru_cache(maxsize=None)
def program_and_space(name):
    if name == "spmv":
        program = spmv_instance().program
    else:
        program = build_workload(PROGRAMS[name])
    return program, DesignSpace(program, n_streams=2)


def machine_for(program, sigma, protocol, serialize_nic):
    machine = perlmutter_like(
        n_ranks=program.n_ranks, noise_sigma=sigma, noise_seed=5
    )
    net = replace(
        machine.net,
        serialize_nic=serialize_nic,
        eager_threshold_bytes=THRESHOLD[protocol],
    )
    return replace(machine, net=net)


def entry_name(callback):
    """What a live queue entry fires, named as the reference labelled the
    event it replaces; ``None`` for a scheduled event something fired
    before its time.  Read at pop time, before the callback runs."""
    if isinstance(callback, partial) and callback.func.__func__ is Network._deliver:
        callback = callback.args[0].complete
    owner = getattr(callback, "__self__", None)
    func = getattr(callback, "__func__", None)
    if func is Event._fire:
        return None if owner.triggered else owner.label
    if func is Process._resume:
        if owner.waiting_on is None:
            return f"{owner.name}.start"
        return f"timeout+{owner.waiting_on:g}"
    if func is Stream._kernel_done:
        return owner._current.name
    if func is MpiRequest.complete:
        msg = owner.message
        if owner.kind == "recv":
            what = "xfer_recv_done"
        elif owner.transfer_interval is not None:
            what = "eager_injected"
        else:
            what = "xfer_send_done"
        return f"{what}:{msg.src}->{msg.dst}"
    return f"unknown callback {callback!r}"


class FiringLog:
    """Stands in for ``heapq`` (the reference) or ``heappop`` (the live
    engine) and logs every popped queue entry: its time, and its label
    from ``name`` (``None`` if already fired)."""

    heappush = staticmethod(heapq.heappush)
    _pop = staticmethod(heapq.heappop)

    def __init__(self, name) -> None:
        self.name = name
        self.popped = []

    def heappop(self, queue):
        entry = self._pop(queue)
        self.popped.append((entry[0], self.name(entry[2])))
        return entry

    def fired(self):
        """(time, label) of every entry that fired something, in order,
        leaving out the stream start kicks only the reference has."""
        return [
            (at, label)
            for at, label in self.popped
            if label is not None and not STREAM_KICK.fullmatch(label)
        ]


def ref_entry_name(event):
    """A reference queue entry is an event: its label, or ``None`` if
    something fired it before its time."""
    return None if event.triggered else event.label


#: A generator stream's start kick; it finds the queue empty and only
#: parks the stream, so the callback-driven engine has no such entry.
STREAM_KICK = re.compile(r"rank\d+\.stream\d+\.start")


def assert_same_run(executor, schedule, sample):
    ref_log, log = FiringLog(ref_entry_name), FiringLog(entry_name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "heapq", ref_log)
        want = reference_run(executor, schedule, sample)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "heappop", log.heappop)
        # The event loop itself: the direct path pops no queue entries.
        got = executor.run_event_loop(schedule, sample)
    # The reference streams' start kicks are its first pops, before any
    # CPU process starts, so each found its queue empty.
    kicks = [
        i
        for i, (_at, label) in enumerate(ref_log.popped)
        if label is not None and STREAM_KICK.fullmatch(label)
    ]
    assert kicks == list(range(len(kicks)))
    # Same queue entries, fired in the same order at the same times.
    assert log.fired() == ref_log.fired()
    assert got.per_rank == want.per_rank
    assert got.elapsed == want.elapsed
    assert got.n_transfers == want.n_transfers
    if want.trace is not None:
        assert got.trace.records == want.trace.records
    if want.payload is not None:
        for mine, theirs in zip(got.payload.ranks, want.payload.ranks):
            assert sorted(mine.buffers) == sorted(theirs.buffers)
            for key, value in theirs.buffers.items():
                assert np.array_equal(mine.buffers[key], value)
        assert got.payload.hazards.hazards == want.payload.hazards.hazards
        assert got.payload.hazards._ready == want.payload.hazards._ready
    return got


def check_case(name, config, schedule, sample):
    """Plain, traced and (spmv) payload runs agree with the reference."""
    program, _ = program_and_space(name)
    machine = machine_for(program, *config)
    assert_same_run(ScheduleExecutor(program, machine), schedule, sample)
    traced = ScheduleExecutor(program, machine, collect_trace=True)
    assert assert_same_run(traced, schedule, sample).trace.records
    if name == "spmv":
        instance = spmv_instance()
        executor = ScheduleExecutor(
            program, machine, payload_init=instance.payload_init
        )
        result = assert_same_run(executor, schedule, sample)
        assert np.allclose(
            instance.gather_result(result.payload), instance.reference_result()
        )


CONFIGS = [
    (sigma, protocol, nic)
    for sigma in (0.0, 0.05)
    for protocol in ("eager", "rendezvous")
    for nic in (True, False)
]


@pytest.mark.parametrize("name", NAMES)
def test_fixed_schedules_match_reference(name):
    """The first enumerated schedules and seeded random ones, under every
    configuration."""
    _, space = program_and_space(name)
    rng = np.random.default_rng(3)
    schedules = list(islice(space.enumerate_schedules(), 2))
    schedules += [space.random_schedule(rng) for _ in range(2)]
    for config in CONFIGS:
        for i, schedule in enumerate(schedules):
            check_case(name, config, schedule, sample=i)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    config=st.sampled_from(CONFIGS),
    seed=st.integers(0, 2**32 - 1),
    sample=st.integers(0, 7),
)
def test_random_schedules_match_reference(name, config, seed, sample):
    _, space = program_and_space(name)
    schedule = space.random_schedule(np.random.default_rng(seed))
    check_case(name, config, schedule, sample)
