"""Oracle test: the reference engine's direct path against its event loop.

``ScheduleExecutor.run`` evaluates an untraced, payload-free sample in
one pass per rank, taking message posts in global time order
(``_run_direct``), and hands it to the event loop
(``ScheduleExecutor.run_event_loop``) when a NIC channel is granted twice
at one instant, on a wait before its post, unmatched requests, a
deadlock, or a schedule ``schedule_defect`` declines; ``_run_direct``
returns the reason, and ``run`` counts each sample under its path.  The
event loop is the oracle (``test_engine_oracle.py`` checks it against
the engine it replaced).  Checked here:

* per-rank and elapsed times and transfer counts are equal, float for
  float, on the paper's MPI programs and two synthetic families under
  every configuration of the engine oracle plus σ = 0.01, on fixed and
  Hypothesis schedules, and on Hypothesis-drawn halo3d, tree_allreduce
  and spmv instances;
* the path taken: a sample defers exactly when the event loop grants
  some channel twice at one instant (recorded by wrapping
  ``Network._occupy_channels``), which only σ = 0 with a serialized NIC
  brings about; every sample runs directly without ``serialize_nic`` or
  at σ > 0, and a program without messages never defers;
* a hand-built same-instant pair on one receive channel defers, and its
  mirror on disjoint channels runs directly; degenerate schedules defer
  with their reason and raise the event loop's exception, type and
  message, on both paths;
* ``SerialEvaluator`` adds the path counts to ``sim.path.*`` counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.dag.graph import Graph
from repro.dag.program import CommPlan, Message, Program
from repro.dag.vertex import Action, ActionKind, OpKind, Vertex, cpu_op
from repro.errors import (
    DeadlockError,
    MpiError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from repro.exec import SerialEvaluator
from repro.platform import perlmutter_like
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace
from repro.search.exhaustive import ExhaustiveSearch
from repro.sim.executor import ScheduleExecutor, SimResult
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.sim.network import Network
from repro.workloads import WorkloadSpec, build_workload
from tests.sim.test_engine_oracle import (
    CONFIGS,
    NAMES,
    machine_for,
    program_and_space,
)

#: The engine oracle's configurations, plus each of them at σ = 0.01.
ALL_CONFIGS = CONFIGS + [
    (0.01, protocol, nic) for sigma, protocol, nic in CONFIGS if sigma == 0.0
]


def posts_messages(program) -> bool:
    return any(program.comm[g].messages for g in program.comm)


@contextmanager
def event_loop_calls():
    """Every schedule ``ScheduleExecutor.run_event_loop`` simulates while
    the context is open."""
    calls = []
    real = ScheduleExecutor.run_event_loop

    def counting(self, schedule, sample=0):
        calls.append(schedule)
        return real(self, schedule, sample)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScheduleExecutor, "run_event_loop", counting)
        yield calls


def channel_tie(executor, schedule, sample) -> bool:
    """Whether the event loop grants some NIC channel (one rank's send or
    receive side) twice at one instant on this sample: the routing
    reference, recorded by wrapping ``Network._occupy_channels``."""
    grants = []
    real = Network._occupy_channels

    def recording(net, msg, ready, wire):
        if net.model.serialize_nic:
            grants.append(("send", msg.src, net.env.now))
            grants.append(("recv", msg.dst, net.env.now))
        return real(net, msg, ready, wire)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Network, "_occupy_channels", recording)
        executor.run_event_loop(schedule, sample)
    return len(set(grants)) < len(grants)


def same(got, want) -> None:
    assert got.per_rank == want.per_rank
    assert got.elapsed == want.elapsed
    assert got.n_transfers == want.n_transfers


def check(executor, schedule, sample) -> bool:
    """``run`` and, where it takes the sample, the direct path equal the
    event loop; True when the direct path took it."""
    want = executor.run_event_loop(schedule, sample)
    direct = executor._run_direct(schedule, sample)
    took = type(direct) is SimResult
    if took:
        same(direct, want)
    same(executor.run(schedule, sample), want)
    return took


def fixed_schedules(space, n_first=2, n_random=2, seed=3):
    rng = np.random.default_rng(seed)
    schedules = list(islice(space.enumerate_schedules(), n_first))
    return schedules + [space.random_schedule(rng) for _ in range(n_random)]


# -- exactness ------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_fixed_schedules_match_event_loop(name):
    program, space = program_and_space(name)
    for config in ALL_CONFIGS:
        executor = ScheduleExecutor(program, machine_for(program, *config))
        for schedule in fixed_schedules(space):
            for sample in range(3):
                check(executor, schedule, sample)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    config=st.sampled_from(ALL_CONFIGS),
    seed=st.integers(0, 2**32 - 1),
    sample=st.integers(0, 7),
)
def test_random_schedules_match_event_loop(name, config, seed, sample):
    program, space = program_and_space(name)
    schedule = space.random_schedule(np.random.default_rng(seed))
    executor = ScheduleExecutor(program, machine_for(program, *config))
    took = check(executor, schedule, sample)
    sigma, _, nic = config
    if sigma > 0 or not nic:
        assert took


#: Random small MPI programs: halo3d process grids and exchange axes,
#: tree_allreduce rounds and message sizes (eager and rendezvous under
#: the preset threshold), spmv scales and rank counts.
FAMILIES = st.one_of(
    st.builds(
        lambda px, py, axes: WorkloadSpec(
            "halo3d",
            {"nx": 12, "ny": 12, "nz": 4, "px": px, "py": py, "pz": 1, "axes": axes},
        ),
        st.integers(1, 3),
        st.integers(1, 2),
        st.sampled_from(["x", "y", "xy"]),
    ),
    st.builds(
        lambda rounds, elems: WorkloadSpec(
            "tree_allreduce", {"rounds": rounds, "elems": elems}
        ),
        st.integers(1, 2),
        st.sampled_from([16, 1024, 1025, 65536]),
    ),
    st.builds(
        lambda scale, n_ranks: WorkloadSpec(
            "spmv", {"scale": scale, "n_ranks": n_ranks}
        ),
        st.sampled_from([0.005, 0.01, 0.025]),
        st.integers(2, 4),
    ),
)


@lru_cache(maxsize=None)
def family_space(spec):
    program = build_workload(spec)
    return program, DesignSpace(program, n_streams=2)


def preset_or(program, sigma, protocol, nic):
    """``machine_for``, or the preset's own eager threshold (``"preset"``),
    which mixes eager and rendezvous messages in one program."""
    if protocol != "preset":
        return machine_for(program, sigma, protocol, nic)
    machine = perlmutter_like(
        n_ranks=program.n_ranks, noise_sigma=sigma, noise_seed=5
    )
    net = replace(machine.net, serialize_nic=nic)
    return replace(machine, net=net)


@settings(max_examples=100, deadline=None)
@given(
    spec=FAMILIES,
    sigma=st.sampled_from([0.0, 0.01, 0.05]),
    protocol=st.sampled_from(["eager", "rendezvous", "preset"]),
    nic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_mpi_programs_match_event_loop(spec, sigma, protocol, nic, seed):
    program, space = family_space(spec)
    executor = ScheduleExecutor(program, preset_or(program, sigma, protocol, nic))
    rng = np.random.default_rng(seed)
    for sample in range(3):
        took = check(executor, space.random_schedule(rng), sample)
        if sigma > 0 or not nic:
            assert took


# -- which path runs --------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_samples_defer_exactly_on_channel_ties(name):
    """A sample defers, counted under ``event_loop.channel``, exactly when
    the event loop grants some NIC channel twice at one instant, and runs
    directly otherwise.  Only σ = 0 with a serialized NIC brings that
    about, and a program without messages never defers."""
    program, space = program_and_space(name)
    mpi = posts_messages(program)
    schedules = fixed_schedules(space, n_first=3, n_random=3)
    for sigma, protocol, nic in ALL_CONFIGS:
        machine = machine_for(program, sigma, protocol, nic)
        executor = ScheduleExecutor(program, machine)
        for schedule in schedules:
            for sample in range(3):
                tie = channel_tie(executor, schedule, sample)
                if tie:
                    assert mpi and nic and sigma == 0.0
                with event_loop_calls() as calls:
                    executor.run(schedule, sample)
                assert len(calls) == tie
                path = "event_loop.channel" if tie else "direct"
                assert executor.take_path_counts() == {path: 1}


def tie_program(messages, n_ranks) -> Program:
    """``n_ranks`` ranks exchanging eager ``messages`` in one group: at
    σ = 0 every rank posts its sends at the same instant, and so do its
    receives."""
    group = "g"
    ops = [
        cpu_op(name, action=Action(kind, group))
        for name, kind in (
            ("PostSends", ActionKind.POST_SENDS),
            ("PostRecvs", ActionKind.POST_RECVS),
            ("WaitSend", ActionKind.WAIT_SENDS),
            ("WaitRecv", ActionKind.WAIT_RECVS),
        )
    ]
    edges = [
        ("PostSends", "WaitSend"),
        ("PostRecvs", "WaitRecv"),
        ("PostSends", "WaitRecv"),
        ("PostRecvs", "WaitSend"),
    ]
    return Program(
        graph=Graph.from_edges(ops, edges).with_start_end(),
        n_ranks=n_ranks,
        comm={group: CommPlan(group=group, messages=messages)},
        name="tie",
    )


def run_tie(messages, n_ranks):
    """``(executor, schedule, result of run)`` of ``tie_program`` at σ = 0,
    after checking ``run`` against the event loop."""
    program = tie_program(messages, n_ranks)
    machine = perlmutter_like(n_ranks=n_ranks, noise_sigma=0.0)
    assert machine.net.serialize_nic
    assert all(machine.net.is_eager(m.nbytes) for m in messages)
    names = ("PostSends", "PostRecvs", "WaitSend", "WaitRecv")
    schedule = Schedule([BoundOp(program.graph.vertex(n)) for n in names])
    executor = ScheduleExecutor(program, machine)
    result = executor.run(schedule)
    same(result, executor.run_event_loop(schedule))
    assert result.n_transfers == len(messages)
    return executor, schedule, result


def test_tie_defers_to_event_loop():
    """Ranks 1 and 2 send to rank 0 at one instant, so their order decides
    who takes rank 0's receive channel first."""
    messages = (
        Message(src=1, dst=0, nbytes=1024.0),
        Message(src=2, dst=0, nbytes=1024.0),
    )
    executor, schedule, result = run_tie(messages, 3)
    assert executor.take_path_counts() == {"event_loop.channel": 1}
    assert executor._run_direct(schedule, 0) == "channel"
    assert channel_tie(executor, schedule, 0)
    # The second sender queues behind the first on rank 0's NIC.
    assert result.per_rank[2] > result.per_rank[1]


def test_same_instant_posts_on_disjoint_channels_run_directly():
    """The mirror of the tie: ranks 1 -> 0 and 2 -> 3 post at one instant
    but share no channel, so the direct path takes the sample."""
    messages = (
        Message(src=1, dst=0, nbytes=1024.0),
        Message(src=2, dst=3, nbytes=1024.0),
    )
    executor, schedule, result = run_tie(messages, 4)
    assert executor.take_path_counts() == {"direct": 1}
    assert not channel_tie(executor, schedule, 0)
    assert result.per_rank[1] == result.per_rank[2]


# -- path counters ------------------------------------------------------------
def path_counters(program, machine, **executor_options):
    """The ``sim.path.*`` counters of one exhaustive sweep through a
    ``SerialEvaluator``, and the sweep's ``eval.simulations``."""
    executor = ScheduleExecutor(program, machine, **executor_options)
    bench = Benchmarker(executor, MeasurementConfig(max_samples=3))
    before = obs.metrics_snapshot()
    ExhaustiveSearch(DesignSpace(program, n_streams=2), bench).run()
    delta = obs.metrics_snapshot().diff(before)
    counts = {
        name: delta.counter(name)
        for name in delta.counters
        if name.startswith("sim.path.")
    }
    assert executor.path_counts == {}  # every batch flushed its counts
    return counts, delta.counter("eval.simulations")


def test_noiseless_halo3d_sweep_runs_directly():
    spec = WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    )
    program = build_workload(spec)
    machine = perlmutter_like(n_ranks=program.n_ranks, noise_sigma=0.0)
    counts, n_simulations = path_counters(program, machine)
    assert n_simulations == 1600
    assert counts == {"sim.path.direct": 1600}


def test_noiseless_spmv_sweep_counts_channel_ties():
    """Each σ = 0 sample of the 0.025-scale SpMV sweep counts under
    ``event_loop.channel`` exactly when the routing reference finds a
    channel granted twice at one instant."""
    program = build_workload(WorkloadSpec("spmv", {"scale": 0.025}))
    machine = perlmutter_like(n_ranks=program.n_ranks, noise_sigma=0.0)
    counts, n_simulations = path_counters(program, machine)
    executor = ScheduleExecutor(program, machine)
    space = DesignSpace(program, n_streams=2)
    ties = sum(channel_tie(executor, s, 0) for s in space.enumerate_schedules())
    assert 0 < ties < n_simulations
    assert counts == {
        "sim.path.direct": n_simulations - ties,
        "sim.path.event_loop.channel": ties,
    }


def test_tracing_executor_counts_only_trace():
    program, _ = program_and_space("tree_allreduce")
    machine = machine_for(program, 0.05, "eager", True)
    counts, n_simulations = path_counters(program, machine, collect_trace=True)
    assert n_simulations > 0
    assert counts == {"sim.path.event_loop.trace": n_simulations}


# -- degenerate schedules -----------------------------------------------------
def _sync_op(kind, name, event, stream=None):
    return BoundOp(Vertex(name=name, kind=kind), stream=stream, event=event)


def _reordered(schedule, names):
    by_name = {op.name: op for op in schedule.ops}
    return Schedule([by_name[n] for n in names])


def degenerate(case):
    """``(schedule, protocol, exception type or None)`` of a degenerate
    case on tree_allreduce (2 ranks, one round)."""
    _, space = program_and_space("tree_allreduce")
    base = next(space.enumerate_schedules())
    names = list(base.op_names())
    if case == "wait-before-post":
        names.remove("WaitRecv_0")
        return _reordered(base, ["WaitRecv_0"] + names), "rendezvous", ScheduleError
    if case == "deadlock":
        head = ["PostRecvs_0", "WaitRecv_0"]
        rest = [n for n in names if n not in head]
        return _reordered(base, head + rest), "eager", DeadlockError
    if case.startswith("unmatched"):
        kept = [n for n in names if n not in ("PostRecvs_0", "WaitRecv_0")]
        protocol = case.split("-")[1]
        error = MpiError if protocol == "eager" else DeadlockError
        return _reordered(base, kept), protocol, error
    if case == "sync-before-record":
        ops = [
            _sync_op(OpKind.EVENT_SYNC, "S0", "e0"),
            _sync_op(OpKind.EVENT_RECORD, "R0", "e0", stream=0),
        ]
        return Schedule(ops), "rendezvous", DeadlockError
    if case == "wait-before-record":
        ops = [
            _sync_op(OpKind.STREAM_WAIT, "W0", "e0", stream=1),
            _sync_op(OpKind.EVENT_RECORD, "R0", "e0", stream=0),
        ]
        return Schedule(ops), "rendezvous", None
    if case == "re-record":
        ops = [
            _sync_op(OpKind.EVENT_RECORD, "R0", "e0", stream=0),
            _sync_op(OpKind.EVENT_RECORD, "R1", "e0", stream=1),
        ]
        return Schedule(ops), "rendezvous", SimulationError
    stream = int(case.split(":")[1])
    ops = [
        BoundOp(op.vertex, stream=stream) if op.vertex.kind is OpKind.GPU else op
        for op in base.ops
    ]
    return Schedule(ops), "rendezvous", SimulationError


def outcome(run, schedule):
    try:
        result = run(schedule, 0)
    except ReproError as exc:
        return type(exc), str(exc)
    return result.per_rank, result.elapsed, result.n_transfers


#: Each degenerate case and the reason the direct path gives for it.
DEFER_REASONS = {
    "wait-before-post": "wait-before-post",
    "deadlock": "deadlock",
    "unmatched-eager": "unmatched",
    "unmatched-rendezvous": "deadlock",
    "sync-before-record": "event-before-record",
    "wait-before-record": "event-before-record",
    "re-record": "event-rerecord",
    "stream:-1": "stream-out-of-range",
    "stream:2": "stream-out-of-range",
}


@pytest.mark.parametrize("case", list(DEFER_REASONS))
def test_degenerate_schedules_defer_to_event_loop(case):
    program, _ = program_and_space("tree_allreduce")
    schedule, protocol, error = degenerate(case)
    executor = ScheduleExecutor(
        program, machine_for(program, 0.05, protocol, True)
    )
    reason = DEFER_REASONS[case]
    assert executor._run_direct(schedule, 0) == reason
    got = outcome(executor.run, schedule)
    assert executor.take_path_counts() == {f"event_loop.{reason}": 1}
    assert got == outcome(executor.run_event_loop, schedule)
    if error is None:
        assert isinstance(got[0], list)
    else:
        assert got[0] is error


@pytest.mark.parametrize("stream", [-1, 2])
def test_stream_out_of_range_raises_on_every_path(stream):
    """A stream id outside ``0..n_streams-1`` (here 2 streams) raises; -1
    used to alias the last stream."""
    spec = WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1})
    program, space = family_space(spec)
    schedule = next(
        s for s in space.enumerate_schedules() if 1 in s.streams_used()
    )
    rebound = Schedule(
        [
            replace(op, stream=stream) if op.stream == 1 else op
            for op in schedule.ops
        ]
    )
    machine = perlmutter_like(n_ranks=program.n_ranks)
    message = f"rank 0: stream {stream} out of range (have 2)"
    executor = ScheduleExecutor(program, machine)
    for run in (executor.run, executor.run_event_loop):
        with pytest.raises(SimulationError) as info:
            run(rebound, 0)
        assert str(info.value) == message
    evaluator = SerialEvaluator(Benchmarker(ScheduleExecutor(program, machine)))
    with pytest.raises(SimulationError) as info:
        evaluator.evaluate(rebound)
    assert str(info.value) == message
