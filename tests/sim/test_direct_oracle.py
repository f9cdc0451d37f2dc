"""Oracle test: the reference engine's direct path against its event loop.

``ScheduleExecutor.run`` evaluates an untraced, payload-free sample in
one pass per rank, taking message posts in global time order
(``_run_direct``), and hands it to the event loop
(``ScheduleExecutor.run_event_loop``) on a tie between two posts, a wait
before its post, unmatched requests, a deadlock, or a schedule
``schedule_defect`` declines.  The event loop is the oracle
(``test_engine_oracle.py`` checks it against the engine it replaced).
Checked here:

* per-rank and elapsed times and transfer counts are equal, float for
  float, on the paper's MPI programs and two synthetic families under
  every configuration of the engine oracle plus σ = 0.01, on fixed and
  Hypothesis schedules, and on Hypothesis-drawn halo3d, tree_allreduce
  and spmv instances;
* the path taken: every MPI sample at σ > 0 runs directly, and every one
  at σ = 0 (whose symmetric ranks post at the same instant) defers;
* a hand-built tie defers, and degenerate schedules raise the event
  loop's exception, type and message, on both paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload
from tests.sim.test_engine_oracle import (
    CONFIGS,
    NAMES,
    machine_for,
    program_and_space,
)

#: The engine oracle's configurations, plus each of them at σ = 0.01.
ALL_CONFIGS = CONFIGS + [
    (0.01, protocol, nic, n_gpus)
    for sigma, protocol, nic, n_gpus in CONFIGS
    if sigma == 0.0
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


def same(got, want) -> None:
    assert got.per_rank == want.per_rank
    assert got.elapsed == want.elapsed
    assert got.n_transfers == want.n_transfers


def check(executor, schedule, sample) -> bool:
    """``run`` and, where it takes the sample, the direct path equal the
    event loop; True when the direct path took it."""
    want = executor.run_event_loop(schedule, sample)
    direct = executor._run_direct(schedule, sample)
    if direct is not None:
        same(direct, want)
    same(executor.run(schedule, sample), want)
    return direct is not None


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
    if config[0] > 0:
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


def preset_or(program, sigma, protocol, nic, n_gpus):
    """``machine_for``, or the preset's own eager threshold (``"preset"``),
    which mixes eager and rendezvous messages in one program."""
    if protocol != "preset":
        return machine_for(program, sigma, protocol, nic, n_gpus)
    machine = perlmutter_like(
        n_ranks=program.n_ranks, noise_sigma=sigma, noise_seed=5
    )
    net = replace(machine.net, serialize_nic=nic)
    return replace(machine, net=net, n_gpus=n_gpus)


@settings(max_examples=100, deadline=None)
@given(
    spec=FAMILIES,
    sigma=st.sampled_from([0.0, 0.01, 0.05]),
    protocol=st.sampled_from(["eager", "rendezvous", "preset"]),
    nic=st.booleans(),
    n_gpus=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_mpi_programs_match_event_loop(
    spec, sigma, protocol, nic, n_gpus, seed
):
    program, space = family_space(spec)
    executor = ScheduleExecutor(
        program, preset_or(program, sigma, protocol, nic, n_gpus)
    )
    rng = np.random.default_rng(seed)
    for sample in range(3):
        took = check(executor, space.random_schedule(rng), sample)
        if sigma > 0:
            assert took


# -- which path runs --------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_mpi_samples_defer_exactly_at_sigma_zero(name):
    """Measured through a ``Benchmarker``, every sample of a program that
    posts messages defers at σ = 0 and none does at σ > 0; a program
    without messages never defers."""
    program, space = program_and_space(name)
    mpi = posts_messages(program)
    schedules = fixed_schedules(space, n_first=3, n_random=3)
    for sigma, protocol, nic, n_gpus in ALL_CONFIGS:
        machine = machine_for(program, sigma, protocol, nic, n_gpus)
        bench = Benchmarker(
            ScheduleExecutor(program, machine), MeasurementConfig(max_samples=3)
        )
        with event_loop_calls() as calls:
            for schedule in schedules:
                bench.measure(schedule)
        assert bench.n_simulations > 0
        if mpi and sigma == 0.0:
            assert len(calls) == bench.n_simulations
        else:
            assert calls == []


def tie_program() -> Program:
    """Three ranks; ranks 1 and 2 each send one eager message to rank 0 in
    one group, so at σ = 0 both sends are posted at the same instant and
    their order decides who takes rank 0's receive channel first."""
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
    messages = (
        Message(src=1, dst=0, nbytes=1024.0),
        Message(src=2, dst=0, nbytes=1024.0),
    )
    return Program(
        graph=Graph.from_edges(ops, edges).with_start_end(),
        n_ranks=3,
        comm={group: CommPlan(group=group, messages=messages)},
        name="tie",
    )


def test_tie_defers_to_event_loop():
    program = tie_program()
    machine = perlmutter_like(n_ranks=3, noise_sigma=0.0)
    assert machine.net.serialize_nic
    assert machine.net.is_eager(1024.0)
    names = ("PostSends", "PostRecvs", "WaitSend", "WaitRecv")
    schedule = Schedule([BoundOp(program.graph.vertex(n)) for n in names])
    executor = ScheduleExecutor(program, machine)
    assert executor._run_direct(schedule, 0) is None
    with event_loop_calls() as calls:
        result = executor.run(schedule)
    assert calls == [schedule]
    same(result, executor.run_event_loop(schedule))
    assert result.n_transfers == 2
    # The second sender queues behind the first on rank 0's NIC.
    assert result.per_rank[2] > result.per_rank[1]


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


@pytest.mark.parametrize(
    "case",
    [
        "wait-before-post",
        "deadlock",
        "unmatched-eager",
        "unmatched-rendezvous",
        "sync-before-record",
        "wait-before-record",
        "re-record",
        "stream:-1",
        "stream:2",
    ],
)
def test_degenerate_schedules_defer_to_event_loop(case):
    program, _ = program_and_space("tree_allreduce")
    schedule, protocol, error = degenerate(case)
    executor = ScheduleExecutor(
        program, machine_for(program, 0.05, protocol, True, 1)
    )
    assert executor._run_direct(schedule, 0) is None
    got = outcome(executor.run, schedule)
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
