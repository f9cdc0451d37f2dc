"""Per-sample duration tables (:mod:`repro.sim.durations`).

Every entry must equal ``NoiseModel.jitter`` on the key the engine has
always used, written out literally here; ops that are not the program's
own vertices must keep their per-op pricing; and executors must build
tables at first run, one per sample.
"""

import numpy as np
import pytest

from repro.dag.graph import Graph
from repro.dag.program import Program
from repro.dag.vertex import ActionKind, OpKind, Vertex, cpu_op, gpu_op
from repro.platform import perlmutter_like
from repro.platform.costs import CostModel
from repro.platform.machine import CpuModel, GpuModel, MachineConfig
from repro.platform.noise import NoiseModel
from repro.schedule.schedule import BoundOp, Schedule
from repro.sim import executor as executor_mod
from repro.sim.batch import CompiledContext
from repro.sim.durations import sample_durations
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

SPECS = (
    WorkloadSpec("spmv", {"scale": 0.025}),
    WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    ),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5}),
)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_every_entry_is_jitter_on_its_key(spec, sigma):
    program = build_workload(spec)
    machine = perlmutter_like(
        n_ranks=program.n_ranks, noise_sigma=sigma, noise_seed=3
    )
    noise, cost, sample = machine.noise, CostModel(machine), 7
    table = sample_durations(program, machine, sample)
    vertices = program.schedulable_vertices()
    assert table.vertices == vertices
    for rank in range(machine.n_ranks):
        for j, v in enumerate(vertices):
            base = cost.base_duration(program, v, rank)
            if v.kind is OpKind.CPU:
                want = noise.jitter(base, sample, rank, v.name)
                assert table.adv[rank][j] == want
                assert table.kdur[rank][j] == 0.0
            elif v.kind is OpKind.GPU:
                launch = machine.gpu.launch_overhead_s
                assert table.adv[rank][j] == noise.jitter(
                    launch, sample, rank, v.name, "launch"
                )
                assert table.kdur[rank][j] == noise.jitter(
                    base, sample, rank, v.name
                )
            else:
                assert table.adv[rank][j] == base
        posted = set()
        for v in vertices:
            action = v.action
            if action is None:
                continue
            plan = program.comm_plan(action.group)
            assert table.sends[rank][action.group] == plan.sends_from(rank)
            assert table.recvs[rank][action.group] == plan.recvs_to(rank)
            if action.kind is ActionKind.POST_SENDS:
                want = [(m, m.dst) for m in plan.sends_from(rank)]
            elif action.kind is ActionKind.POST_RECVS:
                want = [(m, m.src) for m in plan.recvs_to(rank)]
            else:
                continue
            posted.add(v.name)
            got = table.posts[rank][v.name]
            assert [m for m, _ in got] == [m for m, _ in want]
            for (_, dt), (_, peer) in zip(got, want):
                assert dt == noise.jitter(
                    machine.cpu.post_msg_s, sample, rank, v.name, peer
                )
        assert set(table.posts[rank]) == posted
    messages = [m for plan in program.comm.values() for m in plan.messages]
    assert set(table.wire) == set(messages)
    for m in messages:
        base = machine.net.transfer_time(m.nbytes)
        assert table.wire[m] == noise.jitter(
            base, sample, "xfer", m.src, m.dst, m.tag
        )


def test_compiled_context_reads_the_same_table():
    program = build_workload(SPECS[-1])
    machine = perlmutter_like(n_ranks=program.n_ranks, noise_sigma=0.05)
    ctx = CompiledContext(program, machine, MeasurementConfig(max_samples=2))
    assert ctx.ok
    adv, kdur = ctx._sample_tables(4)
    table = sample_durations(program, machine, 4)
    assert np.array_equal(adv, np.maximum(np.array(table.adv), 0.0))
    assert np.array_equal(kdur, np.maximum(np.array(table.kdur), 0.0))


def _one_op_program(vertex):
    g = Graph()
    g.add_vertex(vertex)
    return Program(graph=g.with_start_end(), n_ranks=2)


def _machine(sigma):
    return MachineConfig(
        n_ranks=2,
        gpu=GpuModel(launch_overhead_s=0.5, kernel_min_s=0.0),
        cpu=CpuModel(default_op_s=0.0),
        noise=NoiseModel(sigma=sigma, seed=1),
    )


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("make", [cpu_op, gpu_op], ids=["cpu", "gpu"])
def test_same_name_vertex_runs_with_its_own_duration(make, sigma):
    """A schedule op swapped for a same-name vertex with another explicit
    duration is priced from that vertex, not from the program's table."""
    machine = _machine(sigma)
    program = _one_op_program(make("a", duration=1.0))
    swapped = make("a", duration=2.5)
    assert swapped != program.graph.vertex("a")
    stream = 0 if swapped.kind is OpKind.GPU else None
    executor = ScheduleExecutor(program, machine)
    result = executor.run(Schedule([BoundOp(swapped, stream=stream)]), sample=3)
    noise = machine.noise
    for rank in range(2):
        want = noise.jitter(2.5, 3, rank, "a")
        if swapped.kind is OpKind.GPU:
            want = noise.jitter(0.5, 3, rank, "a", "launch") + want
        assert result.per_rank[rank] == want
    # The program's own vertex still reads the table.
    own = executor.run(
        Schedule([BoundOp(program.graph.vertex("a"), stream=stream)]), sample=3
    )
    table = executor.durations(3)
    for rank in range(2):
        assert own.per_rank[rank] == table.adv[rank][0] + table.kdur[rank][0]


def test_equal_vertex_copy_reads_the_table():
    """An equal (not identical) vertex is the program's vertex."""
    program = _one_op_program(cpu_op("a", duration=1.0))
    executor = ScheduleExecutor(program, _machine(0.05))
    copy = Vertex("a", OpKind.CPU, duration=1.0)
    assert copy is not program.graph.vertex("a")
    table = executor.durations(0)
    assert table.position(copy) == 0
    result = executor.run(Schedule([BoundOp(copy)]), sample=0)
    assert result.per_rank == [table.adv[0][0], table.adv[1][0]]


@pytest.mark.parametrize("sigma,n_tables", [(0.0, 1), (0.05, 3)])
def test_tables_built_at_first_run_one_per_sample(monkeypatch, sigma, n_tables):
    calls = []
    real = executor_mod.sample_durations

    def counting(program, machine, sample):
        calls.append(sample)
        return real(program, machine, sample)

    monkeypatch.setattr(executor_mod, "sample_durations", counting)
    program = _one_op_program(cpu_op("a", duration=1.0))
    executor = ScheduleExecutor(program, _machine(sigma))
    assert calls == []
    schedule = Schedule([BoundOp(program.graph.vertex("a"))])
    for _ in range(2):
        for sample in (5, 6, 7):
            executor.run(schedule, sample=sample)
    assert len(calls) == n_tables
