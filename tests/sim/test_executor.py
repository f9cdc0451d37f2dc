"""Tests for the schedule executor on hand-built miniature programs."""

import pytest

from repro.dag.graph import Graph
from repro.dag.program import CommPlan, Message, Program
from repro.dag.vertex import Action, ActionKind, OpKind, Vertex, cpu_op, gpu_op
from repro.errors import ScheduleError, SimulationError
from repro.platform.machine import CpuModel, GpuModel, MachineConfig, NetworkModel
from repro.platform.noise import NoiseModel
from repro.schedule.schedule import BoundOp, Schedule
from repro.sim.executor import ScheduleExecutor


def quiet_machine(n_ranks=2, n_streams=2):
    """Machine with zero overheads for exact-time assertions."""
    return MachineConfig(
        n_ranks=n_ranks,
        n_streams=n_streams,
        gpu=GpuModel(
            launch_overhead_s=0.0,
            kernel_min_s=0.0,
            event_record_s=0.0,
            event_sync_overhead_s=0.0,
            stream_wait_overhead_s=0.0,
        ),
        cpu=CpuModel(default_op_s=0.0, post_msg_s=0.0, wait_overhead_s=0.0),
        net=NetworkModel(
            latency_s=1.0, bandwidth_bytes_per_s=100.0,
            eager_threshold_bytes=0.0,
        ),
        noise=NoiseModel(),
    )


def sched(*ops):
    return Schedule([op for op in ops])


class TestKernelsAndStreams:
    def test_two_kernels_same_stream_serialize(self):
        k1 = gpu_op("k1", duration=2.0)
        k2 = gpu_op("k2", duration=3.0)
        g = Graph()
        g.add_vertex(k1)
        g.add_vertex(k2)
        p = Program(graph=g.with_start_end(), n_ranks=1)
        ex = ScheduleExecutor(p, quiet_machine(n_ranks=1))
        r = ex.run(sched(BoundOp(k1, stream=0), BoundOp(k2, stream=0)))
        assert r.elapsed == pytest.approx(5.0)

    def test_two_kernels_different_streams_overlap(self):
        k1 = gpu_op("k1", duration=2.0)
        k2 = gpu_op("k2", duration=3.0)
        g = Graph()
        g.add_vertex(k1)
        g.add_vertex(k2)
        p = Program(graph=g.with_start_end(), n_ranks=1)
        ex = ScheduleExecutor(p, quiet_machine(n_ranks=1))
        r = ex.run(sched(BoundOp(k1, stream=0), BoundOp(k2, stream=1)))
        assert r.elapsed == pytest.approx(3.0)

    def test_event_sync_blocks_cpu(self):
        k = gpu_op("k", duration=4.0)
        c = cpu_op("c", duration=1.0)
        g = Graph()
        g.add_edge(k, c)
        p = Program(graph=g.with_start_end(), n_ranks=1)
        ex = ScheduleExecutor(p, quiet_machine(n_ranks=1))
        cer = Vertex(name="rec", kind=OpKind.EVENT_RECORD)
        ces = Vertex(name="syn", kind=OpKind.EVENT_SYNC)
        r = ex.run(
            sched(
                BoundOp(k, stream=0),
                BoundOp(cer, stream=0, event="e"),
                BoundOp(ces, event="e"),
                BoundOp(c),
            )
        )
        # CPU blocks until k (4.0), then c runs (1.0).
        assert r.elapsed == pytest.approx(5.0)

    def test_stream_wait_orders_cross_stream(self):
        k1 = gpu_op("k1", duration=4.0)
        k2 = gpu_op("k2", duration=1.0)
        g = Graph()
        g.add_edge(k1, k2)
        p = Program(graph=g.with_start_end(), n_ranks=1)
        ex = ScheduleExecutor(p, quiet_machine(n_ranks=1))
        cer = Vertex(name="rec", kind=OpKind.EVENT_RECORD)
        csw = Vertex(name="w", kind=OpKind.STREAM_WAIT)
        r = ex.run(
            sched(
                BoundOp(k1, stream=0),
                BoundOp(cer, stream=0, event="e"),
                BoundOp(csw, stream=1, event="e"),
                BoundOp(k2, stream=1),
            )
        )
        assert r.elapsed == pytest.approx(5.0)

    def test_start_end_in_schedule_rejected(self):
        from repro.dag.vertex import START

        g = Graph()
        g.add_vertex(gpu_op("k", duration=1.0))
        p = Program(graph=g.with_start_end(), n_ranks=1)
        ex = ScheduleExecutor(p, quiet_machine(n_ranks=1))
        with pytest.raises(ScheduleError, match="must not appear"):
            ex.run(Schedule([BoundOp(START)]))


def make_comm_program():
    """Each rank sends 100 B to the other; post -> wait."""
    ps = cpu_op("ps", action=Action(ActionKind.POST_SENDS, "g"))
    pr = cpu_op("pr", action=Action(ActionKind.POST_RECVS, "g"))
    ws = cpu_op("ws", action=Action(ActionKind.WAIT_SENDS, "g"))
    wr = cpu_op("wr", action=Action(ActionKind.WAIT_RECVS, "g"))
    g = Graph()
    g.add_edge(ps, ws)
    g.add_edge(pr, wr)
    g.add_edge(ps, wr)
    g.add_edge(pr, ws)
    plan = CommPlan(
        group="g",
        messages=(
            Message(src=0, dst=1, nbytes=100.0),
            Message(src=1, dst=0, nbytes=100.0),
        ),
    )
    p = Program(graph=g.with_start_end(), n_ranks=2, comm={"g": plan})
    return p, (ps, pr, ws, wr)


class TestMpiActions:
    def test_exchange_timing(self):
        p, (ps, pr, ws, wr) = make_comm_program()
        ex = ScheduleExecutor(p, quiet_machine())
        r = ex.run(sched(BoundOp(pr), BoundOp(ps), BoundOp(ws), BoundOp(wr)))
        # wire = 1 + 100/100 = 2.0 on both ranks in parallel.
        assert r.elapsed == pytest.approx(2.0)
        assert r.n_transfers == 2

    def test_rank_count_mismatch_rejected(self):
        p, _ = make_comm_program()
        with pytest.raises(SimulationError, match="ranks"):
            ScheduleExecutor(p, quiet_machine(n_ranks=3))

    def test_trace_collection(self):
        p, (ps, pr, ws, wr) = make_comm_program()
        ex = ScheduleExecutor(p, quiet_machine(), collect_trace=True)
        r = ex.run(sched(BoundOp(pr), BoundOp(ps), BoundOp(ws), BoundOp(wr)))
        assert r.trace is not None
        nets = [t for t in r.trace.records if t.rank == 0 and t.resource == "net"]
        assert len(nets) == 1
        assert nets[0].end == pytest.approx(2.0)

    def test_per_rank_times_reported(self):
        p, (ps, pr, ws, wr) = make_comm_program()
        ex = ScheduleExecutor(p, quiet_machine())
        r = ex.run(sched(BoundOp(pr), BoundOp(ps), BoundOp(ws), BoundOp(wr)))
        assert len(r.per_rank) == 2
        assert r.elapsed == max(r.per_rank)


class TestDeterminism:
    def test_same_sample_same_time(self):
        p, (ps, pr, ws, wr) = make_comm_program()
        machine = quiet_machine()
        machine = MachineConfig(
            n_ranks=2, n_streams=2, gpu=machine.gpu, cpu=machine.cpu,
            net=machine.net, noise=NoiseModel(sigma=0.05, seed=9),
        )
        ex = ScheduleExecutor(p, machine)
        s = sched(BoundOp(pr), BoundOp(ps), BoundOp(ws), BoundOp(wr))
        assert ex.run(s, sample=3).elapsed == ex.run(s, sample=3).elapsed
        assert ex.run(s, sample=3).elapsed != ex.run(s, sample=4).elapsed
