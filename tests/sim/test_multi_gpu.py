"""Tests for the multi-GPU resource extension (paper §VI)."""

import pytest

from repro.dag.graph import Graph
from repro.dag.program import Program
from repro.dag.vertex import gpu_op
from repro.platform.machine import MachineConfig
from repro.schedule.space import DesignSpace
from repro.sim import ScheduleExecutor
from tests.sim.test_executor import quiet_machine


def chain_program():
    g = Graph()
    a, b = gpu_op("a", duration=2.0), gpu_op("b", duration=1.0)
    g.add_edge(a, b)
    return Program(graph=g.with_start_end(), n_ranks=1)


def cross_stream_schedule(space):
    for s in space.enumerate_schedules():
        if s.stream_of("a") != s.stream_of("b"):
            return s
    raise AssertionError("no cross-stream schedule found")


class TestGpuMapping:
    def test_round_robin(self):
        m = MachineConfig(n_streams=4, n_gpus=2)
        assert [m.gpu_of_stream(s) for s in range(4)] == [0, 1, 0, 1]

    def test_single_gpu_all_zero(self):
        m = MachineConfig(n_streams=3, n_gpus=1)
        assert {m.gpu_of_stream(s) for s in range(3)} == {0}

    def test_invalid_gpus_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(n_gpus=0)


class TestCrossGpuPenalty:
    def _machine(self, n_gpus, extra):
        base = quiet_machine(n_ranks=1, n_streams=2)
        import dataclasses

        gpu = dataclasses.replace(base.gpu, cross_gpu_sync_extra_s=extra)
        return dataclasses.replace(base, gpu=gpu, n_gpus=n_gpus)

    def test_same_gpu_no_penalty(self):
        p = chain_program()
        space = DesignSpace(p, n_streams=2)
        s = cross_stream_schedule(space)
        ex = ScheduleExecutor(p, self._machine(n_gpus=1, extra=5.0))
        # Two streams, one GPU: CSWE pays nothing extra; a(2.0) then b(1.0).
        assert ex.run(s).elapsed == pytest.approx(3.0)

    def test_cross_gpu_pays_extra(self):
        p = chain_program()
        space = DesignSpace(p, n_streams=2)
        s = cross_stream_schedule(space)
        ex = ScheduleExecutor(p, self._machine(n_gpus=2, extra=5.0))
        # Streams 0 and 1 live on different GPUs: the stream-wait adds 5.
        assert ex.run(s).elapsed == pytest.approx(3.0 + 5.0)

    def test_same_stream_unaffected(self):
        p = chain_program()
        space = DesignSpace(p, n_streams=2)
        same = next(
            s
            for s in space.enumerate_schedules()
            if s.stream_of("a") == s.stream_of("b")
        )
        for n_gpus in (1, 2):
            ex = ScheduleExecutor(p, self._machine(n_gpus=n_gpus, extra=5.0))
            assert ex.run(same).elapsed == pytest.approx(3.0)

    def test_device_sync_never_pays_penalty(self, spmv_instance, machine):
        """SpMV has no GPU->GPU edges; multi-GPU must not change times
        (the end-of-program drain records fire on their own stream)."""
        import dataclasses

        multi = dataclasses.replace(machine, n_gpus=2)
        ex1 = ScheduleExecutor(spmv_instance.program, machine)
        ex2 = ScheduleExecutor(spmv_instance.program, multi)
        space = DesignSpace(spmv_instance.program, n_streams=2)
        s = next(space.enumerate_schedules())
        assert ex1.run(s).elapsed == pytest.approx(ex2.run(s).elapsed)
