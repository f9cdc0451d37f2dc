"""Tests for the design space (enumeration, counting, sampling, validity)."""

import numpy as np
import pytest

from repro.dag.graph import Graph
from repro.dag.program import Program
from repro.dag.vertex import OpKind, cpu_op, gpu_op
from repro.errors import ScheduleError
from repro.schedule.space import DesignSpace


def simple_space(n_streams=2):
    """k1(GPU) -> c(CPU), k2(GPU) free."""
    g = Graph()
    k1, k2, c = gpu_op("k1"), gpu_op("k2"), cpu_op("c")
    g.add_edge(k1, c)
    g.add_vertex(k2)
    p = Program(graph=g.with_start_end(), n_ranks=1)
    return DesignSpace(p, n_streams=n_streams)


def gpu_chain_space(n_streams=2):
    """a(GPU) -> b(GPU): exercises cross-stream CSWE insertion."""
    g = Graph()
    a, b = gpu_op("a"), gpu_op("b")
    g.add_edge(a, b)
    p = Program(graph=g.with_start_end(), n_ranks=1)
    return DesignSpace(p, n_streams=n_streams)


def shared_record_space(n_streams=2):
    """k0(GPU) -> k1(GPU), k0 -> c(CPU): one record serves both edges."""
    g = Graph()
    k0, k1, c = gpu_op("k0"), gpu_op("k1"), cpu_op("c")
    g.add_edge(k0, k1)
    g.add_edge(k0, c)
    p = Program(graph=g.with_start_end(), n_ranks=1)
    return DesignSpace(p, n_streams=n_streams)


class TestEnumeration:
    def test_every_schedule_contains_sync_chain(self):
        space = simple_space()
        for s in space.enumerate_schedules():
            names = s.op_names()
            assert "CER-after-k1" in names
            assert "CES-b4-c" in names
            space.validate_schedule(s)

    def test_count_matches_enumeration(self, spmv_space):
        assert spmv_space.count() == len(
            list(spmv_space.enumerate_schedules())
        )

    def test_spmv_space_size(self, spmv_space):
        assert spmv_space.count() == 540

    def test_all_schedules_distinct(self, spmv_schedules):
        assert len(set(spmv_schedules)) == len(spmv_schedules)

    def test_all_schedules_canonical(self, spmv_schedules):
        for s in spmv_schedules[::17]:
            assert s.is_canonical()

    def test_one_stream_smaller_space(self, spmv_instance):
        one = DesignSpace(spmv_instance.program, n_streams=1)
        assert one.count() == 135  # 540 / 4 stream assignments

    def test_three_streams_bigger_space(self, spmv_instance):
        three = DesignSpace(spmv_instance.program, n_streams=3)
        # 3 GPU ops on up to 3 streams: 5 canonical assignments
        # (Bell-ish: 000,001,010,011,012), orderings unchanged.
        assert three.count() == 135 * 5


class TestCrossStreamSync:
    def test_same_stream_needs_no_wait(self):
        space = gpu_chain_space()
        same = [
            s
            for s in space.enumerate_schedules()
            if s.stream_of("a") == s.stream_of("b")
        ]
        for s in same:
            assert not any("CSWE" in n for n in s.op_names())

    def test_cross_stream_inserts_cer_and_cswe(self):
        space = gpu_chain_space()
        cross = [
            s
            for s in space.enumerate_schedules()
            if s.stream_of("a") != s.stream_of("b")
        ]
        assert cross  # space must include cross-stream bindings
        for s in cross:
            names = s.op_names()
            assert "CER-after-a" in names
            assert "CSWE-b-waits-a" in names
            space.validate_schedule(s)

    def test_cswe_bound_to_consumer_stream(self):
        space = gpu_chain_space()
        for s in space.enumerate_schedules():
            if s.stream_of("a") != s.stream_of("b"):
                w = s.ops[s.position("CSWE-b-waits-a")]
                assert w.stream == s.stream_of("b")

    def test_shared_record_schedules_counted_once(self):
        # CER-after-k0 is offered standalone (for c) and at the head of
        # k1's cross-stream group.  Same stream: k1 in any of 4 slots
        # around CER < CES < c.  Cross stream: CER first, then 3
        # interleavings of (CSWE, k1) with (CES, c).
        space = shared_record_space()
        schedules = list(space.enumerate_schedules())
        assert len(schedules) == 7
        assert len(set(schedules)) == 7
        assert space.count() == 7
        for s in schedules:
            space.validate_schedule(s)


class TestRandomSampling:
    def test_samples_are_valid(self, spmv_space, rng):
        for _ in range(25):
            s = spmv_space.random_schedule(rng)
            spmv_space.validate_schedule(s)

    def test_sampling_eventually_covers_small_space(self):
        space = gpu_chain_space()
        total = space.count()
        rng = np.random.default_rng(0)
        seen = {space.random_schedule(rng) for _ in range(400)}
        assert len(seen) == total

    def test_deterministic_for_seed(self, spmv_space):
        a = spmv_space.random_schedule(np.random.default_rng(5))
        b = spmv_space.random_schedule(np.random.default_rng(5))
        assert a == b


class TestValidation:
    def test_missing_op_rejected(self, spmv_space, spmv_schedules):
        from repro.schedule.schedule import Schedule

        broken = Schedule(spmv_schedules[0].ops[:-1])
        with pytest.raises(ScheduleError, match="missing op"):
            spmv_space.validate_schedule(broken)

    def test_dependency_violation_rejected(self, spmv_space, spmv_schedules):
        from repro.schedule.schedule import Schedule

        s = spmv_schedules[0]
        ops = list(s.ops)
        i = s.position("PostSends")
        j = s.position("WaitSend")
        ops[i], ops[j] = ops[j], ops[i]
        with pytest.raises(ScheduleError):
            spmv_space.validate_schedule(Schedule(ops))

    def test_stream_out_of_range_rejected(self, spmv_space, spmv_schedules):
        from repro.schedule.schedule import BoundOp, Schedule

        ops = [
            BoundOp(op.vertex, stream=5, event=op.event)
            if op.kind is OpKind.GPU
            else op
            for op in spmv_schedules[0].ops
        ]
        with pytest.raises(ScheduleError, match="out of range"):
            spmv_space.validate_schedule(Schedule(ops))
