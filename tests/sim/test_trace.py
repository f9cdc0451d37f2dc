"""Tests for trace collection and Gantt rendering."""

from repro.sim.trace import Gantt, Trace, TraceRecord


def make_trace():
    t = Trace()
    t.add(0, "cpu", "a", 0.0, 1.0)
    t.add(0, "cpu", "b", 2.0, 3.0)
    t.add(0, "stream0", "k", 0.5, 2.5)
    t.add(1, "cpu", "c", 0.0, 4.0)
    return t


class TestTrace:
    def test_makespan(self):
        assert make_trace().makespan() == 4.0

    def test_record_duration(self):
        r = TraceRecord(0, "cpu", "x", 1.0, 3.5)
        assert r.duration == 2.5


class TestGantt:
    def test_render_contains_lanes_and_legend(self):
        out = Gantt(make_trace(), width=40).render()
        assert "r0/cpu" in out
        assert "r0/stream0" in out
        assert "r1/cpu" in out
        assert "legend:" in out

    def test_render_rank_filter(self):
        out = Gantt(make_trace(), width=40).render(ranks=[1])
        assert "r1/cpu" in out
        assert "r0/cpu" not in out

    def test_empty_trace(self):
        assert "empty" in Gantt(Trace()).render()

    def test_spmv_gantt_smoke(self, spmv_instance, machine, spmv_schedules):
        from repro.sim import ScheduleExecutor

        ex = ScheduleExecutor(
            spmv_instance.program, machine, collect_trace=True
        )
        r = ex.run(spmv_schedules[0])
        out = Gantt(r.trace, width=60).render(ranks=[0])
        assert "r0/cpu" in out and "|" in out
