"""Unit tests for Program / CommPlan / Message."""

import pytest

from repro.dag.graph import Graph
from repro.dag.program import CommPlan, Message, Program
from repro.dag.vertex import Action, ActionKind, Work, cpu_op, gpu_op
from repro.errors import GraphError


def make_graph():
    g = Graph()
    g.add_edge(cpu_op("post", action=Action(ActionKind.POST_SENDS, "g")),
               cpu_op("wait", action=Action(ActionKind.WAIT_SENDS, "g")))
    return g.with_start_end()


def make_plan():
    return CommPlan(
        group="g",
        messages=(
            Message(src=0, dst=1, nbytes=100.0, tag=3),
            Message(src=1, dst=0, nbytes=200.0, tag=3),
        ),
    )


class TestMessage:
    def test_self_message_rejected(self):
        with pytest.raises(ValueError, match="self-messages"):
            Message(src=1, dst=1, nbytes=8.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Message(src=0, dst=1, nbytes=-1.0)


class TestCommPlan:
    def test_sends_recvs_partition(self):
        plan = make_plan()
        assert [m.dst for m in plan.sends_from(0)] == [1]
        assert [m.src for m in plan.recvs_to(0)] == [1]
        assert plan.n_messages == 2


class TestProgram:
    def test_valid_program(self):
        p = Program(graph=make_graph(), n_ranks=2, comm={"g": make_plan()})
        assert p.n_ranks == 2
        assert p.comm_plan("g").n_messages == 2

    def test_unknown_comm_group_rejected(self):
        with pytest.raises(GraphError, match="unknown comm group"):
            Program(graph=make_graph(), n_ranks=2, comm={})

    def test_wait_without_post_rejected(self):
        g = Graph()
        g.add_vertex(cpu_op("wait", action=Action(ActionKind.WAIT_RECVS, "g")))
        g2 = g.with_start_end()
        with pytest.raises(GraphError, match="never posted"):
            Program(graph=g2, n_ranks=2, comm={"g": make_plan()})

    def test_bad_rank_count(self):
        with pytest.raises(ValueError, match="n_ranks"):
            Program(graph=make_graph(), n_ranks=0, comm={"g": make_plan()})

    def test_work_override(self):
        g = Graph()
        k = gpu_op("k", work=Work(flops=10))
        g.add_vertex(k)
        p = Program(
            graph=g.with_start_end(),
            n_ranks=2,
            work_overrides={("k", 1): Work(flops=99)},
        )
        assert p.work_for("k", 0).flops == 10
        assert p.work_for("k", 1).flops == 99

    def test_unknown_payload_rejected_at_lookup(self):
        g = Graph()
        k = gpu_op("k", payload="missing")
        g.add_vertex(k)
        p = Program(graph=g.with_start_end(), n_ranks=1)
        with pytest.raises(GraphError, match="unknown payload"):
            p.payload_fn(k)

    def test_schedulable_excludes_start_end(self):
        p = Program(graph=make_graph(), n_ranks=2, comm={"g": make_plan()})
        names = [v.name for v in p.schedulable_vertices()]
        assert "start" not in names and "end" not in names
        assert set(names) == {"post", "wait"}
