"""Unit tests for the DAG structure."""

import pytest

from repro.dag.graph import Graph
from repro.dag.vertex import END, START, cpu_op, gpu_op
from repro.errors import CycleError, GraphError


def diamond() -> Graph:
    """a -> {b, c} -> d"""
    g = Graph()
    a, b, c, d = cpu_op("a"), gpu_op("b"), cpu_op("c"), cpu_op("d")
    g.add_edge(a, b)
    g.add_edge(a, c)
    g.add_edge(b, d)
    g.add_edge(c, d)
    return g


class TestConstruction:
    def test_add_vertex_idempotent(self):
        g = Graph()
        v = cpu_op("a")
        g.add_vertex(v)
        g.add_vertex(v)
        assert len(g) == 1

    def test_add_conflicting_vertex_rejected(self):
        g = Graph()
        g.add_vertex(cpu_op("a"))
        with pytest.raises(GraphError, match="different attributes"):
            g.add_vertex(cpu_op("a", duration=1.0))

    def test_self_edge_rejected(self):
        g = Graph()
        with pytest.raises(GraphError, match="self-edge"):
            g.add_edge(cpu_op("a"), "a")

    def test_edge_by_name_requires_existing(self):
        g = Graph()
        g.add_vertex(cpu_op("a"))
        with pytest.raises(GraphError, match="unknown vertex"):
            g.add_edge("a", "missing")

    def test_from_edges(self):
        g = Graph.from_edges(
            [cpu_op("a"), cpu_op("b")], [("a", "b")]
        )
        assert g.n_edges() == 1


class TestQueries:
    def test_contains(self):
        g = diamond()
        assert "a" in g
        assert cpu_op("a") in g
        assert "zzz" not in g

    def test_preds_succs_sorted(self):
        g = diamond()
        assert [v.name for v in g.successors("a")] == ["b", "c"]
        assert [v.name for v in g.predecessors("d")] == ["b", "c"]

    def test_sources_sinks(self):
        g = diamond()
        assert [v.name for v in g.sources()] == ["a"]
        assert [v.name for v in g.sinks()] == ["d"]

    def test_gpu_vertices(self):
        g = diamond()
        assert [v.name for v in g.gpu_vertices()] == ["b"]

    def test_edges_iteration(self):
        g = diamond()
        assert sorted((u.name, v.name) for u, v in g.edges()) == [
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
        ]

    def test_vertex_lookup_failure(self):
        with pytest.raises(GraphError):
            diamond().vertex("nope")


class TestTopology:
    def test_topological_order_valid(self):
        g = diamond()
        order = [v.name for v in g.topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_cycle_detected(self):
        g = Graph()
        g.add_edge(cpu_op("a"), cpu_op("b"))
        g.add_edge("b", "a")
        with pytest.raises(CycleError):
            g.topological_order()

    def test_transitive_closure(self):
        g = diamond()
        clo = g.transitive_closure()
        assert clo["a"] == {"b", "c", "d"}
        assert clo["d"] == set()


class TestStartEnd:
    def test_with_start_end_structure(self):
        g = diamond().with_start_end()
        assert START.name in g
        assert END.name in g
        assert [v.name for v in g.successors("start")] == ["a"]
        assert [v.name for v in g.predecessors("end")] == ["d"]

    def test_with_start_end_idempotent(self):
        g = diamond().with_start_end()
        g2 = g.with_start_end()
        assert len(g2) == len(g)
        assert g2.n_edges() == g.n_edges()

    def test_validate_detects_unreachable(self):
        g = diamond().with_start_end()
        # An orphan vertex breaks both reachability requirements.
        g.add_vertex(cpu_op("orphan"))
        with pytest.raises(GraphError, match="unreachable from start"):
            g.validate()

    def test_validate_detects_cannot_reach_end(self):
        g = diamond().with_start_end()
        g.add_vertex(cpu_op("tail"))
        g.add_edge("start", "tail")
        with pytest.raises(GraphError, match="cannot reach end"):
            g.validate()


class TestInterop:
    def test_copy_is_independent(self):
        g = diamond()
        h = g.copy()
        h.add_edge(cpu_op("e"), "a")
        assert "e" not in g
