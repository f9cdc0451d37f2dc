"""Tests for Table III synchronization-insertion analysis."""

from repro.dag.graph import Graph
from repro.dag.vertex import cpu_op, gpu_op
from repro.schedule.sync import (
    build_sync_plan,
    cer_name,
    ces_name,
    cswe_name,
    event_name,
)


class TestNames:
    def test_paper_names(self):
        """The generated names match the paper's examples."""
        assert cer_name("Pack") == "CER-after-Pack"
        assert ces_name("Pack", "PostSend", ambiguous=False) == "CES-b4-PostSend"
        assert (
            ces_name("Pack", "PostSend", ambiguous=True)
            == "CES-b4-PostSend-after-Pack"
        )
        assert cswe_name("a", "b") == "CSWE-b-waits-a"
        assert event_name("Pack") == "ev-Pack"


class TestPlanAnalysis:
    def test_gpu_to_cpu_edge_needs_cer_ces(self):
        g = Graph()
        g.add_edge(gpu_op("k"), cpu_op("c"))
        plan = build_sync_plan(g.with_start_end())
        assert plan.cer_sources == {"k"}
        assert plan.ces_edges == (("k", "c"),)
        assert plan.ces_name_of[("k", "c")] == "CES-b4-c"

    def test_cpu_to_gpu_edge_needs_nothing(self):
        g = Graph()
        g.add_edge(cpu_op("c"), gpu_op("k"))
        plan = build_sync_plan(g.with_start_end())
        assert not plan.cer_sources
        assert not plan.ces_edges

    def test_gpu_to_gpu_edge_recorded(self):
        g = Graph()
        g.add_edge(gpu_op("a"), gpu_op("b"))
        plan = build_sync_plan(g.with_start_end())
        assert plan.gpu_gpu_edges == (("a", "b"),)
        assert not plan.ces_edges  # CSWE is inserted at bind time

    def test_edges_into_end_excluded(self):
        """end is a device synchronize; GPU -> end needs no CER/CES."""
        g = Graph()
        g.add_vertex(gpu_op("k"))
        plan = build_sync_plan(g.with_start_end())
        assert not plan.cer_sources
        assert not plan.ces_edges

    def test_multiple_gpu_preds_disambiguated(self):
        g = Graph()
        c = cpu_op("c")
        g.add_edge(gpu_op("k1"), c)
        g.add_edge(gpu_op("k2"), c)
        plan = build_sync_plan(g.with_start_end())
        names = set(plan.ces_name_of.values())
        assert names == {"CES-b4-c-after-k1", "CES-b4-c-after-k2"}

    def test_spmv_plan_matches_paper(self, spmv_instance):
        plan = build_sync_plan(spmv_instance.program.graph)
        assert plan.cer_sources == {"Pack"}
        assert plan.ces_edges == (("Pack", "PostSends"),)
        assert plan.ces_name_of[("Pack", "PostSends")] == "CES-b4-PostSends"
