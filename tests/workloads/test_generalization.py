"""Tests for cross-workload rule generalization."""

import pytest

from repro.sim.measure import MeasurementConfig
from repro.workloads import WorkloadSpec, rules_for_specs, score_cross_workload

#: Tiny exhaustible spaces (40 and 72 schedules respectively).
SPECS = [
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
]

MEASUREMENT = MeasurementConfig(max_samples=1)


def _cross_workload():
    return score_cross_workload(rules_for_specs(SPECS, measurement=MEASUREMENT))


@pytest.fixture(scope="module")
def cross_result():
    return _cross_workload()


class TestWorkloadRules:
    def test_pipeline_reduction(self):
        (wr,) = rules_for_specs(SPECS[:1], measurement=MEASUREMENT)
        assert wr.spec == SPECS[0]
        assert wr.fast_schedules  # fastest class is never empty
        # every fast schedule was labeled class 0
        labels = wr.result.labeling.labels
        assert (labels == 0).sum() == len(wr.fast_schedules)


class TestCrossWorkload:
    def test_matrix_covers_all_ordered_pairs(self, cross_result):
        labels = [w.spec.label for w in cross_result.workloads]
        expected = {
            (a, b) for a in labels for b in labels if a != b
        }
        assert set(cross_result.matrix) == expected

    def test_summary_shapes(self, cross_result):
        for n_rules, n_transferable, sat in cross_result.matrix.values():
            assert n_rules >= 0
            assert 0 <= n_transferable <= n_rules
            assert 0.0 <= sat <= 1.0

    def test_rows_json_ready(self, cross_result):
        rows = cross_result.rows()
        assert len(rows) == len(cross_result.matrix)
        for row in rows:
            assert {
                "source",
                "target",
                "n_rules",
                "n_transferable",
                "mean_satisfaction",
            } <= set(row)

    def test_report_mentions_every_pair(self, cross_result):
        text = cross_result.report()
        for (src, dst) in cross_result.matrix:
            assert f"{src} -> {dst}" in text

    def test_deterministic(self, cross_result):
        again = _cross_workload()
        assert again.matrix == cross_result.matrix
