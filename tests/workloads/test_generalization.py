"""Tests for cross-workload rule generalization."""

import pytest

from repro.ml.features import ScheduleTable
from repro.rules.score import ROLE, score_rules, transfer_summary
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
        assert wr.fast_rows.any()  # fastest class is never empty
        # one flag per explored schedule
        assert len(wr.fast_rows) == wr.table.n_schedules


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

    def test_deterministic(self, cross_result):
        again = _cross_workload()
        assert again.matrix == cross_result.matrix


# ----------------------------------------------------------------------
# The role table against the per-pair loop it replaced.

#: Programs whose op names share roles (``Pack``/``Pack_x``, posts and
#: waits), so role-matched rules transfer between them.
ROLE_SPECS = [
    WorkloadSpec("spmv", {"scale": 0.025}),
    WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    ),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
]


@pytest.fixture(scope="module")
def role_workloads():
    return rules_for_specs(ROLE_SPECS, measurement=MEASUREMENT)


def test_role_table_matches_per_pair_scoring(role_workloads, monkeypatch):
    """Each target's table is keyed by role once, and the table equals
    scoring every (source, target) pair on its own."""
    keyings = []
    keyed = ScheduleTable.keyed

    def counting(self, key_of):
        keyings.append(self.n_schedules)
        return keyed(self, key_of)

    monkeypatch.setattr(ScheduleTable, "keyed", counting)
    rows = score_cross_workload(role_workloads).rows()
    assert len(keyings) == len(role_workloads)
    monkeypatch.undo()

    want = []
    for src in role_workloads:
        for dst in role_workloads:
            if src is dst:
                continue
            fast = [
                s
                for s, is_fast in zip(dst.result.search.schedules(), dst.fast_rows)
                if is_fast
            ]
            scores = score_rules(src.rules, fast, matcher=ROLE)
            n_rules, n_trans, sat = transfer_summary(scores)
            want.append(
                {
                    "source": src.spec.label,
                    "target": dst.spec.label,
                    "n_rules": n_rules,
                    "n_transferable": n_trans,
                    "mean_satisfaction": sat,
                }
            )
    assert rows == sorted(want, key=lambda r: (r["source"], r["target"]))
    assert any(r["n_transferable"] for r in rows)
