"""Tests for the leave-one-workload-out transfer matrix
(repro.transfer.matrix), end-to-end on tiny exhaustible workloads."""

import json

import pytest

from repro.exec import ExecConfig
from repro.rules.score import rule_satisfied
from repro.sim.measure import MeasurementConfig
from repro.transfer import matrix as matrix_module
from repro.transfer.matrix import (
    run_transfer_matrix,
    transfer_advisories,
    transfer_matrix_from,
    vacuous_control_rule,
)
from repro.transfer.signature import SignatureMatcher, program_signatures
from repro.workloads import WorkloadSpec, rules_for_specs

#: Tiny exhaustible spaces; stencil_reduce/wavefront share structure, so
#: the matrix has structurally matching and non-matching pairs.
SPECS = [
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
]

MEASUREMENT = MeasurementConfig(max_samples=1)


@pytest.fixture(scope="module")
def per_workload():
    return rules_for_specs(SPECS, measurement=MEASUREMENT)


@pytest.fixture(scope="module")
def matrix(per_workload):
    return transfer_matrix_from(per_workload)


class TestMatrixShape:
    def test_all_ordered_pairs(self, matrix):
        labels = matrix.workloads
        assert len(labels) == len(SPECS)
        expected = {(a, b) for a in labels for b in labels if a != b}
        assert set(matrix.cells) == expected

    def test_rows_sorted_and_json_ready(self, matrix):
        rows = matrix.rows()
        assert rows == sorted(
            rows, key=lambda r: (r["source"], r["target"])
        )
        json.dumps(matrix.to_dict())  # round-trips

    def test_summary_ranges(self, matrix):
        for cell in matrix.cells.values():
            assert 0 <= cell.n_transferable <= cell.n_rules
            assert -1.0 <= cell.mean_discrimination <= 1.0
            assert 0.0 <= cell.mean_coverage <= 1.0

    def test_report_mentions_every_pair_and_controls(self, matrix):
        text = matrix.report()
        assert "transfer matrix" in text
        assert "Injected always-true controls" in text
        for c in matrix.controls:
            assert c.target in text

    def test_needs_two_workloads(self, per_workload):
        with pytest.raises(ValueError, match="at least two"):
            transfer_matrix_from(per_workload[:1])
        with pytest.raises(ValueError, match="at least two"):
            run_transfer_matrix(SPECS[:1])


class TestControls:
    def test_every_workload_has_a_control(self, matrix):
        assert {c.target for c in matrix.controls} == set(matrix.workloads)

    def test_controls_score_exactly_zero(self, matrix):
        for control in matrix.controls:
            assert control.fast_satisfaction == 1.0
            assert control.slow_satisfaction == 1.0
            assert control.discrimination == 0.0

    def test_control_rule_is_always_satisfied(self, per_workload):
        for wl in per_workload:
            sigs = program_signatures(wl.program)
            rule = vacuous_control_rule(wl, sigs)
            assert rule is not None
            matcher = SignatureMatcher(sigs, sigs)
            for schedule in wl.result.search.schedules():
                assert (
                    rule_satisfied(rule, schedule, matcher=matcher) is True
                )


class TestUnionRows:
    def test_leave_one_out_row_per_workload(self, matrix):
        targets = {u.target for u in matrix.union_rows}
        skipped = set(matrix.workloads) - targets
        # Every workload is either evaluated or explicitly noted.
        for label in skipped:
            assert label in matrix.union_note
        for u in matrix.union_rows:
            assert len(u.trained_on) == len(SPECS) - 1
            assert u.target not in u.trained_on
            assert 0.0 <= u.holdout_accuracy <= 1.0
            assert u.n_features > 0

    def test_too_few_workloads_skips_union(self, per_workload):
        small = transfer_matrix_from(per_workload[:2])
        assert small.union_rows == []
        assert "at least" in small.union_note


def _no_timing(result):
    d = result.to_dict()
    d.pop("timing")
    return d


class TestDeterminism:
    def test_matrix_is_deterministic(self, per_workload, matrix):
        again = transfer_matrix_from(per_workload)
        assert again.to_dict() == matrix.to_dict()

    def test_end_to_end_matches_precomputed(self, matrix):
        direct = run_transfer_matrix(SPECS, measurement=MEASUREMENT)
        assert _no_timing(direct) == _no_timing(matrix)

    def test_sharded_matches_serial_modulo_timing(self, matrix):
        sharded = run_transfer_matrix(
            SPECS, measurement=MEASUREMENT, execution=ExecConfig(shard_workers=2)
        )
        assert sharded.timing["shard_workers"] == 2
        assert _no_timing(sharded) == _no_timing(matrix)


class TestAdvisories:
    def test_stencil_to_wavefront_flagged(self, matrix):
        """The ROADMAP's observed negative-transfer cell earns the
        do-not-transfer advisory; the advisory surfaces in rows, dict,
        and the rendered report."""
        advisories = matrix.advisories()
        pairs = {(c.source, c.target) for c in advisories}
        stencil = next(w for w in matrix.workloads if "stencil" in w)
        wave = next(w for w in matrix.workloads if w.startswith("wavefront"))
        assert (stencil, wave) in pairs
        for cell in advisories:
            assert cell.do_not_transfer
            assert cell.n_transferable > 0
            assert cell.mean_discrimination <= -0.10
        rows = matrix.rows()
        flagged = {
            (r["source"], r["target"]) for r in rows if r["do_not_transfer"]
        }
        assert flagged == pairs
        assert {
            (a["source"], a["target"])
            for a in matrix.to_dict()["advisories"]
        } == pairs
        text = matrix.report()
        assert "Do-not-transfer advisories" in text
        assert "avoid" in text

    def test_positive_and_untransferable_cells_not_flagged(self, matrix):
        for cell in matrix.cells.values():
            if cell.n_transferable == 0 or cell.mean_discrimination >= 0:
                assert not cell.do_not_transfer

    def test_advisories_need_no_union_training(
        self, per_workload, matrix, monkeypatch
    ):
        def no_union(*args, **kwargs):
            raise AssertionError("advisories trained a union tree")

        monkeypatch.setattr(matrix_module, "train_union", no_union)
        assert transfer_advisories(per_workload) == matrix.advisories()


class TestSuiteIntegration:
    def test_generalization_suite_carries_transfer_tables(self):
        # The built-in generalization suite declares >= 5 workloads and
        # cross-workload rules; its report must include the new tables.
        from repro.workloads import get_suite

        suite = get_suite("generalization")
        assert len(suite.specs) >= 5
        assert suite.cross_workload_rules
