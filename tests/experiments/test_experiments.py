"""Tests for the canned paper experiments (at test scale)."""

import numpy as np
import pytest

from repro.apps.spmv import SpmvCase
from repro.core.pipeline import DesignRulePipeline
from repro.experiments import (
    SpmvWorkbench,
    run_exploitation_ablation,
    run_fig1,
    run_fig4,
    run_fig5,
    run_fig6,
    run_mcts_vs_random,
    run_noise_sensitivity,
    run_rule_tables,
    run_table5,
)
from repro.ml.features import ScheduleTable
from repro.ml.labeling import label_by_performance
from repro.ml.metrics import range_accuracy
from repro.platform import perlmutter_like
from repro.search import ExhaustiveSearch
from repro.sim import Benchmarker, MeasurementConfig, ScheduleExecutor


@pytest.fixture(scope="module")
def wb():
    return SpmvWorkbench(
        case=SpmvCase().scaled(1 / 40),
        machine=perlmutter_like(noise_sigma=0.01),
        measurement=MeasurementConfig(max_samples=2),
    )


class TestFig1:
    def test_curve_shape(self, wb):
        r = run_fig1(wb)
        assert r.n_implementations == 540
        assert np.all(np.diff(r.sorted_times) >= 0)
        assert 1.1 < r.speedup < 2.5
        assert "speedup" in r.report()

    def test_ascii_plot_renders(self, wb):
        out = run_fig1(wb).ascii_plot(width=40, height=8)
        assert "implementations sorted" in out
        assert "#" in out


class TestFig4:
    def test_labeling_report(self, wb):
        r = run_fig4(wb)
        assert 2 <= r.labeling.n_classes <= 4
        assert "classes" in r.report()


class TestFig5:
    def test_trace_starts_at_two_and_improves(self, wb):
        r = run_fig5(wb)
        assert r.trace.leaf_nodes[0] == 2
        assert min(r.trace.errors) == r.final_error
        assert r.final_error <= r.trace.errors[0]
        assert "Algorithm 1" in r.report()


class TestFig6:
    def test_six_leaf_tree(self, wb):
        r = run_fig6(wb)
        assert r.tree.n_leaves == 6
        assert len(r.rulesets) == 6
        assert "samples=" in r.rendered
        # Rule text uses the paper's phrasing.
        assert any(
            "before" in rule.text or "stream" in rule.text
            for rs in r.rulesets
            for rule in rs.rules
        )


class TestTable5:
    def test_accuracy_increases_to_one(self, wb):
        r = run_table5(wb, iterations=[25, 100, 540])
        assert r.accuracies[-1] == 1.0
        assert r.accuracies[0] <= r.accuracies[-1]
        assert all(0 <= a <= 1 for a in r.accuracies)
        assert "Table V" in r.report()


def rescanned_accuracy(result, full_search) -> float:
    """The Table V metric as computed before the workbench kept the full
    space's table: every call rescans the whole space."""
    full = full_search.unique()
    x_all = result.extractor.transform(full.schedules()).matrix
    return range_accuracy(result.tree, x_all, full.times(), result.labeling.classes)


class TestTable5FullSpace:
    def test_scores_match_rescanning_from_one_table(self, monkeypatch):
        """Every Table V score of every budget, seed and strategy (and of
        the exploitation ablation) equals the rescanning computation bit
        for bit, and the workbench scans its full space once for all."""
        wb = SpmvWorkbench(
            case=SpmvCase().scaled(1 / 40),
            machine=perlmutter_like(noise_sigma=0.01),
            measurement=MeasurementConfig(max_samples=2),
        )
        n_space = wb.space.count()
        scored = []
        real_score = DesignRulePipeline.generalization_accuracy

        def recording(self, result, full):
            acc = real_score(self, result, full)
            scored.append((result, acc))
            return acc

        tables = []
        real_init = ScheduleTable.__init__

        def counting(self, schedules):
            real_init(self, schedules)
            tables.append(self.n_schedules)

        def table5(**options):
            n = len(scored)
            t5 = run_table5(wb, **options)
            assert t5.accuracies == [acc for _, acc in scored[n:]]

        budgets = wb.iteration_grid()
        with monkeypatch.context() as mp:
            mp.setattr(DesignRulePipeline, "generalization_accuracy", recording)
            mp.setattr(ScheduleTable, "__init__", counting)
            for strategy in ("mcts", "random", "beam"):
                for seed in (0, 1, 2):
                    table5(iterations=budgets[:-1], seed=seed, strategy=strategy)
            run_exploitation_ablation(wb, iterations=budgets[:2], seeds=(0, 1))
            # Below the full budget every full-space table is the kept one.
            assert tables.count(n_space) == 1
            table5(iterations=budgets[-1:])
        # The exploitation ablation's coverage-V cells are table5's mcts
        # cells, so only its plain-UCT cells are scored anew.
        assert len(scored) == 9 * (len(budgets) - 1) + 2 * 2 + 1
        full_search = wb.full_search()
        for result, acc in scored:
            assert acc == rescanned_accuracy(result, full_search)
        assert scored[-1][1] == 1.0
        assert wb.full_space() is wb.full_space()


class TestRuleTables:
    def test_cells_cover_classes_and_columns(self, wb):
        r = run_rule_tables(wb, iterations=[50, 540])
        assert r.cells  # at least one class
        for cls, cols in r.cells.items():
            assert set(cols) == {"50", "540"}
        # Full-budget column must be exact (canonical vs itself).
        from repro.rules.compare import Annotation

        for cls, cols in r.cells.items():
            for res in cols["540"]:
                assert res.annotation is Annotation.EXACT

    def test_report_renders(self, wb):
        out = run_rule_tables(wb, iterations=[50, 540]).report()
        assert "+" in out and "|" in out


class TestAblations:
    def test_mcts_vs_random_rows(self, wb):
        r = run_mcts_vs_random(wb, iterations=[40], seeds=(0, 1))
        assert len(r.rows) == 3  # one per strategy
        strategies = {row[0] for row in r.rows}
        assert strategies == {"mcts", "random", "beam"}

    def test_exploitation_ablation_rows(self, wb):
        r = run_exploitation_ablation(wb, iterations=[40], seeds=(0,))
        assert {row[0] for row in r.rows} == {"coverage-V", "plain-UCT"}

    def test_noise_sensitivity(self, wb):
        r = run_noise_sensitivity(wb, sigmas=(0.0, 0.02))
        assert len(r.rows) == 2
        for row in r.rows:
            assert int(row[1]) >= 1  # at least one class
        assert "sigma" in r.report()

    def test_noise_sensitivity_reuses_the_workbench_sweep(self, wb, monkeypatch):
        """Rows equal a fresh sweep per σ on a new perlmutter-like
        machine, and the workbench's own σ simulates nothing once the
        workbench has swept its space."""
        sigmas = (0.0, 0.01, 0.02)
        want = []
        for sigma in sigmas:
            executor = ScheduleExecutor(
                wb.instance.program, perlmutter_like(noise_sigma=sigma)
            )
            search = ExhaustiveSearch(
                wb.space, Benchmarker(executor, wb.measurement)
            ).run()
            lab = label_by_performance(search.times(), wb.labeling)
            spread = search.worst().time / search.best().time
            want.append(
                [
                    f"{sigma:.3f}",
                    lab.n_classes,
                    [c.size for c in lab.classes],
                    f"{spread:.3f}",
                ]
            )
        assert run_noise_sensitivity(wb, sigmas=sigmas).rows == want

        wb.full_search()
        runs = []
        real_run = ScheduleExecutor.run

        def counting_run(self, schedule, sample=0):
            runs.append(sample)
            return real_run(self, schedule, sample)

        monkeypatch.setattr(ScheduleExecutor, "run", counting_run)
        assert run_noise_sensitivity(wb, sigmas=(0.01,)).rows == want[1:2]
        assert runs == []
