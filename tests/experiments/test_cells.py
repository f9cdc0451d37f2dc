"""Oracle tests for the workbench's Table V cells.

``SpmvWorkbench.cell`` keeps each (strategy, seed, budget) cell's
pipeline and score, and grows one MCTS per variant and seed across
budgets.  The reference computes a cell as the experiments did before
the memo: a new search on a new space (plain UCT over the bare
benchmarker), a new pipeline, and the Table V score rescanning the whole
space.  Every cell must equal it bit for bit, in any request order; the
nine paper experiments on one workbench must report what each reports
alone on a fresh workbench; and they must pay each search once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.spmv import SpmvCase
from repro.core.pipeline import DesignRulePipeline, PipelineConfig
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
from repro.platform import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.search.mcts import MctsConfig, MctsSearch, PlainUctMcts
from repro.sim import MeasurementConfig
from tests.experiments.test_experiments import rescanned_accuracy


def workbench() -> SpmvWorkbench:
    return SpmvWorkbench(
        case=SpmvCase().scaled(1 / 40),
        machine=perlmutter_like(noise_sigma=0.01),
        measurement=MeasurementConfig(max_samples=2),
    )


def outputs(result, accuracy):
    """Everything a cell holds that an experiment reads."""
    search = result.search
    return (
        search.strategy,
        search.n_iterations,
        [(s.schedule.fingerprint(), s.time) for s in search.samples],
        result.labeling.boundaries.tolist(),
        result.rulesets,
        result.training_error,
        accuracy,
    )


@pytest.fixture(scope="module")
def reference():
    """Reference cells by key, computed on first use on a workbench that
    keeps no cells."""
    ref = workbench()
    n_space = ref.space.count()
    cells = {}

    def cell(strategy, seed, budget):
        key = ("exhaustive", 0, n_space) if budget >= n_space else (
            strategy, seed, budget
        )
        if key not in cells:
            name = "mcts" if strategy == PlainUctMcts.name else key[0]
            pipe = DesignRulePipeline(
                ref.instance.program,
                ref.machine,
                PipelineConfig(
                    strategy=name,
                    measurement=ref.measurement,
                    labeling=ref.labeling,
                    seed=key[1],
                ),
                evaluator=ref.evaluator,
            )
            if budget >= n_space:
                search = ref.full_search()
            elif strategy == PlainUctMcts.name:
                space = DesignSpace(ref.instance.program, n_streams=2)
                search = PlainUctMcts(
                    space, ref.benchmarker, MctsConfig(seed=seed)
                ).run(budget)
            else:
                search = pipe.make_strategy().run(budget)
            result = pipe.run(search)
            cells[key] = outputs(
                result, rescanned_accuracy(result, ref.full_search())
            )
        return cells[key]

    return cell


def assert_cells_match(wb, reference, requests) -> None:
    for strategy, seed, budget in requests:
        got = wb.cell(strategy, seed, budget)
        assert outputs(got.result, got.accuracy) == reference(
            strategy, seed, budget
        )


STRATEGIES = ("mcts", PlainUctMcts.name, "random", "beam")
CELLS = st.tuples(
    st.sampled_from(STRATEGIES),
    st.sampled_from((0, 1)),
    st.sampled_from((1, 9, 27, 60, 540, 700)),
)


@given(st.lists(CELLS, min_size=1, max_size=8))
@settings(max_examples=10, deadline=None)
def test_cells_equal_fresh_searches_in_any_order(reference, requests):
    wb = workbench()
    assert_cells_match(wb, reference, requests)
    # A cell asked for again is the kept one.
    for strategy, seed, budget in requests:
        assert wb.cell(strategy, seed, budget) is wb.cell(strategy, seed, budget)


def test_descending_budgets_grow_one_tree(reference, monkeypatch):
    """The largest budget runs the tree once; the smaller cells take its
    first samples, and the full-space budget is the exhaustive pipeline."""
    wb = workbench()
    rollouts = []
    real = MctsSearch._rollout

    def counting(self, node):
        if self.space is wb.space:  # not a reference search
            rollouts.append(self.name)
        return real(self, node)

    monkeypatch.setattr(MctsSearch, "_rollout", counting)
    assert_cells_match(
        wb,
        reference,
        [("mcts", 0, b) for b in (108, 54, 27, 14, 1)]
        + [(PlainUctMcts.name, 1, b) for b in (60, 9, 61)],
    )
    assert rollouts.count("mcts") == 108
    assert rollouts.count(PlainUctMcts.name) == 61
    assert wb.cell("beam", 0, 540).result is wb.full_pipeline()
    assert wb.cell("mcts", 1, 999) is wb.cell("random", 2, 540)


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_rejected_before_any_search(budget):
    wb = workbench()
    with pytest.raises(ValueError, match=f"at least 1, got {budget}"):
        run_table5(wb, iterations=[budget])
    with pytest.raises(ValueError, match=f"got {budget}"):
        run_rule_tables(wb, iterations=[budget])
    with pytest.raises(ValueError, match=f"got {budget}"):
        run_exploitation_ablation(wb, iterations=[budget])
    assert wb._full is None and not wb._cells and not wb._trees


@pytest.mark.parametrize(
    "experiment", [run_mcts_vs_random, run_exploitation_ablation]
)
def test_ablations_reject_empty_seeds(experiment):
    wb = workbench()
    with pytest.raises(ValueError, match="at least one seed"):
        experiment(wb, seeds=())
    assert wb._full is None and not wb._cells


# -- the nine paper experiments ----------------------------------------------------
#: The workbench experiments of ``repro all``, in its order (by CLI name).
EXPERIMENTS = (
    ("ablation-exploit", run_exploitation_ablation),
    ("ablation-noise", run_noise_sensitivity),
    ("ablation-random", run_mcts_vs_random),
    ("fig1", run_fig1),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("rules", run_rule_tables),
    ("table5", run_table5),
)


def report(result):
    """An experiment's report, with Fig. 1's whole sorted curve and
    Fig. 5's full Algorithm 1 trace."""
    parts = [result.report()]
    if hasattr(result, "sorted_times"):
        parts.append(result.sorted_times.tolist())
    if hasattr(result, "trace"):
        parts.append(result.trace.rows())
    return parts


@pytest.fixture(scope="module")
def shared_run():
    """The nine experiments on one workbench: their reports and how many
    MCTS iterations and pipeline runs they made."""
    counts = {"iterations": 0, "pipelines": 0}
    rollout, run = MctsSearch._rollout, DesignRulePipeline.run

    def counting_rollout(self, node):
        counts["iterations"] += 1
        return rollout(self, node)

    def counting_run(self, search_result=None):
        counts["pipelines"] += 1
        return run(self, search_result)

    wb = workbench()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MctsSearch, "_rollout", counting_rollout)
        mp.setattr(DesignRulePipeline, "run", counting_run)
        reports = {name: report(experiment(wb)) for name, experiment in EXPERIMENTS}
    return reports, counts


def test_experiments_match_each_alone_on_a_fresh_workbench(shared_run):
    reports, _ = shared_run
    for name, experiment in EXPERIMENTS:
        assert reports[name] == report(experiment(workbench())), name


def test_experiments_pay_each_search_once(shared_run):
    """24 (variant, seed, budget) MCTS cells on six trees of 108
    iterations; 49 distinct Table V cells, the full one included.  Before
    the memo the nine made 2,233 iterations and 70 pipeline runs."""
    _, counts = shared_run
    assert counts == {"iterations": 648, "pipelines": 49}
