"""Tests for the shared experiment workbench."""

import pytest

from repro.apps.spmv import SpmvCase
from repro.experiments.workbench import SpmvWorkbench, default_workbench
from repro.platform import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.sim import MeasurementConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker


@pytest.fixture(scope="module")
def wb():
    return SpmvWorkbench(
        case=SpmvCase().scaled(1 / 80),
        machine=perlmutter_like(noise_sigma=0.01),
        measurement=MeasurementConfig(max_samples=1),
    )


class TestCaching:
    def test_instance_cached(self, wb):
        assert wb.instance is wb.instance

    def test_space_cached(self, wb):
        assert wb.space is wb.space

    def test_full_search_cached(self, wb):
        a = wb.full_search()
        b = wb.full_search()
        assert a is b
        assert len(a) == wb.space.count()

    def test_full_pipeline_cached(self, wb):
        assert wb.full_pipeline() is wb.full_pipeline()

    def test_benchmarker_shared_with_pipelines(self, wb):
        pipe = wb.pipeline(strategy="mcts")
        assert pipe.benchmarker is wb.benchmarker

    def test_pipelines_build_no_space_or_measurement_stack(
        self, wb, monkeypatch
    ):
        """A workbench pipeline uses the workbench's space, benchmarker and
        evaluator, and constructs no space, executor or benchmarker of its
        own, also while its cells search, train and score."""
        wb.full_pipeline()
        made = []
        for cls in (DesignSpace, ScheduleExecutor, Benchmarker):
            init = cls.__init__

            def counting(self, *args, _init=init, **kwargs):
                made.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        pipe = wb.pipeline(strategy="random", seed=3)
        assert pipe.space is wb.space
        assert pipe.benchmarker is wb.benchmarker
        assert pipe.make_strategy().space is wb.space
        for strategy in ("random", "beam", "mcts"):
            wb.cell(strategy, 3, 5)
        assert made == []

    def test_cell_reports_its_own_simulations(self):
        """A cell's search reports the simulations made for it: one per
        new schedule (one sample each here), none when its tree already
        held the samples, and none once the space is swept."""
        fresh = SpmvWorkbench(
            case=SpmvCase().scaled(1 / 80),
            machine=perlmutter_like(noise_sigma=0.01),
            measurement=MeasurementConfig(max_samples=1),
        )
        first = fresh.cell("mcts", 4, 7).result.search  # before the sweep
        assert first.n_simulations == len(first) > 0
        assert fresh.evaluator.n_simulations == fresh.space.count()
        for strategy, budget in (("mcts", 3), ("mcts", 9), ("random", 7)):
            cell = fresh.cell(strategy, 4, budget)
            assert cell.result.search.n_simulations == 0


class TestIterationGrid:
    def test_grid_fractions(self, wb):
        grid = wb.iteration_grid()
        n = wb.space.count()
        assert grid[-1] == n
        assert grid == sorted(grid)
        assert grid[0] >= 2

    def test_strategies_construct(self, wb):
        assert wb.mcts(seed=1).config.seed == 1
        assert wb.random(seed=2).rng is not None


class TestDefaultWorkbench:
    def test_memoized(self):
        a = default_workbench(scale=0.0125, noise_sigma=0.01)
        b = default_workbench(scale=0.0125, noise_sigma=0.01)
        assert a is b

    def test_scale_below_one_shrinks(self):
        wb = default_workbench(scale=0.0125, noise_sigma=0.01)
        assert wb.case.n_rows < SpmvCase().n_rows
