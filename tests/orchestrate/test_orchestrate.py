"""repro.orchestrate: plan construction, execution, shard determinism."""

import pytest

from repro import obs
from repro.errors import WorkloadError
from repro.exec import ExecConfig
from repro.orchestrate import (
    TASK_SUITE_CELLS,
    TASK_WORKLOAD_RULES,
    ExecutionPlan,
    WorkloadTask,
    estimate_task_cost,
    execute_plan,
    plan_rules,
    plan_suite,
    restore_rules_payload,
    submission_order,
)
from repro.platform.presets import perlmutter_like
from repro.sim.measure import MeasurementConfig
from repro.workloads import Suite, WorkloadSpec

MEASUREMENT = MeasurementConfig(max_samples=1)

SPECS = (
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
)

TINY = Suite(
    name="tiny",
    description="two tiny workloads",
    specs=SPECS,
    strategies=("random", "mcts"),
    n_iterations=4,
    measurement=MEASUREMENT,
)

TINY_RULES = Suite(
    name="tiny-rules",
    description="tiny with cross-workload rules",
    specs=SPECS,
    strategies=("random",),
    n_iterations=4,
    measurement=MEASUREMENT,
    cross_workload_rules=True,
)


def _machine():
    return perlmutter_like()


class TestPlans:
    def test_plan_suite_one_task_per_workload(self):
        plan = plan_suite(TINY, machine=_machine())
        assert len(plan) == len(TINY.specs)
        assert all(t.kind == TASK_SUITE_CELLS for t in plan.tasks)
        assert [t.index for t in plan.tasks] == [0, 1]
        assert [t.spec for t in plan.tasks] == list(TINY.specs)
        assert all(t.strategies == TINY.strategies for t in plan.tasks)

    def test_cross_workload_suite_adds_rules_tasks(self):
        plan = plan_suite(TINY_RULES, machine=_machine())
        kinds = [t.kind for t in plan.tasks]
        assert kinds.count(TASK_SUITE_CELLS) == 2
        assert kinds.count(TASK_WORKLOAD_RULES) == 2

    def test_plan_rules(self):
        plan = plan_rules(
            SPECS, machine=_machine(), measurement=MEASUREMENT
        )
        assert [t.kind for t in plan.tasks] == [TASK_WORKLOAD_RULES] * 2

    def test_unknown_task_kind_rejected(self):
        with pytest.raises(WorkloadError, match="unknown task kind"):
            WorkloadTask(index=0, kind="nope", spec=SPECS[0])

    def test_suite_task_needs_strategies(self):
        with pytest.raises(WorkloadError, match="strategy"):
            WorkloadTask(index=0, kind=TASK_SUITE_CELLS, spec=SPECS[0])

    def test_misindexed_plan_rejected(self):
        task = WorkloadTask(
            index=1, kind=TASK_WORKLOAD_RULES, spec=SPECS[0]
        )
        with pytest.raises(WorkloadError, match="indexed contiguously"):
            ExecutionPlan(machine=_machine(), tasks=(task,))


def _comparable_cells(run):
    return [
        {k: v for k, v in cell.to_dict().items() if k != "wall_s"}
        for result in run.of_kind(TASK_SUITE_CELLS)
        for cell in result.payload
    ]


class TestExecution:
    def test_serial_execution_ordered_and_timed(self):
        plan = plan_suite(TINY, machine=_machine())
        with obs.capture(trace=True) as cap:
            run = execute_plan(plan)
        assert [r.index for r in run.results] == [0, 1]
        assert run.shard_workers == 0
        timing = run.timing()
        assert timing["n_tasks"] == 2
        for row in timing["tasks"]:
            assert row["wall_s"] > 0
        # Each task's layers are spans: its build, then its searches.
        (root,) = cap.spans
        for task in root.children:
            names = [c.name for c in task.children]
            assert names[0] == "workloads.build"
            assert "search.random" in names

    def test_sharded_bit_identical_to_serial(self):
        plan = plan_suite(TINY, machine=_machine())
        serial = execute_plan(plan)
        sharded = execute_plan(plan, shard_workers=2)
        assert sharded.shard_workers == 2
        # Whatever the completion order, results come back by index.
        assert [r.index for r in sharded.results] == [0, 1]
        assert _comparable_cells(serial) == _comparable_cells(sharded)

    def test_rules_plan_sharded_matches_serial(self):
        plan = plan_rules(
            SPECS, machine=_machine(), measurement=MEASUREMENT
        )
        serial = execute_plan(plan)
        with obs.capture(trace=True) as cap:
            sharded = execute_plan(plan, shard_workers=2)
        for a, b in zip(serial.results, sharded.results):
            wa = restore_rules_payload(a)
            wb = restore_rules_payload(b)
            assert wa.spec == wb.spec
            assert [r.text for r in wa.rules] == [r.text for r in wb.rules]
            assert [s.fingerprint() for s in wa.result.search.schedules()] == [
                s.fingerprint() for s in wb.result.search.schedules()
            ]
            assert (wa.fast_rows == wb.fast_rows).all()
            assert wa.program is not None and wb.program is not None
        # Each rules task, shipped home from its worker, traces the
        # pipeline's layers.
        (root,) = cap.spans
        tasks = [s for s in root.children if s.name.startswith("task:")]
        assert len(tasks) == len(plan.tasks)
        for task in tasks:
            assert {
                "workloads.build",
                "search.exhaustive",
                "ml.label",
                "ml.features",
                "ml.train",
                "ml.error",
                "rules.extract",
            } <= {s.name for s in task.walk()}

    def test_cost_aware_submission_order(self):
        """Sharded submission is costliest-first: the long-pole workload
        (largest design space) hits the pool before cheap ones, so the
        slowest task never starts last.  Pinned on real space counts:
        fork_join(s1,b2,d1) = 40 schedules, wavefront(2x2) = 16."""
        plan = plan_rules(
            SPECS, machine=_machine(), measurement=MEASUREMENT
        )
        costs = {t.index: estimate_task_cost(t) for t in plan.tasks}
        # SPECS order is (wavefront, fork_join): FIFO would submit the
        # cheap wavefront first; cost ordering must flip them.
        assert costs[0] == 16.0
        assert costs[1] == 40.0
        assert submission_order(plan.tasks, costs) == [1, 0]
        # Ties break on index, and unknown costs sort last.
        assert submission_order(plan.tasks, {0: 5.0, 1: 5.0}) == [0, 1]
        assert submission_order(plan.tasks, {}) == [0, 1]

    def test_suite_cells_cost_capped_by_sampling_budget(self):
        """A sampled (suite-cells) task on a big space costs its
        benchmark budget, not the space size, so it cannot outrank an
        exhaustive rules task over the same workload."""
        cells = WorkloadTask(
            index=0,
            kind=TASK_SUITE_CELLS,
            spec=SPECS[1],
            measurement=MEASUREMENT,
            strategies=("random", "mcts"),
            n_iterations=4,
        )
        rules = WorkloadTask(
            index=1,
            kind=TASK_WORKLOAD_RULES,
            spec=SPECS[1],
            measurement=MEASUREMENT,
        )
        assert estimate_task_cost(cells) == 8.0  # 4 iters x 2 strategies
        assert estimate_task_cost(rules) == 40.0  # the whole space
        costs = {0: estimate_task_cost(cells), 1: estimate_task_cost(rules)}
        assert submission_order((cells, rules), costs) == [1, 0]

    def test_cost_ordered_run_results_stay_index_ordered(self):
        """Submission order is a wall-clock concern only: results (and
        every payload) still come back in task-index order."""
        plan = plan_rules(
            SPECS, machine=_machine(), measurement=MEASUREMENT
        )
        run = execute_plan(plan, shard_workers=2)
        assert [r.index for r in run.results] == [0, 1]
        assert [r.label for r in run.results] == [
            s.label for s in SPECS
        ]

    def test_shared_cache_across_shards(self, tmp_path):
        """Two shards writing one cache file; a rerun re-simulates
        nothing and reports identical measurements."""
        cache = str(tmp_path / "shared.sqlite")
        suite = Suite(
            name="tiny",
            description="cached",
            specs=SPECS,
            strategies=("random",),
            n_iterations=4,
            measurement=MEASUREMENT,
        )
        plan = plan_suite(
            suite, machine=_machine(), execution=ExecConfig(cache_path=cache)
        )
        first = execute_plan(plan, shard_workers=2)
        second = execute_plan(plan, shard_workers=2)
        cells_first = _comparable_cells(first)
        cells_second = _comparable_cells(second)
        assert sum(c["n_simulations"] for c in cells_first) > 0
        assert sum(c["n_simulations"] for c in cells_second) == 0
        drop = ("n_simulations",)
        assert [
            {k: v for k, v in c.items() if k not in drop}
            for c in cells_first
        ] == [
            {k: v for k, v in c.items() if k not in drop}
            for c in cells_second
        ]


class TestWorkerBoundary:
    """What crosses the shard pool's process boundary besides payloads."""

    def test_task_error_reaches_parent(self):
        """A task that raises in a shard worker surfaces in the parent
        as the original library exception, with the worker's traceback."""
        tasks = tuple(
            WorkloadTask(
                index=i,
                kind=TASK_SUITE_CELLS,
                spec=spec,
                measurement=MEASUREMENT,
                strategies=("nope",),
                n_iterations=1,
            )
            for i, spec in enumerate(SPECS)
        )
        plan = ExecutionPlan(machine=_machine(), tasks=tasks)
        with pytest.raises(WorkloadError, match="unknown suite strategy 'nope'") as exc:
            execute_plan(plan, shard_workers=2)
        assert "make_strategy" in str(exc.value.__cause__)
