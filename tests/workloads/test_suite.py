"""Tests for the suite layer: definitions, runner, report, caching."""

import json

import pytest

from repro import obs
from repro.errors import WorkloadError
from repro.exec import ExecConfig
from repro.ml.features import ScheduleTable
from repro.platform.presets import perlmutter_like
from repro.sim.measure import MeasurementConfig
from repro.workloads import (
    Suite,
    SuiteRunner,
    WorkloadSpec,
    builtin_suites,
    get_suite,
    run_suite,
)

def _comparable(cell, *, drop=("wall_s",)):
    """Cell dict minus fields that legitimately vary between runs."""
    return {k: v for k, v in cell.to_dict().items() if k not in drop}


def _report_comparable(report):
    """Report dict minus wall-clock timing (identical for any sharding)."""
    data = report.to_dict()
    data.pop("timing")
    data["cells"] = [
        {k: v for k, v in cell.items() if k != "wall_s"}
        for cell in data["cells"]
    ]
    return data


def _run_counting(suite, **kwargs):
    """Run ``suite``; return its report and the run's obs metrics delta."""
    before = obs.metrics_snapshot()
    report = SuiteRunner(suite, **kwargs).run()
    return report, obs.metrics_snapshot().diff(before)


def _assert_same_counters(serial, sharded):
    """Sharding must not change any counter (``repro trace --diff``)."""
    assert serial.counters == sharded.counters
    assert serial.digest() == sharded.digest()


TINY = Suite(
    name="tiny",
    description="two tiny workloads for tests",
    specs=(
        WorkloadSpec("wavefront", {"width": 2, "height": 2}),
        WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    ),
    strategies=("random", "mcts"),
    n_iterations=4,
    measurement=MeasurementConfig(max_samples=1),
)

TINY_RULES = Suite(
    name="tiny-rules",
    description="three tiny exhaustible workloads with cross-workload rules",
    specs=(
        WorkloadSpec("wavefront", {"width": 2, "height": 2}),
        WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
        WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    ),
    strategies=("random",),
    n_iterations=4,
    measurement=MeasurementConfig(max_samples=1),
    cross_workload_rules=True,
)


class TestDefinitions:
    def test_builtin_suites_present(self):
        assert {"smoke", "paper", "generalization"} <= set(builtin_suites())

    def test_smoke_covers_all_seven_families(self):
        smoke = get_suite("smoke")
        families = {s.family for s in smoke.specs}
        assert families == {
            "spmv",
            "halo3d",
            "layered_random",
            "fork_join",
            "tree_allreduce",
            "wavefront",
            "stencil_reduce",
        }
        assert len(smoke.specs) >= 7

    def test_unknown_suite_rejected(self):
        with pytest.raises(WorkloadError, match="unknown suite"):
            get_suite("nope")


class TestRunner:
    def test_one_cell_per_workload_strategy_pair(self):
        report = SuiteRunner(TINY).run()
        assert len(report.cells) == len(TINY.specs) * len(TINY.strategies)
        pairs = {(c.workload, c.strategy) for c in report.cells}
        assert len(pairs) == len(report.cells)
        for cell in report.cells:
            assert cell.n_iterations == TINY.n_iterations
            assert cell.best_time > 0
            assert cell.best_time <= cell.mean_time
            assert cell.n_simulations > 0

    def test_json_report_round_trips(self):
        report = SuiteRunner(TINY).run()
        data = json.loads(report.to_json())
        assert data["suite"] == "tiny"
        assert len(data["cells"]) == len(report.cells)
        row = data["cells"][0]
        assert {"workload", "family", "strategy", "best_time_us"} <= set(row)

    def test_ascii_table_lists_every_cell(self):
        report = SuiteRunner(TINY).run()
        table = report.ascii_table()
        for cell in report.cells:
            assert cell.workload in table
        assert "best(us)" in table

    def test_deterministic_across_runs(self):
        a = SuiteRunner(TINY).run()
        b = SuiteRunner(TINY).run()
        assert [_comparable(c) for c in a.cells] == [
            _comparable(c) for c in b.cells
        ]

    def test_shard_workers_do_not_change_results(self):
        """Workload-level sharding: the whole report (not just cells) is
        bit-identical to serial, excluding wall-clock timing."""
        serial, serial_delta = _run_counting(TINY)
        sharded, sharded_delta = _run_counting(
            TINY, execution=ExecConfig(shard_workers=2)
        )
        assert _report_comparable(serial) == _report_comparable(sharded)
        assert sharded.timing["shard_workers"] == 2
        assert serial.timing["shard_workers"] == 0
        _assert_same_counters(serial_delta, sharded_delta)

    def test_timing_records_per_task_stages(self):
        """``timing`` keeps each task's wall; the trace keeps its layers:
        the build, then one search span per strategy."""
        with obs.capture(trace=True) as cap:
            report = SuiteRunner(TINY).run()
        timing = report.timing
        assert timing["n_tasks"] == len(TINY.specs)
        for row in timing["tasks"]:
            assert set(row) == {"label", "kind", "wall_s"}
            assert row["kind"] == "suite-cells"
        (plan,) = cap.spans
        assert [t.name for t in plan.children] == [
            f"task:{row['label']}" for row in timing["tasks"]
        ]
        for task in plan.children:
            names = [c.name for c in task.children]
            assert names[0] == "workloads.build"
            assert [n for n in names if n.startswith("search.")] == [
                f"search.{strat}" for strat in TINY.strategies
            ]
        assert not [
            s.name for s in plan.walk() if s.name.startswith("stage:")
        ]

    def test_cache_hits_across_runs(self, tmp_path):
        """Same suite, same cache file ⇒ second run re-simulates nothing
        (workload fingerprints are bit-stable)."""
        cache = str(tmp_path / "suite.sqlite")
        execution = ExecConfig(cache_path=cache)
        first = SuiteRunner(TINY, execution=execution).run()
        second = SuiteRunner(TINY, execution=execution).run()
        assert sum(c.n_simulations for c in first.cells) > 0
        assert sum(c.n_simulations for c in second.cells) == 0
        drop = ("wall_s", "n_simulations")
        assert [_comparable(c, drop=drop) for c in first.cells] == [
            _comparable(c, drop=drop) for c in second.cells
        ]

    def test_save_json(self, tmp_path):
        path = tmp_path / "report.json"
        report = SuiteRunner(TINY).run()
        report.save_json(str(path))
        assert json.loads(path.read_text())["suite"] == "tiny"


class TestCrossWorkloadTables:
    @pytest.fixture(scope="class")
    def serial_run(self):
        return _run_counting(TINY_RULES)

    @pytest.fixture(scope="class")
    def report(self, serial_run):
        return serial_run[0]

    def test_rules_and_transfer_tables_populated(self, report):
        n = len(TINY_RULES.specs)
        assert len(report.rules_table) == n * (n - 1)
        assert len(report.transfer_table) == n * (n - 1)
        for row in report.transfer_table:
            assert {
                "source",
                "target",
                "n_rules",
                "n_transferable",
                "mean_discrimination",
                "mean_coverage",
            } <= set(row)

    def test_union_table_rows(self, report):
        # Three workloads: leave-one-out union rows (minus any skipped
        # for lacking shared features) land in the report.
        for row in report.union_table:
            assert 0.0 <= float(row["holdout_accuracy"]) <= 1.0

    def test_tables_render_and_serialize(self, report):
        from repro.transfer.matrix import format_transfer_rows, format_union_rows

        text = report.ascii_table()
        assert "Signature-matched transfer" in text
        # Both tables are drawn as `repro transfer` draws them.
        assert report.union_table
        assert "\n".join(format_transfer_rows(report.transfer_table)) in text
        assert "\n".join(format_union_rows(report.union_table)) in text
        assert "advice" in text and "train sources" in text
        data = json.loads(report.to_json())
        assert "transfer_table" in data
        assert "union_table" in data

    def test_reduce_steps_traced_as_root_spans(self, report, tmp_path):
        """Scoring, the transfer matrix and publishing each get a root
        span after the plan; the report is the untraced one."""
        with obs.capture(trace=True) as cap:
            traced = SuiteRunner(TINY_RULES, store_path=str(tmp_path)).run()
        assert [s.name for s in cap.spans] == [
            "plan.execute",
            "rules.score",
            "transfer.matrix",
            "advisor.publish",
        ]
        assert traced.published
        traced.published = []
        assert _report_comparable(traced) == _report_comparable(report)

    def test_reduce_builds_one_table_per_workload(
        self, report, tmp_path, monkeypatch
    ):
        """After the plan, a stored run scans each workload's schedules
        once: the role table, the transfer matrix and publishing all read
        that one table, and no union fold builds one."""
        import repro.orchestrate
        from repro.advisor import publish
        from repro.transfer import matrix

        builds = []
        where = ["plan"]

        def during(stage, fn):
            def wrapped(*args, **kwargs):
                outer, where[0] = where[0], stage
                try:
                    return fn(*args, **kwargs)
                finally:
                    where[0] = outer

            return wrapped

        init = ScheduleTable.__init__

        def counting(self, schedules):
            builds.append(where[0])
            init(self, schedules)

        monkeypatch.setattr(ScheduleTable, "__init__", counting)
        execute_plan = repro.orchestrate.execute_plan

        def plan_then_reduce(*args, **kwargs):
            run = execute_plan(*args, **kwargs)
            where[0] = "reduce"
            return run

        monkeypatch.setattr(repro.orchestrate, "execute_plan", plan_then_reduce)
        for module in (matrix, publish):
            monkeypatch.setattr(
                module, "train_union", during("union", module.train_union)
            )
        stored = SuiteRunner(TINY_RULES, store_path=str(tmp_path)).run()
        assert report.union_table and stored.published
        assert builds.count("reduce") == len(TINY_RULES.specs)
        assert "union" not in builds
        stored.published = []
        assert _report_comparable(stored) == _report_comparable(report)

    @pytest.mark.parametrize(
        ("execution", "span", "attr", "value"),
        [(ExecConfig(block_size=7), "search.exhaustive", "batch_size", 7)],
        ids=["block_size"],
    )
    def test_exec_settings_do_not_change_tables(
        self, report, execution, span, attr, value
    ):
        """The exhaustive block size reaches the rule pipelines (the
        traced spans show it) and changes no cell and no cross-workload
        table."""
        with obs.capture(trace=True) as cap:
            other = SuiteRunner(TINY_RULES, execution=execution).run()
        seen = [s.attrs[attr] for s in obs.walk_spans(cap.spans) if s.name == span]
        assert seen and set(seen) == {value}
        assert [_comparable(c) for c in other.cells] == [
            _comparable(c) for c in report.cells
        ]
        assert other.rules_table == report.rules_table
        assert other.transfer_table == report.transfer_table
        assert other.union_table == report.union_table

    def test_sharded_cross_workload_report_identical(self, serial_run):
        """Sharding covers the rule pipelines too: every table of the
        generalization-style report, and every counter, matches the
        serial run."""
        report, serial_delta = serial_run
        sharded, sharded_delta = _run_counting(
            TINY_RULES, execution=ExecConfig(shard_workers=2)
        )
        assert _report_comparable(sharded) == _report_comparable(report)
        kinds = {t["kind"] for t in sharded.timing["tasks"]}
        assert kinds == {"suite-cells", "workload-rules"}
        _assert_same_counters(serial_delta, sharded_delta)


@pytest.mark.slow
class TestSmokeSuite:
    def test_smoke_runs_end_to_end(self):
        report = run_suite("smoke", machine=perlmutter_like())
        smoke = get_suite("smoke")
        assert len(report.cells) == len(smoke.specs) * len(smoke.strategies)
        # >= 6 workloads through the evaluator, one row per cell
        assert len({c.workload for c in report.cells}) >= 6
