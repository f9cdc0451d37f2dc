"""End-to-end observability: sharded runs merge into one coherent story.

The bit-stability contract: counters count *deterministic* events, and
the worker-capture/absorb protocol merges them exactly like task
payloads — so a range-sharded sweep produces the same counter digest as
the serial one, and a traced sharded run yields one tree covering every
shard task.
"""

import pytest

from repro import obs
from repro.exec import ExecConfig
from repro.obs import walk_spans
from repro.orchestrate import run_range_sharded_search
from repro.platform.presets import noiseless, perlmutter_like
from repro.sim.measure import MeasurementConfig
from repro.workloads import WorkloadSpec, run_suite

SPEC = WorkloadSpec("wavefront", {"width": 2, "height": 2})
MEASUREMENT = MeasurementConfig(max_samples=1)


@pytest.fixture(scope="module")
def machine():
    return noiseless(perlmutter_like())


def _sweep_delta(machine, shard_workers):
    before = obs.metrics_snapshot()
    sharded = run_range_sharded_search(
        SPEC,
        machine=machine,
        n_shards=3,
        measurement=MEASUREMENT,
        execution=ExecConfig(shard_workers=shard_workers),
    )
    return sharded, obs.metrics_snapshot().diff(before)


class TestCrossProcessMetrics:
    def test_sharded_digest_matches_in_process(self, machine):
        serial, serial_delta = _sweep_delta(machine, shard_workers=0)
        sharded, sharded_delta = _sweep_delta(machine, shard_workers=2)
        assert serial.result.n_iterations == sharded.result.n_iterations
        assert serial_delta.counters == sharded_delta.counters
        assert serial_delta.digest() == sharded_delta.digest()
        # The totals account for every schedule in the space exactly once.
        assert serial_delta.counter("search.schedules_evaluated") == serial.total
        assert serial_delta.counter("space.schedules_enumerated") == serial.total

    def test_suite_report_carries_cache_metrics(self, machine, tmp_path):
        cache = str(tmp_path / "cache.sqlite")
        execution = ExecConfig(cache_path=cache)
        cold = run_suite("smoke", machine=machine, execution=execution)
        assert cold.metrics["cache"]["misses"] > 0
        assert cold.metrics["cache"]["hits"] == 0
        warm = run_suite("smoke", machine=machine, execution=execution)
        assert warm.metrics["cache"]["hits"] > 0
        assert "metrics" in cold.to_dict()
        assert "cache" in warm.ascii_table()


class TestCrossProcessTrace:
    def test_sharded_trace_covers_every_shard_task(self, machine):
        with obs.capture(trace=True) as cap:
            sharded = run_range_sharded_search(
                SPEC,
                machine=machine,
                n_shards=3,
                measurement=MEASUREMENT,
                execution=ExecConfig(shard_workers=2),
            )
        (root,) = cap.spans
        assert root.name == "plan.execute"
        tasks = [s for s in root.children if s.name.startswith("task:")]
        assert len(tasks) == len(sharded.ranges)
        assert sorted(t.attrs["index"] for t in tasks) == list(
            range(len(sharded.ranges))
        )
        # Worker spans keep their own pids — none came from this process.
        assert all(t.pid != root.pid for t in tasks)
        # Each task span contains the search it ran.
        for task in tasks:
            assert task.find("search.exhaustive") is not None
        # Metrics shipped alongside: the capture saw the full counts.
        assert cap.metrics.counter("search.schedules_evaluated") == sharded.total

    def test_in_process_trace_has_same_shape(self, machine):
        with obs.capture(trace=True) as cap:
            sharded = run_range_sharded_search(
                SPEC,
                machine=machine,
                n_shards=3,
                measurement=MEASUREMENT,
                execution=ExecConfig(shard_workers=0),
            )
        (root,) = cap.spans
        tasks = [s for s in root.children if s.name.startswith("task:")]
        assert len(tasks) == len(sharded.ranges)
        for task in tasks:
            assert [c.name for c in task.children][:1] == ["workloads.build"]
            assert task.find("search.exhaustive") is not None
        names = {s.name for s in walk_spans(cap.spans)}
        assert {"plan.execute", "workloads.build", "search.exhaustive"} <= names
        assert not [n for n in names if n.startswith("stage:")]
