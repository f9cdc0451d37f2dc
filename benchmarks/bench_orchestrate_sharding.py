"""Workload-level sharding benchmarks (repro.orchestrate).

Measures what the orchestrate layer buys over the serial sweep:

* the ``smoke`` suite executed serially vs. sharded across whole-workload
  processes (the PR's headline speedup path);
* the per-workload exhaustive rule pipelines (the transfer-matrix front
  half) serial vs. sharded;
* block enumeration (``DesignSpace.iter_blocks``, the path exhaustive
  sweeps and range shards enumerate through, one block resident at a
  time) vs. materializing the whole space into a list.

Shard counts are intentionally small (2) so the nightly CI runner's two
cores show the overlap without oversubscription noise.
"""

from repro.exec import ExecConfig
from repro.schedule.space import DesignSpace
from repro.sim.measure import MeasurementConfig
from repro.workloads import (
    SuiteRunner,
    WorkloadSpec,
    build_workload,
    get_suite,
    rules_for_specs,
)

RULES_SPECS = [
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
]

MEASUREMENT = MeasurementConfig(max_samples=1)


def test_bench_smoke_suite_serial_baseline(benchmark):
    suite = get_suite("smoke")

    def run():
        return SuiteRunner(suite).run()

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert report.timing["shard_workers"] == 0


def test_bench_smoke_suite_two_shards(benchmark):
    suite = get_suite("smoke")

    def run():
        return SuiteRunner(suite, execution=ExecConfig(shard_workers=2)).run()

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert report.timing["shard_workers"] == 2
    assert len(report.cells) == len(suite.specs) * len(suite.strategies)


def test_bench_rules_pipelines_serial(benchmark):
    def run():
        return rules_for_specs(RULES_SPECS, measurement=MEASUREMENT)

    per_workload = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(per_workload) == len(RULES_SPECS)


def test_bench_rules_pipelines_two_shards(benchmark):
    def run():
        return rules_for_specs(
            RULES_SPECS,
            measurement=MEASUREMENT,
            execution=ExecConfig(shard_workers=2),
        )

    per_workload = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(per_workload) == len(RULES_SPECS)


def test_bench_enumeration_materialized(benchmark):
    space = DesignSpace(
        build_workload(WorkloadSpec("spmv", {"scale": 0.025})), n_streams=2
    )
    schedules = benchmark(lambda: list(space.enumerate_schedules()))
    assert len(schedules) == space.count()


def test_bench_enumeration_streaming_blocks(benchmark):
    space = DesignSpace(
        build_workload(WorkloadSpec("spmv", {"scale": 0.025})), n_streams=2
    )

    def stream():
        n = 0
        peak = 0
        for block in space.iter_blocks(64):
            n += len(block)
            peak = max(peak, len(block))
        return n, peak

    n, peak = benchmark(stream)
    assert n == space.count()
    assert peak <= 64
