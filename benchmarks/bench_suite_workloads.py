"""Workload-subsystem benchmarks (not paper experiments).

Tracks the cost of the scenario-space machinery: building each synthetic
generator family, and pushing the ``smoke`` suite through the batched
evaluation substrate.
"""

import pytest

from repro.workloads import WorkloadSpec, build_workload
from repro.workloads.suite import SuiteRunner, get_suite

GENERATOR_SPECS = [
    WorkloadSpec("layered_random", {"layers": 4, "width": 3, "edge_p": 0.5}),
    WorkloadSpec("fork_join", {"stages": 3, "branches": 3, "depth": 2}),
    WorkloadSpec("tree_allreduce", {"rounds": 3, "elems": 65536}),
    WorkloadSpec("wavefront", {"width": 4, "height": 4}),
]


@pytest.mark.parametrize("spec", GENERATOR_SPECS, ids=lambda s: s.family)
def test_bench_generator_build(benchmark, spec):
    program = benchmark(lambda: build_workload(spec))
    assert program.schedulable_vertices()


def test_bench_smoke_suite_serial(benchmark):
    suite = get_suite("smoke")

    def run():
        return SuiteRunner(suite).run()

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(report.cells) == len(suite.specs) * len(suite.strategies)
