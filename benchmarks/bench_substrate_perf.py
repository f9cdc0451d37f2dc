"""Substrate performance microbenchmarks (not paper experiments).

Keeps an eye on the throughput numbers that make the paper experiments
affordable: simulator runs/second, MCTS iteration cost, enumeration cost,
tree-training cost, and an exhaustive SpMV sweep through the
:mod:`repro.exec` evaluator.
"""

from repro.exec import SerialEvaluator
from repro.ml.tree import DecisionTree, TreeConfig
from repro.search import ExhaustiveSearch, MctsSearch
from repro.sim import Benchmarker, MeasurementConfig, ScheduleExecutor


def test_bench_simulation_throughput(benchmark, wb):
    executor = ScheduleExecutor(wb.instance.program, wb.machine)
    schedules = list(wb.space.enumerate_schedules())[:50]

    def run_batch():
        for s in schedules:
            executor.run(s)

    benchmark.pedantic(run_batch, rounds=3, iterations=1)


def test_bench_space_enumeration(benchmark, wb):
    benchmark(lambda: sum(1 for _ in wb.space.enumerate_schedules()))


def test_bench_space_count_dp(benchmark, wb):
    benchmark(wb.space.count)


def test_bench_mcts_100_iterations(benchmark, wb):
    def run():
        bench = Benchmarker(
            ScheduleExecutor(wb.instance.program, wb.machine),
            MeasurementConfig(max_samples=1),
        )
        MctsSearch(wb.space, bench).run(100)

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_bench_exhaustive_sweep_serial(benchmark, wb):
    """Reference: exhaustive SpMV sweep through the serial evaluator."""

    def run():
        ev = SerialEvaluator(
            Benchmarker(
                ScheduleExecutor(wb.instance.program, wb.machine),
                MeasurementConfig(max_samples=1),
            )
        )
        ExhaustiveSearch(wb.space, ev).run()

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_bench_feature_extraction(benchmark, wb):
    from repro.ml.features import FeatureExtractor

    schedules = wb.full_search().schedules()
    benchmark(lambda: FeatureExtractor().fit_transform(schedules))


def test_bench_tree_training(benchmark, wb):
    full = wb.full_pipeline()
    x, y = full.features.matrix, full.labeling.labels
    benchmark(
        lambda: DecisionTree(TreeConfig(max_leaf_nodes=16)).fit(x, y)
    )
