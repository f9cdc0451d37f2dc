"""Ablation the paper calls for (§VI): MCTS vs uniform random sampling.

"A search strategy that randomly samples the design space could be used
to show that the current strategy indeed produces better results."
Run both strategies at the same budgets and compare the Table V metric.
"""

from benchmarks.conftest import emit
from repro.experiments import run_mcts_vs_random


def test_mcts_vs_random(benchmark, fresh_small_wb, capfd):
    result = benchmark.pedantic(
        lambda: run_mcts_vs_random(
            fresh_small_wb, iterations=[27, 54, 108], seeds=(0, 1, 2)
        ),
        rounds=1,
        iterations=1,
    )
    emit(capfd, "Ablation: MCTS vs random sampling", result.report())
    accs = {
        (row[0], row[1]): float(row[2]) for row in result.rows
    }
    # Both explore; neither should be degenerate.
    for key, acc in accs.items():
        assert 0.3 <= acc <= 1.0
