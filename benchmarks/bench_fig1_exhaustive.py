"""Figure 1: all implementations benchmarked, sorted fastest to slowest.

Paper: 2036 implementations, 1.47x speedup, elapsed times ~5.5e-5..8e-5 s.
Ours: 540 implementations (``repro.apps.spmv.dag`` explains the
space-size difference), ~1.5x speedup, ~6e-5..9e-5 s.
"""

from benchmarks.conftest import emit
from repro.experiments import run_fig1
from repro.platform.presets import describe


def test_fig1_sorted_sweep(benchmark, wb, capfd):
    result = benchmark.pedantic(
        lambda: run_fig1(wb), rounds=1, iterations=1
    )
    emit(
        capfd,
        "Figure 1 (sorted implementation sweep)",
        "\n".join(
            [
                describe(wb.machine),
                result.report(),
                result.ascii_plot(),
            ]
        ),
    )
    assert result.n_implementations == wb.space.count()
    assert 1.2 < result.speedup < 2.0


def test_fig1_single_simulation_cost(benchmark, wb):
    """Microbench: cost of one end-to-end schedule simulation."""
    schedule = next(wb.space.enumerate_schedules())
    from repro.sim import ScheduleExecutor

    executor = ScheduleExecutor(wb.instance.program, wb.machine)
    benchmark(lambda: executor.run(schedule))
