"""Evaluator-level contracts of the simulation engine choice.

Covers the shared in-memory memo (one entry per schedule, whichever
engine measured it), measurement-config validation, and bit-identity of
batch replay with the reference engine for a whole suite.
"""

import numpy as np
import pytest

from repro.exec import SerialEvaluator
from repro.platform import noiseless, perlmutter_like
from repro.schedule.space import DesignSpace
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload, run_suite

CFG = MeasurementConfig(max_samples=1)


@pytest.fixture(scope="module")
def layered():
    program = build_workload(
        WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5})
    )
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    return program, machine


def _random_schedules(program, n, seed=11):
    space = DesignSpace(program, n_streams=2)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        s = space.random_schedule(rng)
        if s is not None:
            out.append(s)
    return out


def test_memo_has_one_entry_per_schedule(layered):
    """Replayed and reference-measured results share one memo key."""
    program, machine = layered
    bench = Benchmarker(ScheduleExecutor(program, machine), CFG)
    s1, s2 = _random_schedules(program, 2)
    m1 = bench.measure(s1)
    ev = SerialEvaluator(bench)
    assert ev._compiled is not None
    sims = bench.n_simulations
    assert ev.evaluate_batch([s1, s2])[0] == m1
    assert bench.n_simulations == sims + 1  # only s2 was replayed
    assert bench.n_unique_schedules == 2
    assert bench.cached(s2) == bench.measure(s2)


def test_measurement_config_rejects_nonpositive_target():
    with pytest.raises(ValueError, match="target_time_s"):
        MeasurementConfig(target_time_s=0.0)
    with pytest.raises(ValueError, match="target_time_s"):
        MeasurementConfig(target_time_s=-1.0)
    assert MeasurementConfig(target_time_s=1e-9).target_time_s == 1e-9


def _without_walls(report):
    out = report.to_dict()
    del out["timing"], out["metrics"]
    for cell in out["cells"]:
        del cell["wall_s"]
    return out


def test_smoke_suite_identical_on_reference_engine(monkeypatch):
    """Engine identity end to end: the smoke suite with batch replay
    wherever it runs equals the same suite forced onto the reference
    engine, apart from wall times and metrics."""
    machine = perlmutter_like()
    default = run_suite("smoke", machine=machine)
    assert default.metrics["sim"]["batch_replays"] > 0

    def reference_only(benchmarker):
        return None, "forced"

    monkeypatch.setattr("repro.exec.evaluator.select_engine", reference_only)
    forced = run_suite("smoke", machine=machine)
    assert forced.metrics["sim"]["batch_replays"] == 0
    assert _without_walls(forced) == _without_walls(default)
