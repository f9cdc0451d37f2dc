"""Evaluator-level contracts of the simulation engine choice.

Covers the warm-start guarantee (one compile per worker process, never
per task), the shared in-memory memo (one entry per schedule, whichever
engine measured it), parent-side engine counting in the parallel
evaluator, measurement-config validation, and bit-identity of batch
replay with the reference engine — per batch and for a whole suite.
"""

import numpy as np
import pytest

from repro import obs
from repro.exec import ParallelEvaluator, SerialEvaluator
from repro.exec.parallel import _worker_compile_stats
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


def _sim_counters(delta):
    return {
        name: delta.counter(name)
        for name in delta.counters
        if name.startswith("sim.") and delta.counter(name)
    }


def test_worker_compiles_once_not_per_task(layered):
    """Regression: the compiled context is built in the pool initializer —
    compile count stays one per worker however many tasks are dispatched."""
    program, machine = layered
    with ParallelEvaluator(
        program,
        machine,
        CFG,
        n_workers=2,
        chunksize=1,  # many tiny tasks: per-task compiles would show up
    ) as ev:
        for seed in range(3):
            ev.evaluate_batch(_random_schedules(program, 8, seed=seed))
        pool = ev._ensure_pool()
        stats = set(pool.map(_worker_compile_stats, range(32), chunksize=1))
    per_pid = dict(stats)
    assert len(per_pid) == len(stats), "a worker recompiled between tasks"
    assert set(per_pid.values()) == {1}


def test_parallel_batch_bit_identical_to_serial_reference(layered):
    program, machine = layered
    cfg = MeasurementConfig(max_samples=2)
    noisy = perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks)
    schedules = _random_schedules(program, 24)
    ref_bench = Benchmarker(ScheduleExecutor(program, noisy), cfg)
    ref = [ref_bench.measure(s) for s in schedules]
    with ParallelEvaluator(program, noisy, cfg, n_workers=2) as ev:
        assert ev._compiled is not None
        before = obs.metrics_snapshot()
        assert ev.evaluate_batch(schedules) == ref
        delta = obs.metrics_snapshot().diff(before)
        assert ev.n_simulations == ref_bench.n_simulations
    unique = len({s.fingerprint() for s in schedules})
    assert _sim_counters(delta) == {"sim.batch_replays": unique}


def test_parallel_counts_reference_engine_in_parent():
    """Worker registries never ship home: the parent counts the
    reference-engine schedules of an MPI program, fresh ones only."""
    program = build_workload(WorkloadSpec("spmv", {"scale": 0.025}))
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    schedules = _random_schedules(program, 4)
    with ParallelEvaluator(program, machine, CFG, n_workers=2) as ev:
        assert ev._compiled is None and ev._reason == "mpi-comm"
        before = obs.metrics_snapshot()
        ev.evaluate_batch(schedules)
        ev.evaluate_batch(schedules)  # memo hits count nowhere
        delta = obs.metrics_snapshot().diff(before)
    unique = len({s.fingerprint() for s in schedules})
    assert _sim_counters(delta) == {"sim.reference.mpi-comm": unique}


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
    monkeypatch.setattr("repro.exec.parallel.select_engine", reference_only)
    forced = run_suite("smoke", machine=machine)
    assert forced.metrics["sim"]["batch_replays"] == 0
    assert _without_walls(forced) == _without_walls(default)
