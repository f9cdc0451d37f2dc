"""Tests for the Evaluator interface and the serial backend."""

import sqlite3

import pytest

from repro.exec import MeasurementCache, SerialEvaluator, as_evaluator, build_evaluator
from repro.exec.evaluator import Evaluator
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig


@pytest.fixture()
def bench(spmv_instance, machine):
    return Benchmarker(
        ScheduleExecutor(spmv_instance.program, machine),
        MeasurementConfig(max_samples=1),
    )


class TestSerialEvaluator:
    def test_matches_benchmarker(self, bench, spmv_schedules):
        ev = SerialEvaluator(bench)
        batch = spmv_schedules[:10]
        results = ev.evaluate_batch(batch)
        reference = Benchmarker(bench.executor, bench.config)
        assert results == [reference.measure(s) for s in batch]

    def test_results_align_with_input_order(self, bench, spmv_schedules):
        ev = SerialEvaluator(bench)
        batch = list(reversed(spmv_schedules[:8]))
        results = ev.evaluate_batch(batch)
        for s, m in zip(batch, results):
            assert m == bench.measure(s)

    def test_duplicates_in_batch(self, bench, spmv_schedules):
        ev = SerialEvaluator(bench)
        s = spmv_schedules[0]
        r1, r2 = ev.evaluate_batch([s, s])
        assert r1 == r2
        assert ev.n_simulations == 1

    def test_evaluate_and_time_of(self, bench, spmv_schedules):
        ev = SerialEvaluator(bench)
        s = spmv_schedules[2]
        assert ev.time_of(s) == ev.evaluate(s).time

    def test_n_simulations_tracks_benchmarker(self, bench, spmv_schedules):
        ev = SerialEvaluator(bench)
        ev.evaluate_batch(spmv_schedules[:5])
        assert ev.n_simulations == bench.n_simulations == 5


class TestSerialEvaluatorWithCache:
    def test_populates_disk_cache(self, bench, spmv_schedules, tmp_path):
        cache = MeasurementCache(str(tmp_path / "m.sqlite"))
        ev = SerialEvaluator(bench, cache=cache)
        ev.evaluate_batch(spmv_schedules[:6])
        assert len(cache) == 6

    def test_second_run_simulates_nothing(
        self, spmv_instance, machine, spmv_schedules, tmp_path
    ):
        path = str(tmp_path / "m.sqlite")
        cfg = MeasurementConfig(max_samples=1)

        def fresh():
            return Benchmarker(ScheduleExecutor(spmv_instance.program, machine), cfg)

        first = SerialEvaluator(fresh(), cache=MeasurementCache(path))
        warm = first.evaluate_batch(spmv_schedules[:6])
        second = SerialEvaluator(fresh(), cache=MeasurementCache(path))
        cold = second.evaluate_batch(spmv_schedules[:6])
        assert cold == warm
        assert second.n_simulations == 0

    def test_config_change_invalidates(
        self, spmv_instance, machine, spmv_schedules, tmp_path
    ):
        path = str(tmp_path / "m.sqlite")
        a = SerialEvaluator(
            Benchmarker(
                ScheduleExecutor(spmv_instance.program, machine),
                MeasurementConfig(max_samples=1),
            ),
            cache=MeasurementCache(path),
        )
        a.evaluate_batch(spmv_schedules[:4])
        b = SerialEvaluator(
            Benchmarker(
                ScheduleExecutor(spmv_instance.program, machine),
                MeasurementConfig(max_samples=2),
            ),
            cache=MeasurementCache(path),
        )
        b.evaluate_batch(spmv_schedules[:4])
        # Different measurement config => different context => re-simulated.
        assert b.n_simulations > 0


class TestBuildEvaluator:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_build_evaluator_owns_its_cache(
        self, spmv_instance, machine, spmv_schedules, tmp_path, workers
    ):
        """build_evaluator opens the cache at ``cache_path``, and closing
        the evaluator closes it; the measurements stay on disk."""
        path = str(tmp_path / "m.sqlite")
        batch = spmv_schedules[:6]
        cfg = MeasurementConfig(max_samples=1)

        def evaluator():
            return build_evaluator(
                spmv_instance.program, machine, cfg, workers=workers, cache_path=path
            )

        first = evaluator()
        warm = first.evaluate_batch(batch)
        first.close()
        with pytest.raises(sqlite3.ProgrammingError):
            len(first.cache)
        second = evaluator()
        try:
            assert second.evaluate_batch(batch) == warm
            assert second.n_simulations == 0
        finally:
            second.close()

    def test_rejects_worker_pool(self, spmv_instance, machine):
        """Evaluation is in-process only; asking for a pool is an error."""
        with pytest.raises(ValueError, match="workers must be 0 or 1"):
            build_evaluator(spmv_instance.program, machine, workers=2)


class TestAsEvaluator:
    def test_wraps_benchmarker(self, bench):
        ev = as_evaluator(bench)
        assert isinstance(ev, SerialEvaluator)
        assert ev.benchmarker is bench

    def test_passes_through_evaluator(self, bench):
        ev = SerialEvaluator(bench)
        assert as_evaluator(ev) is ev

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_evaluator(object())

    def test_interface_is_abstract(self):
        with pytest.raises(TypeError):
            Evaluator()
