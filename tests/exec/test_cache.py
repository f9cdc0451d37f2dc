"""Tests for fingerprints and the persistent measurement cache."""

import dataclasses
import sqlite3

from repro.exec.cache import MeasurementCache, context_fingerprint, program_fingerprint
from repro.platform.noise import NoiseModel
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, Measurement, MeasurementConfig


class TestScheduleFingerprint:
    def test_equal_schedules_share_fingerprint(self, spmv_schedules):
        import pickle

        a = spmv_schedules[0]
        b = pickle.loads(pickle.dumps(a))  # distinct object, equal value
        assert a is not b and a == b
        assert a.fingerprint() == b.fingerprint()

    def test_distinct_schedules_differ(self, spmv_schedules):
        fps = {s.fingerprint() for s in spmv_schedules[:50]}
        assert len(fps) == 50

    def test_fingerprint_is_hex_sha256(self, spmv_schedules):
        fp = spmv_schedules[0].fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # parses as hex


class TestContextFingerprint:
    def test_stable_across_calls(self, spmv_instance, machine):
        cfg = MeasurementConfig(max_samples=1)
        a = context_fingerprint(spmv_instance.program, machine, cfg)
        b = context_fingerprint(spmv_instance.program, machine, cfg)
        assert a == b

    def test_changes_with_measurement_config(self, spmv_instance, machine):
        a = context_fingerprint(
            spmv_instance.program, machine, MeasurementConfig(max_samples=1)
        )
        b = context_fingerprint(
            spmv_instance.program, machine, MeasurementConfig(max_samples=2)
        )
        assert a != b

    def test_changes_with_noise_seed(self, spmv_instance, machine):
        cfg = MeasurementConfig()
        noisy = machine.with_noise(NoiseModel(sigma=0.01, seed=7))
        noisy2 = machine.with_noise(NoiseModel(sigma=0.01, seed=8))
        fps = {
            context_fingerprint(spmv_instance.program, m, cfg)
            for m in (machine, noisy, noisy2)
        }
        assert len(fps) == 3

    def test_changes_with_program(self, spmv_instance, machine):
        other = dataclasses.replace(spmv_instance.program, name="renamed")
        cfg = MeasurementConfig()
        fp_a = context_fingerprint(spmv_instance.program, machine, cfg)
        fp_b = context_fingerprint(other, machine, cfg)
        assert fp_a != fp_b

    def test_program_fingerprint_ignores_payloads(self, spmv_instance):
        fp = program_fingerprint(spmv_instance.program)
        stripped = dataclasses.replace(spmv_instance.program, payloads={})
        assert program_fingerprint(stripped) == fp


class TestMeasurementCache:
    def test_round_trip(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "m.sqlite"))
        m = Measurement(time=1.5, n_samples=3, per_rank_time=(1.5, 1.0))
        cache.put("ctx", "fp", m)
        assert cache.get("ctx", "fp") == m
        assert len(cache) == 1
        cache.close()

    def test_miss_returns_none(self, tmp_path):
        with MeasurementCache(str(tmp_path / "m.sqlite")) as cache:
            assert cache.get("ctx", "nope") is None

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "m.sqlite")
        m = Measurement(time=2.0, n_samples=1, per_rank_time=(2.0,))
        with MeasurementCache(path) as cache:
            cache.put("ctx", "fp", m)
        with MeasurementCache(path) as cache:
            assert cache.get("ctx", "fp") == m

    def test_context_isolation(self, tmp_path):
        """Entries written under one context never satisfy another —
        i.e. changing any measurement input invalidates the cache."""
        with MeasurementCache(str(tmp_path / "m.sqlite")) as cache:
            m = Measurement(time=1.0, n_samples=1, per_rank_time=(1.0,))
            cache.put("ctx-a", "fp", m)
            assert cache.get("ctx-b", "fp") is None

    def test_get_many_and_put_many(self, tmp_path):
        with MeasurementCache(str(tmp_path / "m.sqlite")) as cache:
            entries = [
                (f"fp{i}", Measurement(float(i), 1, (float(i),))) for i in range(5)
            ]
            cache.put_many("ctx", entries)
            hits = cache.get_many("ctx", ["fp1", "fp3", "fp9"])
            assert set(hits) == {"fp1", "fp3"}
            assert hits["fp3"].time == 3.0


class TestBenchmarkerMemoKeying:
    def test_memo_hits_across_equal_objects(
        self, spmv_instance, machine, spmv_schedules
    ):
        """The memo keys by canonical fingerprint, not object identity:
        an equal-but-distinct Schedule object must hit."""
        import pickle

        bench = Benchmarker(
            ScheduleExecutor(spmv_instance.program, machine),
            MeasurementConfig(max_samples=1),
        )
        first = bench.measure(spmv_schedules[0])
        clone = pickle.loads(pickle.dumps(spmv_schedules[0]))
        sims = bench.n_simulations
        assert bench.measure(clone) == first
        assert bench.n_simulations == sims
        assert bench.n_unique_schedules == 1

    def test_cached_and_seed_cache(self, spmv_instance, machine, spmv_schedules):
        bench = Benchmarker(
            ScheduleExecutor(spmv_instance.program, machine),
            MeasurementConfig(max_samples=1),
        )
        s = spmv_schedules[1]
        assert bench.cached(s) is None
        m = Measurement(time=0.5, n_samples=1, per_rank_time=(0.5,))
        bench.seed_cache(s, m)
        assert bench.cached(s) == m
        assert bench.measure(s) == m  # no simulation happened
        assert bench.n_simulations == 0


def _contend_writer(path, context, writer_id, n_rounds, n_per_round):
    """Hammer one shared cache file with batch writes from this process."""
    cache = MeasurementCache(path)
    try:
        for r in range(n_rounds):
            entries = [
                (
                    f"w{writer_id}-r{r}-{i}",
                    Measurement(
                        time=float(writer_id + 1),
                        n_samples=1,
                        per_rank_time=(float(writer_id + 1),),
                    ),
                )
                for i in range(n_per_round)
            ]
            cache.put_many(context, entries)
            # Interleave reads with the other writers' commits.
            cache.get_many(context, [fp for fp, _ in entries])
    finally:
        cache.close()
    return writer_id


def _open_fresh(path, barrier):
    barrier.wait(timeout=30)
    MeasurementCache(path).close()


class _LockedOnce:
    """A connection whose first journal-mode switch fails as if another
    process held the lock."""

    def __init__(self, conn):
        self._conn = conn
        self._locked = True

    def execute(self, sql, *args):
        if self._locked and sql.startswith("PRAGMA journal_mode"):
            self._locked = False
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestConcurrentWriters:
    """Regression test for shard-concurrent cache access: multiple
    processes writing one cache file must neither raise ``database is
    locked`` nor lose entries (WAL + busy timeout + write retry)."""

    def test_wal_enabled_for_file_backed_cache(self, tmp_path):
        with MeasurementCache(str(tmp_path / "wal.sqlite")) as cache:
            # Some filesystems refuse WAL; everywhere CI runs it works.
            assert cache.journal_mode == "wal"

    def test_memory_cache_skips_wal(self):
        with MeasurementCache(":memory:") as cache:
            assert cache.journal_mode == "memory"

    def test_locked_setup_is_retried(self, tmp_path, monkeypatch):
        connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **kw: _LockedOnce(connect(*a, **kw))
        )
        monkeypatch.setattr(MeasurementCache, "_RETRY_BASE_DELAY_S", 0.0)
        with MeasurementCache(str(tmp_path / "locked.sqlite")) as cache:
            assert cache.n_lock_retries == 1
            assert cache.journal_mode == "wal"
            assert len(cache) == 0

    def test_simultaneous_fresh_opens(self, tmp_path):
        """Processes opening one fresh file at the same moment contend for
        the WAL switch and the schema write; setup must retry rather than
        raise ``database is locked``."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        failed = 0
        for trial in range(200):
            path = str(tmp_path / f"fresh{trial}.sqlite")
            barrier = ctx.Barrier(4)
            procs = [
                ctx.Process(target=_open_fresh, args=(path, barrier))
                for _ in range(4)
            ]
            for p in procs:
                p.start()
            for p in procs:
                p.join(timeout=60)
            # A process still running after the timeout has no exit code.
            failed += any(p.exitcode != 0 for p in procs)
        assert failed == 0

    def test_concurrent_shard_writers(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        path = str(tmp_path / "contended.sqlite")
        n_writers, n_rounds, n_per_round = 4, 5, 40
        with ProcessPoolExecutor(max_workers=n_writers) as pool:
            futures = [
                pool.submit(_contend_writer, path, "ctx", w, n_rounds, n_per_round)
                for w in range(n_writers)
            ]
            done = [f.result() for f in futures]
        assert sorted(done) == list(range(n_writers))
        with MeasurementCache(path) as cache:
            assert len(cache) == n_writers * n_rounds * n_per_round
            # Spot-check values landed intact per writer.
            for w in range(n_writers):
                m = cache.get("ctx", f"w{w}-r0-0")
                assert m is not None and m.time == float(w + 1)
