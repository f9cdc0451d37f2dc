"""Persistent measurement cache keyed by (context, schedule) fingerprints.

Design-space exploration re-benchmarks the same schedules constantly:
repeated pipeline runs, ablation sweeps, benchmark sessions, and MCTS
restarts all revisit implementations that were already simulated.  The
:class:`MeasurementCache` stores every completed
:class:`~repro.sim.measure.Measurement` in a small SQLite database so a
known schedule is never simulated twice — across processes and across
runs.

Keys
----
A cache entry is addressed by two canonical fingerprints:

* the **schedule fingerprint**
  (:meth:`repro.schedule.schedule.Schedule.fingerprint`) — a SHA-256 of
  the bound-op sequence, and
* the **context fingerprint** (:func:`context_fingerprint`) — a SHA-256
  of everything else that determines a measurement: the program (graph
  structure, per-vertex durations/work, communication plans, work
  overrides), the machine configuration (including the noise model and
  its seed) and the measurement protocol knobs.

Because a measurement is a pure function of (schedule, context), any
cache hit is bit-identical to a fresh simulation; changing *any* input —
a cost-model constant, the noise seed, ``max_samples`` — changes the
context fingerprint and transparently invalidates all prior entries.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sqlite3
import time
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro import obs
from repro.dag.program import Program
from repro.platform.machine import MachineConfig
from repro.sim.measure import Measurement, MeasurementConfig

_SCHEMA = """
CREATE TABLE IF NOT EXISTS measurements (
    context TEXT NOT NULL,
    schedule TEXT NOT NULL,
    time REAL NOT NULL,
    n_samples INTEGER NOT NULL,
    per_rank TEXT NOT NULL,
    PRIMARY KEY (context, schedule)
)
"""


def _canonical(obj):
    """Convert nested dataclasses/enums/containers to JSON-stable data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return {str(k): _canonical(v) for k, v in items}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _digest(payload) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_fingerprint(program: Program) -> str:
    """Stable hash of everything about a program that affects timing.

    Payload callbacks are deliberately excluded: they compute numeric
    results on a side context and never influence the simulated clock.
    """
    vertices = sorted(
        (
            v.name,
            v.kind.value,
            v.duration,
            _canonical(v.work) if v.work is not None else None,
            _canonical(v.action) if v.action is not None else None,
            list(v.reads),
            list(v.writes),
        )
        for v in program.graph
    )
    edges = sorted((src.name, dst.name) for src, dst in program.graph.edges())
    comm = {group: _canonical(plan.messages) for group, plan in program.comm.items()}
    overrides = {
        f"{name}@{rank}": _canonical(work)
        for (name, rank), work in program.work_overrides.items()
    }
    return _digest(
        {
            "name": program.name,
            "n_ranks": program.n_ranks,
            "vertices": vertices,
            "edges": edges,
            "comm": comm,
            "overrides": overrides,
        }
    )


def context_fingerprint(
    program: Program,
    machine: MachineConfig,
    config: MeasurementConfig,
) -> str:
    """Stable hash of the full measurement context (everything but the
    schedule)."""
    return _digest(
        {
            "program": program_fingerprint(program),
            "machine": _canonical(machine),
            "measurement": _canonical(config),
        }
    )


class MeasurementCache:
    """On-disk (SQLite) store of schedule measurements.

    ``path`` may be ``":memory:"`` for an ephemeral cache (useful in
    tests).  Writes are committed per batch.

    Concurrency
    -----------
    One cache file may be shared by many *processes* (plan shards, or
    separate runs): file-backed connections enable SQLite's WAL
    journal (readers never block the writer) and a generous busy
    timeout, and batch writes retry on ``database is locked`` with
    exponential backoff, so concurrent shard writers serialize instead
    of failing.  Entries are idempotent — every writer computing the
    same (context, schedule) key writes the bit-identical measurement —
    so last-writer-wins is harmless.  A single connection object is
    still owned by one process: share the *path*, not the instance.
    """

    #: Wait this long (ms) for a competing writer before raising.
    _BUSY_TIMEOUT_MS = 30_000
    #: Setup and put_many retry on a locked database, with exponential
    #: backoff.
    _WRITE_RETRIES = 5
    _RETRY_BASE_DELAY_S = 0.05

    def __init__(self, path: str) -> None:
        self.path = str(path)
        #: Lifetime telemetry for this connection; the same counts land in
        #: the ambient metrics registry as ``cache.hits`` / ``cache.misses``
        #: / ``cache.lock_retries``.
        self.n_hits = 0
        self.n_misses = 0
        self.n_lock_retries = 0
        self._conn = sqlite3.connect(
            self.path, timeout=self._BUSY_TIMEOUT_MS / 1000.0
        )
        self._conn.execute(f"PRAGMA busy_timeout = {self._BUSY_TIMEOUT_MS}")
        # Processes opening a fresh file at once contend for the journal
        # switch and the schema write, so setup retries like writes do.
        self._retry_locked(self._setup)

    def _setup(self) -> None:
        if self.path != ":memory:":
            # WAL needs a real file; some filesystems refuse it — the
            # returned mode tells us, and rollback journaling still works.
            (mode,) = self._conn.execute("PRAGMA journal_mode = WAL").fetchone()
            self.journal_mode = str(mode).lower()
            self._conn.execute("PRAGMA synchronous = NORMAL")
        else:
            self.journal_mode = "memory"
        self._conn.execute(_SCHEMA)
        self._conn.commit()

    def _retry_locked(self, work: Callable[[], None]) -> None:
        """Run ``work`` (which commits), retrying ``database is locked``
        with exponential backoff."""
        for attempt in range(self._WRITE_RETRIES + 1):
            try:
                work()
                return
            except sqlite3.OperationalError as exc:
                # Roll back even on the terminal raise: a partially
                # applied batch left in an open transaction would shadow
                # this connection's subsequent reads and later commits.
                self._conn.rollback()
                locked = "locked" in str(exc) or "busy" in str(exc)
                if not locked or attempt == self._WRITE_RETRIES:
                    raise
                self.n_lock_retries += 1
                obs.add("cache.lock_retries")
                obs.log.warning(
                    "cache.locked_retry",
                    path=self.path,
                    attempt=attempt + 1,
                    retries=self._WRITE_RETRIES,
                )
                time.sleep(self._RETRY_BASE_DELAY_S * (2**attempt))

    # ------------------------------------------------------------------
    def get(self, context: str, schedule_fp: str) -> Optional[Measurement]:
        row = self._conn.execute(
            "SELECT time, n_samples, per_rank FROM measurements "
            "WHERE context = ? AND schedule = ?",
            (context, schedule_fp),
        ).fetchone()
        if row is None:
            self.n_misses += 1
            obs.add("cache.misses")
            return None
        self.n_hits += 1
        obs.add("cache.hits")
        return Measurement(
            time=row[0],
            n_samples=row[1],
            per_rank_time=tuple(json.loads(row[2])),
        )

    #: SQLite's default variable limit is 999; stay safely below it.
    _SELECT_CHUNK = 500

    def get_many(
        self, context: str, schedule_fps: Sequence[str]
    ) -> Dict[str, Measurement]:
        """Measurements for every known fingerprint in ``schedule_fps``."""
        found: Dict[str, Measurement] = {}
        unique = list(dict.fromkeys(schedule_fps))
        for i in range(0, len(unique), self._SELECT_CHUNK):
            chunk = unique[i : i + self._SELECT_CHUNK]
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                "SELECT schedule, time, n_samples, per_rank "
                "FROM measurements WHERE context = ? "
                f"AND schedule IN ({placeholders})",
                [context, *chunk],
            )
            for fp, time, n_samples, per_rank in rows:
                found[fp] = Measurement(
                    time=time,
                    n_samples=n_samples,
                    per_rank_time=tuple(json.loads(per_rank)),
                )
        self.n_hits += len(found)
        self.n_misses += len(unique) - len(found)
        if found:
            obs.add("cache.hits", len(found))
        if len(unique) > len(found):
            obs.add("cache.misses", len(unique) - len(found))
        return found

    def put(self, context: str, schedule_fp: str, m: Measurement) -> None:
        self.put_many(context, [(schedule_fp, m)])

    def put_many(
        self, context: str, entries: Iterable[Tuple[str, Measurement]]
    ) -> None:
        rows = [
            (
                context,
                fp,
                m.time,
                m.n_samples,
                json.dumps(list(m.per_rank_time)),
            )
            for fp, m in entries
        ]

        def write() -> None:
            self._conn.executemany(
                "INSERT OR REPLACE INTO measurements "
                "(context, schedule, time, n_samples, per_rank) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()

        self._retry_locked(write)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        (n,) = self._conn.execute("SELECT COUNT(*) FROM measurements").fetchone()
        return int(n)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "MeasurementCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeasurementCache({self.path!r}, {len(self)} entries)"
