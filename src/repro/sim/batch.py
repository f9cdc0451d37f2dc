"""Compiled batch simulation engine.

The reference engine (:mod:`repro.sim.engine` + :class:`ScheduleExecutor`)
re-instantiates a discrete-event loop — one Python generator per op and
per stream — for every single schedule it simulates, even though the
program DAG, machine preset, and measurement protocol are fixed for an
entire sweep.  This module compiles that fixed ``(program, machine,
MeasurementConfig)`` context **once** into flat structure-of-arrays form
and then replays whole schedule blocks through an array sweep: one numpy
operation per schedule position per rank, vectorized over the batch
dimension.

Bit-identity contract
---------------------

Replayed measurements are bit-identical to the reference engine, not
merely close.  Within one rank the engine's timing arithmetic reduces to
IEEE-exact ``(+, max)`` recurrences over a small state vector — the CPU
clock ``t``, per-stream clocks, and per-event fire times:

* CPU op           ``t += dur``
* GPU op           ``t += launch; clock[s] = max(clock[s], t) + kdur``
* event record     ``t += dur; p = max(clock[s], t); ev[e] = p;``
                   ``clock[s] = p``
* event sync       ``t += dur; t = max(t, ev[e])``
* stream wait      ``t += dur; clock[s] = max(clock[s], t, ev[e]) +``
                   ``cross_gpu_extra`` (other-device events only)
* program end      ``finish = max(t, max_s clock[s])``  (device sync)

These are insensitive to event-loop tie ordering, so evaluating them as
numpy float64 column sweeps reproduces the engine bit for bit.  Noise is
a pure function of ``(seed, sample, rank, op name)`` — schedule
independent — so each sample's durations come from the same
:func:`~repro.sim.durations.sample_durations` table the reference engine
reads, turned into ``[rank, vertex]`` arrays once per sample and shared
by every schedule in the block.

Which engine runs
-----------------

:func:`select_engine` picks the engine once per measurement context;
both evaluators call it.  Whatever replay cannot reproduce runs on the
reference engine, counted per schedule in ``sim.reference.<reason>``:

* programs with MPI actions (``mpi-comm``: cross-rank NIC-channel
  occupancy depends on event tie order at equal timestamps) and
  programs built for another rank count (``rank-mismatch``) — both
  compile-time verdicts;
* executors that collect a timeline (``trace``) or run numeric payloads
  (``payload``), which replay cannot produce;
* single schedules that use an event before (or without) recording it,
  record an event twice, reference unknown ops or out-of-range streams,
  or contain artificial START/END vertices — per-schedule
  :meth:`CompiledContext.unsupported_reason` checks, which also preserve
  the reference engine's error behaviour for degenerate schedules.
  These also count in ``sim.fallbacks``.

Replayed schedules count in ``sim.batch_replays`` (see
:func:`count_engines`).  ``ActionKind.NOOP`` actions have zero timing
effect and stay on the batch path.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.dag.program import Program
from repro.dag.vertex import ActionKind, OpKind
from repro.platform.machine import MachineConfig
from repro.schedule.schedule import Schedule
from repro.sim.durations import sample_durations
from repro.sim.measure import Benchmarker, Measurement, MeasurementConfig

_CPU = 0
_GPU = 1
_RECORD = 2
_SYNC = 3
_WAIT = 4

_KIND_CODE = {
    OpKind.CPU: _CPU,
    OpKind.GPU: _GPU,
    OpKind.EVENT_RECORD: _RECORD,
    OpKind.EVENT_SYNC: _SYNC,
    OpKind.STREAM_WAIT: _WAIT,
}

_N_COMPILES = 0


def compile_count() -> int:
    """Process-global number of :func:`compile_context` calls (test hook)."""
    return _N_COMPILES


class _Pack:
    """One schedule block packed to ``[B, L]`` arrays in position order.

    ``vid`` indexes the compiled per-sample duration tables and is only
    meaningful for program (CPU/GPU) ops; sync ops — typically inserted
    by the design space's sync plan, so not program vertices at all —
    carry their rank- and sample-independent call overhead directly in
    ``dur``.  Rows shorter than ``L`` are padded with kind ``-1`` (never
    the case for schedules of one design space, but packing stays
    defensive).
    """

    __slots__ = ("kind", "vid", "sid", "eid", "dur", "n_events")

    def __init__(
        self,
        kind: np.ndarray,
        vid: np.ndarray,
        sid: np.ndarray,
        eid: np.ndarray,
        dur: np.ndarray,
        n_events: int,
    ) -> None:
        self.kind = kind
        self.vid = vid
        self.sid = sid
        self.eid = eid
        self.dur = dur
        self.n_events = n_events


class CompiledContext:
    """A ``(program, machine, MeasurementConfig)`` context compiled for replay.

    Construction is cheap relative to one simulation sweep but not free;
    build it once per process (see ``SerialEvaluator`` /
    ``ParallelEvaluator``) and reuse it across blocks.  ``ok`` is the
    compile-time capability verdict; when ``False``, ``reason`` names the
    unsupported feature and :meth:`supports` rejects every schedule.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        config: MeasurementConfig = MeasurementConfig(),
        *,
        sample_offset: int = 0,
    ) -> None:
        self.program = program
        self.machine = machine
        self.config = config
        self.sample_offset = sample_offset
        self.n_ranks = machine.n_ranks
        self.n_streams = machine.n_streams
        self.n_gpus = machine.n_gpus
        self._noise = machine.noise
        cross = machine.gpu.cross_gpu_sync_extra_s
        # The engine only pays the penalty when it is strictly positive.
        self._cross_extra = cross if cross > 0 else 0.0
        self._sync_dur = {
            _RECORD: machine.gpu.event_record_s,
            _SYNC: machine.gpu.event_sync_overhead_s,
            _WAIT: machine.gpu.stream_wait_overhead_s,
        }

        self._vertices = tuple(program.schedulable_vertices())
        self._by_name = {v.name: v for v in self._vertices}
        self._vid = {v.name: j for j, v in enumerate(self._vertices)}

        self.ok = True
        self.reason = ""
        if program.n_ranks != machine.n_ranks:
            self.ok = False
            self.reason = "rank-mismatch"
        else:
            for v in self._vertices:
                if v.action is not None and v.action.kind is not ActionKind.NOOP:
                    # Cross-rank NIC occupancy depends on event tie order.
                    self.ok = False
                    self.reason = "mpi-comm"
                    break

        # Per-sample ``(adv, kdur)`` arrays of the sample's duration
        # table, one per absolute sample index (see _sample_tables).
        self._tables: Dict[Optional[int], Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def unsupported_reason(self, schedule: Schedule) -> Optional[str]:
        """Why ``schedule`` cannot be replayed, or ``None`` if it can.

        Beyond the compile-time verdict this enforces the single-forward-
        sweep requirement (every event recorded at an earlier schedule
        position than its uses) and rejects exactly the degenerate
        schedules the reference engine errors or deadlocks on, so the
        fallback path preserves reference behaviour.
        """
        if not self.ok:
            return self.reason
        recorded = set()
        for op in schedule.ops:
            code = _KIND_CODE.get(op.vertex.kind)
            if code is None:
                return f"op-kind:{op.vertex.kind.value}"
            known = self._by_name.get(op.name)
            if known is not None:
                if known != op.vertex:
                    return f"op-mismatch:{op.name}"
            elif code in (_CPU, _GPU):
                # Program ops must come from the compiled program; sync
                # ops are inserted by the design space and priced from
                # machine scalars alone.
                return f"unknown-op:{op.name}"
            if op.stream is not None and not 0 <= op.stream < self.n_streams:
                return f"stream-out-of-range:{op.stream}"
            if code == _RECORD:
                if op.event in recorded:
                    return f"event-rerecord:{op.event}"
                recorded.add(op.event)
            elif code in (_SYNC, _WAIT) and op.event not in recorded:
                return f"event-before-record:{op.event}"
        return None

    def supports(self, schedule: Schedule) -> bool:
        return self.unsupported_reason(schedule) is None

    # ------------------------------------------------------------------
    def _pack(self, schedules: Sequence[Schedule]) -> _Pack:
        n_rows = len(schedules)
        n_cols = max(len(s) for s in schedules)
        kind = np.full((n_rows, n_cols), -1, dtype=np.int64)
        vid = np.zeros((n_rows, n_cols), dtype=np.int64)
        sid = np.zeros((n_rows, n_cols), dtype=np.int64)
        eid = np.zeros((n_rows, n_cols), dtype=np.int64)
        dur = np.zeros((n_rows, n_cols))
        events: Dict[str, int] = {}
        for b, s in enumerate(schedules):
            for i, op in enumerate(s.ops):
                code = _KIND_CODE[op.vertex.kind]
                kind[b, i] = code
                if code in (_CPU, _GPU):
                    vid[b, i] = self._vid[op.name]
                else:
                    d = op.vertex.duration
                    if d is None:
                        d = self._sync_dur[code]
                    # Engine advances on strictly positive durations only.
                    dur[b, i] = d if d > 0 else 0.0
                if op.stream is not None:
                    sid[b, i] = op.stream
                if op.event is not None:
                    eid[b, i] = events.setdefault(op.event, len(events))
        return _Pack(kind, vid, sid, eid, dur, max(len(events), 1))

    def _sample_tables(self, sample: int) -> Tuple[np.ndarray, np.ndarray]:
        """``adv`` (CPU-side advance of each op: CPU duration, GPU launch,
        sync-call overhead) and ``kdur`` (GPU kernel duration) as
        ``[rank, vertex]`` arrays of ``sample``'s duration table."""
        key: Optional[int] = sample if self._noise.enabled else None
        tables = self._tables.get(key)
        if tables is None:
            table = sample_durations(self.program, self.machine, sample)
            adv = np.array(table.adv, dtype=float)
            kdur = np.array(table.kdur, dtype=float)
            # The engine advances only on strictly positive durations;
            # clamping keeps a (pathological) negative explicit duration
            # from advancing time backwards.
            tables = (np.maximum(adv, 0.0), np.maximum(kdur, 0.0))
            self._tables[key] = tables
        return tables

    def _replay(self, pack: _Pack, rows: np.ndarray, sample: int) -> np.ndarray:
        """Per-rank finish times, shape ``[len(rows), n_ranks]``."""
        adv_t, kdur_t = self._sample_tables(sample)
        kind = pack.kind[rows]
        vid = pack.vid[rows]
        sid = pack.sid[rows]
        eid = pack.eid[rows]
        dur = pack.dur[rows]
        n_rows, n_cols = kind.shape
        out = np.empty((n_rows, self.n_ranks))
        for r in range(self.n_ranks):
            adv = adv_t[r]
            kdur = kdur_t[r]
            t = np.zeros(n_rows)
            clock = np.zeros((n_rows, self.n_streams))
            ev_time = np.zeros((n_rows, pack.n_events))
            ev_src = np.zeros((n_rows, pack.n_events), dtype=np.int64)
            for i in range(n_cols):
                k = kind[:, i]
                sel = np.nonzero((k == _CPU) | (k == _GPU))[0]
                if sel.size:
                    t[sel] += adv[vid[sel, i]]
                sel = np.nonzero(k >= _RECORD)[0]
                if sel.size:
                    t[sel] += dur[sel, i]
                sel = np.nonzero(k == _GPU)[0]
                if sel.size:
                    s = sid[sel, i]
                    start = np.maximum(clock[sel, s], t[sel])
                    clock[sel, s] = start + kdur[vid[sel, i]]
                sel = np.nonzero(k == _RECORD)[0]
                if sel.size:
                    s = sid[sel, i]
                    e = eid[sel, i]
                    proc = np.maximum(clock[sel, s], t[sel])
                    ev_time[sel, e] = proc
                    ev_src[sel, e] = s
                    clock[sel, s] = proc
                sel = np.nonzero(k == _SYNC)[0]
                if sel.size:
                    e = eid[sel, i]
                    t[sel] = np.maximum(t[sel], ev_time[sel, e])
                sel = np.nonzero(k == _WAIT)[0]
                if sel.size:
                    s = sid[sel, i]
                    e = eid[sel, i]
                    resume = np.maximum(
                        np.maximum(clock[sel, s], t[sel]), ev_time[sel, e]
                    )
                    if self.n_gpus > 1 and self._cross_extra > 0:
                        resume = resume + np.where(
                            ev_src[sel, e] % self.n_gpus != s % self.n_gpus,
                            self._cross_extra,
                            0.0,
                        )
                    clock[sel, s] = resume
            out[:, r] = np.maximum(t, clock.max(axis=1))
        return out

    # ------------------------------------------------------------------
    def measure_block(self, schedules: Sequence[Schedule]) -> List[Measurement]:
        """Measure a block of supported schedules (paper §III-C3 protocol).

        Mirrors ``Benchmarker.measure`` exactly — same sample order, same
        break conditions, same accumulation order — with an active-row
        mask over the block instead of a per-schedule loop.  Callers must
        have verified :meth:`supports` for every schedule.
        """
        if not schedules:
            return []
        pack = self._pack(schedules)
        n_rows = len(schedules)
        cfg = self.config
        noise_on = self._noise.enabled
        acc = np.zeros((n_rows, self.n_ranks))
        n = np.zeros(n_rows, dtype=np.int64)
        active = np.ones(n_rows, dtype=bool)
        sample = 0
        while True:
            rows = np.nonzero(active)[0]
            per_rank = self._replay(pack, rows, self.sample_offset + sample)
            acc[rows] += per_rank
            n[rows] += 1
            sample += 1
            n_rows_active = n[rows]
            stop = n_rows_active >= cfg.max_samples
            if not noise_on:
                stop |= n_rows_active >= cfg.min_samples
            stop |= (n_rows_active >= cfg.min_samples) & (
                acc[rows].max(axis=1) >= cfg.target_time_s
            )
            active[rows[stop]] = False
            if not active.any():
                break
        results = []
        for b in range(n_rows):
            n_b = int(n[b])
            per = tuple(float(acc[b, r] / n_b) for r in range(self.n_ranks))
            results.append(
                Measurement(time=max(per), n_samples=n_b, per_rank_time=per)
            )
        return results

    def measure_into(
        self, benchmarker: Benchmarker, schedules: Sequence[Schedule]
    ) -> Tuple[List[Measurement], int, List[str]]:
        """Measure ``schedules`` through ``benchmarker``'s memo via replay.

        Un-memoized supported schedules are replayed in one block and
        seeded into the memo (with reference-equivalent ``n_simulations``
        accounting); unsupported ones fall back to
        ``benchmarker.measure``.  Returns ``(results, n_replayed,
        fallbacks)``, one :meth:`unsupported_reason` per fallback, so
        callers can do their own metrics accounting (see
        :func:`count_engines`) — this function does not touch ``obs``
        counters (it also runs inside pool workers whose registries are
        never shipped home).
        """
        todo: List[Schedule] = []
        fallbacks: List[str] = []
        seen = set()
        for s in schedules:
            fp = s.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
            if benchmarker.cached(s) is not None:
                continue
            why = self.unsupported_reason(s)
            if why is None:
                todo.append(s)
            else:
                fallbacks.append(why)
        for s, m in zip(todo, self.measure_block(todo)):
            benchmarker.seed_cache(s, m)
            benchmarker.n_simulations += m.n_samples
        results = [benchmarker.measure(s) for s in schedules]
        return results, len(todo), fallbacks


def select_engine(
    benchmarker: Benchmarker,
) -> Tuple[Optional[CompiledContext], Optional[str]]:
    """The simulation engine for ``benchmarker``'s measurement context.

    Returns ``(compiled context, None)`` when batch replay can run the
    context, else ``(None, reason)`` for the reference engine: ``trace``
    or ``payload`` when the executor needs features replay cannot
    produce (checked first, without compiling), otherwise the compile
    verdict (``mpi-comm`` or ``rank-mismatch``).
    """
    executor = benchmarker.executor
    if executor.collect_trace:
        return None, "trace"
    if executor.payload_init is not None:
        return None, "payload"
    ctx = compile_context(
        executor.program,
        executor.machine,
        benchmarker.config,
        sample_offset=benchmarker.sample_offset,
    )
    return (ctx, None) if ctx.ok else (None, ctx.reason)


def count_engines(
    n_replayed: int = 0,
    fallbacks: Sequence[str] = (),
    *,
    reason: Optional[str] = None,
    n_reference: int = 0,
) -> None:
    """Count freshly simulated schedules under the engine that ran them.

    ``n_replayed`` adds to ``sim.batch_replays``.  Every reference-engine
    schedule adds to ``sim.reference.<reason>``: ``n_reference`` of them
    under a context's ``reason`` from :func:`select_engine`, and one per
    per-schedule ``fallbacks`` entry under its kind (the part before
    ``:``), which also counts in ``sim.fallbacks``.
    """
    if n_replayed:
        obs.add("sim.batch_replays", n_replayed)
    if n_reference:
        obs.add(f"sim.reference.{reason}", n_reference)
    if fallbacks:
        obs.add("sim.fallbacks", len(fallbacks))
        kinds = Counter(why.split(":", 1)[0] for why in fallbacks)
        for kind, n in sorted(kinds.items()):
            obs.add(f"sim.reference.{kind}", n)


def compile_context(
    program: Program,
    machine: MachineConfig,
    config: MeasurementConfig = MeasurementConfig(),
    *,
    sample_offset: int = 0,
) -> CompiledContext:
    """Compile a replay context; timed and counted in ``obs``.

    ``sim.compile_s`` observes the compile wall; ``sim.compiled_contexts``
    counts *usable* contexts (``ctx.ok``) so the metric reads as "how many
    batch-capable contexts this run built".
    """
    global _N_COMPILES
    _N_COMPILES += 1
    with obs.stage("sim.compile") as st:
        ctx = CompiledContext(
            program, machine, config, sample_offset=sample_offset
        )
    obs.observe("sim.compile_s", st.duration)
    if ctx.ok:
        obs.add("sim.compiled_contexts")
    return ctx
