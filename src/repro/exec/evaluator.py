"""Batched schedule evaluation: the uniform measurement interface.

Search strategies submit *batches* of schedules through an
:class:`Evaluator` instead of owning their measurement loops.  The
interface decouples *what* is measured (the paper's protocol,
:mod:`repro.sim.measure`) from how it is computed (batch replay or the
reference engine, memo or disk cache); every implementation must return
bit-identical measurements.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.dag.program import Program
from repro.exec.cache import MeasurementCache, context_fingerprint
from repro.platform.machine import MachineConfig
from repro.schedule.schedule import Schedule
from repro.sim.batch import count_engines, select_engine
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, Measurement, MeasurementConfig


class Evaluator(abc.ABC):
    """Measures schedules; the only way search strategies touch the sim.

    Implementations must be *pure* with respect to the measurement
    semantics: for a fixed program/machine/measurement-config context,
    ``evaluate_batch`` returns the same :class:`Measurement` for a given
    schedule regardless of batch composition, ordering, concurrency, or
    cache state.
    """

    @abc.abstractmethod
    def evaluate_batch(self, schedules: Sequence[Schedule]) -> List[Measurement]:
        """Measure every schedule; results align with the input order."""

    @property
    @abc.abstractmethod
    def n_simulations(self) -> int:
        """Total simulator invocations (samples) performed so far."""

    # ------------------------------------------------------------------
    def evaluate(self, schedule: Schedule) -> Measurement:
        return self.evaluate_batch([schedule])[0]

    def time_of(self, schedule: Schedule) -> float:
        return self.evaluate(schedule).time

    def close(self) -> None:
        """Release any resources (cache connections)."""


class SerialEvaluator(Evaluator):
    """Evaluates batches in-process through a
    :class:`~repro.sim.measure.Benchmarker`.

    :func:`~repro.sim.batch.select_engine` picks the engine for the
    benchmarker's context once, here: the compiled batch replay
    (:mod:`repro.sim.batch`) wherever it can run the program, the
    reference engine otherwise.  Schedules a compiled context
    cannot replay fall back to the reference engine one by one.  Either
    way results are bit-identical to the reference engine, and every
    freshly simulated schedule is counted under the engine that ran it
    (:func:`~repro.sim.batch.count_engines`).  Each batch also adds the
    reference engine's samples under the path that ran them,
    ``sim.path.<path>`` (:meth:`~repro.sim.executor.ScheduleExecutor.run`).

    An optional :class:`MeasurementCache` is consulted before the
    benchmarker and updated with fresh results; the benchmarker's
    in-memory memo and the disk cache share the same schedule
    fingerprints.  The evaluator owns that cache: :meth:`close` closes it.
    """

    def __init__(
        self,
        benchmarker: Benchmarker,
        cache: Optional[MeasurementCache] = None,
    ) -> None:
        self.benchmarker = benchmarker
        self.cache = cache
        self._compiled, self._reason = select_engine(benchmarker)
        self._context: Optional[str] = None
        #: Fingerprints known to be on disk (read or written by us), so a
        #: warm-cache run doesn't rewrite the database it just read.
        self._on_disk: set = set()
        if cache is not None:
            self._context = context_fingerprint(
                benchmarker.executor.program,
                benchmarker.executor.machine,
                benchmarker.config,
            )

    # ------------------------------------------------------------------
    @property
    def n_simulations(self) -> int:
        return self.benchmarker.n_simulations

    def evaluate_batch(self, schedules: Sequence[Schedule]) -> List[Measurement]:
        with obs.span(
            "eval.batch",
            n=len(schedules),
            sim="reference" if self._compiled is None else "batch",
        ):
            bench = self.benchmarker
            sims_before = bench.n_simulations
            if self.cache is not None:
                self._preload_from_cache(schedules)
            if self._compiled is not None:
                results, n_replayed, fallbacks = self._compiled.measure_into(
                    bench, schedules
                )
                count_engines(n_replayed, fallbacks)
            else:
                memo_before = bench.n_unique_schedules
                results = [bench.measure(s) for s in schedules]
                count_engines(
                    reason=self._reason,
                    n_reference=bench.n_unique_schedules - memo_before,
                )
            if self.cache is not None:
                self._write_back(schedules, results)
            obs.add("eval.schedules", len(schedules))
            obs.add("eval.simulations", bench.n_simulations - sims_before)
            for path, n in bench.executor.take_path_counts().items():
                obs.add(f"sim.path.{path}", n)
        return results

    def close(self) -> None:
        if self.cache is not None:
            self.cache.close()

    # ------------------------------------------------------------------
    def _preload_from_cache(self, schedules: Sequence[Schedule]) -> None:
        missing: Dict[str, Schedule] = {
            s.fingerprint(): s
            for s in schedules
            if self.benchmarker.cached(s) is None
        }
        if not missing:
            return
        hits = self.cache.get_many(self._context, list(missing))
        for fp, m in hits.items():
            self.benchmarker.seed_cache(missing[fp], m)
        self._on_disk.update(hits)

    def _write_back(
        self, schedules: Sequence[Schedule], results: Sequence[Measurement]
    ) -> None:
        entries = {
            s.fingerprint(): m
            for s, m in zip(schedules, results)
            if s.fingerprint() not in self._on_disk
        }
        if entries:
            self.cache.put_many(self._context, entries.items())
            self._on_disk.update(entries)


def build_evaluator(
    program: Program,
    machine: MachineConfig,
    config: MeasurementConfig = MeasurementConfig(),
    *,
    workers: int = 0,
    cache_path: Optional[str] = None,
    benchmarker: Optional[Benchmarker] = None,
) -> SerialEvaluator:
    """A :class:`SerialEvaluator` over ``benchmarker`` (or a fresh one).

    This is the only code that opens a :class:`MeasurementCache`: with
    ``cache_path`` set, the returned evaluator holds the connection and
    its ``close()`` closes it.  Evaluation is always in-process, so
    ``workers`` accepts only 0 or 1.
    """
    if workers not in (0, 1):
        raise ValueError(f"workers must be 0 or 1, got {workers}")
    cache = MeasurementCache(cache_path) if cache_path is not None else None
    if benchmarker is None:
        benchmarker = Benchmarker(ScheduleExecutor(program, machine), config)
    return SerialEvaluator(benchmarker, cache=cache)


def as_evaluator(obj) -> Evaluator:
    """Coerce a :class:`Benchmarker` (or pass through an
    :class:`Evaluator`) so call sites accept either."""
    if isinstance(obj, Evaluator):
        return obj
    if isinstance(obj, Benchmarker):
        return SerialEvaluator(obj)
    raise TypeError(f"expected an Evaluator or Benchmarker, got {type(obj).__name__}")
