"""Benchmark-side tracing: spans timed from outside the program.

The benchmark never enables the program's own tracing.  Instead its
traced pass calls each layer's public functions itself and wraps every
call in a :class:`SpanRecorder` span.  Simulation is reached through a
:class:`TracedEvaluator`, a delegating :class:`~repro.exec.Evaluator`
handed to every API that accepts one, so time inside ``evaluate_batch``
is split out of the search, pipeline or experiment call around it.

A span's self time is its duration minus the part its child spans cover;
a layer's time is the summed self time of the spans named after it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Sequence

from repro.exec import Evaluator
from repro.schedule.schedule import Schedule
from repro.search.base import SearchResult
from repro.sim.measure import Measurement


class SpanRecorder:
    """Nested wall-clock spans plus counters, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def root_total(self) -> float:
        """Wall time covered by root spans (they never overlap)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def note_search(self, result: SearchResult) -> None:
        """Count one strategy run's outcome at the search boundary."""
        self.add("search.schedules", result.n_iterations)
        self.add("search.unique", len(result.unique()))
        self.add("search.pruned", result.n_pruned)
        self.add("search.subtrees_cut", result.n_subtrees_cut)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


class NullRecorder(SpanRecorder):
    """Records nothing, so untraced passes can share the traced code."""

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, n: float = 1) -> None:
        pass


#: The recorder of every untraced pass.
NULL = NullRecorder()


class TracedEvaluator(Evaluator):
    """Delegates to ``inner`` and times each batch as a ``sim.evaluate`` span.

    Measurements are returned untouched.  Besides the span it counts the
    schedules submitted, the simulator invocations (``n_simulations``
    delta), and the schedules freshly measured (growth of the wrapped
    benchmarker's memo); the rest were memo hits.
    """

    def __init__(self, inner: Evaluator, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder

    @property
    def benchmarker(self):
        # Strategies alias their evaluator's benchmarker; keep that view.
        return getattr(self.inner, "benchmarker", None)

    @property
    def n_simulations(self) -> int:
        return self.inner.n_simulations

    def evaluate_batch(self, schedules: Sequence[Schedule]) -> List[Measurement]:
        bench = self.benchmarker
        memo_before = bench.n_unique_schedules if bench is not None else 0
        sims_before = self.inner.n_simulations
        with self.recorder.span("sim.evaluate"):
            out = self.inner.evaluate_batch(schedules)
        rec = self.recorder
        rec.add("sim.schedules", len(schedules))
        rec.add("sim.simulations", self.inner.n_simulations - sims_before)
        if bench is not None:
            rec.add("sim.fresh", bench.n_unique_schedules - memo_before)
        return out

    def close(self) -> None:
        self.inner.close()
