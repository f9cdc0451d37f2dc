"""repro.exec — the batched schedule-evaluation substrate.

Search strategies do not talk to the simulator directly; they submit
batches of candidate schedules to an :class:`Evaluator` and receive one
:class:`~repro.sim.measure.Measurement` per schedule, in order.  Two
pieces compose:

* :class:`Evaluator` / :class:`SerialEvaluator` — the interface, and the
  backend wrapping the paper's :class:`~repro.sim.measure.Benchmarker`
  protocol, with batch replay wherever it can run the program.
* :class:`MeasurementCache` — a persistent SQLite store keyed by
  canonical fingerprints of (program, machine, measurement config) ×
  schedule, so repeated runs never re-simulate a known implementation.

:func:`build_evaluator` is the one place that opens a cache: given a
``cache_path`` it opens the file, hands the connection to the evaluator
it returns, and that evaluator's ``close()`` closes it.  A run's
execution settings (``cache_path``, plan ``shard_workers`` and
exhaustive ``block_size``) travel together as one :class:`ExecConfig`;
``MeasurementConfig`` stays separate because it does change results.

Determinism guarantees
----------------------
1. **Per-schedule seeding.**  A measurement is a pure function of the
   schedule plus the evaluation context: measurement noise is derived
   from a stable hash of ``(noise seed, sample index, op key)``, never
   from shared RNG state.  Replayed, reference-engine and cached
   measurements are therefore bit-identical, for any batch split and in
   any process, which is what lets plan shards
   (:mod:`repro.orchestrate`) reproduce a serial run exactly.
2. **Ordered results.**  ``evaluate_batch`` aligns results with its
   input, so strategy-side bookkeeping (search traces, label
   generation) is independent of how a batch is evaluated.
"""

from repro.exec.cache import MeasurementCache, context_fingerprint, program_fingerprint
from repro.exec.config import ExecConfig
from repro.exec.evaluator import (
    Evaluator,
    SerialEvaluator,
    as_evaluator,
    build_evaluator,
)

__all__ = [
    "Evaluator",
    "ExecConfig",
    "MeasurementCache",
    "SerialEvaluator",
    "as_evaluator",
    "build_evaluator",
    "context_fingerprint",
    "program_fingerprint",
]
