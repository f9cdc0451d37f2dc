"""repro.exec — the batched schedule-evaluation substrate.

Search strategies do not talk to the simulator directly; they submit
batches of candidate schedules to an :class:`Evaluator` and receive one
:class:`~repro.sim.measure.Measurement` per schedule, in order.  Three
pieces compose:

* :class:`Evaluator` / :class:`SerialEvaluator` — the interface, and the
  reference backend wrapping the paper's
  :class:`~repro.sim.measure.Benchmarker` protocol one schedule at a
  time.
* :class:`ParallelEvaluator` — the same semantics on a
  ``multiprocessing`` worker pool; every worker owns a private simulator
  (and, where batch replay runs the program, one compiled replay context
  built in the pool initializer and reused across tasks).
* :class:`MeasurementCache` — a persistent SQLite store keyed by
  canonical fingerprints of (program, machine, measurement config,
  sample offset) × schedule, so repeated runs never re-simulate a known
  implementation.

:func:`build_evaluator` is the one place that opens a cache: given a
``cache_path`` it opens the file, hands the connection to the evaluator
it returns, and that evaluator's ``close()`` closes it.  A run's
execution settings (evaluation ``workers``, ``cache_path``, plan
``shard_workers`` and exhaustive ``block_size``) travel together as one
:class:`ExecConfig`; ``MeasurementConfig`` stays separate because it
does change results.

Determinism guarantees
----------------------
1. **Per-schedule seeding.**  A measurement is a pure function of the
   schedule plus the evaluation context: measurement noise is derived
   from a stable hash of ``(noise seed, sample index, op key)``, never
   from shared RNG state.  Serial, parallel, and cached evaluation are
   therefore bit-identical, for any worker count, batch split, or
   completion order.
2. **Ordered results.**  ``evaluate_batch`` aligns results with its
   input, so strategy-side bookkeeping (search traces, label
   generation) is independent of evaluation concurrency.
3. **Ordered backpropagation.**  Batched strategies (e.g. leaf-parallel
   MCTS, see :class:`repro.search.mcts.MctsConfig.rollout_batch`)
   collect rollouts first, then backpropagate measurements in
   collection order.  With ``rollout_batch=1`` MCTS is exactly the
   paper's serial protocol; with ``rollout_batch=k > 1`` the *search
   trajectory* may deviate from the paper (selection sees rollout
   statistics up to ``k-1`` iterations stale — the standard
   leaf-parallelization trade-off) even though each individual
   measurement is still bit-identical.
"""

from repro.exec.cache import MeasurementCache, context_fingerprint, program_fingerprint
from repro.exec.config import ExecConfig
from repro.exec.evaluator import Evaluator, SerialEvaluator, as_evaluator
from repro.exec.parallel import ParallelEvaluator, build_evaluator

__all__ = [
    "Evaluator",
    "ExecConfig",
    "MeasurementCache",
    "ParallelEvaluator",
    "SerialEvaluator",
    "as_evaluator",
    "build_evaluator",
    "context_fingerprint",
    "program_fingerprint",
]
