"""Discrete-event simulation of a multi-rank CUDA+MPI platform.

This package is the hardware substitute for the paper's Perlmutter testbed:
a deterministic discrete-event simulator with

* a discrete-event kernel whose queue holds callbacks, with generator
  processes that yield events or plain delays (:mod:`repro.sim.engine`),
* FIFO GPU streams with CUDA-event semantics, driven by queue and event
  callbacks (:mod:`repro.sim.stream`),
* an MPI network engine with message matching and an α-β transfer model
  (:mod:`repro.sim.network`),
* a schedule executor that interprets a bound operation sequence per rank
  (:mod:`repro.sim.executor`),
* a compiled batch engine that replays whole schedule blocks as numpy
  array sweeps, bit-identical to the reference engine, plus the one rule
  that picks the engine for a measurement context
  (:mod:`repro.sim.batch`), and
* timeline tracing and a numeric-payload context for end-to-end
  verification (:mod:`repro.sim.trace`, :mod:`repro.sim.semantics`).
"""

from repro.sim.batch import (
    CompiledContext,
    compile_context,
    select_engine,
)
from repro.sim.engine import AllOf, Environment, Event, Process, Timeout
from repro.sim.executor import ScheduleExecutor, SimResult
from repro.sim.measure import Benchmarker, Measurement, MeasurementConfig
from repro.sim.semantics import HazardTracker, PayloadContext, RankContext
from repro.sim.trace import Gantt, Trace, TraceRecord

__all__ = [
    "AllOf",
    "Benchmarker",
    "compile_context",
    "CompiledContext",
    "Environment",
    "Event",
    "Gantt",
    "HazardTracker",
    "Measurement",
    "MeasurementConfig",
    "PayloadContext",
    "Process",
    "RankContext",
    "ScheduleExecutor",
    "select_engine",
    "SimResult",
    "Timeout",
    "Trace",
    "TraceRecord",
]
