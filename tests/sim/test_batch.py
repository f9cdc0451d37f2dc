"""Differential tests for the compiled batch simulation engine.

The contract under test (:mod:`repro.sim.batch`): replayed measurements
are **bit-identical** to the reference discrete-event engine — not close,
equal — for every registered workload family, with and without noise,
and anything batch replay cannot run goes to the reference engine
transparently, counted under ``sim.reference.<reason>``.
"""

import numpy as np
import pytest

from repro import obs
from repro.dag.vertex import START, OpKind, Vertex, gpu_op
from repro.exec import MeasurementCache, SerialEvaluator, build_evaluator
from repro.platform import noiseless, perlmutter_like
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace
from repro.sim.batch import (
    CompiledContext,
    compile_context,
    compile_count,
    select_engine,
)
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import build_workload, builtin_suites

#: Every registered workload family, at CI-fast sizes.
SMOKE_SPECS = builtin_suites()["smoke"].specs
#: Families whose programs carry MPI actions (compile-time fallback).
MPI_FAMILIES = {"spmv", "halo3d", "tree_allreduce"}

N_SCHEDULES = 20


def _machines():
    return (
        ("noiseless", noiseless(perlmutter_like())),
        ("noisy", perlmutter_like(noise_sigma=0.01)),
    )


def _random_schedules(program, n, seed=7, n_streams=2):
    space = DesignSpace(program, n_streams=n_streams)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        s = space.random_schedule(rng)
        if s is not None:
            out.append(s)
    return out


def _reference(program, machine, cfg, schedules):
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    return [bench.measure(s) for s in schedules]


# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SMOKE_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("noise", ["noiseless", "noisy"])
def test_bit_identical_to_reference_every_family(spec, noise):
    """Replay == reference, float for float, across all families."""
    program = build_workload(spec)
    machine = dict(_machines())[noise].with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=3)
    ctx = CompiledContext(program, machine, cfg)
    if spec.family in MPI_FAMILIES:
        assert not ctx.ok and ctx.reason == "mpi-comm"
        return
    assert ctx.ok, ctx.reason
    schedules = _random_schedules(program, N_SCHEDULES)
    assert all(ctx.supports(s) for s in schedules)
    ref = _reference(program, machine, cfg, schedules)
    got = ctx.measure_block(schedules)
    for a, b in zip(got, ref):
        assert a == b  # bit-identical: time, n_samples, per_rank_time


def test_bit_identical_under_adaptive_sampling():
    """The target-time break conditions fire identically to reference."""
    spec = next(s for s in SMOKE_SPECS if s.family == "wavefront")
    program = build_workload(spec)
    machine = perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks)
    # A target small enough that some schedules stop before max_samples.
    cfg = MeasurementConfig(target_time_s=1e-5, min_samples=2, max_samples=6)
    ctx = CompiledContext(program, machine, cfg)
    assert ctx.ok
    schedules = _random_schedules(program, N_SCHEDULES)
    ref = _reference(program, machine, cfg, schedules)
    got = ctx.measure_block(schedules)
    assert {m.n_samples for m in ref} != {cfg.max_samples}
    for a, b in zip(got, ref):
        assert a == b


def test_measure_into_counts_and_seeds_memo():
    spec = next(s for s in SMOKE_SPECS if s.family == "fork_join")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=2)
    ctx = CompiledContext(program, machine, cfg)
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    schedules = _random_schedules(program, 8)
    # Duplicate the batch: dedup must replay each unique schedule once.
    results, n_replayed, fallbacks = ctx.measure_into(bench, schedules + schedules)
    unique = len({s.fingerprint() for s in schedules})
    assert n_replayed == unique and fallbacks == []
    assert len(results) == 2 * len(schedules)
    assert results[: len(schedules)] == results[len(schedules) :]
    # n_simulations accounting matches the reference protocol.
    ref_bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    ref = [ref_bench.measure(s) for s in schedules]
    assert results[: len(schedules)] == ref
    assert bench.n_simulations == ref_bench.n_simulations
    # A second call is fully memoized: nothing replayed, nothing simulated.
    sims = bench.n_simulations
    _, n_replayed, fallbacks = ctx.measure_into(bench, schedules)
    assert (n_replayed, fallbacks) == (0, [])
    assert bench.n_simulations == sims


# -- fallback paths ----------------------------------------------------
def test_mpi_program_falls_back_to_reference_results():
    spec = next(s for s in SMOKE_SPECS if s.family == "tree_allreduce")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=1)
    ctx = CompiledContext(program, machine, cfg)
    assert not ctx.ok
    schedules = _random_schedules(program, 4)
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    results, n_replayed, fallbacks = ctx.measure_into(bench, schedules)
    assert n_replayed == 0
    assert fallbacks == ["mpi-comm"] * len({s.fingerprint() for s in schedules})
    assert results == _reference(program, machine, cfg, schedules)


def _sim_delta(evaluator, schedules):
    """Run one batch; return (results, sim.* counter deltas)."""
    before = obs.metrics_snapshot()
    results = evaluator.evaluate_batch(schedules)
    delta = obs.metrics_snapshot().diff(before)
    return results, {
        name: delta.counter(name)
        for name in delta.counters
        if name.startswith("sim.") and delta.counter(name)
    }


def test_serial_evaluator_counts_fallbacks():
    """Schedules a compiled context cannot replay run on the reference
    engine one by one, counted in ``sim.fallbacks`` and under their
    reason kind."""
    spec = next(s for s in SMOKE_SPECS if s.family == "layered_random")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=1)
    schedules = _random_schedules(program, 4)
    v = next(v for v in program.schedulable_vertices() if v.kind is OpKind.GPU)
    impostor = Vertex(name=v.name, kind=v.kind, duration=1e-6)
    schedules.append(Schedule([BoundOp(impostor, stream=0)]))
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    ev = SerialEvaluator(bench)
    assert ev._compiled is not None
    results, counts = _sim_delta(ev, schedules)
    assert counts == {
        "sim.batch_replays": len({s.fingerprint() for s in schedules}) - 1,
        "sim.fallbacks": 1,
        "sim.reference.op-mismatch": 1,
        "sim.path.event_loop.op-mismatch": 1,
    }
    assert results == _reference(program, machine, cfg, schedules)


def test_serial_evaluator_counts_reference_reason():
    """An MPI program runs on the reference engine: every fresh schedule
    counts under ``sim.reference.mpi-comm``, and its one sample under the
    reference engine's path; memo and disk-cache hits count nowhere."""
    spec = next(s for s in SMOKE_SPECS if s.family == "spmv")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=1)
    schedules = _random_schedules(program, 5)
    unique = len({s.fingerprint() for s in schedules})
    with MeasurementCache(":memory:") as cache:
        bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
        ev = SerialEvaluator(bench, cache=cache)
        assert ev._compiled is None and ev._reason == "mpi-comm"
        results, counts = _sim_delta(ev, schedules)
        direct = counts.pop("sim.path.direct", 0)
        deferred = counts.pop("sim.path.event_loop.channel", 0)
        assert direct + deferred == unique
        assert counts == {"sim.reference.mpi-comm": unique}
        assert results == _reference(program, machine, cfg, schedules)
        assert _sim_delta(ev, schedules)[1] == {}  # memo hits
        bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
        fresh = SerialEvaluator(bench, cache=cache)
        assert _sim_delta(fresh, schedules) == (results, {})  # disk-cache hits


def test_serial_evaluator_counts_replays():
    spec = next(s for s in SMOKE_SPECS if s.family == "layered_random")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=1)
    schedules = _random_schedules(program, 6)
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    ev = SerialEvaluator(bench)
    assert ev._compiled is not None
    results, counts = _sim_delta(ev, schedules)
    assert counts == {"sim.batch_replays": len({s.fingerprint() for s in schedules})}
    assert results == _reference(program, machine, cfg, schedules)


def test_auto_resolves_to_reference_on_mpi_programs():
    spec = next(s for s in SMOKE_SPECS if s.family == "halo3d")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    bench = Benchmarker(ScheduleExecutor(program, machine))
    assert select_engine(bench) == (None, "mpi-comm")
    spec = next(s for s in SMOKE_SPECS if s.family == "wavefront")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    ctx, reason = select_engine(Benchmarker(ScheduleExecutor(program, machine)))
    assert ctx is not None and ctx.ok and reason is None


def test_needs_reference_forces_reference_backend():
    """Trace collection and payload runs need the reference engine; the
    choice is made without compiling, and schedules count under it."""
    spec = next(s for s in SMOKE_SPECS if s.family == "wavefront")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    traced = ScheduleExecutor(program, machine, collect_trace=True)
    payload = ScheduleExecutor(program, machine, payload_init=lambda ctx: None)
    compiles = compile_count()
    assert select_engine(Benchmarker(traced)) == (None, "trace")
    assert select_engine(Benchmarker(payload)) == (None, "payload")
    assert compile_count() == compiles
    cfg = MeasurementConfig(max_samples=1)
    schedules = _random_schedules(program, 3)
    ev = SerialEvaluator(Benchmarker(traced, cfg))
    results, counts = _sim_delta(ev, schedules)
    unique = len({s.fingerprint() for s in schedules})
    assert counts == {
        "sim.reference.trace": unique,
        "sim.path.event_loop.trace": unique,
    }
    assert results == _reference(program, machine, cfg, schedules)


# -- per-schedule capability guards ------------------------------------
@pytest.fixture(scope="module")
def guard_ctx():
    spec = next(s for s in SMOKE_SPECS if s.family == "layered_random")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    return program, CompiledContext(program, machine, MeasurementConfig())


def _rec(name, event, stream=0):
    v = Vertex(name=name, kind=OpKind.EVENT_RECORD)
    return BoundOp(v, stream=stream, event=event)


def _wait(name, event, stream=0):
    v = Vertex(name=name, kind=OpKind.STREAM_WAIT)
    return BoundOp(v, stream=stream, event=event)


def _sync(name, event):
    v = Vertex(name=name, kind=OpKind.EVENT_SYNC)
    return BoundOp(v, event=event)


def test_guard_unknown_and_mismatched_ops(guard_ctx):
    program, ctx = guard_ctx
    unknown = Schedule([BoundOp(gpu_op("NOT-IN-PROGRAM"), stream=0)])
    assert ctx.unsupported_reason(unknown) == "unknown-op:NOT-IN-PROGRAM"
    v = next(v for v in program.schedulable_vertices() if v.kind is OpKind.GPU)
    impostor = Vertex(name=v.name, kind=v.kind, duration=123.0)
    mismatched = Schedule([BoundOp(impostor, stream=0)])
    assert ctx.unsupported_reason(mismatched) == f"op-mismatch:{v.name}"


def test_guard_stream_and_kind(guard_ctx):
    program, ctx = guard_ctx
    v = next(v for v in program.schedulable_vertices() if v.kind is OpKind.GPU)
    assert (
        ctx.unsupported_reason(Schedule([BoundOp(v, stream=99)]))
        == "stream-out-of-range:99"
    )
    assert ctx.unsupported_reason(Schedule([BoundOp(START)])) == "op-kind:start"


def test_guard_event_ordering(guard_ctx):
    _, ctx = guard_ctx
    assert (
        ctx.unsupported_reason(Schedule([_wait("W0", "e0", stream=1)]))
        == "event-before-record:e0"
    )
    assert (
        ctx.unsupported_reason(Schedule([_sync("S0", "e0")]))
        == "event-before-record:e0"
    )
    rerecord = Schedule([_rec("R0", "e0"), _rec("R1", "e0", stream=1)])
    assert ctx.unsupported_reason(rerecord) == "event-rerecord:e0"
    ordered = Schedule([_rec("R0", "e0"), _wait("W0", "e0", stream=1)])
    assert ctx.unsupported_reason(ordered) is None


# -- compile instrumentation -------------------------------------------
def test_compile_context_metrics():
    spec = next(s for s in SMOKE_SPECS if s.family == "stencil_reduce")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    before = obs.metrics_snapshot()
    ctx = compile_context(program, machine)
    delta = obs.metrics_snapshot().diff(before)
    assert ctx.ok
    assert delta.counter("sim.compiled_contexts") == 1
    # The unusable compile is timed but not counted as a usable context.
    mpi = build_workload(next(s for s in SMOKE_SPECS if s.family == "spmv"))
    before = obs.metrics_snapshot()
    ctx = compile_context(
        mpi, noiseless(perlmutter_like()).with_ranks(mpi.n_ranks)
    )
    delta = obs.metrics_snapshot().diff(before)
    assert not ctx.ok
    assert delta.counter("sim.compiled_contexts") == 0


# -- evaluator-level equivalence ---------------------------------------
def test_build_evaluator_batch_vs_reference_serial():
    spec = next(s for s in SMOKE_SPECS if s.family == "fork_join")
    program = build_workload(spec)
    machine = perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=2)
    schedules = _random_schedules(program, 25)
    ref_bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    bat_ev = build_evaluator(program, machine, cfg)
    assert bat_ev._compiled is not None
    try:
        assert bat_ev.evaluate_batch(schedules) == [
            ref_bench.measure(s) for s in schedules
        ]
        assert bat_ev.n_simulations == ref_bench.n_simulations
    finally:
        bat_ev.close()
