"""Plan execution: workload tasks across a process pool, or in-process.

The runner executes an :class:`~repro.orchestrate.plan.ExecutionPlan`
either serially (``shard_workers <= 1``) or across a
``ProcessPoolExecutor`` of whole-workload shards.  Both paths run the
exact same per-task code — :func:`execute_task` — and a task's output is
a pure function of the task value, so the sharded run is bit-identical
to the serial one (per-task wall-clock aside).  Results always come back
ordered by ``task.index`` regardless of completion order.

The shard pool is the only process pool: within a task, schedules are
measured in-process.  Every task executor gets its evaluator the same
way, from :func:`~repro.exec.build_evaluator` with the task's
``cache_path``.  All shards may share one persistent measurement cache
path; each task's evaluator opens its own connection and closes it when
the task ends, and SQLite's WAL mode serializes the writes.

Task payloads must pickle.  Programs may not (payload closures), so
``workload-rules`` payloads travel without their program and
:func:`restore_rules_payload` rebuilds it in the parent from the spec —
bit-identical by the workload determinism contract.

The :class:`TaskResult` is a worker's only channel to the parent: its
counters and spans ship home with the payload, and once every task is
back ``execute_plan`` absorbs them all in task-index order.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.pipeline import DesignRulePipeline, PipelineConfig
from repro.dag.program import Program
from repro.errors import WorkloadError
from repro.exec import Evaluator, build_evaluator
from repro.obs import MetricsSnapshot, SpanRecord
from repro.orchestrate.plan import (
    TASK_SEARCH_RANGE,
    TASK_SUITE_CELLS,
    TASK_WORKLOAD_RULES,
    ExecutionPlan,
    WorkloadTask,
)
from repro.platform.machine import MachineConfig
from repro.schedule.space import DesignSpace
from repro.search.base import SearchStrategy
from repro.search.beam import BeamSearch
from repro.search.mcts import MctsConfig, MctsSearch
from repro.search.random_search import RandomSearch
from repro.workloads.spec import build_workload


@dataclass
class TaskResult:
    """One task's payload plus its execution footprint."""

    index: int
    label: str
    kind: str
    payload: object
    #: Total task wall time (per-layer time is in the trace's spans).
    wall_s: float
    #: PID of the executing process (parent PID for in-process runs).
    pid: int = 0
    #: Span subtrees recorded in a worker process (empty when the task
    #: ran in-process — those spans land directly in the ambient tracer).
    spans: Tuple[SpanRecord, ...] = ()
    #: Worker-local metrics snapshot shipped home for parent-side merge
    #: (None for in-process tasks, which hit the live registry directly).
    metrics: Optional[MetricsSnapshot] = None
    #: Worker-side clock origin; lets ``obs.absorb`` rebase shipped span
    #: starts onto the parent clock.
    obs_epoch: Optional[float] = None

    def timing_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "kind": self.kind,
            "wall_s": self.wall_s,
        }


@dataclass
class PlanRun:
    """Everything one plan execution produced, in task-index order."""

    results: List[TaskResult]
    shard_workers: int
    wall_s: float

    def of_kind(self, kind: str) -> List[TaskResult]:
        return [r for r in self.results if r.kind == kind]

    def timing(self) -> Dict[str, object]:
        """JSON-ready timing summary (the report's ``timing`` field)."""
        return {
            "shard_workers": self.shard_workers,
            "n_tasks": len(self.results),
            "wall_s": self.wall_s,
            "tasks": [r.timing_dict() for r in self.results],
        }


# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _space_count(spec, n_streams: int) -> int:
    """Memoized design-space size of one workload (specs are hashable and
    builds deterministic; the DP count costs milliseconds even for
    billion-schedule spaces)."""
    from repro.workloads.spec import build_workload as _build

    return DesignSpace(_build(spec), n_streams=n_streams).count()


def estimate_task_cost(task: WorkloadTask) -> float:
    """Estimated work of one task, from its design-space size.

    ``workload-rules`` tasks enumerate and simulate the whole space, so
    their cost *is* ``space.count()``.  ``suite-cells`` tasks sample: at
    most ``n_iterations`` benchmarks per strategy, capped by the space
    itself (space size still proxies per-schedule simulation cost via
    the op count, but the cap keeps a billion-schedule sampled workload
    from outranking an exhaustive one).
    """
    if task.kind == TASK_SEARCH_RANGE:
        # A range shard's work is exactly its slice of the enumeration.
        return float(task.range_limit or 0)
    count = float(_space_count(task.spec, task.n_streams))
    if task.kind == TASK_SUITE_CELLS:
        budget = float(task.n_iterations * max(1, len(task.strategies)))
        return min(count, budget) if budget > 0 else count
    return count


def submission_order(
    tasks: Sequence[WorkloadTask], costs: Mapping[int, float]
) -> List[int]:
    """Task indices, costliest first (index breaks ties).

    Shard scheduling submits in this order so long-pole workloads start
    before cheap ones — FIFO-by-index used to leave the most expensive
    task to finish alone on one shard while the rest of the pool idled.
    Results are still returned in task-index order; only wall time moves.
    """
    return sorted(
        (t.index for t in tasks), key=lambda i: (-costs.get(i, 0.0), i)
    )


def make_strategy(
    name: str, space: DesignSpace, evaluator, seed: int, *, guide=None
) -> SearchStrategy:
    """Sampling-strategy registry (random / mcts / beam), optionally
    rule-guided (:class:`~repro.advisor.guided.ScheduleGuide`)."""
    if name == "random":
        return RandomSearch(space, evaluator, seed=seed, guide=guide)
    if name == "mcts":
        return MctsSearch(space, evaluator, MctsConfig(seed=seed), guide=guide)
    if name == "beam":
        return BeamSearch(space, evaluator, seed=seed, guide=guide)
    raise WorkloadError(f"unknown suite strategy {name!r}")


def _task_evaluator(
    machine: MachineConfig, task: WorkloadTask, program: Program
) -> Evaluator:
    """The one way a task gets its evaluator; the task closes it (and
    with it the task's cache connection) when it ends."""
    return build_evaluator(
        program,
        machine.with_ranks(program.n_ranks),
        task.measurement,
        cache_path=task.cache_path,
    )


def _run_suite_cells(machine: MachineConfig, task: WorkloadTask) -> object:
    """All of one workload's (strategy → SuiteCell) rows.

    Mirrors the historical serial SuiteRunner loop exactly: one evaluator
    per workload shared by every strategy (so the memo carries across
    strategies), per-strategy wall time measured around ``run``.
    """
    from repro.workloads.suite import _cell_from_result

    with obs.span("workloads.build"):
        program = build_workload(task.spec)
        space = DesignSpace(program, n_streams=task.n_streams)
    cells = []
    evaluator = _task_evaluator(machine, task, program)
    try:
        for strat_name in task.strategies:
            t0 = time.perf_counter()
            strategy = make_strategy(strat_name, space, evaluator, task.seed)
            result = strategy.run(task.n_iterations)
            wall = time.perf_counter() - t0
            cells.append(
                _cell_from_result(task.spec, strat_name, space, result, wall)
            )
    finally:
        evaluator.close()
    return cells


def _run_workload_rules(machine: MachineConfig, task: WorkloadTask) -> object:
    """One workload's exhaustive design-rule pipeline, reduced to a
    (program-free, picklable) :class:`WorkloadRules` payload."""
    from repro.workloads.generalization import reduce_workload_rules

    with obs.span("workloads.build"):
        program = build_workload(task.spec)
    evaluator = _task_evaluator(machine, task, program)
    try:
        pipe = DesignRulePipeline(
            program,
            machine.with_ranks(program.n_ranks),
            PipelineConfig(
                n_streams=task.n_streams,
                strategy="exhaustive",
                measurement=task.measurement,
                block_size=task.block_size,
            ),
            evaluator=evaluator,
        )
        result = pipe.run()
    finally:
        evaluator.close()
    return reduce_workload_rules(task.spec, program, result)


def _run_search_range(machine: MachineConfig, task: WorkloadTask) -> object:
    """One shard of a range-sharded exhaustive sweep.

    The shard seeks to ``range_start`` (a DP descent, no enumeration),
    sweeps exactly ``range_limit`` enumeration positions, and returns the
    :class:`~repro.search.base.SearchResult` — schedules are plain
    picklable values, so the payload crosses the process boundary whole.
    With ``store_path`` set the shard loads the machine's rule artifacts
    and runs guided branch-and-bound over its range instead.
    """
    from repro.search.exhaustive import ExhaustiveSearch

    with obs.span("workloads.build"):
        program = build_workload(task.spec)
        space = DesignSpace(program, n_streams=task.n_streams)
        cursor = space.seek(task.range_start)
    guide = None
    if task.store_path is not None:
        from repro.advisor import ArtifactStore
        from repro.advisor.guided import ScheduleGuide

        with obs.span("advisor.guide"):
            guide = ScheduleGuide.from_store(
                ArtifactStore(task.store_path), program, machine=machine.name
            )
    evaluator = _task_evaluator(machine, task, program)
    block = 64 if task.block_size is None else task.block_size
    try:
        result = ExhaustiveSearch(
            space,
            evaluator,
            batch_size=block,
            guide=guide,
            cursor=cursor,
            limit=task.range_limit,
        ).run()
    finally:
        evaluator.close()
    return result


_EXECUTORS = {
    TASK_SUITE_CELLS: _run_suite_cells,
    TASK_WORKLOAD_RULES: _run_workload_rules,
    TASK_SEARCH_RANGE: _run_search_range,
}


def execute_task(machine: MachineConfig, task: WorkloadTask) -> TaskResult:
    """Run one task to completion in the current process, in a
    ``task:<label>`` span when tracing."""
    t0 = time.perf_counter()
    with obs.span(f"task:{task.label}", kind=task.kind, index=task.index):
        payload = _EXECUTORS[task.kind](machine, task)
    return TaskResult(
        index=task.index,
        label=task.label,
        kind=task.kind,
        payload=payload,
        wall_s=time.perf_counter() - t0,
        pid=os.getpid(),
    )


def _execute_task_shipped(
    machine: MachineConfig,
    task: WorkloadTask,
    observe: bool = False,
) -> TaskResult:
    """Worker-side entry: run the task, then make the result picklable.

    Programs may close over non-picklable payloads, so a result crossing
    a process boundary travels without its program;
    :func:`restore_rules_payload` rebuilds it in the parent from the
    spec — bit-identical by the workload determinism contract.  The
    in-process path skips the round trip entirely.

    Metrics and spans cross the boundary the same way: the task runs
    against a fresh worker-local registry (and tracer, when the parent
    traces — ``observe``), whose snapshot and span subtrees ship home on
    the result for :func:`repro.obs.absorb` in ``execute_plan``.  The
    result is the worker's only channel home.
    """
    with obs.worker_capture(trace=observe) as cap:
        result = execute_task(machine, task)
    payload = result.payload
    if getattr(payload, "program", None) is not None:
        result = dataclasses.replace(
            result, payload=dataclasses.replace(payload, program=None)
        )
    return dataclasses.replace(
        result,
        spans=cap.spans,
        metrics=cap.snapshot,
        obs_epoch=cap.epoch,
    )


def restore_rules_payload(result: TaskResult) -> object:
    """Reattach the (rebuilt) program to a ``workload-rules`` payload."""
    payload = result.payload
    if getattr(payload, "program", True) is None:
        payload = dataclasses.replace(
            payload, program=build_workload(payload.spec)
        )
    return payload


# ----------------------------------------------------------------------
def execute_plan(plan: ExecutionPlan, *, shard_workers: int = 0) -> PlanRun:
    """Run every task of ``plan``; sharded when ``shard_workers > 1``.

    Results are returned in task-index order either way.
    """
    t0 = time.perf_counter()
    obs.log.info(
        "plan.execute",
        n_tasks=len(plan.tasks),
        shard_workers=shard_workers,
    )
    with obs.span(
        "plan.execute", n_tasks=len(plan.tasks), shard_workers=shard_workers
    ):
        if shard_workers > 1 and len(plan.tasks) > 1:
            results = _execute_sharded(plan, shard_workers)
        else:
            shard_workers = 0
            results = []
            for task in plan.tasks:
                results.append(execute_task(plan.machine, task))
                obs.add("plan.tasks_completed")
        results.sort(key=lambda r: r.index)
        # Merge shipped worker spans and metrics in task-index order — the
        # same deterministic merge discipline the payloads themselves get.
        for result in results:
            obs.absorb(result.spans, result.metrics, epoch=result.obs_epoch)
    return PlanRun(
        results=results,
        shard_workers=shard_workers,
        wall_s=time.perf_counter() - t0,
    )


def _execute_sharded(plan: ExecutionPlan, shard_workers: int) -> List[TaskResult]:
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else methods[0]
    n_workers = min(shard_workers, len(plan.tasks))
    costs = {t.index: estimate_task_cost(t) for t in plan.tasks}
    results: List[TaskResult] = []
    with ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=multiprocessing.get_context(method),
    ) as pool:
        # Costliest-first: long-pole workloads hit the pool before
        # cheap ones, so no shard drains while a giant waits queued.
        futures = [
            pool.submit(
                _execute_task_shipped,
                plan.machine,
                plan.tasks[index],
                obs.tracing_active(),
            )
            for index in submission_order(plan.tasks, costs)
        ]
        for future in as_completed(futures):
            result = future.result()  # re-raises task errors
            results.append(result)
            obs.add("plan.tasks_completed")
    return results
