"""Execution plans: a suite or transfer run as independent workload tasks.

A :class:`WorkloadTask` is the unit of sharding — one workload's whole
per-workload pipeline (build → search/enumerate → label → extract-rules),
or one slice of a workload's enumeration order, never one schedule
batch.  Every task is a pure function of its spec + configuration (the
workload determinism contract), so tasks can run in any order, in any
process, and the collected results — ordered by ``task.index`` — are
bit-identical to a serial sweep.

Three task kinds exist today:

* ``suite-cells`` — run every search strategy of a suite against one
  workload (all strategies share one evaluator memo, exactly as the
  serial :class:`~repro.workloads.suite.SuiteRunner` always did) and
  emit one :class:`~repro.workloads.suite.SuiteCell` per strategy;
* ``workload-rules`` — run the exhaustive design-rule pipeline on one
  workload and reduce it to
  :class:`~repro.workloads.generalization.WorkloadRules` (the shared
  front half of the cross-workload tables and the transfer matrix);
* ``search-range`` — sweep one slice of a workload's enumeration order
  (:mod:`repro.orchestrate.ranges`).

Tasks are independent: plans are embarrassingly parallel, and the
reduce steps (transfer matrix assembly, report building) run in the
parent.

The planners take a run's :class:`~repro.exec.ExecConfig` and copy the
settings a task acts on (``cache_path`` and, for the exhaustive
pipelines, ``block_size``) into flat task fields;
``shard_workers`` is the plan runner's business
(:func:`~repro.orchestrate.runner.execute_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.exec import ExecConfig
from repro.platform.machine import MachineConfig
from repro.sim.measure import MeasurementConfig
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.suite import Suite

#: Task kinds understood by the runner.
TASK_SUITE_CELLS = "suite-cells"
TASK_WORKLOAD_RULES = "workload-rules"
TASK_SEARCH_RANGE = "search-range"


@dataclass(frozen=True)
class WorkloadTask:
    """One shardable unit of work: a whole workload's pipeline.

    Everything here is a small picklable value; the concrete
    :class:`~repro.dag.program.Program` is rebuilt *inside* the executing
    process from ``spec`` (programs may carry non-picklable payload
    closures; specs never do, and builds are bit-deterministic).
    """

    #: Deterministic output position — results are ordered by this.
    index: int
    kind: str
    spec: WorkloadSpec
    n_streams: int = 2
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    #: ``suite-cells`` only: strategies to run and iterations per cell.
    strategies: Tuple[str, ...] = ()
    n_iterations: int = 0
    seed: int = 0
    #: Shared persistent measurement cache; every executing process opens
    #: its own connection to this path (WAL-safe under concurrency).
    cache_path: Optional[str] = None
    #: Enumeration/evaluation block size for exhaustive pipelines.
    block_size: Optional[int] = None
    #: ``search-range`` only: the task's slice of the enumeration order —
    #: it sweeps positions ``[range_start, range_start + range_limit)``,
    #: located via :meth:`~repro.schedule.space.DesignSpace.seek` without
    #: enumerating the prefix.
    range_start: Optional[int] = None
    range_limit: Optional[int] = None
    #: ``search-range`` only: optional artifact-store path; when set the
    #: shard builds a :class:`~repro.advisor.guided.ScheduleGuide` and
    #: runs its range branch-and-bound instead of unguided.
    store_path: Optional[str] = None

    @property
    def label(self) -> str:
        return self.spec.label

    def __post_init__(self) -> None:
        if self.kind not in (
            TASK_SUITE_CELLS,
            TASK_WORKLOAD_RULES,
            TASK_SEARCH_RANGE,
        ):
            raise WorkloadError(f"unknown task kind {self.kind!r}")
        if self.kind == TASK_SUITE_CELLS and not self.strategies:
            raise WorkloadError("suite-cells task needs at least one strategy")
        if self.kind == TASK_SEARCH_RANGE:
            if self.range_start is None or self.range_limit is None:
                raise WorkloadError(
                    "search-range task needs range_start and range_limit"
                )
            if self.range_start < 0 or self.range_limit < 0:
                raise WorkloadError("search-range bounds must be >= 0")


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered set of workload tasks plus their shared context."""

    machine: MachineConfig
    tasks: Tuple[WorkloadTask, ...]

    def __post_init__(self) -> None:
        for pos, task in enumerate(self.tasks):
            if task.index != pos:
                raise WorkloadError(
                    f"task index {task.index} at position {pos}: plan "
                    "tasks must be indexed contiguously in order"
                )

    def __len__(self) -> int:
        return len(self.tasks)


# ----------------------------------------------------------------------
def plan_suite(
    suite: "Suite",
    *,
    machine: MachineConfig,
    seed: int = 0,
    execution: ExecConfig = ExecConfig(),
) -> ExecutionPlan:
    """Turn a suite run into an execution plan.

    One ``suite-cells`` task per workload; when the suite asks for
    cross-workload rules, one additional ``workload-rules`` task per
    workload (the exhaustive pipeline feeding the satisfaction table and
    the transfer matrix).  All tasks are independent, so a sharded run
    overlaps whole workloads — including the rule pipelines the serial
    runner used to append at the end.
    """
    tasks: List[WorkloadTask] = []
    for spec in suite.specs:
        # Suite cells sample via search strategies — block_size only
        # shapes the exhaustive rule pipelines, so cell tasks omit it.
        tasks.append(
            WorkloadTask(
                index=len(tasks),
                kind=TASK_SUITE_CELLS,
                spec=spec,
                n_streams=suite.n_streams,
                measurement=suite.measurement,
                strategies=tuple(suite.strategies),
                n_iterations=suite.n_iterations,
                seed=seed,
                cache_path=execution.cache_path,
            )
        )
    if suite.cross_workload_rules:
        for spec in suite.specs:
            tasks.append(
                WorkloadTask(
                    index=len(tasks),
                    kind=TASK_WORKLOAD_RULES,
                    spec=spec,
                    n_streams=suite.n_streams,
                    measurement=suite.measurement,
                    seed=seed,
                    cache_path=execution.cache_path,
                    block_size=execution.block_size,
                )
            )
    return ExecutionPlan(machine=machine, tasks=tuple(tasks))


def plan_rules(
    specs: Sequence[WorkloadSpec],
    *,
    machine: MachineConfig,
    n_streams: int = 2,
    measurement: Optional[MeasurementConfig] = None,
    execution: ExecConfig = ExecConfig(),
) -> ExecutionPlan:
    """Per-workload exhaustive rule pipelines as an execution plan (the
    front half of the cross-workload tables and the transfer matrix)."""
    tasks = tuple(
        WorkloadTask(
            index=i,
            kind=TASK_WORKLOAD_RULES,
            spec=spec,
            n_streams=n_streams,
            measurement=(
                measurement if measurement is not None else MeasurementConfig()
            ),
            cache_path=execution.cache_path,
            block_size=execution.block_size,
        )
        for i, spec in enumerate(specs)
    )
    return ExecutionPlan(machine=machine, tasks=tasks)
