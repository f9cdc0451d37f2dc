"""repro.orchestrate — workload-level sharding for suites and transfer.

A suite or transfer run is compiled into an :class:`ExecutionPlan` —
independent :class:`WorkloadTask` units, each one whole workload's
pipeline (build → search/enumerate → label → extract-rules) or one slice
of an exhaustive sweep — and :func:`execute_plan` runs the tasks
in-process or across a ``ProcessPoolExecutor`` of shards, the package's
only process pool.  Within a task, schedules are measured in-process.

Guarantees:

* **Determinism.**  Each task's output is a pure function of the task
  value (workload builds are seed-deterministic; measurements are pure
  in (schedule, context)), so sharded results are bit-identical to a
  serial sweep, modulo wall-clock timing fields.
* **Ordering.**  Results come back sorted by ``task.index`` regardless
  of completion order.
* **Shared cache.**  All shards may point at one persistent
  :class:`~repro.exec.MeasurementCache`; connections are per-process and
  SQLite WAL + busy-timeout make concurrent writers safe.

:class:`~repro.workloads.suite.SuiteRunner`,
:func:`~repro.workloads.generalization.rules_for_specs`,
:func:`~repro.transfer.matrix.run_transfer_matrix` and
:func:`run_range_sharded_search` are all built on plans and take one
:class:`~repro.exec.ExecConfig`; the CLI builds it from ``--cache``,
``--shard-workers`` and ``--block-size``.
"""

from repro.orchestrate.plan import (
    TASK_SEARCH_RANGE,
    TASK_SUITE_CELLS,
    TASK_WORKLOAD_RULES,
    ExecutionPlan,
    WorkloadTask,
    plan_rules,
    plan_suite,
)
from repro.orchestrate.ranges import (
    RangeShardedSearch,
    ScheduleRange,
    partition_ranges,
    run_range_sharded_search,
)
from repro.orchestrate.runner import (
    PlanRun,
    TaskResult,
    estimate_task_cost,
    execute_plan,
    execute_task,
    make_strategy,
    restore_rules_payload,
    submission_order,
)

__all__ = [
    "TASK_SEARCH_RANGE",
    "TASK_SUITE_CELLS",
    "TASK_WORKLOAD_RULES",
    "ExecutionPlan",
    "PlanRun",
    "RangeShardedSearch",
    "ScheduleRange",
    "TaskResult",
    "WorkloadTask",
    "estimate_task_cost",
    "execute_plan",
    "execute_task",
    "make_strategy",
    "partition_ranges",
    "plan_rules",
    "plan_suite",
    "restore_rules_payload",
    "run_range_sharded_search",
    "submission_order",
]
