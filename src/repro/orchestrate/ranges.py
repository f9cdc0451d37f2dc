"""Range-sharded exhaustive search: one huge space, many processes.

PR 4's plans shard *across* workloads; this module shards *within* one
workload's exhaustive sweep.  :func:`partition_ranges` splits the
enumeration order ``[0, total)`` into near-equal contiguous slices, each
becoming a ``search-range`` :class:`~repro.orchestrate.plan.WorkloadTask`
that seeks to its start (:meth:`~repro.schedule.space.DesignSpace.seek`,
a DP descent — no prefix enumeration) and sweeps exactly its slice.

Merging is concatenation in task-index order: enumeration order is a pure
function of (spec, n_streams), measurements are pure functions of
(schedule, program, machine, config), and schedules are plain picklable
values — so the merged :class:`~repro.search.base.SearchResult` is
bit-identical to the serial sweep's, sample for sample.  With a
``store_path`` the shards run guided branch-and-bound instead; the kept
sample sequence is still identical to a serial guided sweep (cut
bookkeeping may attribute subtrees straddling shard boundaries to more
than one shard — counts are reported as summed, exactly what each shard
saw).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import WorkloadError
from repro.exec import ExecConfig
from repro.orchestrate.plan import TASK_SEARCH_RANGE, ExecutionPlan, WorkloadTask
from repro.orchestrate.runner import PlanRun, execute_plan
from repro.platform.machine import MachineConfig
from repro.schedule.space import DesignSpace
from repro.search.base import SearchResult
from repro.sim.measure import MeasurementConfig
from repro.workloads.spec import WorkloadSpec, build_workload


@dataclass(frozen=True)
class ScheduleRange:
    """One contiguous slice of a space's enumeration order."""

    shard: int
    start: int
    limit: int

    @property
    def stop(self) -> int:
        return self.start + self.limit


def partition_ranges(total: int, n_shards: int) -> Tuple[ScheduleRange, ...]:
    """Split ``[0, total)`` into ``n_shards`` near-equal contiguous ranges.

    The first ``total % n_shards`` ranges get one extra position, so the
    partition is exact, ordered, and deterministic.  Empty ranges are
    dropped (more shards than schedules).
    """
    if total < 0:
        raise WorkloadError("total must be >= 0")
    if n_shards < 1:
        raise WorkloadError("n_shards must be >= 1")
    base, extra = divmod(total, n_shards)
    ranges: List[ScheduleRange] = []
    start = 0
    for shard in range(n_shards):
        limit = base + (1 if shard < extra else 0)
        if limit == 0:
            continue
        ranges.append(ScheduleRange(shard=shard, start=start, limit=limit))
        start += limit
    return tuple(ranges)


@dataclass
class RangeShardedSearch:
    """A merged range-sharded sweep plus its execution footprint."""

    result: SearchResult
    total: int
    ranges: Tuple[ScheduleRange, ...]
    timing: Dict[str, object]


def run_range_sharded_search(
    spec: WorkloadSpec,
    *,
    machine: MachineConfig,
    n_streams: int = 2,
    n_shards: int = 2,
    measurement: Optional[MeasurementConfig] = None,
    execution: ExecConfig = ExecConfig(),
    store_path: Optional[str] = None,
) -> RangeShardedSearch:
    """Exhaustively sweep one workload's space as ``n_shards`` ranges.

    Builds a ``search-range`` plan over :func:`partition_ranges`, executes
    it on the PR-4 shard pool, and concatenates the per-shard
    :class:`SearchResult` payloads in task order.  The merged result is
    bit-identical to ``ExhaustiveSearch(...).run()`` on the whole space
    (guided runs: identical kept samples; counters are shard sums).
    ``execution`` sets the shard pool (``shard_workers``) and each shard's
    measurement cache and sweep block (``cache_path``, ``block_size``);
    none of them changes the merged result.
    """
    t0 = time.perf_counter()
    space = DesignSpace(build_workload(spec), n_streams=n_streams)
    total = space.count()
    ranges = partition_ranges(total, n_shards)
    obs.log.info(
        "search.range_sharded",
        spec=spec.family,
        total=total,
        n_shards=len(ranges),
        shard_workers=execution.shard_workers,
    )
    measurement = (
        measurement if measurement is not None else MeasurementConfig()
    )
    tasks = tuple(
        WorkloadTask(
            index=i,
            kind=TASK_SEARCH_RANGE,
            spec=spec,
            n_streams=n_streams,
            measurement=measurement,
            cache_path=execution.cache_path,
            block_size=execution.block_size,
            range_start=r.start,
            range_limit=r.limit,
            store_path=store_path,
        )
        for i, r in enumerate(ranges)
    )
    plan = ExecutionPlan(machine=machine, tasks=tasks)
    run: PlanRun = execute_plan(plan, shard_workers=execution.shard_workers)
    merged = SearchResult(strategy="exhaustive")
    for task_result in run.results:
        shard: SearchResult = task_result.payload  # type: ignore[assignment]
        merged.samples.extend(shard.samples)
        merged.n_iterations += shard.n_iterations
        merged.n_simulations += shard.n_simulations
        merged.n_pruned += shard.n_pruned
        merged.n_subtrees_cut += shard.n_subtrees_cut
    timing = run.timing()
    timing["wall_s_total"] = time.perf_counter() - t0
    return RangeShardedSearch(
        result=merged, total=total, ranges=ranges, timing=timing
    )
