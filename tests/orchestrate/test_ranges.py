"""Range-sharded exhaustive search: partitioning, tasks, bit-identity."""

import pytest

from repro.errors import WorkloadError
from repro.exec import ExecConfig
from repro.orchestrate import (
    TASK_SEARCH_RANGE,
    WorkloadTask,
    estimate_task_cost,
    partition_ranges,
    run_range_sharded_search,
)
from repro.platform.presets import noiseless, perlmutter_like
from repro.schedule.space import DesignSpace
from repro.search.exhaustive import ExhaustiveSearch
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

MEASUREMENT = MeasurementConfig(max_samples=1)

FORK = WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1})


class TestPartitionRanges:
    @pytest.mark.parametrize(
        "total,n_shards", [(0, 1), (1, 1), (10, 3), (10, 10), (3, 7), (40, 4)]
    )
    def test_partition_is_exact_and_contiguous(self, total, n_shards):
        ranges = partition_ranges(total, n_shards)
        assert sum(r.limit for r in ranges) == total
        pos = 0
        for r in ranges:
            assert r.start == pos
            assert r.limit >= 1
            pos = r.stop
        assert pos == total
        # Near-equal: limits differ by at most one.
        if ranges:
            limits = [r.limit for r in ranges]
            assert max(limits) - min(limits) <= 1

    def test_more_shards_than_schedules_drops_empties(self):
        ranges = partition_ranges(3, 7)
        assert len(ranges) == 3

    def test_invalid_inputs_rejected(self):
        with pytest.raises(WorkloadError):
            partition_ranges(-1, 2)
        with pytest.raises(WorkloadError):
            partition_ranges(10, 0)


class TestSearchRangeTask:
    def test_task_requires_bounds(self):
        with pytest.raises(WorkloadError, match="range_start"):
            WorkloadTask(index=0, kind=TASK_SEARCH_RANGE, spec=FORK)
        with pytest.raises(WorkloadError, match=">= 0"):
            WorkloadTask(
                index=0,
                kind=TASK_SEARCH_RANGE,
                spec=FORK,
                range_start=-1,
                range_limit=4,
            )

    def test_cost_is_range_length(self):
        task = WorkloadTask(
            index=0,
            kind=TASK_SEARCH_RANGE,
            spec=FORK,
            range_start=10,
            range_limit=25,
        )
        assert estimate_task_cost(task) == 25.0


class TestRangeShardedSearch:
    def _serial(self, machine):
        program = build_workload(FORK)
        space = DesignSpace(program, n_streams=2)
        return ExhaustiveSearch(
            space,
            Benchmarker(
                ScheduleExecutor(
                    program, machine.with_ranks(program.n_ranks)
                ),
                MEASUREMENT,
            ),
        ).run()

    def test_merged_bit_identical_to_serial(self):
        machine = noiseless(perlmutter_like())
        serial = self._serial(machine)
        for n_shards in (1, 2, 3):
            sharded = run_range_sharded_search(
                FORK,
                machine=machine,
                n_shards=n_shards,
                measurement=MEASUREMENT,
            )
            assert sharded.total == len(serial.samples)
            assert [
                (s.schedule.fingerprint(), s.time)
                for s in sharded.result.samples
            ] == [
                (s.schedule.fingerprint(), s.time) for s in serial.samples
            ], n_shards
            assert sharded.result.n_iterations == serial.n_iterations
            assert sharded.result.n_simulations == serial.n_simulations

    def test_sharded_processes_bit_identical_to_serial(self):
        """The actual multi-process path: three range tasks on two shard
        workers, merged in task order."""
        machine = noiseless(perlmutter_like())
        serial = self._serial(machine)
        sharded = run_range_sharded_search(
            FORK,
            machine=machine,
            n_shards=3,
            measurement=MEASUREMENT,
            execution=ExecConfig(shard_workers=2),
        )
        assert [
            (s.schedule.fingerprint(), s.time)
            for s in sharded.result.samples
        ] == [(s.schedule.fingerprint(), s.time) for s in serial.samples]
        assert sharded.timing["n_tasks"] == 3

    def test_noise_does_not_break_identity(self):
        """Measurement noise comes from stable hashes — a pure function
        of the schedule — so sharding commutes with noisy measurement."""
        machine = perlmutter_like(noise_sigma=0.05)
        serial = self._serial(machine)
        sharded = run_range_sharded_search(
            FORK,
            machine=machine,
            n_shards=2,
            measurement=MEASUREMENT,
        )
        assert [s.time for s in sharded.result.samples] == [
            s.time for s in serial.samples
        ]
