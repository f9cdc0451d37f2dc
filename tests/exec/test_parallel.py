"""Serial-vs-parallel equivalence and worker-pool behaviour.

The central contract (see :mod:`repro.exec`): for every search strategy,
evaluating through a worker pool yields *bit-identical* results to the
serial reference, because a measurement is a pure function of
(schedule, context) — schedules are deterministically "seeded" by content.
"""

import itertools
import os
import sqlite3

import pytest

from repro import obs
from repro.dag.graph import Graph
from repro.dag.program import CommPlan, Message, Program
from repro.dag.vertex import Action, ActionKind, cpu_op
from repro.errors import ScheduleError
from repro.exec import (
    MeasurementCache,
    ParallelEvaluator,
    SerialEvaluator,
    build_evaluator,
)
from repro.platform.machine import MachineConfig
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace
from repro.search import (
    BeamSearch,
    ExhaustiveSearch,
    MctsConfig,
    MctsSearch,
    RandomSearch,
)
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

CFG = MeasurementConfig(max_samples=1)


@pytest.fixture(scope="module")
def par_ev(spmv_instance, machine):
    """One shared 2-worker pool for the equivalence tests."""
    ev = ParallelEvaluator(spmv_instance.program, machine, CFG, n_workers=2)
    yield ev
    ev.close()


@pytest.fixture()
def serial_ev(spmv_instance, machine):
    return SerialEvaluator(
        Benchmarker(ScheduleExecutor(spmv_instance.program, machine), CFG)
    )


def assert_same_result(a, b):
    assert a.n_iterations == b.n_iterations
    assert len(a) == len(b)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.schedule == sb.schedule
        assert sa.time == sb.time


class TestBatchSemantics:
    def test_batch_identical_to_serial(self, serial_ev, par_ev, spmv_schedules):
        batch = spmv_schedules[:30]
        assert par_ev.evaluate_batch(batch) == serial_ev.evaluate_batch(batch)

    def test_order_and_duplicates(self, par_ev, spmv_schedules):
        s0, s1 = spmv_schedules[0], spmv_schedules[1]
        m0, m1, m0b = par_ev.evaluate_batch([s0, s1, s0])
        assert m0 == m0b
        assert par_ev.evaluate_batch([s1, s0]) == [m1, m0]

    def test_memo_counts_unique(self, spmv_instance, machine, spmv_schedules):
        with ParallelEvaluator(spmv_instance.program, machine, CFG, n_workers=2) as ev:
            ev.evaluate_batch(spmv_schedules[:5] + spmv_schedules[:5])
            assert ev.n_unique_schedules == 5
            assert ev.n_simulations == 5

    def test_rejects_bad_worker_count(self, spmv_instance, machine):
        with pytest.raises(ValueError):
            ParallelEvaluator(spmv_instance.program, machine, CFG, n_workers=0)


class TestStrategyEquivalence:
    """Measurements identical to serial for all four strategies."""

    def test_exhaustive(self, spmv_space, serial_ev, par_ev):
        a = ExhaustiveSearch(spmv_space, serial_ev, batch_size=16).run(48)
        b = ExhaustiveSearch(spmv_space, par_ev, batch_size=16).run(48)
        assert_same_result(a, b)

    def test_random(self, spmv_space, serial_ev, par_ev):
        a = RandomSearch(spmv_space, serial_ev, seed=5, batch_size=8).run(24)
        b = RandomSearch(spmv_space, par_ev, seed=5, batch_size=8).run(24)
        assert_same_result(a, b)

    def test_beam(self, spmv_space, serial_ev, par_ev):
        a = BeamSearch(
            spmv_space, serial_ev, width=3, rollouts_per_candidate=2, seed=1
        ).run(30)
        b = BeamSearch(
            spmv_space, par_ev, width=3, rollouts_per_candidate=2, seed=1
        ).run(30)
        assert_same_result(a, b)

    def test_mcts_serial_protocol(self, spmv_space, serial_ev, par_ev):
        a = MctsSearch(spmv_space, serial_ev, MctsConfig(seed=3)).run(25)
        b = MctsSearch(spmv_space, par_ev, MctsConfig(seed=3)).run(25)
        assert_same_result(a, b)

    def test_mcts_leaf_parallel(self, spmv_space, serial_ev, par_ev):
        cfg = MctsConfig(seed=3, rollout_batch=4)
        a = MctsSearch(spmv_space, serial_ev, cfg).run(24)
        b = MctsSearch(spmv_space, par_ev, cfg).run(24)
        assert_same_result(a, b)


class TestMctsRolloutBatch:
    def test_batch_of_one_matches_default(self, spmv_space, spmv_instance, machine):
        def run(cfg):
            ev = SerialEvaluator(
                Benchmarker(ScheduleExecutor(spmv_instance.program, machine), CFG)
            )
            return MctsSearch(spmv_space, ev, cfg).run(20)

        assert_same_result(
            run(MctsConfig(seed=9)),
            run(MctsConfig(seed=9, rollout_batch=1)),
        )

    def test_iteration_budget_respected(self, spmv_space, serial_ev):
        result = MctsSearch(
            spmv_space, serial_ev, MctsConfig(seed=2, rollout_batch=7)
        ).run(16)
        assert result.n_iterations == 16
        assert len(result) == 16

    def test_rejects_bad_rollout_batch(self):
        with pytest.raises(ValueError):
            MctsConfig(rollout_batch=0)


class TestParallelWithCache:
    def test_cache_round_trip_and_reuse(
        self, spmv_instance, machine, spmv_schedules, tmp_path
    ):
        path = str(tmp_path / "m.sqlite")
        batch = spmv_schedules[:12]
        with ParallelEvaluator(
            spmv_instance.program,
            machine,
            CFG,
            n_workers=2,
            cache=MeasurementCache(path),
        ) as warm:
            first = warm.evaluate_batch(batch)
        with ParallelEvaluator(
            spmv_instance.program,
            machine,
            CFG,
            n_workers=2,
            cache=MeasurementCache(path),
        ) as cold:
            # Every measurement comes from disk: no pool, no simulations.
            assert cold.evaluate_batch(batch) == first
            assert cold.n_simulations == 0
            assert cold._pool is None

    def test_serial_and_parallel_share_cache(
        self, spmv_instance, machine, spmv_schedules, tmp_path
    ):
        path = str(tmp_path / "m.sqlite")
        batch = spmv_schedules[:8]
        serial = SerialEvaluator(
            Benchmarker(ScheduleExecutor(spmv_instance.program, machine), CFG),
            cache=MeasurementCache(path),
        )
        warm = serial.evaluate_batch(batch)
        with ParallelEvaluator(
            spmv_instance.program,
            machine,
            CFG,
            n_workers=2,
            cache=MeasurementCache(path),
        ) as par:
            assert par.evaluate_batch(batch) == warm
            assert par.n_simulations == 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_build_evaluator_owns_its_cache(
        self, spmv_instance, machine, spmv_schedules, tmp_path, workers
    ):
        """build_evaluator opens the cache at ``cache_path``, and closing
        the evaluator closes it; the measurements stay on disk."""
        path = str(tmp_path / "m.sqlite")
        batch = spmv_schedules[:6]

        def evaluator():
            return build_evaluator(
                spmv_instance.program,
                machine,
                CFG,
                workers=workers,
                cache_path=path,
            )

        first = evaluator()
        warm = first.evaluate_batch(batch)
        first.close()
        with pytest.raises(sqlite3.ProgrammingError):
            len(first.cache)
        second = evaluator()
        try:
            assert second.evaluate_batch(batch) == warm
            assert second.n_simulations == 0
        finally:
            second.close()


class TestWorkerCrashPropagation:
    def test_schedule_error_reaches_parent(self):
        """A failing simulation inside a worker surfaces as the original
        library exception in the submitting process."""
        post = cpu_op(
            "post",
            action=Action(ActionKind.POST_SENDS, "g"),
            duration=0.0,
        )
        wait = cpu_op(
            "wait",
            action=Action(ActionKind.WAIT_SENDS, "g"),
            duration=0.0,
        )
        g = Graph()
        g.add_edge(post, wait)
        program = Program(
            graph=g.with_start_end(),
            n_ranks=2,
            comm={
                "g": CommPlan(
                    group="g",
                    messages=(Message(src=0, dst=1, nbytes=8.0),),
                ),
            },
        )
        machine = MachineConfig(n_ranks=2, n_streams=1)
        bad = Schedule([BoundOp(wait), BoundOp(post)])  # wait before post
        with ParallelEvaluator(program, machine, CFG, n_workers=2) as ev:
            with pytest.raises(ScheduleError):
                ev.evaluate_batch([bad])


class _PidTaggedStream:
    """Appends every write to a file, prefixed with the writer's pid.

    A forked pool worker writes through its own copy of this object, so
    the file records which process printed each progress line.
    """

    def __init__(self, path):
        self.path = path

    def write(self, text):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {text}")

    def flush(self):
        pass


class TestWorkerObsState:
    def test_pool_workers_never_print_the_parents_progress(self, machine, tmp_path):
        """Pool workers drop the obs state they inherit by fork: the
        parent's progress meter prints every line, so the count can never
        go backwards to a child's stale copy."""
        program = build_workload(
            WorkloadSpec("fork_join", {"stages": 2, "branches": 2, "depth": 1})
        )
        space = DesignSpace(program, n_streams=2)
        schedules = list(itertools.islice(space.enumerate_schedules(), 8))
        log = tmp_path / "progress.log"
        with obs.progress_scope(1000, interval=0.0, stream=_PidTaggedStream(str(log))):
            ev = build_evaluator(
                program, machine.with_ranks(program.n_ranks), CFG, workers=2
            )
            try:
                assert len(ev.evaluate_batch(schedules)) == 8
            finally:
                ev.close()
        pids = [int(line.split()[0]) for line in log.read_text().splitlines()]
        assert pids and set(pids) == {os.getpid()}
