"""Deadlock detection on real SPMD failure modes.

The unsafe SpMV DAG (no posts-before-waits edges) contains schedules in
which every rank blocks in WaitRecv before posting its sends — a true
deadlock on real hardware.  These tests pin down that the simulator
detects it and that the safe DAG excludes it.
"""

import pytest

from repro.apps.spmv import SpmvCase, build_spmv_program
from repro.errors import DeadlockError
from repro.platform import noiseless, perlmutter_like
from repro.schedule import DesignSpace
from repro.sim import ScheduleExecutor


@pytest.fixture(scope="module")
def unsafe_instance():
    return build_spmv_program(SpmvCase().scaled(1 / 80), safe_waits=False)


def test_unsafe_space_is_larger(unsafe_instance, spmv_space):
    unsafe_space = DesignSpace(unsafe_instance.program, n_streams=2)
    assert unsafe_space.count() == 2016   # see repro.apps.spmv.dag
    assert spmv_space.count() == 540


def test_unsafe_space_contains_deadlocking_schedule(unsafe_instance):
    space = DesignSpace(unsafe_instance.program, n_streams=2)
    ex = ScheduleExecutor(unsafe_instance.program, noiseless(perlmutter_like()))
    deadlocks = 0
    for i, s in enumerate(space.enumerate_schedules()):
        names = s.op_names()
        # Only try candidates where a wait precedes the matching posts.
        if names.index("WaitRecv") < names.index("PostSends"):
            with pytest.raises(DeadlockError):
                ex.run(s)
            deadlocks += 1
            if deadlocks >= 3:
                break
    assert deadlocks == 3


def test_deadlock_names_what_each_rank_waits_on(unsafe_instance):
    space = DesignSpace(unsafe_instance.program, n_streams=2)
    ex = ScheduleExecutor(unsafe_instance.program, noiseless(perlmutter_like()))
    schedule = next(
        s
        for s in space.enumerate_schedules()
        if s.op_names().index("WaitRecv") < s.op_names().index("PostSends")
    )
    with pytest.raises(DeadlockError) as info:
        ex.run(schedule)
    assert str(info.value) == (
        "simulation deadlock at t=3.1e-06: "
        "rank0.cpu waiting on Event('rank0.WaitRecv', pending), "
        "rank1.cpu waiting on Event('rank1.WaitRecv', pending), "
        "rank2.cpu waiting on Event('rank2.WaitRecv', pending), "
        "rank3.cpu waiting on Event('rank3.WaitRecv', pending)"
    )


def test_safe_space_runs_everywhere(spmv_space, spmv_instance, machine):
    """Every 20th schedule of the safe space simulates without deadlock."""
    ex = ScheduleExecutor(spmv_instance.program, machine)
    scheds = list(spmv_space.enumerate_schedules())
    for s in scheds[::20]:
        result = ex.run(s)
        assert result.elapsed > 0


def test_safe_space_excludes_wait_before_post(spmv_space):
    for s in spmv_space.enumerate_schedules():
        names = s.op_names()
        assert names.index("PostSends") < names.index("WaitRecv")
        assert names.index("PostRecvs") < names.index("WaitSend")
