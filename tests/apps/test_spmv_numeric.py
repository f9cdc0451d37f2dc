"""End-to-end numeric verification: every schedule computes y = Ax."""

import numpy as np

from repro.sim import ScheduleExecutor


class TestNumericCorrectness:
    def test_sampled_schedules_compute_exact_result(
        self, spmv_instance, machine, spmv_schedules
    ):
        ex = ScheduleExecutor(
            spmv_instance.program,
            machine,
            payload_init=spmv_instance.payload_init,
        )
        ref = spmv_instance.reference_result()
        for s in spmv_schedules[::29]:
            result = ex.run(s)
            y = spmv_instance.gather_result(result.payload)
            assert np.allclose(y, ref)
            assert result.hazard_free

    def test_best_and_worst_schedule_agree(
        self, spmv_instance, machine, spmv_schedules, spmv_exhaustive
    ):
        ex = ScheduleExecutor(
            spmv_instance.program,
            machine,
            payload_init=spmv_instance.payload_init,
        )
        ref = spmv_instance.reference_result()
        times = spmv_exhaustive.times()
        for idx in (int(np.argmin(times)), int(np.argmax(times))):
            s = spmv_exhaustive.samples[idx].schedule
            y = spmv_instance.gather_result(ex.run(s).payload)
            assert np.allclose(y, ref)

    def test_result_independent_of_schedule(
        self, spmv_instance, machine, spmv_schedules
    ):
        ex = ScheduleExecutor(
            spmv_instance.program,
            machine,
            payload_init=spmv_instance.payload_init,
        )
        y1 = spmv_instance.gather_result(ex.run(spmv_schedules[0]).payload)
        y2 = spmv_instance.gather_result(ex.run(spmv_schedules[-1]).payload)
        assert np.allclose(y1, y2)
