"""Tests for the random-sampling baseline."""

from repro.search.random_search import RandomSearch


class TestRandomSearch:
    def test_produces_requested_iterations(self, spmv_space, spmv_benchmarker):
        r = RandomSearch(spmv_space, spmv_benchmarker, seed=0).run(40)
        assert r.n_iterations == 40
        assert len(r) == 40

    def test_valid_schedules(self, spmv_space, spmv_benchmarker):
        r = RandomSearch(spmv_space, spmv_benchmarker, seed=1).run(20)
        for s in r.samples:
            spmv_space.validate_schedule(s.schedule)

    def test_deterministic_for_seed(self, spmv_space, spmv_benchmarker):
        a = RandomSearch(spmv_space, spmv_benchmarker, seed=3).run(15)
        b = RandomSearch(spmv_space, spmv_benchmarker, seed=3).run(15)
        assert [s.schedule for s in a.samples] == [s.schedule for s in b.samples]
