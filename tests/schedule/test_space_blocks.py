"""Streaming enumeration: iter_blocks, cursors, cross-process stability."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ScheduleError
from repro.schedule.space import DesignSpace, EnumerationCursor
from repro.workloads import WorkloadSpec, build_workload


def _space(family="wavefront", params=None, n_streams=2):
    params = params if params is not None else {"width": 2, "height": 2}
    return DesignSpace(build_workload(WorkloadSpec(family, params)), n_streams)


def _fingerprints(schedules):
    return [s.fingerprint() for s in schedules]


class TestIterBlocks:
    @pytest.mark.parametrize("block_size", [1, 3, 7, 1000])
    def test_concatenation_equals_enumerate(self, block_size):
        space = _space()
        streamed = [
            s for b in space.iter_blocks(block_size) for s in b.schedules
        ]
        assert _fingerprints(streamed) == _fingerprints(
            space.enumerate_schedules()
        )

    def test_counts_match_count(self):
        for family, params in [
            ("wavefront", {"width": 2, "height": 2}),
            ("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
            ("tree_allreduce", {"rounds": 1, "elems": 16384}),
        ]:
            space = _space(family, params)
            n_streamed = sum(len(b) for b in space.iter_blocks(5))
            assert n_streamed == space.count()

    def test_block_sizes_and_indices(self):
        space = _space()
        blocks = list(space.iter_blocks(7))
        assert [b.index for b in blocks] == list(range(len(blocks)))
        assert all(len(b) == 7 for b in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= 7
        assert blocks[-1].cursor.exhausted
        assert not any(b.cursor.exhausted for b in blocks[:-1])

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ScheduleError, match="block_size"):
            next(_space().iter_blocks(0))


class TestCursorResume:
    def test_resume_mid_stream(self):
        space = _space()
        full = _fingerprints(space.enumerate_schedules())
        blocks = list(space.iter_blocks(6))
        for i, block in enumerate(blocks[:-1]):
            resumed = [
                s
                for b in space.iter_blocks(6, cursor=block.cursor)
                for s in b.schedules
            ]
            assert _fingerprints(resumed) == full[6 * (i + 1) :]

    def test_resume_from_exhausted_cursor_is_empty(self):
        space = _space()
        last = list(space.iter_blocks(4))[-1]
        assert last.cursor.exhausted
        assert list(space.iter_blocks(4, cursor=last.cursor)) == []

    def test_corrupt_cursor_rejected(self):
        space = _space()
        bad = EnumerationCursor(path=(999,))
        with pytest.raises(ScheduleError, match="cursor"):
            list(space.iter_blocks(4, cursor=bad))

    def test_partial_path_cursor_rejected(self):
        """A cursor must address a complete schedule, not an inner node."""
        space = _space()
        depth = len(list(space.iter_blocks(1))[0].cursor.path)
        assert depth > 1
        bad = EnumerationCursor(path=(0,) * (depth - 1))
        with pytest.raises(ScheduleError, match="complete"):
            list(space.iter_blocks(4, cursor=bad))


def _remote_fingerprints(spec_family, spec_params, block_size, cursor):
    space = _space(spec_family, spec_params)
    return [
        s.fingerprint()
        for b in space.iter_blocks(block_size, cursor=cursor)
        for s in b.schedules
    ]


class TestCrossProcessStability:
    def test_order_bit_stable_across_processes(self):
        """Another process resuming from a cursor produces exactly the
        suffix this process would — the property workload sharding and
        resumable enumeration rest on."""
        space = _space()
        full = _fingerprints(space.enumerate_schedules())
        blocks = list(space.iter_blocks(5))
        mid_cursor = blocks[1].cursor
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote_full = pool.submit(
                _remote_fingerprints,
                "wavefront",
                {"width": 2, "height": 2},
                5,
                None,
            ).result()
            remote_suffix = pool.submit(
                _remote_fingerprints,
                "wavefront",
                {"width": 2, "height": 2},
                5,
                mid_cursor,
            ).result()
        assert remote_full == full
        assert remote_suffix == full[10:]


@pytest.mark.slow
class TestSixFigureSpace:
    def test_245k_space_streams_with_bounded_residency(self):
        """The acceptance path: stencil_reduce's default space (245 760
        schedules) streams end to end holding at most one block — peak
        schedule residency is the block size, not the space size."""
        space = _space("stencil_reduce", {})
        n = space.count()
        assert n >= 100_000
        total = 0
        peak = 0
        for block in space.iter_blocks(4096):
            total += len(block)
            peak = max(peak, len(block))
        assert total == n
        assert peak <= 4096
