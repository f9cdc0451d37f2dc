"""Branch-and-bound enumeration vs the block-filter baseline.

The PR-5 guided search filtered complete schedules block by block: every
leaf of the design space was still built, then discarded.  True
branch-and-bound threads a monotone prefix predicate into the
enumerator's DFS so a violating prefix cuts its whole subtree before a
single leaf under it is expanded.  These benches pin the claim on a
``>= 10^7``-schedule space (layered_random 4x3: 39,530,496 schedules;
smoke mode swaps in the full wavefront 3x3 space, 10,752 schedules):

* block-filter baseline vs branch-and-bound over the same seek-delimited
  comparison range — identical kept schedules, pinned subtree-cut count,
  wall-time ratio recorded in ``extra_info``;
* ``seek`` cost — a pure DP descent must stay micro-scale even when the
  index addresses the deep end of the 39.5M-leaf space;
* range-sharded exhaustive search (halo3d) merged bit-identically to the
  serial sweep.

The prefix predicate — at most one GPU op bound to stream 1 — is
synthetic but monotone, exactly the soundness contract
``ScheduleGuide.admits_prefix`` provides; using it keeps the pinned
counts independent of trained-model drift.
"""

import pytest

from benchmarks.conftest import SMOKE
from repro.exec import ExecConfig
from repro.orchestrate import run_range_sharded_search
from repro.platform import noiseless, perlmutter_like
from repro.schedule.space import DesignSpace
from repro.search.exhaustive import ExhaustiveSearch
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

MEASUREMENT = MeasurementConfig(max_samples=1)

if SMOKE:
    BIG = WorkloadSpec("wavefront", {"width": 3, "height": 3})
    RANGE_LIMIT = None  # the whole 10,752-schedule space
    PINNED = {"kept": 42, "cuts": 140}
else:
    BIG = WorkloadSpec(
        "layered_random", {"layers": 4, "width": 3, "edge_p": 0.5}
    )
    RANGE_LIMIT = 120_000  # comparison slice of the 39.5M-leaf space
    PINNED = {"kept": 380, "cuts": 757}

HALO = WorkloadSpec(
    "halo3d",
    {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
)


def _prefix_ok(ops):
    """Monotone synthetic guide: at most one GPU op on stream 1."""
    return sum(1 for op in ops if op.stream == 1) <= 1


@pytest.fixture(scope="session")
def big_space():
    space = DesignSpace(build_workload(BIG), n_streams=2)
    if not SMOKE:
        assert space.count() >= 10_000_000
    space.seek(0)  # fill the state graph and its counts outside timing
    return space


def _walk(space, keep_prefix):
    kept = cuts = 0
    for block in space.iter_blocks(
        512,
        cursor=space.seek(0),
        limit=RANGE_LIMIT,
        keep=lambda s: _prefix_ok(s.ops),
        keep_prefix=keep_prefix,
    ):
        kept += len(block)
        cuts += block.n_subtrees_cut
    return kept, cuts


def test_bench_enum_block_filter(benchmark, big_space):
    """Baseline: every leaf built, complete schedules filtered."""
    kept, cuts = benchmark.pedantic(
        lambda: _walk(big_space, None), rounds=2, iterations=1
    )
    assert (kept, cuts) == (PINNED["kept"], 0)


def test_bench_enum_branch_and_bound(benchmark, big_space):
    """Same range, same kept set — violating subtrees never expanded."""
    kept, cuts = benchmark.pedantic(
        lambda: _walk(big_space, _prefix_ok), rounds=2, iterations=1
    )
    assert kept == PINNED["kept"]
    assert cuts == PINNED["cuts"]
    benchmark.extra_info["n_subtrees_cut"] = cuts
    benchmark.extra_info["n_kept"] = kept


def test_bench_seek_is_dp_descent(benchmark, big_space):
    """Seeking near the end of the space must not enumerate anything."""
    total = big_space.count()

    def run():
        return big_space.seek(total - 5)

    cursor = benchmark.pedantic(run, rounds=3, iterations=5)
    tail = [
        s
        for b in big_space.iter_blocks(8, cursor=cursor)
        for s in b.schedules
    ]
    assert len(tail) == 5
    benchmark.extra_info["space_count"] = total


@pytest.fixture(scope="session")
def halo_serial():
    program = build_workload(HALO)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    space = DesignSpace(program, n_streams=2)
    return ExhaustiveSearch(
        space, Benchmarker(ScheduleExecutor(program, machine), MEASUREMENT)
    ).run()


def test_bench_range_sharded_search(benchmark, halo_serial):
    """Seek-partitioned shards across the PR-4 pool, merged in range
    order, must reproduce the serial sweep bit for bit."""
    machine = noiseless(perlmutter_like())

    def run():
        return run_range_sharded_search(
            HALO,
            machine=machine,
            n_shards=4,
            measurement=MEASUREMENT,
            execution=ExecConfig(shard_workers=0 if SMOKE else 2),
        )

    sharded = benchmark.pedantic(run, rounds=2, iterations=1)
    assert [
        (s.schedule.fingerprint(), s.time) for s in sharded.result.samples
    ] == [(s.schedule.fingerprint(), s.time) for s in halo_serial.samples]
    benchmark.extra_info["n_schedules"] = sharded.total
