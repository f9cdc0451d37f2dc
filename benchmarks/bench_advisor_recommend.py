"""The advisor's candidate sampler: bulk generator words vs scalar calls.

``recommend`` samples a space larger than ``MAX_CANDIDATES`` with
frontier-uniform draws, one ``integers(n)`` per decision.  The sampler
reads them from a draw source that takes 32-bit words from its generator
``BLOCK`` at a time; before, each decision was a scalar
``Generator.integers`` call.  Both are timed on halo3d 32³ x (1,600
schedules, 20,480 draws to the attempt cap) and xy (2.3e9 schedules,
1,024 draws) at seed 0, on a fresh design space per round as
``recommend`` builds one per call.  Both must give the same candidates
and draw count; draws and decisions go to ``extra_info``.  No timing
floor is asserted.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.advisor.recommend import (
    DRAWS_PER_CANDIDATE,
    MAX_CANDIDATES,
    _candidates,
)
from repro.schedule.space import DesignSpace
from repro.workloads import WorkloadSpec, build_workload

HALO = {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1}


def per_call_candidates(space, max_candidates, seed):
    """The sampler with a ``Generator``: one scalar call per decision.
    Also returns the decisions made (the paths' summed lengths)."""
    rng = np.random.default_rng(seed)
    out, seen, draws, decisions = [], set(), 0, 0
    while (
        len(out) < max_candidates
        and draws < DRAWS_PER_CANDIDATE * max_candidates
    ):
        draws += 1
        path = space.random_path(rng)
        decisions += len(path)
        if path in seen:
            continue
        seen.add(path)
        out.append(space.schedule_at(path))
    return out, draws, decisions


@pytest.fixture(scope="module", params=["x", "xy"])
def halo(request):
    program = build_workload(
        WorkloadSpec("halo3d", {**HALO, "axes": request.param})
    )
    space = DesignSpace(program, n_streams=2)
    assert space.count() > MAX_CANDIDATES  # sampled, not enumerated
    return request.param, program, per_call_candidates(
        space, MAX_CANDIDATES, 0
    )


@pytest.mark.parametrize("sampler", ["bulk", "per_call"])
def test_bench_candidate_sampler(benchmark, capfd, halo, sampler):
    axes, program, (ref, ref_draws, decisions) = halo

    def fresh_space():
        return (DesignSpace(program, n_streams=2),), {}

    def bulk(space):
        return _candidates(space, MAX_CANDIDATES, 0)

    def per_call(space):
        return per_call_candidates(space, MAX_CANDIDATES, 0)[:2]

    out, draws = benchmark.pedantic(
        bulk if sampler == "bulk" else per_call,
        setup=fresh_space,
        rounds=3,
        iterations=1,
    )
    assert [s.key for s in out] == [s.key for s in ref]
    assert draws == ref_draws
    benchmark.extra_info.update(
        axes=axes,
        candidates=len(out),
        draws=draws,
        decisions=decisions,
    )
    emit(
        capfd,
        f"candidate sampler, halo3d 32^3 {axes} ({sampler})",
        f"{len(out)} candidates from {draws:,} draws ({decisions:,} "
        f"decisions): best {benchmark.stats.stats.min * 1e3:.1f} ms",
    )
