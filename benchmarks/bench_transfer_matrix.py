"""Transfer-subsystem benchmarks (not paper experiments).

Tracks the cost of the cross-program machinery: computing structural
signatures, discrimination-scoring one source's rules on one target, the
full leave-one-workload-out matrix over a small workload set, and
publishing that set's advisor artifacts.
"""

import pytest

from repro.advisor import ArtifactStore, publish_artifacts
from repro.sim.measure import MeasurementConfig
from repro.transfer import program_signatures, run_transfer_matrix, score_transfer
from repro.transfer.matrix import transfer_matrix_from
from repro.transfer.signature import SignatureMatcher
from repro.workloads import WorkloadSpec, build_workload, rules_for_specs

MATRIX_SPECS = [
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
]

MEASUREMENT = MeasurementConfig(max_samples=1)

SIGNATURE_SPECS = MATRIX_SPECS + [
    WorkloadSpec("spmv", {"scale": 0.025}),
    WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    ),
]


@pytest.mark.parametrize("spec", SIGNATURE_SPECS, ids=lambda s: s.family)
def test_bench_program_signatures(benchmark, spec):
    program = build_workload(spec)
    sigs = benchmark(lambda: program_signatures(program))
    assert sigs


@pytest.fixture(scope="module")
def per_workload():
    return rules_for_specs(MATRIX_SPECS, measurement=MEASUREMENT)


def test_bench_score_transfer_cell(benchmark, per_workload):
    src = next(w for w in per_workload if w.spec.family == "stencil_reduce")
    dst = next(w for w in per_workload if w.spec.family == "wavefront")
    matcher = SignatureMatcher(
        program_signatures(src.program), program_signatures(dst.program)
    )
    schedules = dst.result.search.schedules()
    fast = [s for s, is_fast in zip(schedules, dst.fast_rows) if is_fast]
    slow = [s for s, is_fast in zip(schedules, dst.fast_rows) if not is_fast]
    scores = benchmark(
        lambda: score_transfer(src.rules, fast, slow, matcher=matcher)
    )
    assert len(scores) == len(src.rules)


def test_bench_transfer_matrix_from(benchmark, per_workload):
    result = benchmark.pedantic(
        lambda: transfer_matrix_from(per_workload), rounds=2, iterations=1
    )
    assert len(result.cells) == len(MATRIX_SPECS) * (len(MATRIX_SPECS) - 1)


def test_bench_publish_artifacts(benchmark, per_workload, tmp_path):
    """``repro advise --train``'s reduce: advisories from the
    discrimination grid, then one all-workload union tree."""
    store = ArtifactStore(str(tmp_path))
    paths = benchmark.pedantic(
        lambda: publish_artifacts(store, per_workload, machine="perlmutter-like"),
        rounds=2,
        iterations=1,
    )
    assert len(paths) == len(MATRIX_SPECS) + 1


def test_bench_transfer_matrix_end_to_end(benchmark):
    result = benchmark.pedantic(
        lambda: run_transfer_matrix(MATRIX_SPECS, measurement=MEASUREMENT),
        rounds=1,
        iterations=1,
    )
    assert result.controls
