"""Shared fixtures.

Heavy artifacts (the SpMV instance, the enumerated design space, the
exhaustive benchmark sweep, the trained advisor store) are session-scoped:
they are deterministic and read-only, and many test modules consult them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advisor import ArtifactStore, publish_artifacts
from repro.apps.spmv import SpmvCase, build_spmv_program
from repro.platform import noiseless, perlmutter_like
from repro.schedule import DesignSpace
from repro.search import ExhaustiveSearch
from repro.sim import Benchmarker, MeasurementConfig, ScheduleExecutor
from repro.workloads import WorkloadSpec
from repro.workloads.generalization import rules_for_specs


#: Scale used by most tests: 3750 rows, builds in ~10 ms, simulates fast.
TEST_SCALE = 1 / 40


@pytest.fixture(scope="session")
def spmv_case():
    return SpmvCase().scaled(TEST_SCALE)


@pytest.fixture(scope="session")
def spmv_instance(spmv_case):
    return build_spmv_program(spmv_case)


@pytest.fixture(scope="session")
def machine():
    """Noiseless perlmutter-like machine (deterministic single samples)."""
    return noiseless(perlmutter_like())


@pytest.fixture(scope="session")
def noisy_machine():
    return perlmutter_like(noise_sigma=0.01)


@pytest.fixture(scope="session")
def spmv_space(spmv_instance):
    return DesignSpace(spmv_instance.program, n_streams=2)


@pytest.fixture(scope="session")
def spmv_schedules(spmv_space):
    return list(spmv_space.enumerate_schedules())


@pytest.fixture(scope="session")
def spmv_executor(spmv_instance, machine):
    return ScheduleExecutor(spmv_instance.program, machine)


@pytest.fixture(scope="session")
def spmv_benchmarker(spmv_executor):
    return Benchmarker(spmv_executor, MeasurementConfig(max_samples=1))


@pytest.fixture(scope="session")
def spmv_exhaustive(spmv_space, spmv_benchmarker):
    """Exhaustive search result over the test-scale SpMV space."""
    return ExhaustiveSearch(spmv_space, spmv_benchmarker).run()


@pytest.fixture(scope="session")
def spmv_noisy_exhaustive(spmv_instance, spmv_space, noisy_machine):
    executor = ScheduleExecutor(spmv_instance.program, noisy_machine)
    bench = Benchmarker(executor, MeasurementConfig(max_samples=3))
    return ExhaustiveSearch(spmv_space, bench).run()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


# -- advisor ------------------------------------------------------------------
# One trained artifact store for the session.  Training runs the exhaustive
# rule pipelines on seven small workloads (the generalization six plus
# ``layered_random``) once; every advisor test (store round-trips, guided
# search, recommendation) and the guided MCTS oracle consume the same
# artifacts, exactly as a real deployment shares one store across consumers.

#: Exhaustible training workloads: every family the advisor tests
#: recommend for or guide on has a structural relative in here.
TRAIN_SPECS = (
    WorkloadSpec("spmv", {"scale": 0.025}),
    WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    ),
    WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
)

ADVISOR_MACHINE = "perlmutter-like"


@pytest.fixture(scope="session")
def advisor_machine():
    """Noiseless machine used for all advisor-test simulation."""
    return noiseless(perlmutter_like())


@pytest.fixture(scope="session")
def trained_workloads():
    """Per-workload pipeline outputs over the training specs."""
    return rules_for_specs(
        list(TRAIN_SPECS), measurement=MeasurementConfig(max_samples=1)
    )


@pytest.fixture(scope="session")
def trained_store(tmp_path_factory, trained_workloads):
    """An artifact store holding the trained workloads + union tree."""
    root = tmp_path_factory.mktemp("advisor-store")
    store = ArtifactStore(str(root))
    publish_artifacts(store, trained_workloads, machine=ADVISOR_MACHINE)
    return store
