"""Golden values for the reference engine on the paper's MPI programs.

The digests below pin, float for float, what the reference engine
measures for 40 schedules each of spmv, halo3d and tree_allreduce (the
first 20 the enumeration yields, whose prefixes barely differ, and 20
random ones, which post and wait in varied orders) on machines that
vary noise level and seed, message protocol (the preset's eager
threshold, or rendezvous or eager for every message) and NIC
serialization.  Each digest is the
sha256 of the ``repr`` of every schedule's ``(time, n_samples,
per_rank_time)``, measured with ``MeasurementConfig(max_samples=3)`` from
sample index 7 on.  One traced timeline is pinned as well.

Each digest is checked on both paths of the reference engine:
``ScheduleExecutor.run`` (the direct path wherever it takes a sample)
and ``ScheduleExecutor.run_event_loop`` (the discrete-event loop alone).

The values were captured before the engine read its durations from
per-sample tables (:mod:`repro.sim.durations`); any change to a digest
is a change to simulated results and must be deliberate.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest

from repro.platform import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

PROGRAMS = {
    "spmv": WorkloadSpec("spmv", {"scale": 0.025}),
    "halo3d": WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    ),
    "tree_allreduce": WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
}
#: (sigma, seed); a noiseless machine ignores its seed, so it runs once.
NOISE = ((0.0, 0), (0.01, 0), (0.01, 3), (0.05, 0), (0.05, 3))
#: (protocol, serialize_nic).  "preset" keeps the preset's eager
#: threshold, under which the small messages of these programs go eager;
#: "rendezvous" and "eager" move the threshold below or above every
#: message.
NETS = (
    ("preset", True),
    ("rendezvous", True),
    ("rendezvous", False),
    ("eager", True),
    ("eager", False),
)
THRESHOLD = {"rendezvous": -1.0, "eager": float("inf")}
N_FIRST = 20
N_RANDOM = 20
CONFIG = MeasurementConfig(max_samples=3)
SAMPLE_OFFSET = 7


@lru_cache(maxsize=None)
def _program_and_schedules(name):
    program = build_workload(PROGRAMS[name])
    space = DesignSpace(program, n_streams=2)
    rng = np.random.default_rng(11)
    schedules = list(islice(space.enumerate_schedules(), N_FIRST))
    schedules += [space.random_schedule(rng) for _ in range(N_RANDOM)]
    return program, tuple(schedules)


def _machine(n_ranks, sigma, seed, protocol, serialize_nic):
    machine = perlmutter_like(n_ranks=n_ranks, noise_sigma=sigma, noise_seed=seed)
    net = replace(machine.net, serialize_nic=serialize_nic)
    if protocol in THRESHOLD:
        net = replace(net, eager_threshold_bytes=THRESHOLD[protocol])
    return replace(machine, net=net)


def _sha(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def measurements_digest(
    name, sigma, seed, protocol, serialize_nic, path="run"
) -> str:
    """Digest of every schedule's measurement, with ``path`` (an executor
    method) simulating each sample."""
    program, schedules = _program_and_schedules(name)
    machine = _machine(program.n_ranks, sigma, seed, protocol, serialize_nic)
    executor = ScheduleExecutor(program, machine)
    simulate = getattr(executor, path)

    def run(schedule, sample=0):
        return simulate(schedule, sample=SAMPLE_OFFSET + sample)

    executor.run = run
    bench = Benchmarker(executor, CONFIG)
    values = []
    for s in schedules:
        m = bench.measure(s)
        values.append(
            (
                float(m.time),
                int(m.n_samples),
                tuple(float(t) for t in m.per_rank_time),
            )
        )
    return _sha(values)


def timeline_digest() -> str:
    """One traced run: spmv, sigma 0.05, seed 3, rendezvous, serialized."""
    program, schedules = _program_and_schedules("spmv")
    machine = _machine(program.n_ranks, 0.05, 3, "rendezvous", True)
    executor = ScheduleExecutor(program, machine, collect_trace=True)
    result = executor.run(schedules[17], sample=SAMPLE_OFFSET)
    records = [
        (r.rank, r.resource, r.op, float(r.start), float(r.end))
        for r in result.trace.records
    ]
    return _sha(
        (float(result.elapsed), [float(t) for t in result.per_rank], records)
    )


GOLDEN = {
    "halo3d sigma=0.0 seed=0 preset nic=True": (
        "321f5647814fdef09840da2f9703fb26316ddce201c9481cfea7b6685ceac941"
    ),
    "halo3d sigma=0.0 seed=0 rendezvous nic=True": (
        "864ea590db967dcd15e495654a29597067a96da5da236883f07347575f5443a9"
    ),
    "halo3d sigma=0.0 seed=0 rendezvous nic=False": (
        "864ea590db967dcd15e495654a29597067a96da5da236883f07347575f5443a9"
    ),
    "halo3d sigma=0.0 seed=0 eager nic=True": (
        "321f5647814fdef09840da2f9703fb26316ddce201c9481cfea7b6685ceac941"
    ),
    "halo3d sigma=0.0 seed=0 eager nic=False": (
        "321f5647814fdef09840da2f9703fb26316ddce201c9481cfea7b6685ceac941"
    ),
    "halo3d sigma=0.01 seed=0 preset nic=True": (
        "91da299c60f4e15669aaaa326fe4b7bbe8522ea4b18960d9e22dabc08796f288"
    ),
    "halo3d sigma=0.01 seed=0 rendezvous nic=True": (
        "c3d3f4ccd4ef5936892cca0bb65f85ac8edfc9dc5bf640c861d513faceb551df"
    ),
    "halo3d sigma=0.01 seed=0 rendezvous nic=False": (
        "c3d3f4ccd4ef5936892cca0bb65f85ac8edfc9dc5bf640c861d513faceb551df"
    ),
    "halo3d sigma=0.01 seed=0 eager nic=True": (
        "91da299c60f4e15669aaaa326fe4b7bbe8522ea4b18960d9e22dabc08796f288"
    ),
    "halo3d sigma=0.01 seed=0 eager nic=False": (
        "91da299c60f4e15669aaaa326fe4b7bbe8522ea4b18960d9e22dabc08796f288"
    ),
    "halo3d sigma=0.01 seed=3 preset nic=True": (
        "debbac06e2bdd1657d2c17029660db328efa92f5c2b86d9369a3d21ed3c3935a"
    ),
    "halo3d sigma=0.01 seed=3 rendezvous nic=True": (
        "8706e7010652751a12006619108d3883d7bca5d18e195758f058aa9afc2062ed"
    ),
    "halo3d sigma=0.01 seed=3 rendezvous nic=False": (
        "8706e7010652751a12006619108d3883d7bca5d18e195758f058aa9afc2062ed"
    ),
    "halo3d sigma=0.01 seed=3 eager nic=True": (
        "debbac06e2bdd1657d2c17029660db328efa92f5c2b86d9369a3d21ed3c3935a"
    ),
    "halo3d sigma=0.01 seed=3 eager nic=False": (
        "debbac06e2bdd1657d2c17029660db328efa92f5c2b86d9369a3d21ed3c3935a"
    ),
    "halo3d sigma=0.05 seed=0 preset nic=True": (
        "b5a43d3bbc497d78df6a4f4685fa5f94d7f11e39d49bea7f7caed35c00f3e8e5"
    ),
    "halo3d sigma=0.05 seed=0 rendezvous nic=True": (
        "60cffae58a53e81078a852e985ae3e716b0bd1083c3360d306834d70eedd66a4"
    ),
    "halo3d sigma=0.05 seed=0 rendezvous nic=False": (
        "60cffae58a53e81078a852e985ae3e716b0bd1083c3360d306834d70eedd66a4"
    ),
    "halo3d sigma=0.05 seed=0 eager nic=True": (
        "b5a43d3bbc497d78df6a4f4685fa5f94d7f11e39d49bea7f7caed35c00f3e8e5"
    ),
    "halo3d sigma=0.05 seed=0 eager nic=False": (
        "b5a43d3bbc497d78df6a4f4685fa5f94d7f11e39d49bea7f7caed35c00f3e8e5"
    ),
    "halo3d sigma=0.05 seed=3 preset nic=True": (
        "8840617e753d13ac075ccc6caa787892aac912b49b3cc8a93036bae1c0b81671"
    ),
    "halo3d sigma=0.05 seed=3 rendezvous nic=True": (
        "b96b046f002c12530449d1e8f8fc8845612dc5af70135c64e23d54426d3ff75b"
    ),
    "halo3d sigma=0.05 seed=3 rendezvous nic=False": (
        "b96b046f002c12530449d1e8f8fc8845612dc5af70135c64e23d54426d3ff75b"
    ),
    "halo3d sigma=0.05 seed=3 eager nic=True": (
        "8840617e753d13ac075ccc6caa787892aac912b49b3cc8a93036bae1c0b81671"
    ),
    "halo3d sigma=0.05 seed=3 eager nic=False": (
        "8840617e753d13ac075ccc6caa787892aac912b49b3cc8a93036bae1c0b81671"
    ),
    "spmv sigma=0.0 seed=0 preset nic=True": (
        "7bdfe5a739f7bd7d6cf32126ca46e7a355c31c0eeb59734d3bcf957f986c8a07"
    ),
    "spmv sigma=0.0 seed=0 rendezvous nic=True": (
        "7bdfe5a739f7bd7d6cf32126ca46e7a355c31c0eeb59734d3bcf957f986c8a07"
    ),
    "spmv sigma=0.0 seed=0 rendezvous nic=False": (
        "baef4f0b153fe870d9ed4ec8c4527b469355fa8f627037630626b65d471d5597"
    ),
    "spmv sigma=0.0 seed=0 eager nic=True": (
        "7bdfe5a739f7bd7d6cf32126ca46e7a355c31c0eeb59734d3bcf957f986c8a07"
    ),
    "spmv sigma=0.0 seed=0 eager nic=False": (
        "baef4f0b153fe870d9ed4ec8c4527b469355fa8f627037630626b65d471d5597"
    ),
    "spmv sigma=0.01 seed=0 preset nic=True": (
        "b4d93a4f7bf288fd56e5027600305881fd99e948eda6b6fffb3d406693530190"
    ),
    "spmv sigma=0.01 seed=0 rendezvous nic=True": (
        "b4d93a4f7bf288fd56e5027600305881fd99e948eda6b6fffb3d406693530190"
    ),
    "spmv sigma=0.01 seed=0 rendezvous nic=False": (
        "0482d6af43ff182ef6be2fca2af409ec5a5b0c04c6aa68b55e90e0620dc5add5"
    ),
    "spmv sigma=0.01 seed=0 eager nic=True": (
        "b4d93a4f7bf288fd56e5027600305881fd99e948eda6b6fffb3d406693530190"
    ),
    "spmv sigma=0.01 seed=0 eager nic=False": (
        "0482d6af43ff182ef6be2fca2af409ec5a5b0c04c6aa68b55e90e0620dc5add5"
    ),
    "spmv sigma=0.01 seed=3 preset nic=True": (
        "400517c45c26c52bb520395dd2142fcb199ba1f62aac93b7f2d85fb2f015bee4"
    ),
    "spmv sigma=0.01 seed=3 rendezvous nic=True": (
        "400517c45c26c52bb520395dd2142fcb199ba1f62aac93b7f2d85fb2f015bee4"
    ),
    "spmv sigma=0.01 seed=3 rendezvous nic=False": (
        "5fc67cab324467c12765ae85f1f0cc33aade7b9a9b8e2d35547bec2ce4673995"
    ),
    "spmv sigma=0.01 seed=3 eager nic=True": (
        "400517c45c26c52bb520395dd2142fcb199ba1f62aac93b7f2d85fb2f015bee4"
    ),
    "spmv sigma=0.01 seed=3 eager nic=False": (
        "5fc67cab324467c12765ae85f1f0cc33aade7b9a9b8e2d35547bec2ce4673995"
    ),
    "spmv sigma=0.05 seed=0 preset nic=True": (
        "4faf3f800f77ebb6e48c3f25d59fbbe3adb5d1b66719576535495468dae48151"
    ),
    "spmv sigma=0.05 seed=0 rendezvous nic=True": (
        "4faf3f800f77ebb6e48c3f25d59fbbe3adb5d1b66719576535495468dae48151"
    ),
    "spmv sigma=0.05 seed=0 rendezvous nic=False": (
        "5a145ea448f941184f399e6106005b58af1d645dfb16faf8e989f4596489274f"
    ),
    "spmv sigma=0.05 seed=0 eager nic=True": (
        "4faf3f800f77ebb6e48c3f25d59fbbe3adb5d1b66719576535495468dae48151"
    ),
    "spmv sigma=0.05 seed=0 eager nic=False": (
        "5a145ea448f941184f399e6106005b58af1d645dfb16faf8e989f4596489274f"
    ),
    "spmv sigma=0.05 seed=3 preset nic=True": (
        "154f511cf7220efb808449d2697b29defef4497d220b57e575aa1809c214ab18"
    ),
    "spmv sigma=0.05 seed=3 rendezvous nic=True": (
        "154f511cf7220efb808449d2697b29defef4497d220b57e575aa1809c214ab18"
    ),
    "spmv sigma=0.05 seed=3 rendezvous nic=False": (
        "5803e79f0eec43f222d9dde51c386aa1899d827977e3a0a4d00c7af264aec6ec"
    ),
    "spmv sigma=0.05 seed=3 eager nic=True": (
        "154f511cf7220efb808449d2697b29defef4497d220b57e575aa1809c214ab18"
    ),
    "spmv sigma=0.05 seed=3 eager nic=False": (
        "5803e79f0eec43f222d9dde51c386aa1899d827977e3a0a4d00c7af264aec6ec"
    ),
    "tree_allreduce sigma=0.0 seed=0 preset nic=True": (
        "2728fb9e9e80059d4d7481d5fd9234b18c52686ff3d3a5fd610c6f325511530f"
    ),
    "tree_allreduce sigma=0.0 seed=0 rendezvous nic=True": (
        "2728fb9e9e80059d4d7481d5fd9234b18c52686ff3d3a5fd610c6f325511530f"
    ),
    "tree_allreduce sigma=0.0 seed=0 rendezvous nic=False": (
        "2728fb9e9e80059d4d7481d5fd9234b18c52686ff3d3a5fd610c6f325511530f"
    ),
    "tree_allreduce sigma=0.0 seed=0 eager nic=True": (
        "d7cb3454a29f8c817b75655977cc2e8491c817ba2cb8920bd0717373bd1e6cb6"
    ),
    "tree_allreduce sigma=0.0 seed=0 eager nic=False": (
        "d7cb3454a29f8c817b75655977cc2e8491c817ba2cb8920bd0717373bd1e6cb6"
    ),
    "tree_allreduce sigma=0.01 seed=0 preset nic=True": (
        "05e9cb4677184a885fc7bb4eb3beea15778a8f88d75e658dcc7e5df0e34d3128"
    ),
    "tree_allreduce sigma=0.01 seed=0 rendezvous nic=True": (
        "05e9cb4677184a885fc7bb4eb3beea15778a8f88d75e658dcc7e5df0e34d3128"
    ),
    "tree_allreduce sigma=0.01 seed=0 rendezvous nic=False": (
        "05e9cb4677184a885fc7bb4eb3beea15778a8f88d75e658dcc7e5df0e34d3128"
    ),
    "tree_allreduce sigma=0.01 seed=0 eager nic=True": (
        "e532d9d7c431c2ccea8205b629276e24042c28388ad5722bd0ab5acc01b7ccc8"
    ),
    "tree_allreduce sigma=0.01 seed=0 eager nic=False": (
        "e532d9d7c431c2ccea8205b629276e24042c28388ad5722bd0ab5acc01b7ccc8"
    ),
    "tree_allreduce sigma=0.01 seed=3 preset nic=True": (
        "9ee3779a03b46b269dcdb0c22eb48d9216b6ffee4eaaf9b946a643a7c48a8663"
    ),
    "tree_allreduce sigma=0.01 seed=3 rendezvous nic=True": (
        "9ee3779a03b46b269dcdb0c22eb48d9216b6ffee4eaaf9b946a643a7c48a8663"
    ),
    "tree_allreduce sigma=0.01 seed=3 rendezvous nic=False": (
        "9ee3779a03b46b269dcdb0c22eb48d9216b6ffee4eaaf9b946a643a7c48a8663"
    ),
    "tree_allreduce sigma=0.01 seed=3 eager nic=True": (
        "73f5180031d1130005457c00c32ed65c7bfddc70831ef3deda745bdc3a0dc7b3"
    ),
    "tree_allreduce sigma=0.01 seed=3 eager nic=False": (
        "73f5180031d1130005457c00c32ed65c7bfddc70831ef3deda745bdc3a0dc7b3"
    ),
    "tree_allreduce sigma=0.05 seed=0 preset nic=True": (
        "009c2f1eda798e4e4425edcc980b573ad8777f2c6e612469a75b239d18a0d795"
    ),
    "tree_allreduce sigma=0.05 seed=0 rendezvous nic=True": (
        "009c2f1eda798e4e4425edcc980b573ad8777f2c6e612469a75b239d18a0d795"
    ),
    "tree_allreduce sigma=0.05 seed=0 rendezvous nic=False": (
        "009c2f1eda798e4e4425edcc980b573ad8777f2c6e612469a75b239d18a0d795"
    ),
    "tree_allreduce sigma=0.05 seed=0 eager nic=True": (
        "2de97bb506133fae6305ce70a31413d7bb1610fc937bcb0f44fb90f668954713"
    ),
    "tree_allreduce sigma=0.05 seed=0 eager nic=False": (
        "2de97bb506133fae6305ce70a31413d7bb1610fc937bcb0f44fb90f668954713"
    ),
    "tree_allreduce sigma=0.05 seed=3 preset nic=True": (
        "fb25c0c571edbbcef5708ccc19547bd269830c51d264049fef998257737eab4b"
    ),
    "tree_allreduce sigma=0.05 seed=3 rendezvous nic=True": (
        "fb25c0c571edbbcef5708ccc19547bd269830c51d264049fef998257737eab4b"
    ),
    "tree_allreduce sigma=0.05 seed=3 rendezvous nic=False": (
        "fb25c0c571edbbcef5708ccc19547bd269830c51d264049fef998257737eab4b"
    ),
    "tree_allreduce sigma=0.05 seed=3 eager nic=True": (
        "e3d4bac33d2d0f7e77f6a37bd7717e3f5b7f49d77ad9bfed99473d52d47f668e"
    ),
    "tree_allreduce sigma=0.05 seed=3 eager nic=False": (
        "e3d4bac33d2d0f7e77f6a37bd7717e3f5b7f49d77ad9bfed99473d52d47f668e"
    ),
}

TIMELINE = (
    "6f5c31027e9ca52614980b938791e099ba9d3a8780a9367d3041d5fe535c7f55"
)


@pytest.mark.parametrize("protocol,serialize_nic", NETS)
@pytest.mark.parametrize("sigma,seed", NOISE)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_reference_measurements_match_golden(
    name, sigma, seed, protocol, serialize_nic
):
    """``run``: the direct path wherever it takes a sample."""
    key = f"{name} sigma={sigma} seed={seed} {protocol} nic={serialize_nic}"
    assert measurements_digest(name, sigma, seed, protocol, serialize_nic) == (
        GOLDEN[key]
    )


@pytest.mark.parametrize("protocol,serialize_nic", NETS)
@pytest.mark.parametrize("sigma,seed", NOISE)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_event_loop_measurements_match_golden(
    name, sigma, seed, protocol, serialize_nic
):
    """``run_event_loop``: the discrete-event loop alone."""
    key = f"{name} sigma={sigma} seed={seed} {protocol} nic={serialize_nic}"
    assert measurements_digest(
        name, sigma, seed, protocol, serialize_nic, path="run_event_loop"
    ) == (GOLDEN[key])


def test_reference_timeline_matches_golden():
    assert timeline_digest() == TIMELINE
