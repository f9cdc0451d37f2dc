"""Benchmark fixtures.

The paper-scale workbench (150k-row SpMV on the perlmutter-like platform)
is built once per session; its exhaustive sweep is cached so the per-
figure benches measure their own stage, not the shared substrate.  A
workbench also keeps every Table V cell it computed, so the benches of
Table V, Tables VI-VIII and the two search ablations each get a workbench
of their own (``fresh_wb`` / ``fresh_small_wb``), swept and with its full
pipeline trained before the timed call: each times its own searches, not
another bench's memo hits.

Setting ``REPRO_BENCH_SMOKE=1`` (the nightly CI job does) shrinks the
paper-scale workbench to the 1/40-scale case so the whole suite runs in
minutes while still exercising every benchmarked code path; the emitted
JSON marks smoke runs via the ``smoke`` extra-info key.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.spmv import SpmvCase
from repro.experiments.workbench import SpmvWorkbench
from repro.platform import perlmutter_like
from repro.sim import MeasurementConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def paper_workbench() -> SpmvWorkbench:
    """Paper-scale workbench (the paper's exact SpMV case); 1/40 scale
    in smoke mode."""
    case = SpmvCase().scaled(1 / 40) if SMOKE else SpmvCase()
    return SpmvWorkbench(
        case=case,
        machine=perlmutter_like(noise_sigma=0.01),
        measurement=MeasurementConfig(max_samples=3),
    )


def small_workbench() -> SpmvWorkbench:
    """1/40-scale workbench for the iteration-heavy sweeps."""
    return SpmvWorkbench(
        case=SpmvCase().scaled(1 / 40),
        machine=perlmutter_like(noise_sigma=0.01),
        measurement=MeasurementConfig(max_samples=2),
    )


def warmed(wb: SpmvWorkbench) -> SpmvWorkbench:
    """``wb`` with its sweep, full space and full pipeline computed."""
    wb.full_space()
    wb.full_pipeline()
    return wb


@pytest.fixture(scope="session")
def wb() -> SpmvWorkbench:
    """The session's shared paper-scale workbench."""
    return paper_workbench()


@pytest.fixture
def fresh_wb() -> SpmvWorkbench:
    """A warmed paper-scale workbench of the bench's own."""
    return warmed(paper_workbench())


@pytest.fixture
def fresh_small_wb() -> SpmvWorkbench:
    """A warmed 1/40-scale workbench of the bench's own."""
    return warmed(small_workbench())


@pytest.fixture(autouse=True)
def _mark_smoke(benchmark):
    """Record smoke mode in the benchmark JSON for trajectory tracking."""
    benchmark.extra_info["smoke"] = SMOKE
    return benchmark


def emit(capfd, title: str, body: str) -> None:
    """Print a report so it survives pytest's capture into tee'd output."""
    with capfd.disabled():
        print(f"\n==== {title} ====")
        print(body)
