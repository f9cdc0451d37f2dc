"""Trace analytics cost (repro.obs.analyze/diff) at archive scale.

The read side has to stay interactive on real archived runs: a sharded
paper-scale sweep produces tens of thousands of spans, and ``repro
trace <archive> --analyze`` / ``--diff`` parse and fold the whole
bundle on every invocation.  Four timings on a synthetic >=50k-span
archived trace (same shape as a sharded suite run — one
``plan.execute`` root fanning out into task/stage/batch subtrees),
recorded without a budget:

* JSONL parse (``read_trace``) of the archived bundle;
* per-span-path aggregation (``aggregate_spans``);
* concurrent-aware critical-path extraction (``critical_path``);
* counter identity check (``diff_runs``) of two archived runs of that
  trace.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    RunArchive,
    SpanRecord,
    aggregate_spans,
    critical_path,
    diff_runs,
    read_trace,
)

# 1 root + 64 tasks + 64*8 stages + 64*8*100 batch leaves = 51_777.
N_TASKS = 64
N_STAGES = 8
N_LEAVES = 100


def _synthetic_run(scale: float = 1.0) -> tuple[SpanRecord, MetricsRegistry]:
    """A plan.execute-shaped forest with deterministic durations."""
    tasks = []
    clock = 0.0
    for t in range(N_TASKS):
        stages = []
        for s in range(N_STAGES):
            leaves = [
                SpanRecord(
                    name="eval.batch",
                    start=clock + 0.0001 * leaf,
                    duration=scale * (0.0001 + 0.00001 * ((t + s + leaf) % 7)),
                    pid=1000 + t % 4,
                    attrs={"batch": leaf},
                )
                for leaf in range(N_LEAVES)
            ]
            stages.append(
                SpanRecord(
                    name=f"stage:search:{s % 2 and 'mcts' or 'random'}",
                    start=clock,
                    duration=scale * sum(c.duration for c in leaves) * 1.05,
                    pid=1000 + t % 4,
                    attrs={},
                    children=leaves,
                )
            )
            clock += stages[-1].duration
        tasks.append(
            SpanRecord(
                name=f"task:synthetic[seed={t}]",
                start=tasks[-1].start + 0.001 if tasks else 0.0,
                duration=sum(c.duration for c in stages) * 1.02,
                pid=1000 + t % 4,
                attrs={},
                children=stages,
            )
        )
    root = SpanRecord(
        name="plan.execute",
        start=0.0,
        # Tasks ran 4-wide on shard workers: the root wall is roughly a
        # quarter of the summed task walls, like a real sharded run.
        duration=sum(c.duration for c in tasks) / 4,
        pid=999,
        attrs={"n_tasks": N_TASKS},
        children=tasks,
    )
    registry = MetricsRegistry()
    registry.add("eval.schedules", N_TASKS * N_STAGES * N_LEAVES)
    registry.add("plan.tasks_completed", N_TASKS)
    for i in range(1000):
        registry.observe("eval.batch_wall_us", 100.0 + (i % 37))
    return root, registry


@pytest.fixture(scope="session")
def big_archive(tmp_path_factory) -> RunArchive:
    """Archive with two >=50k-span runs: a baseline and a 1.02x rerun."""
    archive = RunArchive(str(tmp_path_factory.mktemp("trace-archive")))
    for run_id, scale in (("baseline", 1.0), ("rerun", 1.02)):
        root, registry = _synthetic_run(scale)
        archive.record(
            [root],
            registry.snapshot(),
            command="bench",
            run_id=run_id,
        )
    return archive


def test_bench_trace_parse_50k(benchmark, big_archive):
    """JSONL parse of the archived >=50k-span bundle."""
    path = big_archive.get("baseline").trace_path

    data = benchmark(lambda: read_trace(path))
    n = data.n_spans()
    benchmark.extra_info["n_spans"] = n
    assert n >= 50_000


def test_bench_aggregate_spans_50k(benchmark, big_archive):
    """Per-span-path aggregation over the parsed forest."""
    data = big_archive.load("baseline")

    stats = benchmark(lambda: aggregate_spans(data.spans))
    benchmark.extra_info["n_paths"] = len(stats)
    total = stats["plan.execute"]
    assert total.count == 1
    assert sum(s.count for s in stats.values()) >= 50_000


def test_bench_critical_path_50k(benchmark, big_archive):
    """Concurrent-aware longest-chain extraction."""
    data = big_archive.load("baseline")

    chain = benchmark(lambda: critical_path(data.spans))
    benchmark.extra_info["chain_len"] = len(chain)
    assert chain[0].path == "plan.execute"
    assert chain[-1].name == "eval.batch"


def test_bench_diff_runs_50k(benchmark, big_archive):
    """Archived-run diff: exact counter comparison of both sides."""
    baseline = big_archive.load("baseline")
    current = big_archive.load("rerun")

    diff = benchmark(lambda: diff_runs(baseline, current))
    # The rerun is 1.02x slower, but its counters are identical.
    assert diff.ok
    assert not diff.counters

