"""Trace analytics cost (repro.obs.analyze/diff/export) at scale.

The read side has to stay interactive on real traced runs: a sharded
paper-scale sweep produces tens of thousands of spans, and ``repro
trace FILE --analyze`` / ``--diff`` / ``--export-perfetto`` parse and
fold the whole file on every invocation.  Five timings on a synthetic
>=50k-span trace file (same shape as a sharded suite run — one
``plan.execute`` root fanning out into task/stage/batch subtrees),
recorded without a budget:

* JSONL parse (``read_trace``) of the trace file;
* per-span-path aggregation (``aggregate_spans``);
* concurrent-aware critical-path extraction (``critical_path``);
* counter identity check (``diff_runs``) of two trace files of that
  run;
* Perfetto lowering (``to_perfetto``) of the parsed trace.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    SpanRecord,
    aggregate_spans,
    check_perfetto,
    critical_path,
    diff_runs,
    read_trace,
    to_perfetto,
    write_trace,
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
                    name=f"search.{s % 2 and 'mcts' or 'random'}",
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
def big_traces(tmp_path_factory) -> dict[str, str]:
    """Two >=50k-span trace files: a baseline and a 1.02x rerun."""
    root_dir = tmp_path_factory.mktemp("traces")
    paths = {}
    for run_id, scale in (("baseline", 1.0), ("rerun", 1.02)):
        root, registry = _synthetic_run(scale)
        paths[run_id] = str(root_dir / f"{run_id}.jsonl")
        write_trace(
            paths[run_id],
            [root],
            registry.snapshot(),
            meta={"command": "bench"},
        )
    return paths


def test_bench_trace_parse_50k(benchmark, big_traces):
    """JSONL parse of the >=50k-span trace file."""
    path = big_traces["baseline"]

    data = benchmark(lambda: read_trace(path))
    n = data.n_spans()
    benchmark.extra_info["n_spans"] = n
    assert n >= 50_000


def test_bench_aggregate_spans_50k(benchmark, big_traces):
    """Per-span-path aggregation over the parsed forest."""
    data = read_trace(big_traces["baseline"])

    stats = benchmark(lambda: aggregate_spans(data.spans))
    benchmark.extra_info["n_paths"] = len(stats)
    total = stats["plan.execute"]
    assert total.count == 1
    assert sum(s.count for s in stats.values()) >= 50_000


def test_bench_critical_path_50k(benchmark, big_traces):
    """Concurrent-aware longest-chain extraction."""
    data = read_trace(big_traces["baseline"])

    chain = benchmark(lambda: critical_path(data.spans))
    benchmark.extra_info["chain_len"] = len(chain)
    assert chain[0].path == "plan.execute"
    assert chain[-1].name == "eval.batch"


def test_bench_diff_runs_50k(benchmark, big_traces):
    """Two trace files' diff: exact counter comparison of both sides."""
    baseline = read_trace(big_traces["baseline"])
    current = read_trace(big_traces["rerun"])

    diff = benchmark(lambda: diff_runs(baseline, current))
    # The rerun is 1.02x slower, but its counters are identical.
    assert diff.ok
    assert not diff.counters


def test_bench_perfetto_lowering(benchmark, big_traces):
    """trace -> Chrome/Perfetto JSON object for the >=50k-span trace."""
    data = read_trace(big_traces["baseline"])

    obj = benchmark(to_perfetto, data)
    assert check_perfetto(obj) == []
    benchmark.extra_info["n_events"] = len(obj["traceEvents"])
