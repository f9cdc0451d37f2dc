"""Benchmark of the design-rule tool: one workload per run.

    python3 perfbench/run.py --workload generalization --seed 0 --seconds 10 --trace 0

``--trace 0`` measures untraced passes through the public entry points
and reports the end-to-end metrics; ``--trace 1`` runs one pass driven
layer by layer inside benchmark-side spans, then one untraced pass, and
reports the per-layer metrics.  Every operation's output is checked
against the digests pinned in ``digests.json``; any mismatch is counted
as a failure and makes the run exit with code 1.  The last line of
standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from pace import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Workload seeds with pinned digests; ``--seed n`` runs seed ``n % N_SEEDS``.
N_SEEDS = 5

#: Times are at the reference speed of ``pace.py``; raw ones are in ``meta``.
END_TO_END = (
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
)
EXPERIMENT_NAMES = (
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "table5",
    "rules",
    "ablation_random",
    "ablation_exploit",
    "ablation_noise",
)
PER_LAYER = (
    ("workloads.build_s", "s"),
    ("search.self_s", "s"),
    ("search.schedules", "count"),
    ("search.unique_ratio", "ratio"),
    ("search.pruned", "count"),
    ("search.subtrees_cut", "count"),
    ("search.guided_eval_fraction", "ratio"),
    ("sim.compile_s", "s"),
    ("sim.busy_s", "s"),
    ("sim.schedules", "count"),
    ("sim.simulations", "count"),
    ("exec.memo_hit_ratio", "ratio"),
    ("sim.us_per_simulation", "us"),
    ("sim.batch_share", "ratio"),
    ("ml.label_s", "s"),
    ("ml.features_s", "s"),
    ("ml.train_s", "s"),
    ("ml.error_s", "s"),
    ("ml.train_sizes", "count"),
    ("ml.tree_leaves", "count"),
    ("rules.extract_s", "s"),
    ("rules.score_s", "s"),
    ("transfer.matrix_s", "s"),
    ("transfer.union_rows", "count"),
    ("advisor.publish_s", "s"),
    ("advisor.guide_s", "s"),
    ("advisor.recommend_s", "s"),
    ("advisor.candidates", "count"),
    ("advisor.recommend_p50_s", "s"),
    ("advisor.recommend_tail_s", "s"),
    ("advisor.recommend_tail_pct", "pct"),
    ("advisor.recommend_calls", "count"),
    ("orchestrate.plan_s", "s"),
    ("orchestrate.reduce_s", "s"),
    ("orchestrate.task_self_s", "s"),
) + tuple((f"experiments.{n}_s", "s") for n in EXPERIMENT_NAMES) + (
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Span name -> per-layer metric holding its summed self time.
SPAN_METRICS = {
    "workloads.build": "workloads.build_s",
    "search.run": "search.self_s",
    "sim.compile": "sim.compile_s",
    "sim.evaluate": "sim.busy_s",
    "ml.label": "ml.label_s",
    "ml.features": "ml.features_s",
    "ml.train": "ml.train_s",
    "ml.error": "ml.error_s",
    "rules.extract": "rules.extract_s",
    "rules.score": "rules.score_s",
    "transfer.matrix": "transfer.matrix_s",
    "advisor.publish": "advisor.publish_s",
    "advisor.guide": "advisor.guide_s",
    "advisor.recommend": "advisor.recommend_s",
    "orchestrate.task": "orchestrate.task_self_s",
    **{f"experiments.{n}": f"experiments.{n}_s" for n in EXPERIMENT_NAMES},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--pin",
        action="store_true",
        help="record this workload seed's digests in digests.json instead of "
        "checking them (after a deliberate output change)",
    )
    return p.parse_args(argv)


def check_source():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program source under {SRC}")


def load_program():
    """Put the checkout's ``src`` on the path and import the workloads."""
    check_source()
    sys.path.insert(0, SRC)
    import workloads

    return workloads


# ----------------------------------------------------------------------
def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (p100) when there are fewer than 11."""
    v = sorted(values)
    if not v:
        return 0.0, 0.0
    i = len(v) - 11 if len(v) >= 11 else len(v) - 1
    return v[i], 100.0 * (i + 1) / len(v)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def src_digest():
    """Hash of every program source file: identifies the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
class Oracle:
    """Checks op digests against the pinned ones for one workload seed."""

    def __init__(self, pinned):
        self.pinned = pinned or {}
        self.attempted = 0
        self.failed = 0
        self.seen = set()
        self.mismatches = []
        #: False once a traced pass's digests differ from the untraced one's.
        self.traced_agrees = True

    def fail(self, name, why):
        self.attempted += 1
        self.failed += 1
        self.mismatches.append((name, why))

    def check(self, ops):
        for op in ops:
            self.seen.add(op.name)
            want = self.pinned.get(op.name)
            if op.digest == want:
                self.attempted += 1
            else:
                self.fail(op.name, f"digest {op.digest} != pinned {want}")

    def error(self, where):
        traceback.print_exc()
        self.fail(where, "raised")

    def finish(self):
        for name in sorted(set(self.pinned) - self.seen):
            self.fail(name, "never ran")
        for name, why in self.mismatches:
            print(f"FAIL {name}: {why}", file=sys.stderr)


def timed(fn, *args):
    """``fn(*args)`` with its wall time, its user + system CPU time and
    its ``time.monotonic`` window (for the speed probe)."""
    c0 = time.process_time()
    m0 = time.monotonic()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    return out, wall, time.process_time() - c0, (m0, time.monotonic())


def ref_speed(probe, wall, window, ops):
    """Speed factor of a pass: ops the benchmark timed itself are rescaled
    by the speed during each of them, the rest of the pass by the speed
    over the whole pass."""
    own = [op for op in ops if op.start is not None]
    rest = wall - sum(op.latency_s for op in own)
    ref = rest * probe.factor(*window) + sum(
        op.latency_s * probe.factor(op.start, op.start + op.latency_s) for op in own
    )
    return ref / wall


def measure(wl, seed, workdir, seconds, oracle, probe, imported):
    """Untraced: set up ``setup_repeats`` times (keeping the last, so the
    peak memory holds one set-up), then pass after pass while another
    pass of the last pass's length fits in ``seconds`` (at least one).
    ``imported`` is the import time and its probe window."""
    setups, setup_speed = [], []
    for _ in range(wl.setup_repeats):
        state = None
        state, wall, _, window = timed(wl.setup, seed, workdir)
        setups.append(wall)
        setup_speed.append(probe.factor(*window))
    oracle.check(state.ops)
    walls, cpus, speed, ops = [], [], [], []
    t_measure = time.perf_counter()
    while True:
        try:
            result, wall, cpu, window = timed(wl.run, state)
        except Exception:
            oracle.error("pass")
            break
        oracle.check(result.ops)
        ops += result.ops
        walls.append(wall)
        cpus.append(cpu)
        speed.append(ref_speed(probe, wall, window, result.ops))
        if time.perf_counter() - t_measure + wall > seconds:
            break
        if wl.fresh_state_per_pass:
            state = None
            state = wl.setup(seed, workdir)
    import_s, import_window = imported
    import_speed = probe.factor(*import_window)
    metrics = {
        "wall_ref_s": statistics.median(w * f for w, f in zip(walls, speed)),
        "cpu_ref_s": statistics.median(c * f for c, f in zip(cpus, speed)),
        "setup_s": import_s * import_speed
        + statistics.median(s * f for s, f in zip(setups, setup_speed)),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "import_s": import_s,
        "import_speed": import_speed,
        "setup_s": setups,
        "setup_speed": setup_speed,
        "wall_s": walls,
        "cpu_s": cpus,
        "speed": speed,
        "ops": [[op.name, op.latency_s, op.digest] for op in ops],
    }
    return metrics, raw


def layer_metrics(rec, replays, ops, ref_layers):
    """Per-layer metrics from the traced run's spans and counters."""
    st = rec.self_times()
    c = rec.counts
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in SPAN_METRICS.items():
        out[metric] = st.get(span, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("search.schedules", "search.pruned", "search.subtrees_cut",
                 "sim.schedules", "sim.simulations", "ml.train_sizes",
                 "ml.tree_leaves", "transfer.union_rows", "advisor.candidates"):
        out[name] = float(c.get(name, 0))
    out["search.unique_ratio"] = ratio(c["search.unique"], c["search.schedules"])
    out["search.guided_eval_fraction"] = ratio(
        c["search.guided_evaluated"], c["search.guided_space"]
    )
    out["exec.memo_hit_ratio"] = 1.0 - ratio(c["sim.fresh"], c["sim.schedules"])
    out["sim.us_per_simulation"] = 1e6 * ratio(
        st.get("sim.evaluate", 0.0), c["sim.simulations"]
    )
    out["sim.batch_share"] = ratio(replays, c["sim.fresh"])
    calls = [op.latency_s for op in ops if op.name.startswith("recommend:")]
    if calls:
        out["advisor.recommend_p50_s"] = statistics.median(calls)
        out["advisor.recommend_tail_s"], out["advisor.recommend_tail_pct"] = tail(calls)
        out["advisor.recommend_calls"] = float(len(calls))
    out.update(ref_layers)
    return out


def trace_run(wl, seed, workdir, oracle, probe):
    """One traced set-up + pass, then one untraced pass.

    The untraced pass gets a fresh set-up when the workload needs one per
    pass (``paper``); otherwise it reuses the traced set-up, whose outputs
    were just checked (training the ``advise`` store takes 20 s or more).
    The traced pass goes first: a process's second pass runs a few
    percent faster than its first, so this order overstates
    ``trace.overhead`` rather than hiding it.
    """
    from repro import obs
    from spans import SpanRecorder

    rec = SpanRecorder()
    before = obs.metrics_snapshot()
    t0 = time.perf_counter()
    state = wl.setup(seed, workdir, rec)
    traced, traced_pass, _, traced_window = timed(wl.run_traced, state, rec)
    traced_wall = time.perf_counter() - t0
    replays = obs.metrics_snapshot().diff(before).counter("sim.batch_replays")
    ref_state = wl.setup(seed, workdir) if wl.fresh_state_per_pass else state
    ref, ref_pass, _, ref_window = timed(wl.run, ref_state)
    oracle.check(state.ops + traced.ops + ref.ops)
    # The traced pass must reproduce the entry point's outputs exactly.
    ref_digests = [(op.name, op.digest) for op in ref.ops]
    if ref_digests != [(op.name, op.digest) for op in traced.ops]:
        oracle.traced_agrees = False
        oracle.fail("traced pass", "digests differ from the untraced pass")
    metrics = layer_metrics(
        rec, replays, ref.ops + traced.ops, {**state.layers, **ref.layers}
    )
    metrics["trace.coverage"] = rec.root_total() / traced_wall
    metrics["trace.overhead"] = (
        traced_pass * ref_speed(probe, traced_pass, traced_window, traced.ops)
    ) / (ref_pass * ref_speed(probe, ref_pass, ref_window, ref.ops)) - 1.0
    ops = state.ops + traced.ops + ref.ops
    raw = {
        "traced_wall_s": traced_wall,
        "traced_pass_s": traced_pass,
        "untraced_pass_s": ref_pass,
        "ops": [[op.name, op.latency_s, op.digest] for op in ops],
    }
    with open(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json"), "w") as fh:
        json.dump(rec.to_dict(), fh)
    return metrics, raw, {op.name: op.digest for op in state.ops + ref.ops}


def load_digests():
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def pin(wl, seed, workdir, probe):
    """Record the digests of one untraced and one traced pass (they must
    agree) for this workload seed."""
    oracle = Oracle(None)
    _, _, digests = trace_run(wl, seed, workdir, oracle, probe)
    if not oracle.traced_agrees:
        raise SystemExit("perfbench: traced and untraced digests differ; not pinned")
    pinned = load_digests()
    pinned.setdefault(wl.name, {})[str(seed)] = digests
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, DIGESTS)
    print(f"pinned {len(digests)} digests for {wl.name} seed {seed}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    check_source()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix="work-")
    probe = SpeedProbe(os.path.join(workdir, "probe.txt"))
    try:
        return run(args, workdir, probe)
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, probe) -> int:
    m0 = time.monotonic()
    t0 = time.perf_counter()
    workloads = load_program()
    import numpy

    imported = (time.perf_counter() - t0, (m0, time.monotonic()))
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    seed = args.seed % N_SEEDS
    if args.pin:
        pin(wl, seed, workdir, probe)
        return 0
    oracle = Oracle(load_digests().get(wl.name, {}).get(str(seed)))
    if args.trace:
        try:
            metrics, raw, _ = trace_run(wl, seed, workdir, oracle, probe)
        except Exception:
            oracle.error("trace-run")
            metrics, raw = {}, {}
        names = PER_LAYER
    else:
        try:
            metrics, raw = measure(
                wl, seed, workdir, args.seconds, oracle, probe, imported
            )
        except Exception:
            oracle.error("setup")
            metrics, raw = {}, {}
        names = END_TO_END
    oracle.finish()
    correct = oracle.failed == 0 and bool(metrics)
    for name, unit in names:
        print(f"{name:32s} {metrics.get(name, 0.0):14.6f} {unit}")
    for name, label in (("wall_s", "raw wall_s"), ("cpu_s", "raw cpu_s"),
                        ("speed", "speed factor")):
        if raw.get(name):
            print(f"{label:32s} {statistics.median(raw[name]):14.6f}")
    print(
        f"{'fail_ratio':32s} {oracle.failed / max(oracle.attempted, 1):14.6f} "
        f"({oracle.failed} of {oracle.attempted} operations)"
    )
    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "workload_seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "raw": raw,
    }
    result = {
        "correct": correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in names
        },
    }
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
