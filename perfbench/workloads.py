"""The benchmark's three workloads, each runnable untraced or traced.

Every workload offers three calls:

``setup(seed, workdir, recorder)``
    Imports are already done; this builds programs, spaces and (for
    ``paper``) a fresh workbench, and for ``advise`` trains the artifact
    store.  Timed as ``setup_s``.
``run(state)``
    One untraced pass through the public entry points the CLI uses.
``run_traced(state, recorder)``
    The same work, driven layer by layer by the benchmark: it calls the
    functions the entry point calls, in the same order, each inside a
    benchmark-side span.  Outputs must equal the untraced pass's.

A pass returns :class:`Op` records: one per operation (plan task, suite
reduce, paper experiment, ``recommend`` call, guided search), each with
a digest of its output that is checked against the pinned digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.advisor import ArtifactStore, ScheduleGuide, publish_artifacts, recommend
from repro.apps.spmv import SpmvCase
from repro.core.pipeline import DesignRulePipeline, PipelineConfig, PipelineResult
from repro.exec import build_evaluator
from repro.experiments import (
    SpmvWorkbench,
    run_exploitation_ablation,
    run_fig1,
    run_fig4,
    run_fig5,
    run_fig6,
    run_mcts_vs_random,
    run_noise_sensitivity,
    run_rule_tables,
    run_table5,
)
from repro.ml.features import FeatureExtractor
from repro.ml.hyperparam import search_tree_size
from repro.ml.labeling import label_by_performance
from repro.ml.metrics import training_error
from repro.orchestrate import (
    TASK_SUITE_CELLS,
    WorkloadTask,
    plan_rules,
    plan_suite,
)
from repro.orchestrate.runner import make_strategy
from repro.platform.machine import MachineConfig
from repro.platform.presets import perlmutter_like
from repro.rules.extract import extract_rulesets
from repro.schedule.space import DesignSpace
from repro.search.exhaustive import ExhaustiveSearch
from repro.sim.measure import MeasurementConfig
from repro.transfer.matrix import transfer_matrix_from
from repro.workloads import (
    SuiteCell,
    SuiteReport,
    SuiteRunner,
    WorkloadRules,
    WorkloadSpec,
    build_workload,
    get_suite,
    reduce_workload_rules,
    run_rules_plan,
    score_cross_workload,
)

from spans import NULL, SpanRecorder, TracedEvaluator


@dataclass
class Op:
    """One operation of a pass: its name, output digest and latency."""

    name: str
    digest: str
    latency_s: float
    #: ``time.monotonic`` at the start, when the benchmark timed the op
    #: itself (ops read from a report's timing have none).
    start: Optional[float] = None


@dataclass
class PassResult:
    ops: List[Op]
    #: Per-layer values the untraced entry point reports about itself.
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class State:
    """What ``setup`` built for one pass."""

    seed: int
    workdir: str
    data: Dict[str, object] = field(default_factory=dict)
    #: Set-up operations (the ``advise`` store) and their layer values.
    ops: List[Op] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def digest(*parts: object) -> str:
    """Short stable hash of JSON-able parts; floats keep every digit."""
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode()
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()[:16]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ----------------------------------------------------------------------
# Layer-by-layer replicas of the orchestrate task executors.
def _build(spec: WorkloadSpec, n_streams: int, rec: SpanRecorder):
    with rec.span("workloads.build"):
        program = build_workload(spec)
        space = DesignSpace(program, n_streams=n_streams)
    return program, space


def _evaluator(program, machine: MachineConfig, measurement, rec: SpanRecorder):
    """``build_evaluator`` as the task executors call it; wrapped in a
    :class:`TracedEvaluator` unless the pass is untraced."""
    with rec.span("sim.compile"):
        inner = build_evaluator(
            program, machine.with_ranks(program.n_ranks), measurement, workers=0
        )
    return inner if rec is NULL else TracedEvaluator(inner, rec)


def traced_cells_task(
    task: WorkloadTask, machine: MachineConfig, rec: SpanRecorder
) -> List[SuiteCell]:
    """A ``suite-cells`` task: every strategy over one shared evaluator."""
    program, space = _build(task.spec, task.n_streams, rec)
    evaluator = _evaluator(program, machine, task.measurement, rec)
    cells = []
    try:
        for name in task.strategies:
            sims_before = evaluator.n_simulations
            strategy = make_strategy(name, space, evaluator, task.seed)
            t0 = time.perf_counter()
            with rec.span("search.run"):
                result = strategy.run(task.n_iterations)
            wall = time.perf_counter() - t0
            rec.note_search(result)
            times = result.times()
            cells.append(
                SuiteCell(
                    workload=task.spec.label,
                    family=task.spec.family,
                    strategy=name,
                    n_ops=len(space.program_ops),
                    n_iterations=result.n_iterations,
                    n_unique=len(result.unique()),
                    n_simulations=evaluator.n_simulations - sims_before,
                    best_time=float(times.min()),
                    mean_time=float(times.mean()),
                    wall_s=wall,
                )
            )
    finally:
        evaluator.close()
    return cells


def traced_rules_task(
    task: WorkloadTask, machine: MachineConfig, rec: SpanRecorder
) -> WorkloadRules:
    """A ``workload-rules`` task: the exhaustive pipeline, stage by stage."""
    program, _ = _build(task.spec, task.n_streams, rec)
    evaluator = _evaluator(program, machine, task.measurement, rec)
    kwargs = {}
    if task.block_size is not None:
        kwargs = {"batch_size": task.block_size, "block_size": task.block_size}
    pipe = DesignRulePipeline(
        program,
        machine.with_ranks(program.n_ranks),
        PipelineConfig(
            n_streams=task.n_streams,
            strategy="exhaustive",
            measurement=task.measurement,
            **kwargs,
        ),
        evaluator=evaluator,
    )
    cfg = pipe.config
    try:
        strategy = pipe.make_strategy()
        with rec.span("search.run"):
            search = strategy.run(None)
        rec.note_search(search)
    finally:
        evaluator.close()
    unique = search.unique()
    with rec.span("ml.label"):
        labeling = label_by_performance(unique.times(), cfg.labeling)
    with rec.span("ml.features"):
        extractor = FeatureExtractor()
        features = extractor.fit_transform(unique.schedules())
    with rec.span("ml.train"):
        tree, trace = search_tree_size(
            features.matrix, labeling.labels, criterion=cfg.tree_criterion
        )
    rec.add("ml.train_sizes", len(trace.leaf_nodes))
    rec.add("ml.tree_leaves", tree.n_leaves)
    with rec.span("ml.error"):
        err = training_error(tree, features.matrix, labeling.labels)
    with rec.span("rules.extract"):
        rulesets = extract_rulesets(tree, features.features)
        result = PipelineResult(
            search=unique,
            labeling=labeling,
            extractor=extractor,
            features=features,
            tree=tree,
            hyperparam_trace=trace,
            rulesets=rulesets,
            training_error=err,
        )
        return reduce_workload_rules(task.spec, program, result)


def _sim_metrics(delta) -> Dict[str, object]:
    """The ``metrics`` block ``SuiteRunner.run`` builds from its delta."""
    return {
        "cache": {
            "hits": int(delta.counter("cache.hits")),
            "misses": int(delta.counter("cache.misses")),
            "lock_retries": int(delta.counter("cache.lock_retries")),
        },
        "sim": {
            "backend": "auto",
            "batch_replays": int(delta.counter("sim.batch_replays")),
            "fallbacks": int(delta.counter("sim.fallbacks")),
            "compiled_contexts": int(delta.counter("sim.compiled_contexts")),
        },
    }


def traced_plan(plan, rec: SpanRecorder):
    """Run a plan's tasks in order, each in a root ``orchestrate.task``
    span.  Returns (cells, per-workload rules, task timing, plan wall,
    metrics block)."""
    cells: List[SuiteCell] = []
    per_workload: List[WorkloadRules] = []
    tasks = []
    before = obs.metrics_snapshot()
    t_plan = time.perf_counter()
    for task in plan.tasks:
        t0 = time.perf_counter()
        with rec.span("orchestrate.task"):
            if task.kind == TASK_SUITE_CELLS:
                cells += traced_cells_task(task, plan.machine, rec)
            else:
                per_workload.append(traced_rules_task(task, plan.machine, rec))
        tasks.append(
            {"label": task.label, "kind": task.kind, "wall_s": time.perf_counter() - t0}
        )
    plan_wall = time.perf_counter() - t_plan
    delta = obs.metrics_snapshot().diff(before)
    return cells, per_workload, tasks, plan_wall, _sim_metrics(delta)


def _advisories(matrix):
    return [(c.source, c.target, c.mean_discrimination) for c in matrix.advisories()]


# ----------------------------------------------------------------------
def suite_ops(report: SuiteReport, run_wall: float) -> List[Op]:
    """One op per plan task plus the reduce tail, digested from a report.

    ``suite-cells`` tasks digest their cells (without wall time);
    ``workload-rules`` tasks digest the workload artifact they published;
    the reduce op digests the report without timing or cells, plus the
    union artifact.
    """
    tasks = report.timing["tasks"]
    rules_labels = [t["label"] for t in tasks if t["kind"] != TASK_SUITE_CELLS]
    artifacts = dict(zip(rules_labels, report.published))
    ops = []
    for t in tasks:
        if t["kind"] == TASK_SUITE_CELLS:
            out = [
                {k: v for k, v in c.to_dict().items() if k != "wall_s"}
                for c in report.cells
                if c.workload == t["label"]
            ]
        else:
            out = _read(artifacts[t["label"]])
        ops.append(Op(f"{t['kind']}:{t['label']}", digest(out), t["wall_s"]))
    rest = report.to_dict()
    for key in ("timing", "cells", "published"):
        rest.pop(key)
    extra = [_read(p) for p in report.published[len(rules_labels):]]
    published = [os.path.basename(p) for p in report.published]
    ops.append(
        Op(
            "reduce",
            digest(rest, published, *extra),
            run_wall - float(report.timing["wall_s"]),
        )
    )
    return ops


def _suite_layers(report: SuiteReport, run_wall: float) -> Dict[str, float]:
    plan = float(report.timing["wall_s"])
    return {"orchestrate.plan_s": plan, "orchestrate.reduce_s": run_wall - plan}


# ----------------------------------------------------------------------
class Generalization:
    """``repro suite generalization``: training-heavy (Algorithm 1,
    transfer matrix, union trees, publish) over exhaustive sweeps that
    mostly run on the reference engine."""

    name = "generalization"
    #: Every pass builds its own store, so one set-up serves them all.
    fresh_state_per_pass = False
    setup_repeats = 3

    def setup(self, seed, workdir, rec: SpanRecorder = NULL) -> State:
        suite = get_suite("generalization")
        for spec in suite.specs:
            _, space = _build(spec, suite.n_streams, rec)
            space.count()
        return State(seed=seed, workdir=workdir)

    def run(self, state: State) -> PassResult:
        store = tempfile.mkdtemp(dir=state.workdir)
        t0 = time.perf_counter()
        report = SuiteRunner(
            get_suite("generalization"), seed=state.seed, store_path=store
        ).run()
        wall = time.perf_counter() - t0
        return PassResult(suite_ops(report, wall), _suite_layers(report, wall))

    def run_traced(self, state: State, rec: SpanRecorder) -> PassResult:
        suite = get_suite("generalization")
        machine = perlmutter_like()
        store = tempfile.mkdtemp(dir=state.workdir)
        t0 = time.perf_counter()
        plan = plan_suite(suite, machine=machine, seed=state.seed)
        cells, per_workload, tasks, plan_wall, metrics = traced_plan(plan, rec)
        report = SuiteReport(
            suite=suite.name,
            machine=machine.name,
            cells=cells,
            timing={"wall_s": plan_wall, "tasks": tasks},
            metrics=metrics,
        )
        with rec.span("rules.score"):
            report.rules_table = score_cross_workload(per_workload).rows()
        with rec.span("transfer.matrix"):
            matrix = transfer_matrix_from(per_workload)
        rec.add("transfer.union_rows", len(matrix.union_rows))
        report.transfer_table = matrix.rows()
        report.union_table = [u.to_dict() for u in matrix.union_rows]
        report.union_note = matrix.union_note
        with rec.span("advisor.publish"):
            report.published = publish_artifacts(
                ArtifactStore(store),
                per_workload,
                machine=machine.name,
                n_streams=suite.n_streams,
                advisories=_advisories(matrix),
            )
        return PassResult(suite_ops(report, time.perf_counter() - t0))


# ----------------------------------------------------------------------
def _experiment_digest(result) -> str:
    parts = [result.report()]
    if hasattr(result, "sorted_times"):  # Fig. 1: the whole sorted curve
        parts.append(result.sorted_times.tolist())
    if hasattr(result, "trace"):  # Fig. 5: the full HyperparamTrace
        parts.append(result.trace.rows())
    return digest(*parts)


#: The paper experiments in ``repro all`` order, at their CLI defaults.
EXPERIMENTS = (
    ("fig1", run_fig1),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("table5", run_table5),
    ("rules", run_rule_tables),
    ("ablation_random", run_mcts_vs_random),
    ("ablation_exploit", run_exploitation_ablation),
    ("ablation_noise", run_noise_sensitivity),
)


class TracedWorkbench(SpmvWorkbench):
    """A workbench whose shared evaluator is wrapped in a TracedEvaluator
    (the experiments reach simulation only through ``wb.evaluator``)."""

    recorder: Optional[SpanRecorder] = None
    _traced: Optional[TracedEvaluator] = None

    @property
    def evaluator(self):
        inner = SpmvWorkbench.evaluator.fget(self)
        if self._traced is None or self._traced.inner is not inner:
            self._traced = TracedEvaluator(inner, self.recorder)
        return self._traced


class Paper:
    """The paper's experiments on the 150k-row SpMV, then ``repro suite
    paper``: simulation-heavy, with MCTS and beam on huge spaces."""

    name = "paper"
    #: ``default_workbench`` is memoized; a pass on a used workbench
    #: would find every measurement already in its memo.
    fresh_state_per_pass = True
    setup_repeats = 3

    def setup(self, seed, workdir, rec: SpanRecorder = NULL) -> State:
        traced = rec is not NULL
        cls = TracedWorkbench if traced else SpmvWorkbench
        with rec.span("workloads.build"):
            wb = cls(case=SpmvCase(), machine=perlmutter_like(noise_sigma=0.01))
            wb.space.count()
        if traced:
            wb.recorder = rec
        with rec.span("sim.compile"):
            wb.evaluator
        return State(seed=seed, workdir=workdir, data={"wb": wb})

    def _experiments(self, wb, rec: SpanRecorder) -> List[Op]:
        ops = []
        for name, experiment in EXPERIMENTS:
            t0 = time.monotonic()
            with rec.span(f"experiments.{name}"):
                result = experiment(wb)
            wall = time.monotonic() - t0
            ops.append(Op(f"experiment:{name}", _experiment_digest(result), wall, t0))
        return ops

    def run(self, state: State) -> PassResult:
        wb = state.data["wb"]
        try:
            ops = self._experiments(wb, NULL)
        finally:
            wb.close()
        t0 = time.perf_counter()
        report = SuiteRunner(get_suite("paper"), seed=state.seed).run()
        wall = time.perf_counter() - t0
        return PassResult(ops + suite_ops(report, wall), _suite_layers(report, wall))

    def run_traced(self, state: State, rec: SpanRecorder) -> PassResult:
        wb = state.data["wb"]
        try:
            ops = self._experiments(wb, rec)
        finally:
            wb.close()
        suite = get_suite("paper")
        machine = perlmutter_like()
        t0 = time.perf_counter()
        plan = plan_suite(suite, machine=machine, seed=state.seed)
        cells, _, tasks, plan_wall, metrics = traced_plan(plan, rec)
        report = SuiteReport(
            suite=suite.name,
            machine=machine.name,
            cells=cells,
            timing={"wall_s": plan_wall, "tasks": tasks},
            metrics=metrics,
        )
        return PassResult(ops + suite_ops(report, time.perf_counter() - t0))


# ----------------------------------------------------------------------
#: Held-out ``recommend`` targets: ``repro advise --smoke``'s default,
#: then specs the smoke suite never trains on.  halo3d x is the guided
#: search target too (1600 schedules, just over the candidate cap).
ADVISE_TARGETS = (
    WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.7}, seed=5),
    WorkloadSpec("spmv", {"scale": 0.05}),
    WorkloadSpec("wavefront", {"width": 3, "height": 2}),
    WorkloadSpec(
        "halo3d", {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "xy"}
    ),
    WorkloadSpec(
        "halo3d", {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"}
    ),
)
GUIDED_TARGET = ADVISE_TARGETS[-1]
N_STREAMS = 2


def _store_digest(root: str) -> str:
    names = sorted(os.listdir(root))
    return digest(names, *[_read(os.path.join(root, n)) for n in names])


def _guided_digest(result, space_count: int) -> str:
    samples = [(s.schedule.fingerprint(), s.time) for s in result.samples]
    counts = [result.n_iterations, result.n_pruned, result.n_subtrees_cut, space_count]
    return digest(samples, counts)


class Advise:
    """The advisor's read path: ``recommend`` on held-out programs and a
    guided branch-and-bound search, against a store trained in set-up."""

    name = "advise"
    fresh_state_per_pass = False
    #: Set-up trains the store (about 20 s); once per run.
    setup_repeats = 1

    def setup(self, seed, workdir, rec: SpanRecorder = NULL) -> State:
        suite = get_suite("smoke")
        machine = perlmutter_like()
        measurement = MeasurementConfig(max_samples=1)  # as ``--smoke`` trains
        store = tempfile.mkdtemp(dir=workdir)
        t0 = time.perf_counter()
        layers: Dict[str, float] = {}
        if rec is NULL:
            per_workload, plan_run = run_rules_plan(
                suite.specs,
                machine=machine,
                n_streams=suite.n_streams,
                measurement=measurement,
            )
            t1 = time.perf_counter()
            publish_artifacts(
                ArtifactStore(store),
                per_workload,
                machine=machine.name,
                n_streams=suite.n_streams,
            )
            layers = {
                "orchestrate.plan_s": plan_run.wall_s,
                "orchestrate.reduce_s": time.perf_counter() - t1,
            }
        else:
            plan = plan_rules(
                suite.specs,
                machine=machine,
                n_streams=suite.n_streams,
                measurement=measurement,
            )
            _, per_workload, _, plan_wall, _ = traced_plan(plan, rec)
            t1 = time.perf_counter()
            with rec.span("transfer.matrix"):
                matrix = transfer_matrix_from(per_workload)
            rec.add("transfer.union_rows", len(matrix.union_rows))
            with rec.span("advisor.publish"):
                publish_artifacts(
                    ArtifactStore(store),
                    per_workload,
                    machine=machine.name,
                    n_streams=suite.n_streams,
                    advisories=_advisories(matrix),
                )
            layers = {
                "orchestrate.plan_s": plan_wall,
                "orchestrate.reduce_s": time.perf_counter() - t1,
            }
        train_wall = time.perf_counter() - t0
        targets = []
        for spec in ADVISE_TARGETS:
            program, space = _build(spec, N_STREAMS, rec)
            targets.append((spec, program, space, space.count()))
        return State(
            seed=seed,
            workdir=workdir,
            data={"store": store, "machine": machine, "targets": targets},
            ops=[Op("store", _store_digest(store), train_wall)],
            layers=layers,
        )

    def _pass(self, state: State, rec: SpanRecorder) -> PassResult:
        store = ArtifactStore(state.data["store"])
        machine = state.data["machine"]
        ops = []
        for spec, program, _, _ in state.data["targets"]:
            t0 = time.monotonic()
            with rec.span("advisor.recommend"):
                advice = recommend(
                    program,
                    store,
                    machine=machine.name,
                    n_streams=N_STREAMS,
                    seed=state.seed,
                )
            wall = time.monotonic() - t0
            rec.add("advisor.candidates", advice.n_candidates)
            ops.append(
                Op(f"recommend:{spec.label}", digest(advice.to_dict()), wall, t0)
            )
        spec, program, space, count = next(
            t for t in state.data["targets"] if t[0] == GUIDED_TARGET
        )
        t0 = time.monotonic()
        with rec.span("advisor.guide"):
            guide = ScheduleGuide.from_store(store, program, machine=machine.name)
        evaluator = _evaluator(program, machine, MeasurementConfig(), rec)
        try:
            with rec.span("search.run"):
                result = ExhaustiveSearch(space, evaluator, guide=guide).run()
        finally:
            evaluator.close()
        wall = time.monotonic() - t0
        rec.note_search(result)
        rec.add("search.guided_evaluated", result.n_iterations)
        rec.add("search.guided_space", count)
        ops.append(
            Op(f"guided:{spec.label}", _guided_digest(result, count), wall, t0)
        )
        return PassResult(ops)

    def run(self, state: State) -> PassResult:
        return self._pass(state, NULL)

    def run_traced(self, state: State, rec: SpanRecorder) -> PassResult:
        return self._pass(state, rec)


WORKLOADS = {w.name: w for w in (Generalization(), Paper(), Advise())}
