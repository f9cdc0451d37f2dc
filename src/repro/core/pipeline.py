"""Pipeline orchestrator: explore → label → featurize → train → rules.

:class:`DesignRulePipeline` wires the subsystems together exactly as the
paper's Figure 2: a program DAG defines the design space; a search
strategy explores it with empirical (simulated) benchmarking; class labels
are generated by convolution + peak detection over the sorted times;
sequences become binary feature vectors; a CART tree trained with
Algorithm 1 yields per-class rulesets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro import obs
from repro.dag.program import Program
from repro.errors import SearchError
from repro.exec import Evaluator, MeasurementCache, build_evaluator
from repro.ml.features import FeatureExtractor, FeatureMatrix, StreamingFeatureFit
from repro.ml.hyperparam import HyperparamTrace, search_tree_size
from repro.ml.labeling import LabelingConfig, LabelResult, label_by_performance
from repro.ml.metrics import range_accuracy, training_error
from repro.ml.tree import DecisionTree
from repro.platform.machine import MachineConfig
from repro.rules.extract import extract_rulesets, rulesets_by_class
from repro.rules.ruleset import RuleSet
from repro.schedule.space import DesignSpace
from repro.search.base import SearchResult
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.mcts import MctsConfig, MctsSearch
from repro.search.random_search import RandomSearch
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end configuration."""

    n_streams: int = 2
    strategy: str = "mcts"  # "mcts" | "random" | "beam" | "exhaustive"
    n_iterations: Optional[int] = None  # None => exhaust / full budget
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    tree_criterion: str = "gini"
    seed: int = 0
    #: Worker processes for schedule evaluation; <= 1 evaluates serially.
    workers: int = 0
    #: Path to a persistent measurement cache (SQLite); None disables it.
    cache_path: Optional[str] = None
    #: Schedules per evaluator batch (exhaustive / random sample blocks).
    batch_size: int = 64
    #: Leaf-parallel MCTS rollouts per batch; 1 = the paper's serial MCTS.
    rollout_batch: int = 1
    #: Enumeration block size for :meth:`DesignRulePipeline.run_streaming`;
    #: ``None`` falls back to ``batch_size``.
    block_size: Optional[int] = None


@dataclass
class PipelineResult:
    """Everything the pipeline produced."""

    search: SearchResult
    labeling: LabelResult
    extractor: FeatureExtractor
    features: FeatureMatrix
    tree: DecisionTree
    hyperparam_trace: HyperparamTrace
    rulesets: List[RuleSet]
    training_error: float

    @property
    def n_classes(self) -> int:
        return self.labeling.n_classes

    def rulesets_for_class(self, cls: int) -> List[RuleSet]:
        return rulesets_by_class(self.rulesets).get(cls, [])

    def summary(self) -> str:
        lab = self.labeling
        lines = [
            f"explored {len(self.search)} implementations "
            f"({len(self.search.unique())} unique) with "
            f"{self.search.strategy}",
            f"labeled {lab.n_classes} performance classes "
            f"(boundaries at sorted positions {lab.boundaries.tolist()})",
        ]
        for c in lab.classes:
            lines.append(
                f"  class {c.label}: {c.size} samples, "
                f"[{c.t_min * 1e6:.2f}, {c.t_max * 1e6:.2f}] us"
            )
        lines.append(
            f"tree: {self.tree.n_leaves} leaves, depth {self.tree.depth}, "
            f"training error {self.training_error:.4f}"
        )
        lines.append(f"{len(self.rulesets)} rulesets extracted")
        return "\n".join(lines)


@dataclass
class StreamingPipelineResult:
    """Output of a streaming exhaustive pipeline run.

    The labeled classes, tree, and rulesets are bit-identical to
    :meth:`DesignRulePipeline.run` with an exhaustive search — but no
    schedule list is retained: ``peak_resident`` records the largest
    number of schedules ever held at once (bounded by the enumeration
    block size), which is the whole point for six-figure spaces.
    """

    labeling: LabelResult
    extractor: FeatureExtractor
    features: FeatureMatrix
    tree: DecisionTree
    hyperparam_trace: HyperparamTrace
    rulesets: List[RuleSet]
    training_error: float
    #: Schedules enumerated / distinct schedules labeled.
    n_schedules: int = 0
    n_unique: int = 0
    n_blocks: int = 0
    #: Peak number of schedules resident in memory at any moment.
    peak_resident: int = 0
    #: Pairwise candidate features considered vs. kept: the streaming fit
    #: stores only the varying columns per chunk, so the gap between the
    #: two is memory it never spent (see
    #: :class:`~repro.ml.features.StreamingFeatureFit`).
    n_candidate_features: int = 0
    n_varying_features: int = 0

    @property
    def n_classes(self) -> int:
        return self.labeling.n_classes

    def rulesets_for_class(self, cls: int) -> List[RuleSet]:
        return rulesets_by_class(self.rulesets).get(cls, [])

    def summary(self) -> str:
        lab = self.labeling
        lines = [
            f"streamed {self.n_schedules} implementations "
            f"({self.n_unique} unique) in {self.n_blocks} blocks "
            f"(peak {self.peak_resident} resident)",
            f"features: kept {self.n_varying_features} varying of "
            f"{self.n_candidate_features} candidates",
            f"labeled {lab.n_classes} performance classes "
            f"(boundaries at sorted positions {lab.boundaries.tolist()})",
            f"tree: {self.tree.n_leaves} leaves, depth {self.tree.depth}, "
            f"training error {self.training_error:.4f}",
            f"{len(self.rulesets)} rulesets extracted",
        ]
        return "\n".join(lines)


class DesignRulePipeline:
    """Run the full system of paper Figure 2 on one program + machine."""

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        config: PipelineConfig = PipelineConfig(),
        *,
        evaluator: Optional[Evaluator] = None,
    ) -> None:
        self.program = program
        self.machine = machine
        self.config = config
        self.space = DesignSpace(program, n_streams=config.n_streams)
        self.executor = ScheduleExecutor(program, machine)
        self.benchmarker = Benchmarker(self.executor, config.measurement)
        #: When set, overrides config-driven evaluator construction (used
        #: to share one pool/memo across many pipelines, see SpmvWorkbench).
        self.evaluator = evaluator
        self._cache: Optional[MeasurementCache] = None
        self._parallel: Optional[Evaluator] = None

    # ------------------------------------------------------------------
    def _measurement_cache(self) -> Optional[MeasurementCache]:
        if self.config.cache_path is None:
            return None
        if self._cache is None:
            self._cache = MeasurementCache(self.config.cache_path)
        return self._cache

    def make_evaluator(self) -> Evaluator:
        """Evaluation backend per the config: serial below 2 workers,
        a shared process pool otherwise; both honoring ``cache_path``.
        An explicitly injected ``evaluator`` wins over the config."""
        cfg = self.config
        if self.evaluator is not None:
            return self.evaluator
        if cfg.workers > 1:
            if self._parallel is None:
                self._parallel = build_evaluator(
                    self.program,
                    self.machine,
                    cfg.measurement,
                    workers=cfg.workers,
                    cache=self._measurement_cache(),
                )
            return self._parallel
        # Serial wraps the *current* benchmarker so callers may swap in a
        # pre-warmed one (see SpmvWorkbench.pipeline).
        return build_evaluator(
            self.program,
            self.machine,
            cfg.measurement,
            benchmarker=self.benchmarker,
            cache=self._measurement_cache(),
        )

    def make_strategy(self):
        cfg = self.config
        evaluator = self.make_evaluator()
        if cfg.strategy == "mcts":
            return MctsSearch(
                self.space,
                evaluator,
                MctsConfig(
                    seed=cfg.seed, rollout_batch=cfg.rollout_batch
                ),
            )
        if cfg.strategy == "random":
            return RandomSearch(
                self.space,
                evaluator,
                seed=cfg.seed,
                batch_size=cfg.batch_size,
            )
        if cfg.strategy == "beam":
            from repro.search.beam import BeamSearch

            return BeamSearch(self.space, evaluator, seed=cfg.seed)
        if cfg.strategy == "exhaustive":
            return ExhaustiveSearch(
                self.space, evaluator, batch_size=cfg.batch_size
            )
        raise SearchError(f"unknown strategy {cfg.strategy!r}")

    def close(self) -> None:
        """Release evaluation resources (worker pool, cache connection)."""
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None
        if self._cache is not None:
            self._cache.close()
            self._cache = None

    def explore(self) -> SearchResult:
        strategy = self.make_strategy()
        n = self.config.n_iterations
        if n is None:
            if self.config.strategy == "exhaustive":
                return strategy.run(None)
            n = self.space.count()
        return strategy.run(n)

    # ------------------------------------------------------------------
    def run(self, search_result: Optional[SearchResult] = None) -> PipelineResult:
        """Execute the pipeline; optionally reuse an existing search."""
        search = search_result if search_result is not None else self.explore()
        unique = search.unique()
        if not unique.samples:
            raise SearchError("search produced no samples")
        labeling = label_by_performance(unique.times(), self.config.labeling)
        extractor = FeatureExtractor()
        features = extractor.fit_transform(unique.schedules())
        tree, trace = search_tree_size(
            features.matrix,
            labeling.labels,
            criterion=self.config.tree_criterion,
        )
        err = training_error(tree, features.matrix, labeling.labels)
        rulesets = extract_rulesets(tree, features.features)
        return PipelineResult(
            search=unique,
            labeling=labeling,
            extractor=extractor,
            features=features,
            tree=tree,
            hyperparam_trace=trace,
            rulesets=rulesets,
            training_error=err,
        )

    # ------------------------------------------------------------------
    def run_streaming(
        self, block_size: Optional[int] = None
    ) -> StreamingPipelineResult:
        """Exhaustive pipeline with bounded schedule residency.

        Enumerates the design space in blocks
        (:meth:`~repro.schedule.space.DesignSpace.iter_blocks`), feeds
        each block through the evaluator, and folds it into the running
        time list and feature matrix immediately — at no point are more
        than one block of schedules alive.  Labels, tree, and rules are
        bit-identical to the materializing :meth:`run` with an
        exhaustive search (duplicate schedules, were a space to produce
        any, are dropped exactly like ``SearchResult.unique``).
        """
        cfg = self.config
        if cfg.strategy != "exhaustive":
            raise SearchError(
                "run_streaming requires the exhaustive strategy; "
                f"config says {cfg.strategy!r}"
            )
        size = block_size or cfg.block_size or cfg.batch_size
        evaluator = self.make_evaluator()
        fit = StreamingFeatureFit(self.space.all_op_names())
        times: List[float] = []
        seen: Set[str] = set()
        n_schedules = 0
        n_blocks = 0
        peak = 0
        with obs.stage("enumerate+evaluate", block_size=size):
            # tee shares block objects (one reference of skew, no copies),
            # so the evaluator's block stream and this loop stay in
            # lockstep with exactly one block resident.
            blocks, to_measure = itertools.tee(self.space.iter_blocks(size))
            measured = evaluator.evaluate_blocks(
                b.schedules for b in to_measure
            )
            for block, measurements in zip(blocks, measured):
                n_blocks += 1
                n_schedules += len(block.schedules)
                peak = max(peak, len(block.schedules))
                fresh: List = []
                for schedule, m in zip(block.schedules, measurements):
                    fp = schedule.fingerprint()
                    if fp in seen:
                        continue
                    seen.add(fp)
                    fresh.append(schedule)
                    times.append(m.time)
                fit.add_block(fresh)
        if not times:
            raise SearchError("streaming enumeration produced no schedules")
        with obs.stage("label"):
            labeling = label_by_performance(np.array(times), cfg.labeling)
        with obs.stage("train"):
            extractor, features = fit.finish()
            tree, trace = search_tree_size(
                features.matrix, labeling.labels, criterion=cfg.tree_criterion
            )
            err = training_error(tree, features.matrix, labeling.labels)
        with obs.stage("extract-rules"):
            rulesets = extract_rulesets(tree, features.features)
        return StreamingPipelineResult(
            labeling=labeling,
            extractor=extractor,
            features=features,
            tree=tree,
            hyperparam_trace=trace,
            rulesets=rulesets,
            training_error=err,
            n_schedules=n_schedules,
            n_unique=len(seen),
            n_blocks=n_blocks,
            peak_resident=peak,
            n_candidate_features=fit.n_candidates,
            n_varying_features=fit.n_varying,
        )

    # ------------------------------------------------------------------
    def generalization_accuracy(
        self, result: PipelineResult, full_search: SearchResult
    ) -> float:
        """Table V metric: classify the *full* space with ``result``'s tree
        and labels, scoring times against the labeled class ranges."""
        full = full_search.unique()
        x_all = result.extractor.transform(full.schedules()).matrix
        return range_accuracy(
            result.tree, x_all, full.times(), result.labeling.classes
        )
