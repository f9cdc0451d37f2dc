"""Pipeline orchestrator: explore → label → featurize → train → rules.

:class:`DesignRulePipeline` wires the subsystems together exactly as the
paper's Figure 2: a program DAG defines the design space; a search
strategy explores it with empirical (simulated) benchmarking; class labels
are generated by convolution + peak detection over the sorted times;
sequences become binary feature vectors; a CART tree trained with
Algorithm 1 yields per-class rulesets.

Strategies measure through one :class:`~repro.exec.Evaluator`: the one
the caller injects (built with :func:`repro.exec.build_evaluator`, say
over a measurement cache, and closed by that caller), or else a serial
one over the pipeline's own benchmarker, which holds nothing to close.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import obs
from repro.dag.program import Program
from repro.errors import SearchError
from repro.exec import Evaluator, SerialEvaluator
from repro.ml.features import FeatureExtractor, FeatureMatrix, KeySpans
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
    #: Schedules per evaluator batch (exhaustive / random sample blocks).
    batch_size: int = 64
    #: Enumeration block size of the exhaustive strategy; ``None`` falls
    #: back to ``batch_size``.
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


@dataclass(frozen=True)
class FullSpace:
    """A whole design space as the Table V metric reads it: each unique
    schedule's measured time and the set's spans keyed by op name
    (:meth:`FeatureExtractor.spans`), scanned once however many trees
    classify it."""

    times: np.ndarray
    spans: KeySpans

    @classmethod
    def of(cls, search: SearchResult) -> "FullSpace":
        unique = search.unique()
        return cls(unique.times(), FeatureExtractor.spans(unique.schedules()))


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
        #: When set, every strategy measures through this evaluator (used
        #: to share one memo across many pipelines, see SpmvWorkbench);
        #: it stays owned, and closed, by its caller.
        self.evaluator = evaluator

    # The space and the measurement stack are built on first use, so a
    # caller that assigns its own (SpmvWorkbench.pipeline) builds none.
    @functools.cached_property
    def space(self) -> DesignSpace:
        return DesignSpace(self.program, n_streams=self.config.n_streams)

    @functools.cached_property
    def executor(self) -> ScheduleExecutor:
        return ScheduleExecutor(self.program, self.machine)

    @functools.cached_property
    def benchmarker(self) -> Benchmarker:
        return Benchmarker(self.executor, self.config.measurement)

    # ------------------------------------------------------------------
    def make_evaluator(self) -> Evaluator:
        """The injected ``evaluator``, or else a serial one over the
        *current* benchmarker (callers may swap in a pre-warmed one, see
        SpmvWorkbench.pipeline)."""
        if self.evaluator is not None:
            return self.evaluator
        return SerialEvaluator(self.benchmarker)

    def make_strategy(self):
        cfg = self.config
        evaluator = self.make_evaluator()
        if cfg.strategy == "mcts":
            return MctsSearch(self.space, evaluator, MctsConfig(seed=cfg.seed))
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
            block = cfg.batch_size if cfg.block_size is None else cfg.block_size
            return ExhaustiveSearch(self.space, evaluator, batch_size=block)
        raise SearchError(f"unknown strategy {cfg.strategy!r}")

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
        """Execute the pipeline; optionally reuse an existing search.

        Each stage after the search runs in its own span: ``ml.label``,
        ``ml.features``, ``ml.train``, ``ml.error`` and ``rules.extract``.
        """
        search = search_result if search_result is not None else self.explore()
        unique = search.unique()
        if not unique.samples:
            raise SearchError("search produced no samples")
        with obs.span("ml.label"):
            labeling = label_by_performance(unique.times(), self.config.labeling)
        with obs.span("ml.features"):
            extractor = FeatureExtractor()
            features = extractor.fit_transform(unique.schedules())
        with obs.span("ml.train"):
            tree, trace = search_tree_size(
                features.matrix,
                labeling.labels,
                criterion=self.config.tree_criterion,
            )
        with obs.span("ml.error"):
            err = training_error(tree, features.matrix, labeling.labels)
        with obs.span("rules.extract"):
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
    def generalization_accuracy(
        self, result: PipelineResult, full: FullSpace
    ) -> float:
        """Table V metric: classify the *full* space with ``result``'s tree
        and labels, scoring times against the labeled class ranges."""
        x_all = result.extractor.transform_spans(full.spans).matrix
        return range_accuracy(
            result.tree, x_all, full.times, result.labeling.classes
        )
