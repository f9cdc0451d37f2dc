"""Shared experiment workbench: the paper's SpMV setup, benchmarked once.

All figure/table experiments operate on the same exhaustively-benchmarked
SpMV design space (the paper's "2036 implementations"; 540 here, see
:mod:`repro.apps.spmv.dag`).  The workbench builds and caches that data,
so its experiments pay the exhaustive sweep once and scan the swept space
once for every Table V score (:meth:`SpmvWorkbench.full_space`).  They
pay each search once too: the workbench keeps every Table V cell, a
search at one budget with its pipeline and score
(:meth:`SpmvWorkbench.cell`), and grows one MCTS per variant and seed
across budgets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.spmv import SpmvCase, SpmvInstance, build_spmv_program
from repro.core.pipeline import (
    DesignRulePipeline,
    FullSpace,
    PipelineConfig,
    PipelineResult,
)
from repro.exec import Evaluator, ExecConfig, build_evaluator
from repro.ml.labeling import LabelingConfig
from repro.platform.machine import MachineConfig
from repro.platform.presets import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.search.base import SearchResult, SearchSample
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.mcts import MctsConfig, MctsSearch, PlainUctMcts
from repro.search.random_search import RandomSearch
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig

#: The searches one tree per seed extends across budgets: the paper's
#: MCTS and the exploitation ablation's plain UCT, by strategy name.
MCTS_VARIANTS = {cls.name: cls for cls in (MctsSearch, PlainUctMcts)}


@dataclass(frozen=True)
class TableCell:
    """One Table V cell: the pipeline trained on a search's samples and
    its accuracy over the full space."""

    result: PipelineResult
    accuracy: float


@dataclass
class SpmvWorkbench:
    """One SpMV case + machine, with cached exhaustive results."""

    case: SpmvCase
    machine: MachineConfig
    measurement: MeasurementConfig = field(
        default_factory=lambda: MeasurementConfig(max_samples=3)
    )
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    n_streams: int = 2
    #: Measurement cache of the shared evaluator (the bench runs no plan,
    #: and its sweeps keep their default block).
    execution: ExecConfig = ExecConfig()
    _instance: Optional[SpmvInstance] = None
    _space: Optional[DesignSpace] = None
    _benchmarker: Optional[Benchmarker] = None
    _evaluator: Optional[Evaluator] = None
    _full: Optional[SearchResult] = None
    _full_space: Optional[FullSpace] = None
    _full_pipeline: Optional[PipelineResult] = None
    _cells: Dict[Tuple[str, int, int], TableCell] = field(default_factory=dict)
    #: (strategy, seed) -> the live MCTS and every sample it has taken.
    _trees: Dict[Tuple[str, int], Tuple[MctsSearch, List[SearchSample]]] = (
        field(default_factory=dict)
    )

    # ------------------------------------------------------------------
    @property
    def instance(self) -> SpmvInstance:
        if self._instance is None:
            self._instance = build_spmv_program(self.case)
        return self._instance

    @property
    def space(self) -> DesignSpace:
        if self._space is None:
            self._space = DesignSpace(
                self.instance.program, n_streams=self.n_streams
            )
        return self._space

    @property
    def benchmarker(self) -> Benchmarker:
        if self._benchmarker is None:
            executor = ScheduleExecutor(self.instance.program, self.machine)
            self._benchmarker = Benchmarker(executor, self.measurement)
        return self._benchmarker

    @property
    def evaluator(self) -> Evaluator:
        """The shared evaluation backend: every experiment on this bench
        (exhaustive sweep, searches, pipelines) measures through one memo,
        with ``execution``'s cache."""
        if self._evaluator is None:
            self._evaluator = build_evaluator(
                self.instance.program,
                self.machine,
                self.measurement,
                cache_path=self.execution.cache_path,
                benchmarker=self.benchmarker,
            )
        return self._evaluator

    def close(self) -> None:
        """Release the evaluation backend (its cache connection)."""
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None

    # ------------------------------------------------------------------
    def full_search(self) -> SearchResult:
        """Exhaustive benchmark of the whole space (cached)."""
        if self._full is None:
            self._full = ExhaustiveSearch(self.space, self.evaluator).run()
        return self._full

    def full_space(self) -> FullSpace:
        """The exhaustive benchmark as Table V scores it (cached)."""
        if self._full_space is None:
            self._full_space = FullSpace.of(self.full_search())
        return self._full_space

    def full_pipeline(self) -> PipelineResult:
        """Canonical pipeline result from the exhaustive search (cached)."""
        if self._full_pipeline is None:
            pipe = self.pipeline(strategy="exhaustive")
            self._full_pipeline = pipe.run(self.full_search())
        return self._full_pipeline

    def pipeline(self, strategy: str = "mcts", seed: int = 0) -> DesignRulePipeline:
        pipe = DesignRulePipeline(
            self.instance.program,
            self.machine,
            PipelineConfig(
                n_streams=self.n_streams,
                strategy=strategy,
                measurement=self.measurement,
                labeling=self.labeling,
                seed=seed,
            ),
            evaluator=self.evaluator,
        )
        # Share the benchmark cache and the space's state graph across
        # all experiments on this bench.
        pipe.benchmarker = self.benchmarker
        pipe.space = self.space
        return pipe

    def cell(self, strategy: str, seed: int, budget: int) -> TableCell:
        """The Table V cell of a ``strategy`` search with ``seed`` at
        ``budget`` iterations (cached).  A budget at or above the space's
        count is the exhaustive sweep's cell (:meth:`full_pipeline`), as
        the paper's full column is.

        MCTS cells of one variant and seed share one tree, run on to the
        largest budget asked for (see :meth:`MctsSearch.run`); a cell
        takes that search's first ``budget`` samples, which are a fresh
        ``run(budget)``'s.
        """
        if budget < 1:
            raise ValueError(f"a search budget must be at least 1, got {budget}")
        n_space = self.space.count()
        full = budget >= n_space
        key = ("exhaustive", 0, n_space) if full else (strategy, seed, budget)
        cell = self._cells.get(key)
        if cell is None:
            pipe = self.pipeline(strategy=strategy, seed=seed)
            if full:
                result = self.full_pipeline()
            else:
                result = pipe.run(self._search(pipe, budget))
            accuracy = pipe.generalization_accuracy(result, self.full_space())
            cell = self._cells[key] = TableCell(result, accuracy)
        return cell

    def _search(self, pipe: DesignRulePipeline, budget: int) -> SearchResult:
        strategy, seed = pipe.config.strategy, pipe.config.seed
        variant = MCTS_VARIANTS.get(strategy)
        if variant is None:
            return pipe.make_strategy().run(budget)
        tree = self._trees.get((strategy, seed))
        if tree is None:
            search = variant(self.space, self.evaluator, MctsConfig(seed=seed))
            tree = self._trees[strategy, seed] = (search, [])
        search, samples = tree
        n_simulations = 0
        if len(samples) < budget:
            run = search.run(budget - len(samples))
            samples.extend(run.samples)
            n_simulations = run.n_simulations
        first = samples[:budget]
        return SearchResult(
            strategy=search.name,
            samples=first,
            n_iterations=len(first),
            n_simulations=n_simulations,
        )

    def mcts(self, seed: int = 0) -> MctsSearch:
        return MctsSearch(self.space, self.evaluator, MctsConfig(seed=seed))

    def random(self, seed: int = 0) -> RandomSearch:
        return RandomSearch(self.space, self.evaluator, seed=seed)

    def iteration_grid(self) -> list:
        """Iteration counts analogous to the paper's {50,100,200,400,2036},
        scaled to this space's size."""
        n = self.space.count()
        grid = [
            max(2, int(round(n * f))) for f in (0.025, 0.05, 0.1, 0.2)
        ]
        return grid + [n]


@functools.lru_cache(maxsize=4)
def default_workbench(
    scale: float = 1.0,
    noise_sigma: float = 0.01,
    execution: ExecConfig = ExecConfig(),
) -> SpmvWorkbench:
    """The paper's SpMV on the perlmutter-like platform (memoized).

    ``scale < 1`` shrinks the matrix proportionally for fast tests;
    ``execution`` configures the evaluation substrate of every pipeline
    the workbench builds (see :mod:`repro.exec`).
    """
    case = SpmvCase() if scale >= 1.0 else SpmvCase().scaled(scale)
    return SpmvWorkbench(
        case=case,
        machine=perlmutter_like(noise_sigma=noise_sigma),
        execution=execution,
    )
