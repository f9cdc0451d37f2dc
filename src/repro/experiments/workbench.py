"""Shared experiment workbench: the paper's SpMV setup, benchmarked once.

All figure/table experiments operate on the same exhaustively-benchmarked
SpMV design space (the paper's "2036 implementations"; 540 here, see
:mod:`repro.apps.spmv.dag`).  The workbench builds and caches that data,
so its experiments pay the exhaustive sweep once and scan the swept space
once for every Table V score (:meth:`SpmvWorkbench.full_space`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

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
from repro.search.base import SearchResult
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.mcts import MctsConfig, MctsSearch
from repro.search.random_search import RandomSearch
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig


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
        # Share the benchmark cache across all experiments on this bench.
        pipe.benchmarker = self.benchmarker
        return pipe

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
