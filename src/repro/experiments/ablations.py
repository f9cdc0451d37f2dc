"""Ablations the paper calls for (§VI) plus design-choice sweeps.

* **MCTS vs random sampling** — "a search strategy that randomly samples
  the design space could be used to show that the current strategy indeed
  produces better results."
* **Exploitation-term ablation** — the paper's coverage-ratio V vs plain
  UCT (exploitation constantly 1): does the coverage heuristic matter?
* **Noise sensitivity** — how the labeling's class count responds to
  measurement noise, the interaction its convolution radius exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.workbench import SpmvWorkbench
from repro.ml.labeling import label_by_performance
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.mcts import MctsSearch, PlainUctMcts
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker


@dataclass
class AblationResult:
    """Generic sweep result: one row per (variant, budget)."""

    title: str
    columns: List[str]
    rows: List[List[object]]

    def report(self) -> str:
        widths = [
            max(len(str(r[i])) for r in ([self.columns] + self.rows))
            for i in range(len(self.columns))
        ]
        lines = [self.title]
        lines.append(
            "  " + "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        for row in self.rows:
            lines.append(
                "  "
                + "  ".join(str(v).ljust(w) for v, w in zip(row, widths))
            )
        return "\n".join(lines)


def _require_seeds(seeds: Sequence[int]) -> None:
    if not seeds:
        raise ValueError("an ablation needs at least one seed")


def run_mcts_vs_random(
    wb: SpmvWorkbench,
    iterations: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (0, 1, 2),
) -> AblationResult:
    """Compare MCTS and random sampling on Table V's accuracy metric."""
    _require_seeds(seeds)
    iters = list(iterations) if iterations is not None else wb.iteration_grid()[:-1]
    rows: List[List[object]] = []
    for strategy in ("mcts", "random", "beam"):
        for budget in iters:
            cells = [wb.cell(strategy, seed, budget) for seed in seeds]
            accs = [c.accuracy for c in cells]
            uniq = [len(c.result.search) for c in cells]
            rows.append(
                [
                    strategy,
                    budget,
                    f"{np.mean(accs):.3f}",
                    f"{np.std(accs):.3f}",
                    f"{np.mean(uniq):.0f}",
                ]
            )
    return AblationResult(
        title=(
            "Search-strategy comparison: MCTS vs random vs beam "
            "(Table V metric; mean over seeds)"
        ),
        columns=["strategy", "iterations", "acc_mean", "acc_std", "unique"],
        rows=rows,
    )


def run_exploitation_ablation(
    wb: SpmvWorkbench,
    iterations: Optional[Sequence[int]] = None,
    seeds: Sequence[int] = (0, 1, 2),
) -> AblationResult:
    """Coverage-ratio exploitation vs plain UCT
    (:class:`~repro.search.mcts.PlainUctMcts`) on the Table V metric."""
    _require_seeds(seeds)
    iters = list(iterations) if iterations is not None else wb.iteration_grid()[:-1]
    rows: List[List[object]] = []
    for label, strategy in (
        ("coverage-V", MctsSearch.name),
        ("plain-UCT", PlainUctMcts.name),
    ):
        for budget in iters:
            accs = [wb.cell(strategy, seed, budget).accuracy for seed in seeds]
            rows.append(
                [label, budget, f"{np.mean(accs):.3f}", f"{np.std(accs):.3f}"]
            )
    return AblationResult(
        title="Exploitation-term ablation (Table V metric; mean over seeds)",
        columns=["selection", "iterations", "acc_mean", "acc_std"],
        rows=rows,
    )


def run_noise_sensitivity(
    wb: SpmvWorkbench,
    sigmas: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05),
) -> AblationResult:
    """Class-count stability of the labeling under measurement noise.

    Each σ reruns the exhaustive sweep on the workbench's machine with only
    the noise's σ changed; at the workbench's own σ the sweep is the
    workbench's (:meth:`SpmvWorkbench.full_search`), measured once.
    """
    rows: List[List[object]] = []
    noise = wb.machine.noise
    for sigma in sigmas:
        if sigma == noise.sigma:
            search = wb.full_search()
        else:
            machine = wb.machine.with_noise(noise.with_sigma(sigma))
            executor = ScheduleExecutor(wb.instance.program, machine)
            bench = Benchmarker(executor, wb.measurement)
            search = ExhaustiveSearch(wb.space, bench).run()
        lab = label_by_performance(search.times(), wb.labeling)
        spread = search.worst().time / search.best().time
        rows.append(
            [
                f"{sigma:.3f}",
                lab.n_classes,
                [c.size for c in lab.classes],
                f"{spread:.3f}",
            ]
        )
    return AblationResult(
        title="Labeling sensitivity to measurement noise",
        columns=["sigma", "n_classes", "class_sizes", "spread"],
        rows=rows,
    )
