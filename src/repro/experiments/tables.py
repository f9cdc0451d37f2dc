"""Table experiments: Table V (MCTS iterations vs labeling accuracy) and
Tables VI-VIII (per-class rulesets vs canonical, with annotations)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.workbench import SpmvWorkbench
from repro.rules.compare import CompareResult, compare_all, consistency_summary
from repro.rules.extract import rulesets_by_class
from repro.rules.render import render_ruleset_table
from repro.rules.ruleset import RuleSet


@dataclass
class Table5Result:
    """Effect of MCTS iterations on labeling accuracy (paper Table V)."""

    iterations: List[int]
    accuracies: List[float]
    n_unique: List[int]
    paper_iterations: tuple = (50, 100, 200, 400, 2036)
    paper_accuracies: tuple = (0.75, 0.83, 0.96, 0.99, 1.0)

    def report(self) -> str:
        lines = [
            "Table V: MCTS iterations vs class accuracy "
            "(paper: 50->0.75, 100->0.83, 200->0.96, 400->0.99, full->1.0)"
        ]
        for it, acc, nu in zip(self.iterations, self.accuracies, self.n_unique):
            lines.append(
                f"  iterations={it:5d}  unique={nu:5d}  accuracy={acc:.3f}"
            )
        return "\n".join(lines)


def run_table5(
    wb: SpmvWorkbench,
    iterations: Optional[Sequence[int]] = None,
    seed: int = 0,
    strategy: str = "mcts",
) -> Table5Result:
    """Reproduce Table V.

    For each iteration budget: run the search, build labels/features/tree
    from the explored subset, then classify the FULL space and score each
    implementation against its predicted class's time range.  The final
    (full-budget) entry uses the exhaustive search, as the paper's 2036
    column does.  Each budget is the workbench's cell
    (:meth:`SpmvWorkbench.cell`), computed once per workbench.
    """
    iters = list(iterations) if iterations is not None else wb.iteration_grid()
    cells = [wb.cell(strategy, seed, budget) for budget in iters]
    return Table5Result(
        iterations=iters,
        accuracies=[c.accuracy for c in cells],
        n_unique=[len(c.result.search) for c in cells],
    )


@dataclass
class RuleTableResult:
    """Tables VI-VIII: rulesets per class per iteration budget."""

    #: class label -> column header -> compared rulesets (sorted by samples).
    cells: Dict[int, Dict[str, List[CompareResult]]]
    canonical: List[RuleSet]
    class_names: Dict[int, str] = field(default_factory=dict)

    def render_class(self, cls: int, max_rulesets: int = 3) -> str:
        name = self.class_names.get(cls, f"class {cls}")
        return render_ruleset_table(
            self.cells[cls],
            title=f"Design rules for performance {name} "
            f"(paper Tables VI-VIII format; (+) = extraneous-but-harmless)",
            max_rulesets_per_cell=max_rulesets,
        )

    def report(self, max_rulesets: int = 3) -> str:
        return "\n\n".join(
            self.render_class(cls, max_rulesets) for cls in sorted(self.cells)
        )

    def summary(self) -> Dict[int, Dict[str, Dict[str, int]]]:
        """class -> column -> annotation counts."""
        return {
            cls: {
                col: consistency_summary(results)
                for col, results in cols.items()
            }
            for cls, cols in self.cells.items()
        }


def run_rule_tables(
    wb: SpmvWorkbench,
    iterations: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> RuleTableResult:
    """Reproduce Tables VI-VIII: for each iteration budget, extract the
    per-class rulesets and annotate them against the canonical (full-space)
    rulesets."""
    iters = list(iterations) if iterations is not None else wb.iteration_grid()
    results = [wb.cell("mcts", seed, budget).result for budget in iters]
    canonical = wb.full_pipeline().rulesets

    cells: Dict[int, Dict[str, List[CompareResult]]] = {}
    for budget, result in zip(iters, results):
        by_class = rulesets_by_class(result.rulesets)
        col = str(budget)
        for cls, rulesets in by_class.items():
            compared = compare_all(rulesets, canonical)
            cells.setdefault(cls, {})[col] = compared
    # Make all classes have all columns (possibly empty).
    for cls in cells:
        for budget in iters:
            cells[cls].setdefault(str(budget), [])
        cells[cls] = {str(b): cells[cls][str(b)] for b in iters}
    names = {0: "class 1 (fastest)"}
    all_cls = sorted(cells)
    if all_cls:
        names = {
            c: (
                "class 1 (fastest)"
                if c == all_cls[0]
                else "class %d (slowest)" % (c + 1)
                if c == all_cls[-1]
                else f"class {c + 1}"
            )
            for c in all_cls
        }
    return RuleTableResult(cells=cells, canonical=canonical, class_names=names)
