"""Monte-Carlo tree search over CUDA+MPI schedules (paper §III-C).

A tree node is a schedule prefix on the design space's state graph
(:mod:`repro.schedule.space`); its children are keyed by the index of
their action in the node's state's ``available_actions()``, in the order
they were made.  One iteration runs the paper's four phases:

* **Selection** — from the root, while every action of the node has a
  child, descend to the child that is not fully explored maximizing
  ``exploration + exploitation``, where exploration is
  ``c · sqrt(ln N / n)`` with ``c = sqrt(2)``, and exploitation is the
  *coverage ratio*

  .. math:: V = (t^c_{max} - t^c_{min}) / (t^p_{max} - t^p_{min})

  when both child and parent have at least two rollouts, else 1.  "The
  intuition is to favor child nodes with times that represent greater
  coverage of the parent's execution times."

* **Expansion** — create the child of one uniformly drawn action that has
  none yet.

* **Rollout** — complete the prefix by uniformly random frontier choices,
  benchmark the resulting schedule, and add the rollout path's nodes to
  the tree "to retain their performance information".

* **Backpropagation** — update ``t_min`` / ``t_max`` and rollout counts on
  every node along the path, and mark fully explored each node that is
  terminal or whose every action has a fully explored child.

The paper stops selection "at any node that has a child with no
rollouts".  Here no such child exists after an iteration: every node an
iteration creates lies on its rollout path and is backpropagated, so
selection only has to stop at a node with an action still unexpanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import SearchError
from repro.schedule.schedule import Schedule
from repro.schedule.space import Action, DecisionState, DesignSpace
from repro.search.base import SearchResult, SearchStrategy


#: Exploration constant c of the UCT selection term (paper: sqrt(2)).
EXPLORATION_C = math.sqrt(2.0)


@dataclass(frozen=True)
class MctsConfig:
    """MCTS run settings (the exploration constant is
    :data:`EXPLORATION_C`)."""

    #: RNG seed for rollouts and tie-breaking.
    seed: int = 0


class MctsNode:
    """One node of the search tree: a prefix of a schedule.

    The root's prefix is empty; each child extends the parent by one
    action (one operation, or an atomic sync group).  ``children[i]`` is
    the child for ``actions[i]``.
    """

    __slots__ = (
        "parent",
        "action",
        "state",
        "children",
        "n_rollouts",
        "t_min",
        "t_max",
        "fully_explored",
    )

    def __init__(
        self,
        parent: Optional["MctsNode"],
        action: Optional[Action],
        state: DecisionState,
    ) -> None:
        self.parent = parent
        self.action = action
        self.state = state
        self.children: Dict[int, "MctsNode"] = {}
        self.n_rollouts = 0
        self.t_min = math.inf
        self.t_max = -math.inf
        self.fully_explored = False

    # ------------------------------------------------------------------
    @property
    def actions(self) -> Tuple[Action, ...]:
        return self.state.available_actions()

    @property
    def is_terminal(self) -> bool:
        return self.state.is_complete()

    def child_at(self, i: int) -> "MctsNode":
        """The child for ``actions[i]``, made on first use."""
        child = self.children.get(i)
        if child is None:
            child = self.children[i] = MctsNode(
                self, self.actions[i], self.state.child(i)
            )
        return child

    # -- value terms ----------------------------------------------------
    def exploration_value(self, c: float) -> float:
        if self.fully_explored:
            return -math.inf
        parent_n = self.parent.n_rollouts if self.parent else self.n_rollouts
        if self.n_rollouts == 0 or parent_n == 0:
            return math.inf
        return c * math.sqrt(math.log(parent_n) / self.n_rollouts)

    def exploitation_value(self) -> float:
        parent = self.parent
        if (
            parent is None
            or self.n_rollouts < 2
            or parent.n_rollouts < 2
        ):
            return 1.0
        parent_range = parent.t_max - parent.t_min
        if parent_range <= 0.0:
            return 1.0
        return (self.t_max - self.t_min) / parent_range

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = (
            "root"
            if self.action is None
            else "+".join(op.name for op in self.action)
        )
        return (
            f"MctsNode({label}, n={self.n_rollouts}, "
            f"t=[{self.t_min:g},{self.t_max:g}], "
            f"full={self.fully_explored})"
        )


class MctsSearch(SearchStrategy):
    """The paper's MCTS strategy."""

    name = "mcts"

    def __init__(
        self,
        space: DesignSpace,
        evaluator,
        config: MctsConfig = MctsConfig(),
        guide=None,
    ) -> None:
        super().__init__(space, evaluator)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        #: Optional rule guide (:mod:`repro.advisor.guided`): rollouts
        #: pick uniformly among the actions adding the least rule-
        #: violation weight instead of among all actions — the tree
        #: phases (selection/expansion/backprop) stay exactly the
        #: paper's, only the rollout policy is biased.
        self.guide = guide
        self.root = MctsNode(
            parent=None, action=None, state=space.initial_state()
        )

    # ------------------------------------------------------------------
    def run(self, n_iterations: int) -> SearchResult:
        """Run ``n_iterations`` more iterations, or until the tree is
        fully explored, and return their samples.

        A second call continues the same tree and generator: the budget
        is only the loop's stop test, so ``run(a)`` then ``run(b)``
        samples exactly what one fresh search's ``run(a + b)`` does.
        """
        with obs.span("search.mcts", n_iterations=n_iterations):
            result = self._run(n_iterations)
        result.record_metrics()
        return result

    def _run(self, n_iterations: int) -> SearchResult:
        result = SearchResult(strategy=self.name)
        sims_before = self.evaluator.n_simulations
        while result.n_iterations < n_iterations and not self.root.fully_explored:
            node = self._expand(self._select(self.root))
            schedule, path = self._rollout(node)
            time = self.evaluator.evaluate(schedule).time
            self._backpropagate(path, time)
            result.add(schedule, time)
            result.n_iterations += 1
        result.n_simulations = self.evaluator.n_simulations - sims_before
        return result

    # -- phases ----------------------------------------------------------
    def _exploitation(self, node: MctsNode) -> float:
        """The exploitation term of ``node`` in selection."""
        return node.exploitation_value()

    def _select(self, root: MctsNode) -> MctsNode:
        # A node with every action expanded and not fully explored has a
        # child that is not fully explored (see _backpropagate).
        c = EXPLORATION_C
        node = root
        while not node.is_terminal and len(node.children) == len(node.actions):
            node = max(
                (ch for ch in node.children.values() if not ch.fully_explored),
                key=lambda ch: ch.exploration_value(c) + self._exploitation(ch),
            )
        return node

    def _expand(self, node: MctsNode) -> MctsNode:
        if node.is_terminal:
            return node  # only a root with nothing to place
        unexpanded = [
            i for i in range(len(node.actions)) if i not in node.children
        ]
        return node.child_at(unexpanded[int(self.rng.integers(len(unexpanded)))])

    def _rollout(self, node: MctsNode) -> Tuple[Schedule, List[MctsNode]]:
        """Random completion from ``node``; returns (schedule, tree path).

        The rollout's nodes are added to the tree (paper: "The nodes
        corresponding to this random rollout are constructed and added to
        the tree as well to retain their performance information.")
        """
        path: List[MctsNode] = []
        cur = node
        while cur is not None:
            path.append(cur)
            cur = cur.parent
        path.reverse()  # root .. node
        current = node
        while not current.is_terminal:
            actions = current.actions
            if not actions:
                raise SearchError(
                    "dead end during rollout; inconsistent design space"
                )
            choices = range(len(actions))
            if self.guide is not None and len(actions) > 1:
                placed = current.state.placed
                penalties = [
                    self.guide.prefix_penalty(placed + a) for a in actions
                ]
                floor = min(penalties)
                choices = [i for i, p in enumerate(penalties) if p == floor]
            current = current.child_at(
                choices[int(self.rng.integers(len(choices)))]
            )
            path.append(current)
        return current.state.schedule(), path

    def _backpropagate(self, path: List[MctsNode], time: float) -> None:
        # Every node this iteration made lies on ``path`` (the tree only
        # grows along it), so afterwards no node has a child without
        # rollouts.  A node is fully explored once it is terminal or every
        # action has a fully explored child; only the path's nodes can
        # change that, and an ancestor of a node that is not cannot be.
        explored = True  # the rollout's leaf is terminal
        for node in reversed(path):
            node.n_rollouts += 1
            node.t_min = min(node.t_min, time)
            node.t_max = max(node.t_max, time)
            if explored:
                explored = node.fully_explored = node.is_terminal or (
                    len(node.children) == len(node.actions)
                    and all(ch.fully_explored for ch in node.children.values())
                )

    # ------------------------------------------------------------------
    def tree_size(self) -> int:
        """Number of nodes currently in the tree."""

        def count(node: MctsNode) -> int:
            return 1 + sum(count(ch) for ch in node.children.values())

        return count(self.root)


class PlainUctMcts(MctsSearch):
    """MCTS with the paper's coverage exploitation replaced by a constant.

    Isolation of the paper's novel exploitation term: with V ≡ 1 the
    selection reduces to breadth-driven UCT over visit counts alone.
    Expansion, rollouts and backpropagation are the paper's.
    """

    name = "mcts-plain-uct"

    def _exploitation(self, node: MctsNode) -> float:
        return 1.0
