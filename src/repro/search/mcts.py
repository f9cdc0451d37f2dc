"""Monte-Carlo tree search over CUDA+MPI schedules (paper §III-C).

The four phases, exactly as specified:

* **Selection** — from the root, recursively pick the child maximizing
  ``exploration + exploitation``, where exploration is
  ``c · sqrt(ln N / n)`` with ``c = sqrt(2)`` (``-inf`` once the child's
  subtree is fully explored), and exploitation is the *coverage ratio*

  .. math:: V = (t^c_{max} - t^c_{min}) / (t^p_{max} - t^p_{min})

  when both child and parent have at least two rollouts, else 1.  "The
  intuition is to favor child nodes with times that represent greater
  coverage of the parent's execution times."  Selection stops at any node
  that has a child (possible action) with no rollouts.

* **Expansion** — create one zero-rollout child of the selected node.

* **Rollout** — complete the prefix by uniformly random frontier choices,
  benchmark the resulting schedule, and add the rollout path's nodes to
  the tree "to retain their performance information".

* **Backpropagation** — update ``t_min`` / ``t_max`` and rollout counts on
  every node along the path, and propagate the fully-explored flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import SearchError
from repro.schedule.schedule import Schedule
from repro.schedule.space import Action, DecisionState, DesignSpace, _action_key
from repro.search.base import SearchResult, SearchStrategy


@dataclass(frozen=True)
class MctsConfig:
    """MCTS hyperparameters (paper defaults)."""

    #: Exploration constant c (paper: sqrt(2)).
    exploration_c: float = math.sqrt(2.0)
    #: RNG seed for rollouts and tie-breaking.
    seed: int = 0


class MctsNode:
    """One node of the search tree: a prefix of a schedule.

    The root's prefix is empty; each child extends the parent by one
    action (one operation, or an atomic sync group).
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
        self.children: Dict[Tuple, "MctsNode"] = {}
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

    def unexpanded_actions(self) -> List[Action]:
        return [
            a for a in self.actions if _action_key(a) not in self.children
        ]

    def child_for(self, action: Action) -> "MctsNode":
        key = _action_key(action)
        child = self.children.get(key)
        if child is None:
            child = MctsNode(
                parent=self, action=action, state=self.state.apply(action)
            )
            self.children[key] = child
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

    def value(self, c: float) -> float:
        return self.exploration_value(c) + self.exploitation_value()

    # ------------------------------------------------------------------
    def depth(self) -> int:
        d = 0
        node = self
        while node.parent is not None:
            d += 1
            node = node.parent
        return d

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
        with obs.span("search.mcts", n_iterations=n_iterations):
            result = self._run(n_iterations)
        result.record_metrics()
        return result

    def _run(self, n_iterations: int) -> SearchResult:
        result = SearchResult(strategy=self.name)
        while result.n_iterations < n_iterations and not self.root.fully_explored:
            node = self._expand(self._select(self.root))
            schedule, path = self._rollout(node)
            time = self.evaluator.evaluate(schedule).time
            self._backpropagate(path, time)
            result.add(schedule, time)
            result.n_iterations += 1
        result.n_simulations = self.evaluator.n_simulations
        return result

    # -- phases ----------------------------------------------------------
    def _select(self, root: MctsNode) -> MctsNode:
        node = root
        while True:
            if node.is_terminal:
                return node
            if node.unexpanded_actions():
                return node
            children = list(node.children.values())
            zero = [ch for ch in children if ch.n_rollouts == 0]
            if zero:
                # "The recursive search terminates at any node that has a
                # child with no rollouts."
                return node
            viable = [ch for ch in children if not ch.fully_explored]
            if not viable:
                node.fully_explored = True
                if node.parent is None:
                    return node
                node = node.parent
                continue
            c = self.config.exploration_c
            best = max(viable, key=lambda ch: ch.value(c))
            node = best

    def _expand(self, node: MctsNode) -> MctsNode:
        if node.is_terminal:
            return node
        unexpanded = node.unexpanded_actions()
        if unexpanded:
            action = unexpanded[int(self.rng.integers(len(unexpanded)))]
            return node.child_for(action)
        zero = [
            ch for ch in node.children.values() if ch.n_rollouts == 0
        ]
        if zero:
            return zero[int(self.rng.integers(len(zero)))]
        raise SearchError("expansion called on a fully expanded node")

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
            if self.guide is not None and len(actions) > 1:
                placed = current.state.placed
                penalties = [
                    self.guide.prefix_penalty(placed + a) for a in actions
                ]
                floor = min(penalties)
                actions = tuple(
                    a for a, p in zip(actions, penalties) if p == floor
                )
            action = actions[int(self.rng.integers(len(actions)))]
            current = current.child_for(action)
            path.append(current)
        return current.state.schedule(), path

    def _backpropagate(self, path: List[MctsNode], time: float) -> None:
        # Terminal leaf of the rollout is fully explored by definition.
        for node in reversed(path):
            node.n_rollouts += 1
            node.t_min = min(node.t_min, time)
            node.t_max = max(node.t_max, time)
        for node in reversed(path):
            self._update_fully_explored(node)

    def _update_fully_explored(self, node: MctsNode) -> None:
        if node.is_terminal:
            node.fully_explored = True
            return
        if node.unexpanded_actions():
            return
        if all(ch.fully_explored for ch in node.children.values()):
            node.fully_explored = True

    # ------------------------------------------------------------------
    def tree_size(self) -> int:
        """Number of nodes currently in the tree."""

        def count(node: MctsNode) -> int:
            return 1 + sum(count(ch) for ch in node.children.values())

        return count(self.root)

    def max_depth(self) -> int:
        def depth(node: MctsNode) -> int:
            if not node.children:
                return 0
            return 1 + max(depth(ch) for ch in node.children.values())

        return depth(self.root)
