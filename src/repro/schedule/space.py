"""The design space of a program as a sequential decision problem (§III-B/C).

A :class:`DecisionState` is the paper's prefix ``P_k``: the ops placed so
far, their stream bindings, and the synchronization obligations those
choices created.  ``available_actions`` yields the legal next steps:

* an eligible CPU vertex (all DAG predecessors placed, all required
  ``cudaEventSynchronize`` ops placed);
* an eligible GPU vertex, once per *canonical* stream choice — streams are
  numbered by first use, so stream-bijection-equivalent prefixes are never
  generated (the paper's redundancy pruning, §III-C2);
* a standalone ``cudaEventRecord`` for a placed GPU op with a CPU
  successor;
* a standalone ``cudaEventSynchronize`` whose record has been placed.

Cross-stream GPU→GPU dependencies insert their record/stream-wait pair
atomically with the dependent kernel (see :mod:`repro.schedule.sync`).
A GPU op with both CPU and GPU successors therefore has its record on
offer twice: standalone, and at the head of a cross-stream group.  A
standalone record directly followed by a group that opens with a wait on
the same event would spell the group that carries the record itself, so
that step is not offered — every schedule has exactly one decision path
and :meth:`DesignSpace.count` counts schedules.

An *action* is a tuple of :class:`~repro.schedule.schedule.BoundOp` —
almost always a single op; atomic sync groups make it longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.dag.program import Program
from repro.dag.vertex import OpKind, Vertex
from repro.errors import ScheduleError
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.sync import (
    SyncPlan,
    build_sync_plan,
    cer_name,
    event_name,
    make_cer_vertex,
    make_ces_vertex,
    make_cswe_vertex,
)

#: One decision: a tuple of ops appended atomically.
Action = Tuple[BoundOp, ...]


def _action_key(action: Action) -> Tuple:
    return tuple((op.name, op.stream, op.event) for op in action)


@dataclass(frozen=True)
class DecisionState:
    """Immutable prefix of a schedule (the paper's ``P_k``)."""

    space: "DesignSpace"
    placed: Tuple[BoundOp, ...] = ()

    # -- derived (computed on demand; states are short-lived) ----------
    @property
    def placed_names(self) -> FrozenSet[str]:
        return frozenset(op.name for op in self.placed)

    @property
    def gpu_streams(self) -> Dict[str, int]:
        return {
            op.name: op.stream
            for op in self.placed
            if op.kind is OpKind.GPU
        }

    @property
    def n_streams_used(self) -> int:
        return len({
            op.stream for op in self.placed if op.stream is not None
        })

    def is_complete(self) -> bool:
        placed = self.placed_names
        return all(v.name in placed for v in self.space.program_ops)

    def schedule(self) -> Schedule:
        if not self.is_complete():
            raise ScheduleError("state is not a complete schedule")
        return Schedule(self.placed)

    def apply(self, action: Action) -> "DecisionState":
        return DecisionState(space=self.space, placed=self.placed + action)

    def fresh_record(self) -> Optional[str]:
        """Event of a standalone record placed by the last action, when
        its GPU op also has GPU successors; None otherwise.

        The next action may not be a group opening with a wait on that
        event: the parent state offered the same ops as one group.
        """
        if not self.placed:
            return None
        last = self.placed[-1]
        if last.name in self.space.shared_records:
            return last.event
        return None

    # ------------------------------------------------------------------
    def available_actions(self) -> Tuple[Action, ...]:
        space = self.space
        plan = space.sync_plan
        placed = self.placed_names
        gpu_streams = self.gpu_streams
        fresh_event = self.fresh_record()
        actions: List[Action] = []

        # Canonical stream choices: any stream already used, plus one fresh.
        n_used = self.n_streams_used
        stream_choices = list(range(min(n_used + 1, space.n_streams)))

        for v in space.program_ops:
            if v.name in placed:
                continue
            pred_names = space.pred_names[v.name]
            if not pred_names <= placed:
                continue
            gpu_preds = [
                u for u in pred_names if space.kind_of[u] is OpKind.GPU
            ]
            if v.kind is OpKind.CPU:
                needed = [
                    plan.ces_name_of[(u, v.name)]
                    for u in gpu_preds
                ]
                if all(n in placed for n in needed):
                    actions.append((BoundOp(vertex=v),))
            elif v.kind is OpKind.GPU:
                for s in stream_choices:
                    group: List[BoundOp] = []
                    for u in sorted(gpu_preds):
                        if gpu_streams[u] == s:
                            continue  # same-stream FIFO order suffices
                        if cer_name(u) not in placed and cer_name(u) not in {
                            g.name for g in group
                        }:
                            group.append(
                                BoundOp(
                                    vertex=make_cer_vertex(u),
                                    stream=gpu_streams[u],
                                    event=event_name(u),
                                )
                            )
                        group.append(
                            BoundOp(
                                vertex=make_cswe_vertex(u, v.name),
                                stream=s,
                                event=event_name(u),
                            )
                        )
                    if (
                        fresh_event is not None
                        and group
                        and group[0].kind is OpKind.STREAM_WAIT
                        and group[0].event == fresh_event
                    ):
                        continue  # duplicate of the record-carrying group
                    group.append(BoundOp(vertex=v, stream=s))
                    actions.append(tuple(group))
            else:  # pragma: no cover - program_ops excludes START/END
                raise ScheduleError(f"unexpected kind {v.kind} in program ops")

        # Standalone cudaEventRecord actions.
        for u in sorted(plan.cer_sources):
            if u in placed and cer_name(u) not in placed:
                actions.append(
                    (
                        BoundOp(
                            vertex=make_cer_vertex(u),
                            stream=gpu_streams[u],
                            event=event_name(u),
                        ),
                    )
                )

        # Standalone cudaEventSynchronize actions.
        for (u, v) in plan.ces_edges:
            name = plan.ces_name_of[(u, v)]
            if cer_name(u) in placed and name not in placed and v not in placed:
                actions.append(
                    (
                        BoundOp(
                            vertex=make_ces_vertex(name),
                            event=event_name(u),
                        ),
                    )
                )

        return tuple(actions)


@dataclass(frozen=True)
class EnumerationCursor:
    """Resumable position in a design space's enumeration order.

    ``path`` is the action-index path (one index per decision level) of
    the *last schedule already produced*; the empty path means nothing
    has been produced yet.  A cursor is a pure value — a tuple of small
    integers — so it is trivially picklable and can be shipped to another
    process, which resumes enumeration at exactly the next schedule.
    ``exhausted`` marks the cursor returned with the final block; resuming
    from it yields nothing.
    """

    path: Tuple[int, ...] = ()
    exhausted: bool = False

    @property
    def at_start(self) -> bool:
        return not self.path and not self.exhausted


@dataclass
class ScheduleBlock:
    """One chunk of streaming enumeration.

    ``cursor`` is the resume point *after* this block: feeding it back to
    :meth:`DesignSpace.iter_blocks` continues with the next schedule, so
    enumeration can be checkpointed, interleaved with evaluation, or
    split across processes without ever materializing the space.
    ``n_skipped`` counts schedules a ``keep`` filter rejected while this
    block filled (they were enumerated but never staged);
    ``n_subtrees_cut`` counts whole subtrees a ``keep_prefix`` predicate
    cut before expansion while this block filled (their schedules were
    never even enumerated — branch-and-bound, not filtering).
    ``n_leaves_cut`` is the number of enumeration positions those cut
    subtrees spanned — populated only when leaf counting is on (range
    limits or live progress), zero otherwise.
    """

    index: int
    schedules: List[Schedule] = field(default_factory=list)
    cursor: EnumerationCursor = EnumerationCursor()
    n_skipped: int = 0
    n_subtrees_cut: int = 0
    n_leaves_cut: int = 0

    def __len__(self) -> int:
        return len(self.schedules)

    def __iter__(self) -> Iterator[Schedule]:
        return iter(self.schedules)


def _record_block_metrics(block: "ScheduleBlock") -> None:
    """Per-*block* counter adds (never per schedule) keep the always-on
    metrics cost unmeasurable against simulation work."""
    obs.add("space.schedules_enumerated", len(block.schedules) + block.n_skipped)
    obs.add("space.schedules_kept", len(block.schedules))
    if block.n_skipped:
        obs.add("space.schedules_skipped", block.n_skipped)
    if block.n_subtrees_cut:
        obs.add("space.subtrees_cut", block.n_subtrees_cut)
    if block.n_leaves_cut:
        obs.add("space.leaves_cut", block.n_leaves_cut)


@dataclass
class _CutLog:
    """Mutable subtree-cut bookkeeping shared between :meth:`_stream`
    and :meth:`iter_blocks`.

    ``n_leaves`` (the enumeration positions the cut subtrees spanned) is
    tracked only when ``count_leaves`` is set — it needs the completion-
    count DP, which range-limited walks require for exact position
    accounting and everything else can skip.
    """

    n_subtrees: int = 0
    n_leaves: int = 0
    count_leaves: bool = False


class DesignSpace:
    """All valid schedules of a program on ``n_streams`` streams."""

    def __init__(self, program: Program, n_streams: int) -> None:
        if n_streams < 1:
            raise ScheduleError("need at least one stream")
        self.program = program
        self.n_streams = n_streams
        self.sync_plan: SyncPlan = build_sync_plan(program.graph)
        self.program_ops: Tuple[Vertex, ...] = program.schedulable_vertices()
        self.pred_names: Dict[str, FrozenSet[str]] = {
            v.name: frozenset(
                p.name
                for p in program.graph.predecessors(v)
                if p.kind not in (OpKind.START, OpKind.END)
            )
            for v in self.program_ops
        }
        self.kind_of: Dict[str, OpKind] = {
            v.name: v.kind for v in self.program_ops
        }
        #: Records offered both standalone and inside cross-stream groups
        #: (see :meth:`DecisionState.fresh_record`).
        self.shared_records: FrozenSet[str] = frozenset(
            cer_name(u)
            for u, _ in self.sync_plan.gpu_gpu_edges
            if u in self.sync_plan.cer_sources
        )
        #: Completion-count memo shared by :meth:`count`, :meth:`seek`,
        #: and cut-leaf accounting in :meth:`_stream`.  Key is (placed
        #: names, GPU bindings, fresh record) — see :meth:`_completions`.
        self._count_memo: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------
    def initial_state(self) -> DecisionState:
        return DecisionState(space=self)

    def enumerate_schedules(self) -> Iterator[Schedule]:
        """Yield every schedule in the space (DFS; deterministic order)."""
        return (schedule for _, schedule in self._stream())

    def _stream(
        self,
        after: Tuple[int, ...] = (),
        keep_prefix: Optional[Callable[[Tuple[BoundOp, ...]], bool]] = None,
        cuts: Optional[_CutLog] = None,
    ) -> Iterator[Tuple[Tuple[int, ...], Schedule]]:
        """Depth-first enumeration as ``(action-index path, schedule)``
        pairs, optionally resuming strictly after the leaf at ``after``.

        The explicit stack replaces the natural recursion so the walk can
        be suspended at any leaf and resumed from its path alone —
        decision states are rebuilt on resume, never serialized.  The
        leaf order is identical to the recursive formulation: first child
        first, complete states are leaves (no further expansion).

        ``keep_prefix`` is the branch-and-bound hook: every *expanded*
        incomplete state is tested, and a rejected prefix discards its
        whole subtree without generating it.  Soundness requires the
        predicate to be monotone (a rejected prefix stays rejected under
        any extension) — :meth:`ScheduleGuide.admits_prefix` is.  States
        rebuilt along a resume path are not re-tested: a cursor always
        addresses a leaf that was actually produced, so its prefix
        already passed.  Cuts are tallied in ``cuts`` when given; leaf
        counting additionally uses the completion-count DP so callers
        can track exact enumeration positions under pruning.
        """
        stack: List[Tuple[DecisionState, Tuple[Action, ...], int]] = []
        state: Optional[DecisionState] = self.initial_state()
        for depth, idx in enumerate(after):
            actions = state.available_actions()
            if not 0 <= idx < len(actions):
                raise ScheduleError(
                    f"cursor index {idx} at depth {depth} does not address "
                    f"this design space ({len(actions)} actions available)"
                )
            stack.append((state, actions, idx))
            state = state.apply(actions[idx])
        if after:
            if not state.is_complete():
                raise ScheduleError(
                    "cursor path does not end at a complete schedule"
                )
            state = None  # resume with the backtrack step past this leaf
        while True:
            if state is None:
                # Backtrack to the deepest level with an untried action.
                while stack:
                    prev, actions, i = stack.pop()
                    if i + 1 < len(actions):
                        stack.append((prev, actions, i + 1))
                        state = prev.apply(actions[i + 1])
                        break
                else:
                    return
            elif state.is_complete():
                yield tuple(i for _, _, i in stack), state.schedule()
                state = None
            else:
                if keep_prefix is not None and not keep_prefix(state.placed):
                    if cuts is not None:
                        cuts.n_subtrees += 1
                        if cuts.count_leaves:
                            cuts.n_leaves += self._completions(state)
                    state = None  # cut: the whole subtree is skipped
                    continue
                actions = state.available_actions()
                if not actions:  # dead branch: contributes no schedules
                    state = None
                else:
                    stack.append((state, actions, 0))
                    state = state.apply(actions[0])

    def iter_blocks(
        self,
        block_size: int,
        cursor: Optional[EnumerationCursor] = None,
        keep: Optional[Callable[[Schedule], bool]] = None,
        keep_prefix: Optional[Callable[[Tuple[BoundOp, ...]], bool]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[ScheduleBlock]:
        """Stream the space in blocks of at most ``block_size`` schedules.

        Concatenating every block's schedules reproduces
        :meth:`enumerate_schedules` exactly (same order, same count), but
        peak schedule residency is one block plus a single look-ahead
        schedule — never the space.  Each block carries the
        :class:`EnumerationCursor` to resume after it; the final block's
        cursor is marked ``exhausted``.  Pass ``cursor`` to continue a
        previous run (possibly in another process: enumeration order is a
        pure function of the program and ``n_streams``).

        ``keep`` is a streaming pruning filter (rule-guided search,
        :mod:`repro.advisor.guided`): rejected schedules are dropped
        immediately — counted in :attr:`ScheduleBlock.n_skipped`, never
        staged — and blocks keep filling from the stream, so downstream
        evaluation batches stay full however aggressive the filter.
        Cursors remain exact: the resume point tracks the last schedule
        *enumerated*, kept or not.

        ``keep_prefix`` turns the walk into branch-and-bound: incomplete
        prefixes it rejects cut their entire subtree before expansion
        (see :meth:`_stream`), tallied per block in
        :attr:`ScheduleBlock.n_subtrees_cut`.  ``limit`` bounds the walk
        to the next ``limit`` *enumeration positions* after the cursor —
        leaves enumerated plus leaves inside cut subtrees — which is what
        makes :meth:`seek`-delimited range shards exact: shard ``k``
        resumes at ``seek(start)`` with ``limit=length`` and covers
        precisely the serial walk's positions ``[start, start+length)``.
        A limit-stopped final block keeps ``exhausted=False`` so the
        caller can distinguish "range done" from "space done".
        """
        if block_size < 1:
            raise ScheduleError("block_size must be >= 1")
        if limit is not None and limit < 0:
            raise ScheduleError("limit must be >= 0")
        if cursor is not None and cursor.exhausted:
            return
        after = cursor.path if cursor is not None else ()
        # Leaf counting costs a completion-count DP per cut, so it stays
        # off unless a range limit needs exact positions or a progress
        # meter needs every retired position in its numerator.
        count_leaves = limit is not None or obs.progress_enabled()
        cuts = _CutLog(count_leaves=count_leaves)
        stream = self._stream(after, keep_prefix=keep_prefix, cuts=cuts)
        produced = 0
        ended = False

        def pull() -> Optional[Tuple[Tuple[int, ...], Schedule]]:
            """Next in-range leaf, or None (range or space exhausted)."""
            nonlocal produced, ended
            if limit is not None and produced + cuts.n_leaves >= limit:
                return None
            nxt = next(stream, None)
            if nxt is None:
                ended = True
                return None
            produced += 1
            if limit is not None and produced + cuts.n_leaves > limit:
                # Cut subtrees pulled us past the range end: this leaf's
                # position is >= limit, so it belongs to the next shard.
                produced -= 1
                return None
            return nxt

        index = 0
        cut_base = 0
        leaf_base = 0
        pending = pull()
        while pending is not None:
            block = ScheduleBlock(index=index)
            last_path = after
            while pending is not None and len(block.schedules) < block_size:
                last_path, schedule = pending
                if keep is None or keep(schedule):
                    block.schedules.append(schedule)
                else:
                    block.n_skipped += 1
                pending = pull()
            block.n_subtrees_cut = cuts.n_subtrees - cut_base
            cut_base = cuts.n_subtrees
            block.n_leaves_cut = cuts.n_leaves - leaf_base
            leaf_base = cuts.n_leaves
            block.cursor = EnumerationCursor(
                path=last_path, exhausted=pending is None and ended
            )
            _record_block_metrics(block)
            yield block
            index += 1
        if index == 0 and cuts.n_subtrees > 0:
            # Everything in range was cut before a single leaf surfaced;
            # still surface the bookkeeping in one empty terminal block.
            block = ScheduleBlock(
                index=0,
                cursor=EnumerationCursor(path=after, exhausted=ended),
                n_subtrees_cut=cuts.n_subtrees,
                n_leaves_cut=cuts.n_leaves,
            )
            _record_block_metrics(block)
            yield block

    def count(self) -> int:
        """Number of schedules, via memoized DP over decision states."""
        return self._completions(self.initial_state())

    def _completions(self, state: DecisionState) -> int:
        """Number of complete schedules reachable from ``state``.

        The memo key is (set of placed names, GPU bindings, fresh record):
        the count of completions depends only on what is placed, where
        GPU ops run, and whether the last action was a shared standalone
        record — not on the order ops were placed in.  The memo lives on
        the space instance so :meth:`count`, :meth:`seek`, and cut-leaf
        accounting in :meth:`_stream` all share one table.
        """
        if state.is_complete():
            return 1
        k = (
            state.placed_names,
            tuple(sorted(state.gpu_streams.items())),
            state.fresh_record(),
        )
        hit = self._count_memo.get(k)
        if hit is not None:
            return hit
        total = sum(
            self._completions(state.apply(a))
            for a in state.available_actions()
        )
        self._count_memo[k] = total
        return total

    def seek(self, index: int) -> EnumerationCursor:
        """Cursor that resumes enumeration at schedule ``index`` — without
        enumerating anything.

        The descent picks, level by level, the child whose completion
        count (the same DP :meth:`count` uses) contains the target leaf
        rank, so cost is O(depth × branching) DP lookups instead of
        O(index) schedule constructions.  ``seek(0)`` is the start cursor,
        ``seek(count())`` the exhausted one; together with ``limit`` in
        :meth:`iter_blocks` this splits one huge sweep into independent
        ranges that concatenate bit-identically to the serial walk.
        """
        total = self.count()
        if not 0 <= index <= total:
            raise ScheduleError(
                f"seek index {index} outside [0, {total}]"
            )
        if index == 0:
            return EnumerationCursor()
        if index == total:
            return EnumerationCursor(exhausted=True)
        target = index - 1  # rank of the last already-produced leaf
        path: List[int] = []
        state = self.initial_state()
        while not state.is_complete():
            for i, action in enumerate(state.available_actions()):
                child = state.apply(action)
                below = self._completions(child)
                if target < below:
                    path.append(i)
                    state = child
                    break
                target -= below
            else:  # pragma: no cover - counts partition the leaf ranks
                raise ScheduleError("seek descent ran out of actions")
        return EnumerationCursor(path=tuple(path))

    def random_schedule(
        self,
        rng: np.random.Generator,
        keep_prefix: Optional[Callable[[Tuple[BoundOp, ...]], bool]] = None,
    ) -> Optional[Schedule]:
        """Frontier-uniform random completion (the paper's rollout policy).

        With ``keep_prefix`` the rollout is abandoned — returning None —
        the moment its prefix is rejected, mirroring the enumerator's
        branch-and-bound cut instead of finishing a doomed completion.
        """
        state = self.initial_state()
        while not state.is_complete():
            if keep_prefix is not None and not keep_prefix(state.placed):
                return None
            actions = state.available_actions()
            if not actions:
                raise ScheduleError(
                    "dead end while sampling; program DAG is inconsistent"
                )
            state = state.apply(actions[int(rng.integers(len(actions)))])
        return state.schedule()

    # ------------------------------------------------------------------
    def all_op_names(self) -> Tuple[str, ...]:
        """Names of ops common to every schedule: program ops plus the
        always-inserted CER/CES sync ops (stream waits vary by binding)."""
        names = [v.name for v in self.program_ops]
        names += sorted(cer_name(u) for u in self.sync_plan.cer_sources)
        names += sorted(self.sync_plan.ces_name_of.values())
        return tuple(names)

    def validate_schedule(self, schedule: Schedule) -> None:
        """Check that ``schedule`` is a member of this design space.

        Verifies op coverage, DAG order, sync-op ordering (u < CER(u) <
        CES(u, v) < v), stream bounds, and cross-stream wait requirements.
        Raises :class:`~repro.errors.ScheduleError` on the first violation.
        """
        pos = {op.name: i for i, op in enumerate(schedule.ops)}
        placed_gpu = {
            op.name: op.stream
            for op in schedule.ops
            if op.kind is OpKind.GPU
        }
        for v in self.program_ops:
            if v.name not in pos:
                raise ScheduleError(f"schedule is missing op {v.name!r}")
        for v in self.program_ops:
            for u in self.pred_names[v.name]:
                if pos[u] >= pos[v.name]:
                    raise ScheduleError(
                        f"dependency violated: {u!r} must precede {v.name!r}"
                    )
        for op in schedule.ops:
            if op.stream is not None and not (
                0 <= op.stream < self.n_streams
            ):
                raise ScheduleError(
                    f"{op.name!r} bound to stream {op.stream} out of range"
                )
        for (u, v) in self.sync_plan.ces_edges:
            cer = cer_name(u)
            ces = self.sync_plan.ces_name_of[(u, v)]
            for name in (cer, ces):
                if name not in pos:
                    raise ScheduleError(f"schedule is missing sync op {name!r}")
            if not (pos[u] < pos[cer] < pos[ces] < pos[v]):
                raise ScheduleError(
                    f"sync chain out of order for edge {u!r}->{v!r}"
                )
        for (u, v) in self.sync_plan.gpu_gpu_edges:
            if placed_gpu.get(u) != placed_gpu.get(v):
                from repro.schedule.sync import cswe_name

                w = cswe_name(u, v)
                if w not in pos:
                    raise ScheduleError(
                        f"cross-stream edge {u!r}->{v!r} lacks {w!r}"
                    )
                cer = cer_name(u)
                if not (pos[u] < pos[cer] < pos[w] < pos[v]):
                    raise ScheduleError(
                        f"stream-wait chain out of order for {u!r}->{v!r}"
                    )
