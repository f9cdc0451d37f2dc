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

Every strategy (exhaustive DFS, ``count`` / ``seek``, MCTS, beam, random)
and the advisor's ``recommend`` walk these states.  Each
:class:`DesignSpace` builds one bit index (:class:`_OpIndex`) over the op
names its schedules can hold, with per-op predecessor and CES-needed
masks, GPU predecessors in name order and every :class:`BoundOp` an
action can carry, and one lazily built **state graph**
(:class:`_StateGraph`) with a node per decision-state key: the placed
mask, the GPU bindings and the fresh record.  A node holds the state's
actions, from one frontier scan; its child nodes, filled on first
descent; and its completion count, filled by :meth:`DesignSpace.count`,
:meth:`~DesignSpace.seek` or cut-leaf accounting.  The key is enough:
the scan reads only which ops are placed, where placed GPU ops run and
the fresh record, never the order they were placed in.  Its one other
input, the mask of streams in use, is the mask of the bindings' streams,
because a record runs on its GPU op's stream and a stream wait on its
kernel's.  So two prefixes with one key offer the same actions and have
the same completions.  The graph only grows along walks, so it never
holds more nodes than the space has reachable keys, the number
:meth:`DesignSpace.count` visits (2,818 on halo3d xy, the largest
benchmark space); a random draw adds at most one node per step.

Action order — hence enumeration order, counts, ``seek`` cursors and
every strategy's rng stream — is that of the prefix-rescanning
implementation that ``tests/schedule/test_decision_state.py`` keeps as
its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

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


class _Wait(NamedTuple):
    """GPU predecessor ``u`` of a GPU op ``v``, as ``v``'s cross-stream
    groups use it."""

    slot: int  # u's bit position, which is also its binding slot
    cer_bit: int  # mask of CER-after-u
    cers: Tuple[BoundOp, ...]  # CER-after-u on each stream (u's)
    cswes: Tuple[BoundOp, ...]  # CSWE-v-waits-u on each stream (v's)


class _ProgramOp(NamedTuple):
    """Program op ``v`` as :meth:`_StateGraph._scan` tests it."""

    bit: int  # mask of the op itself
    preds: int  # mask of its DAG predecessors
    needs: int  # CPU op: mask of the CES ops that must precede it
    on: Tuple[BoundOp, ...]  # the op on each stream; a CPU op's one is unbound
    waits: Optional[Tuple[_Wait, ...]]  # GPU op: GPU preds by name; CPU: None


class _Record(NamedTuple):
    """Standalone ``cudaEventRecord`` after GPU op ``u``."""

    slot: int  # u's bit position and binding slot
    bit: int  # mask of the record itself
    on: Tuple[BoundOp, ...]  # the record on each stream (u's)


class _Sync(NamedTuple):
    """Standalone ``cudaEventSynchronize`` for a GPU->CPU edge ``u -> v``."""

    cer_bit: int  # mask of CER-after-u
    blocked: int  # mask of the sync itself and of v
    op: BoundOp


class _OpIndex:
    """Bit index over every op name a space's schedules can hold, built
    once per :class:`DesignSpace`.

    Program ops take bits ``0 .. n-1`` in ``program_ops`` order, so bit
    ``i`` doubles as op ``i``'s slot in a state's binding tuple; every
    CER, CES and CSWE the sync plan can insert follows.  Each op's
    predecessor and CES-needed masks, its GPU predecessors in name order
    and every :class:`BoundOp` an action can carry are made here, so a
    frontier scan is mask tests and never builds an op.
    """

    def __init__(self, space: "DesignSpace") -> None:
        plan = space.sync_plan
        streams = range(space.n_streams)
        n = len(space.program_ops)
        self.pos: Dict[str, int] = {}

        def bit(name: str) -> int:
            return 1 << self.pos.setdefault(name, len(self.pos))

        for v in space.program_ops:
            bit(v.name)
        self.complete = (1 << n) - 1
        self.unbound: Tuple[Optional[int], ...] = (None,) * n
        is_gpu = {v.name: v.kind is OpKind.GPU for v in space.program_ops}
        cers: Dict[str, Tuple[BoundOp, ...]] = {}
        for u in plan.cer_sources | {u for u, _ in plan.gpu_gpu_edges}:
            cer = make_cer_vertex(u)
            cers[u] = tuple(
                BoundOp(vertex=cer, stream=s, event=event_name(u))
                for s in streams
            )
        ops: List[_ProgramOp] = []
        for v in space.program_ops:
            preds = space.pred_names[v.name]
            pred_mask = 0
            for u in preds:
                pred_mask |= bit(u)
            gpu_preds = sorted(u for u in preds if is_gpu[u])
            if v.kind is OpKind.CPU:
                needs = 0
                for u in gpu_preds:
                    needs |= bit(plan.ces_name_of[(u, v.name)])
                ops.append(
                    _ProgramOp(
                        bit(v.name), pred_mask, needs, (BoundOp(vertex=v),), None
                    )
                )
            elif v.kind is OpKind.GPU:
                waits = []
                for u in gpu_preds:
                    cswe = make_cswe_vertex(u, v.name)
                    bit(cswe.name)
                    cswes = tuple(
                        BoundOp(vertex=cswe, stream=s, event=event_name(u))
                        for s in streams
                    )
                    waits.append(
                        _Wait(self.pos[u], bit(cer_name(u)), cers[u], cswes)
                    )
                on = tuple(BoundOp(vertex=v, stream=s) for s in streams)
                ops.append(
                    _ProgramOp(bit(v.name), pred_mask, 0, on, tuple(waits))
                )
            else:  # pragma: no cover - program_ops excludes START/END
                raise ScheduleError(f"unexpected kind {v.kind} in program ops")
        self.ops: Tuple[_ProgramOp, ...] = tuple(ops)
        self.records: Tuple[_Record, ...] = tuple(
            _Record(self.pos[u], bit(cer_name(u)), cers[u])
            for u in sorted(plan.cer_sources)
        )
        self.syncs: Tuple[_Sync, ...] = tuple(
            _Sync(
                bit(cer_name(u)),
                bit(plan.ces_name_of[(u, v)]) | bit(v),
                BoundOp(
                    vertex=make_ces_vertex(plan.ces_name_of[(u, v)]),
                    event=event_name(u),
                ),
            )
            for u, v in plan.ces_edges
        )


class _Node:
    """One decision-state key of a space's :class:`_StateGraph`.

    ``used`` is the mask of the bindings' streams.  ``actions`` come from
    one frontier scan, run when the node is made; ``children[i]`` is the
    node ``actions[i]`` leads to, filled on first descent; ``count`` is
    the number of complete schedules below, None until first asked.
    """

    __slots__ = (
        "mask",
        "streams",
        "used",
        "fresh",
        "complete",
        "actions",
        "children",
        "count",
    )

    def __init__(
        self,
        mask: int,
        streams: Tuple[Optional[int], ...],
        used: int,
        fresh: Optional[str],
        complete: bool,
        actions: Tuple[Action, ...],
    ) -> None:
        self.mask = mask
        self.streams = streams
        self.used = used
        self.fresh = fresh
        self.complete = complete
        self.actions = actions
        self.children: List[Optional[_Node]] = [None] * len(actions)
        self.count: Optional[int] = 1 if complete else None


class _StateGraph:
    """A space's decision states, one :class:`_Node` per key (placed
    mask, GPU bindings, fresh record), made on first visit."""

    def __init__(self, space: "DesignSpace") -> None:
        self.index = space._index
        self.n_streams = space.n_streams
        self.shared_records = space.shared_records
        self.nodes: Dict[Tuple, _Node] = {}
        self.root = self.node(0, self.index.unbound, None)

    def node(
        self,
        mask: int,
        streams: Tuple[Optional[int], ...],
        fresh: Optional[str],
    ) -> _Node:
        key = (mask, streams, fresh)
        node = self.nodes.get(key)
        if node is None:
            used = 0
            for s in streams:
                if s is not None:
                    used |= 1 << s
            complete = self.index.complete
            node = self.nodes[key] = _Node(
                mask,
                streams,
                used,
                fresh,
                mask & complete == complete,
                self._scan(mask, streams, used, fresh),
            )
        return node

    def step(self, node: _Node, action: Action) -> _Node:
        """The node reached by appending ``action`` (any op sequence)."""
        pos = self.index.pos
        mask, streams = node.mask, node.streams
        for op in action:
            i = pos[op.vertex.name]
            mask |= 1 << i
            if op.vertex.kind is OpKind.GPU:
                streams = streams[:i] + (op.stream,) + streams[i + 1 :]
        fresh = node.fresh
        if action:
            last = action[-1]
            fresh = last.event if last.vertex.name in self.shared_records else None
        return self.node(mask, streams, fresh)

    def child(self, node: _Node, i: int) -> _Node:
        child = node.children[i]
        if child is None:
            child = node.children[i] = self.step(node, node.actions[i])
        return child

    def completions(self, node: _Node) -> int:
        """Number of complete schedules reachable from ``node``."""
        if node.count is None:
            total = 0
            for i in range(len(node.actions)):
                total += self.completions(self.child(node, i))
            node.count = total
        return node.count

    def _scan(
        self,
        mask: int,
        streams: Tuple[Optional[int], ...],
        used: int,
        fresh: Optional[str],
    ) -> Tuple[Action, ...]:
        """The frontier: every legal next action, in reference order."""
        index = self.index
        actions: List[Action] = []

        # Canonical stream choices: any stream already used, plus one fresh.
        choices = range(min(used.bit_count() + 1, self.n_streams))

        for bit, preds, needs, on, waits in index.ops:
            if mask & bit or preds & ~mask:
                continue  # placed, or a DAG predecessor is not
            if waits is None:  # CPU op: its CES ops must be placed too
                if not needs & ~mask:
                    actions.append((on[0],))
                continue
            for s in choices:
                group: List[BoundOp] = []
                for slot, cer_bit, cers, cswes in waits:
                    t = streams[slot]
                    if t == s:
                        continue  # same-stream FIFO order suffices
                    if not mask & cer_bit:
                        group.append(cers[t])
                    group.append(cswes[s])
                if (
                    fresh is not None
                    and group
                    and group[0].kind is OpKind.STREAM_WAIT
                    and group[0].event == fresh
                ):
                    continue  # duplicate of the record-carrying group
                group.append(on[s])
                actions.append(tuple(group))

        # Standalone cudaEventRecord actions.
        for slot, bit, on in index.records:
            if mask >> slot & 1 and not mask & bit:
                actions.append((on[streams[slot]],))

        # Standalone cudaEventSynchronize actions.
        for cer_bit, blocked, op in index.syncs:
            if mask & cer_bit and not mask & blocked:
                actions.append((op,))

        return tuple(actions)


#: One level of a depth-first walk: a node, the ops placed before it, and
#: the index of the action taken from it.
_Frame = Tuple[_Node, Tuple[BoundOp, ...], int]


class DecisionState:
    """Immutable prefix of a schedule (the paper's ``P_k``).

    A state is its ``placed`` ops and the state-graph node of its key,
    which answers every query: completeness, actions, bindings, streams
    in use and :meth:`fresh_record`.  Equality and hashing are on
    ``(space, placed)``; treat states as values and never assign to them.
    """

    __slots__ = ("space", "placed", "_node")

    def __init__(
        self, space: "DesignSpace", placed: Tuple[BoundOp, ...] = ()
    ) -> None:
        graph = space._graph
        self.space = space
        self.placed: Tuple[BoundOp, ...] = tuple(placed)
        self._node = graph.step(graph.root, self.placed)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DecisionState:
            return NotImplemented
        return (self.space, self.placed) == (other.space, other.placed)

    def __hash__(self) -> int:
        return hash((self.space, self.placed))

    def __repr__(self) -> str:
        return f"DecisionState(space={self.space!r}, placed={self.placed!r})"

    @property
    def placed_names(self) -> FrozenSet[str]:
        return frozenset(op.name for op in self.placed)

    @property
    def gpu_streams(self) -> Dict[str, int]:
        return {
            v.name: s
            for v, s in zip(self.space.program_ops, self._node.streams)
            if s is not None
        }

    @property
    def n_streams_used(self) -> int:
        return self._node.used.bit_count()

    def is_complete(self) -> bool:
        return self._node.complete

    def schedule(self) -> Schedule:
        if not self._node.complete:
            raise ScheduleError("state is not a complete schedule")
        return Schedule(self.placed)

    def child(self, i: int) -> "DecisionState":
        """The state after ``available_actions()[i]``, on the graph's
        cached child node."""
        node = self._node
        state = DecisionState.__new__(DecisionState)
        state.space = self.space
        state.placed = self.placed + node.actions[i]
        state._node = self.space._graph.child(node, i)
        return state

    def fresh_record(self) -> Optional[str]:
        """Event of a standalone record placed by the last action, when
        its GPU op also has GPU successors; None otherwise.

        The next action may not be a group opening with a wait on that
        event: the parent state offered the same ops as one group.
        """
        return self._node.fresh

    def available_actions(self) -> Tuple[Action, ...]:
        return self._node.actions


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
    """

    index: int
    schedules: List[Schedule] = field(default_factory=list)
    cursor: EnumerationCursor = EnumerationCursor()
    n_skipped: int = 0
    n_subtrees_cut: int = 0

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
        #: Records offered both standalone and inside cross-stream groups
        #: (see :meth:`DecisionState.fresh_record`).
        self.shared_records: FrozenSet[str] = frozenset(
            cer_name(u)
            for u, _ in self.sync_plan.gpu_gpu_edges
            if u in self.sync_plan.cer_sources
        )
        self._index = _OpIndex(self)
        #: Every walk's decision states, one node per key (module docs).
        self._graph = _StateGraph(self)

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
        be suspended at any leaf and resumed from its path alone — the
        path's nodes are found again in the state graph, never
        serialized.  The leaf order is identical to the recursive
        formulation: first child first, complete states are leaves (no
        further expansion).

        ``keep_prefix`` is the branch-and-bound hook: every *expanded*
        incomplete state is tested, and a rejected prefix discards its
        whole subtree without generating it.  Soundness requires the
        predicate to be monotone (a rejected prefix stays rejected under
        any extension) — :meth:`ScheduleGuide.admits_prefix` is.  States
        rebuilt along a resume path are not re-tested: a cursor always
        addresses a leaf that was actually produced, so its prefix
        already passed.  Cuts are tallied in ``cuts`` when given; leaf
        counting additionally reads the graph's completion counts so
        callers can track exact enumeration positions under pruning.
        """
        graph = self._graph
        stack, node, placed = self._descend(after)
        if after:
            if not node.complete:
                raise ScheduleError(
                    "cursor path does not end at a complete schedule"
                )
            node = None  # resume with the backtrack step past this leaf
        while True:
            if node is None:
                # Backtrack to the deepest level with an untried action.
                while stack:
                    prev, prefix, i = stack.pop()
                    if i + 1 < len(prev.actions):
                        stack.append((prev, prefix, i + 1))
                        placed = prefix + prev.actions[i + 1]
                        node = graph.child(prev, i + 1)
                        break
                else:
                    return
            elif node.complete:
                yield tuple(i for _, _, i in stack), Schedule(placed)
                node = None
            else:
                if keep_prefix is not None and not keep_prefix(placed):
                    if cuts is not None:
                        cuts.n_subtrees += 1
                        if cuts.count_leaves:
                            cuts.n_leaves += graph.completions(node)
                    node = None  # cut: the whole subtree is skipped
                    continue
                if not node.actions:  # dead branch: contributes no schedules
                    node = None
                else:
                    stack.append((node, placed, 0))
                    placed = placed + node.actions[0]
                    node = graph.child(node, 0)

    def _descend(
        self, path: Tuple[int, ...]
    ) -> Tuple[List[_Frame], _Node, Tuple[BoundOp, ...]]:
        """Follow an action-index path from the root: the ``(node,
        prefix, index)`` frame of every step, the node reached and its
        prefix."""
        graph = self._graph
        frames: List[_Frame] = []
        node, placed = graph.root, ()
        for depth, idx in enumerate(path):
            if not 0 <= idx < len(node.actions):
                raise ScheduleError(
                    f"cursor index {idx} at depth {depth} does not address "
                    f"this design space ({len(node.actions)} actions available)"
                )
            frames.append((node, placed, idx))
            placed = placed + node.actions[idx]
            node = graph.child(node, idx)
        return frames, node, placed

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
        # off unless a range limit needs exact positions.
        cuts = _CutLog(count_leaves=limit is not None)
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
            )
            _record_block_metrics(block)
            yield block

    def count(self) -> int:
        """Number of schedules, via the completion counts of the state
        graph: each key's count is the sum of its children's, computed
        once."""
        return self._graph.completions(self._graph.root)

    def seek(self, index: int) -> EnumerationCursor:
        """Cursor that resumes enumeration at schedule ``index`` — without
        enumerating anything.

        The descent picks, level by level, the child whose completion
        count (the same counts :meth:`count` sums) contains the target
        leaf rank, so cost is O(depth × branching) count lookups instead
        of O(index) schedule constructions.  ``seek(0)`` is the start
        cursor, ``seek(count())`` the exhausted one; together with
        ``limit`` in :meth:`iter_blocks` this splits one huge sweep into
        independent ranges that concatenate bit-identically to the serial
        walk.
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
        graph = self._graph
        target = index - 1  # rank of the last already-produced leaf
        path: List[int] = []
        node = graph.root
        while not node.complete:
            for i in range(len(node.actions)):
                child = graph.child(node, i)
                below = graph.completions(child)
                if target < below:
                    path.append(i)
                    node = child
                    break
                target -= below
            else:  # pragma: no cover - counts partition the leaf ranks
                raise ScheduleError("seek descent ran out of actions")
        return EnumerationCursor(path=tuple(path))

    def random_path(
        self,
        rng: np.random.Generator,
        keep_prefix: Optional[Callable[[Tuple[BoundOp, ...]], bool]] = None,
    ) -> Optional[Tuple[int, ...]]:
        """Action-index path of a frontier-uniform random completion (the
        paper's rollout policy): one ``rng.integers(n)`` draw per decision,
        ``n`` the number of actions.  ``rng`` is a ``np.random.Generator``
        or any source whose ``integers(n)`` returns an int in ``[0, n)``
        (the advisor's sampler reads bulk words on the same stream).

        With ``keep_prefix`` the rollout is abandoned — returning None —
        the moment its prefix is rejected, mirroring the enumerator's
        branch-and-bound cut instead of finishing a doomed completion.
        """
        graph = self._graph
        node, placed = graph.root, ()
        path: List[int] = []
        while not node.complete:
            if keep_prefix is not None and not keep_prefix(placed):
                return None
            actions = node.actions
            if not actions:
                raise ScheduleError(
                    "dead end while sampling; program DAG is inconsistent"
                )
            i = int(rng.integers(len(actions)))
            path.append(i)
            if keep_prefix is not None:
                placed = placed + actions[i]
            node = graph.child(node, i)
        return tuple(path)

    def schedule_at(self, path: Tuple[int, ...]) -> Schedule:
        """The schedule at an action-index path (a cursor's ``path``, or
        :meth:`random_path`'s); each schedule has exactly one."""
        _, node, placed = self._descend(path)
        if not node.complete:
            raise ScheduleError("cursor path does not end at a complete schedule")
        return Schedule(placed)

    def random_schedule(
        self,
        rng: np.random.Generator,
        keep_prefix: Optional[Callable[[Tuple[BoundOp, ...]], bool]] = None,
    ) -> Optional[Schedule]:
        """:meth:`schedule_at` of :meth:`random_path`: a frontier-uniform
        random completion, or None when ``keep_prefix`` abandons it."""
        path = self.random_path(rng, keep_prefix)
        return None if path is None else self.schedule_at(path)

    # ------------------------------------------------------------------
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
