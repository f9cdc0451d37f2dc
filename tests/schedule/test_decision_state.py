"""Oracle test: bitmask decision states against the prefix-rescanning
reference.

A ``DecisionState`` reads its placed mask, GPU bindings, used-stream mask
and actions from its node in the space's state graph, one node per key
(placed mask, bindings, fresh record) with one frontier scan each.  The
functions below are the implementation it replaced, which rebuilt all of
them from the whole prefix on every query.  At every step of random
action paths, on Hypothesis DAGs and on every built-in workload family,
both must offer the same actions in the same order, including states
that reach one key by different paths; random draws (and the rng state
they leave), ``count()``, ``seek()`` and the schedule at a path must
agree as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.graph import Graph
from repro.dag.program import Program
from repro.dag.vertex import OpKind, cpu_op, gpu_op
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DecisionState, DesignSpace, EnumerationCursor
from repro.schedule.sync import (
    cer_name,
    event_name,
    make_cer_vertex,
    make_ces_vertex,
    make_cswe_vertex,
)
from repro.workloads import WorkloadSpec, build_workload
from repro.workloads.spec import list_families


# -- reference: every query rescans the prefix ----------------------------
def ref_placed_names(placed):
    return frozenset(op.name for op in placed)


def ref_gpu_streams(placed):
    return {op.name: op.stream for op in placed if op.kind is OpKind.GPU}


def ref_n_streams_used(placed):
    return len({op.stream for op in placed if op.stream is not None})


def ref_is_complete(space, placed):
    names = ref_placed_names(placed)
    return all(v.name in names for v in space.program_ops)


def ref_fresh_record(space, placed):
    plan = space.sync_plan
    shared = {
        cer_name(u) for u, _ in plan.gpu_gpu_edges if u in plan.cer_sources
    }
    if placed and placed[-1].name in shared:
        return placed[-1].event
    return None


def ref_available_actions(space, placed):
    plan = space.sync_plan
    kind_of = {v.name: v.kind for v in space.program_ops}
    names = ref_placed_names(placed)
    gpu_streams = ref_gpu_streams(placed)
    fresh_event = ref_fresh_record(space, placed)
    actions = []
    n_used = ref_n_streams_used(placed)
    stream_choices = list(range(min(n_used + 1, space.n_streams)))
    for v in space.program_ops:
        if v.name in names:
            continue
        pred_names = space.pred_names[v.name]
        if not pred_names <= names:
            continue
        gpu_preds = [u for u in pred_names if kind_of[u] is OpKind.GPU]
        if v.kind is OpKind.CPU:
            needed = [plan.ces_name_of[(u, v.name)] for u in gpu_preds]
            if all(n in names for n in needed):
                actions.append((BoundOp(vertex=v),))
        else:
            for s in stream_choices:
                group = []
                for u in sorted(gpu_preds):
                    if gpu_streams[u] == s:
                        continue
                    if cer_name(u) not in names and cer_name(u) not in {
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
                    continue
                group.append(BoundOp(vertex=v, stream=s))
                actions.append(tuple(group))
    for u in sorted(plan.cer_sources):
        if u in names and cer_name(u) not in names:
            actions.append(
                (
                    BoundOp(
                        vertex=make_cer_vertex(u),
                        stream=gpu_streams[u],
                        event=event_name(u),
                    ),
                )
            )
    for u, v in plan.ces_edges:
        name = plan.ces_name_of[(u, v)]
        if cer_name(u) in names and name not in names and v not in names:
            actions.append(
                (BoundOp(vertex=make_ces_vertex(name), event=event_name(u)),)
            )
    return tuple(actions)


def ref_used_mask(placed):
    """Streams of every stream-bound placed op, as states once tracked
    them."""
    mask = 0
    for op in placed:
        if op.stream is not None:
            mask |= 1 << op.stream
    return mask


def ref_random_schedule(space, rng):
    placed = ()
    while not ref_is_complete(space, placed):
        actions = ref_available_actions(space, placed)
        placed += actions[int(rng.integers(len(actions)))]
    return Schedule(placed)


def ref_completions(space, placed, memo):
    if ref_is_complete(space, placed):
        return 1
    key = (
        ref_placed_names(placed),
        tuple(sorted(ref_gpu_streams(placed).items())),
        ref_fresh_record(space, placed),
    )
    if key not in memo:
        memo[key] = sum(
            ref_completions(space, placed + a, memo)
            for a in ref_available_actions(space, placed)
        )
    return memo[key]


def ref_seek_path(space, index, memo):
    """Action-index path of schedule ``index - 1`` (0 < index < count)."""
    target = index - 1
    placed, path = (), []
    while not ref_is_complete(space, placed):
        for i, action in enumerate(ref_available_actions(space, placed)):
            below = ref_completions(space, placed + action, memo)
            if target < below:
                path.append(i)
                placed += action
                break
            target -= below
    return tuple(path)


# -- checks ----------------------------------------------------------------
def _action_key(action):
    return tuple((op.name, op.stream, op.event) for op in action)


def keys(actions):
    return [_action_key(a) for a in actions]


def assert_state_matches(space, state):
    placed = state.placed
    assert state.is_complete() == ref_is_complete(space, placed)
    assert state.fresh_record() == ref_fresh_record(space, placed)
    assert state.placed_names == ref_placed_names(placed)
    assert state.gpu_streams == ref_gpu_streams(placed)
    assert state.n_streams_used == ref_n_streams_used(placed)
    actions = state.available_actions()
    assert keys(actions) == keys(ref_available_actions(space, placed))
    return actions


def assert_walks_match(space, rng, n_paths):
    """Random action paths from the root, compared at every step; the
    state rebuilt from its bare prefix must agree too."""
    for _ in range(n_paths):
        state = space.initial_state()
        while True:
            actions = assert_state_matches(space, state)
            if state.is_complete() or not actions:
                break
            state = state.child(int(rng.integers(len(actions))))
        rebuilt = DecisionState(space, state.placed)
        assert rebuilt == state and hash(rebuilt) == hash(state)
        assert_state_matches(space, rebuilt)


def assert_draws_match(space, seed, n_draws):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n_draws):
        assert space.random_schedule(a).key == ref_random_schedule(space, b).key
        assert a.bit_generator.state == b.bit_generator.state


def assert_shared_keys_match(space, rng, n_paths):
    """Random action paths from the root, grouped by the graph node they
    reach: every prefix of a node offers the reference's actions, and its
    used-stream mask is its bindings' stream mask, so the key (placed
    mask, bindings, fresh record) determines both.  Returns the number of
    nodes reached by two or more different prefixes."""
    prefixes = {}
    for _ in range(n_paths):
        state = space.initial_state()
        while True:
            prefixes.setdefault(state._node, {})[state.placed] = state
            actions = state.available_actions()
            if state.is_complete() or not actions:
                break
            state = state.child(int(rng.integers(len(actions))))
    shared = 0
    for states in prefixes.values():
        shared += len(states) > 1
        for placed, state in states.items():
            binding_mask = 0
            for s in ref_gpu_streams(placed).values():
                binding_mask |= 1 << s
            assert ref_used_mask(placed) == binding_mask
            assert state._node.used == binding_mask
            assert keys(state.available_actions()) == keys(
                ref_available_actions(space, placed)
            )
    return shared


def assert_path_draws_match(space, seed, n_draws):
    """``random_path`` then ``schedule_at`` is the reference walk: same
    schedule, same rng state after every draw."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n_draws):
        path = space.random_path(a)
        assert space.schedule_at(path).key == ref_random_schedule(space, b).key
        assert a.bit_generator.state == b.bit_generator.state


def assert_count_and_seek_match(space, extra_indices=()):
    memo = {}
    total = ref_completions(space, (), memo)
    assert space.count() == total
    indices = {1, total // 3, total // 2, total - 1, *extra_indices}
    for i in sorted(i for i in indices if 0 < i < total):
        assert space.seek(i) == EnumerationCursor(
            path=ref_seek_path(space, i, memo)
        )


# -- Hypothesis DAGs ---------------------------------------------------------
@st.composite
def programs(draw):
    """Random CPU/GPU DAG on 2..7 vertices.

    Half the draws with three or more vertices make v0 a GPU op with a
    GPU successor (v1) and a CPU successor (v2): its record is then on
    offer both standalone and at the head of a cross-stream group, the
    case ``fresh_record`` exists for.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    gpu = [draw(st.booleans()) for _ in range(n)]
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans()) and draw(st.booleans())
    }
    if n >= 3 and draw(st.booleans()):
        gpu[:3] = [True, True, False]
        edges |= {(0, 1), (0, 2)}
    g = Graph()
    for i, is_gpu in enumerate(gpu):
        g.add_vertex(gpu_op(f"v{i}") if is_gpu else cpu_op(f"v{i}"))
    for i, j in sorted(edges):
        g.add_edge(f"v{i}", f"v{j}")
    return Program(graph=g.with_start_end(), n_ranks=1)


STREAMS = st.integers(min_value=1, max_value=3)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(programs(), STREAMS, SEEDS)
@settings(max_examples=60, deadline=None)
def test_random_walks_match_reference(program, n_streams, seed):
    space = DesignSpace(program, n_streams=n_streams)
    assert_walks_match(space, np.random.default_rng(seed), n_paths=8)


@given(programs(), STREAMS, SEEDS)
@settings(max_examples=40, deadline=None)
def test_random_schedule_matches_reference(program, n_streams, seed):
    assert_draws_match(DesignSpace(program, n_streams=n_streams), seed, 5)


@given(programs(), STREAMS, SEEDS)
@settings(max_examples=60, deadline=None)
def test_shared_keys_match_reference(program, n_streams, seed):
    space = DesignSpace(program, n_streams=n_streams)
    assert_shared_keys_match(space, np.random.default_rng(seed), n_paths=12)


@given(programs(), STREAMS, SEEDS)
@settings(max_examples=40, deadline=None)
def test_random_path_matches_reference(program, n_streams, seed):
    assert_path_draws_match(DesignSpace(program, n_streams=n_streams), seed, 5)


@given(programs(), STREAMS, st.lists(st.integers(1, 10_000), max_size=4))
@settings(max_examples=40, deadline=None)
def test_count_and_seek_match_reference(program, n_streams, extra):
    assert_count_and_seek_match(
        DesignSpace(program, n_streams=n_streams), extra
    )


# -- built-in families -------------------------------------------------------
#: Parameter overrides that keep a family's space quick to count.
SMALL = {
    "halo3d": {
        "nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "xy",
    },
    "spmv": {"scale": 0.025},
}


@pytest.mark.parametrize("family", [f.name for f in list_families()])
def test_builtin_family_matches_reference(family):
    space = DesignSpace(
        build_workload(WorkloadSpec(family, SMALL.get(family, {}))),
        n_streams=2,
    )
    assert_walks_match(space, np.random.default_rng(0), n_paths=20)
    assert_draws_match(space, seed=3, n_draws=20)
    assert_count_and_seek_match(space)


@pytest.mark.parametrize("family", [f.name for f in list_families()])
def test_builtin_family_shared_keys_match_reference(family):
    space = DesignSpace(
        build_workload(WorkloadSpec(family, SMALL.get(family, {}))),
        n_streams=2,
    )
    assert assert_shared_keys_match(space, np.random.default_rng(1), 20) > 0
    assert_path_draws_match(space, seed=4, n_draws=20)


@pytest.mark.parametrize("family", [f.name for f in list_families()])
def test_schedule_at_matches_enumeration(family):
    """The schedule at a path is the one the enumeration yields there, on
    a graph the enumeration did not build: from the start and from the
    middle of the space."""
    program = build_workload(WorkloadSpec(family, SMALL.get(family, {})))
    walked = DesignSpace(program, n_streams=2)
    fresh = DesignSpace(program, n_streams=2)
    middle = walked.seek(walked.count() // 2).path
    for after in ((), middle):
        for n, (path, schedule) in enumerate(walked._stream(after)):
            assert fresh.schedule_at(path) == schedule
            if n == 40:
                break
