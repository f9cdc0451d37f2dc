"""Topological traversals of a program DAG, as the design space yields them.

A DAG of CPU ops alone has no stream to bind and no sync op to insert, so
its design space is exactly the graph's set of topological orders.  These
tests check the space's count, enumeration, sampling and membership test
against closed forms and a brute-force oracle over all permutations.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.graph import Graph
from repro.dag.program import Program
from repro.dag.vertex import cpu_op
from repro.errors import ScheduleError
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace


def chain(n: int) -> Graph:
    g = Graph()
    prev = None
    for i in range(n):
        v = cpu_op(f"v{i}")
        g.add_vertex(v)
        if prev is not None:
            g.add_edge(prev, v)
        prev = v
    return g


def antichain(n: int) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_vertex(cpu_op(f"v{i}"))
    return g


@st.composite
def random_dags(draw):
    """Random DAG on up to 7 vertices: edges only i -> j for i < j."""
    n = draw(st.integers(min_value=1, max_value=7))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((f"v{i}", f"v{j}"))
    g = Graph()
    for i in range(n):
        g.add_vertex(cpu_op(f"v{i}"))
    for u, v in edges:
        g.add_edge(u, v)
    return g


def space_of(g: Graph) -> DesignSpace:
    return DesignSpace(Program(graph=g.with_start_end(), n_ranks=1), n_streams=1)


def topological_orders(g: Graph) -> set:
    """Every permutation of the vertex names that respects every edge."""
    edges = [(u.name, v.name) for u, v in g.edges()]
    orders = set()
    for perm in itertools.permutations(g.vertex_names):
        pos = {name: i for i, name in enumerate(perm)}
        if all(pos[u] < pos[v] for u, v in edges):
            orders.add(perm)
    return orders


def schedule_of(g: Graph, names) -> Schedule:
    return Schedule([BoundOp(g.vertex(name)) for name in names])


class TestCounting:
    def test_chain_has_one_extension(self):
        assert space_of(chain(6)).count() == 1

    def test_antichain_has_factorial_extensions(self):
        assert space_of(antichain(5)).count() == 120

    def test_two_disjoint_chains(self):
        g = chain(3)
        prev = None
        for i in range(3):
            v = cpu_op(f"w{i}")
            g.add_vertex(v)
            if prev is not None:
                g.add_edge(prev, v)
            prev = v
        # interleavings of two length-3 chains: C(6,3) = 20
        assert space_of(g).count() == 20

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_count_matches_enumeration(self, g):
        assert space_of(g).count() == len(topological_orders(g))


class TestEnumeration:
    @given(random_dags())
    @settings(max_examples=30, deadline=None)
    def test_all_orders_are_valid_and_distinct(self, g):
        orders = [s.op_names() for s in space_of(g).enumerate_schedules()]
        assert len(set(orders)) == len(orders)
        assert set(orders) == topological_orders(g)


class TestValidation:
    def test_wrong_length_rejected(self):
        g = chain(3)
        with pytest.raises(ScheduleError, match="missing op"):
            space_of(g).validate_schedule(schedule_of(g, ["v0", "v1"]))

    def test_wrong_order_rejected(self):
        g = chain(3)
        with pytest.raises(ScheduleError, match="dependency violated"):
            space_of(g).validate_schedule(schedule_of(g, ["v1", "v0", "v2"]))

    def test_right_order_accepted(self):
        g = chain(3)
        space_of(g).validate_schedule(schedule_of(g, ["v0", "v1", "v2"]))


class TestRandomOrder:
    @given(random_dags(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_random_order_is_valid(self, g, seed):
        schedule = space_of(g).random_schedule(np.random.default_rng(seed))
        assert schedule.op_names() in topological_orders(g)

    def test_deterministic_given_seed(self):
        space = space_of(antichain(6))
        a = space.random_schedule(np.random.default_rng(7))
        b = space.random_schedule(np.random.default_rng(7))
        assert a.op_names() == b.op_names()

    def test_covers_space_eventually(self):
        space = space_of(antichain(3))
        rng = np.random.default_rng(0)
        seen = {space.random_schedule(rng).op_names() for _ in range(200)}
        assert len(seen) == 6
