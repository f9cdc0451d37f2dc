"""Directed acyclic graph of program operations (paper §III-A).

:class:`Graph` stores vertices by name with explicit dependency edges and
provides the structural queries needed by scheduling and search: predecessor
and successor sets, acyclicity validation, reachability, and the artificial
``start``/``end`` augmentation the paper describes ("there must be a path
from start to each vertex and a path from each vertex to end").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.dag.vertex import END, START, OpKind, Vertex
from repro.errors import CycleError, GraphError


class Graph:
    """A DAG of :class:`~repro.dag.vertex.Vertex` operations.

    Vertices are keyed by name.  Edges ``u -> v`` mean "v may start only
    after u completes".  The graph is mutable during construction; call
    :meth:`validate` (or :meth:`with_start_end`, which validates) once
    built.
    """

    def __init__(self) -> None:
        self._vertices: Dict[str, Vertex] = {}
        self._succs: Dict[str, Set[str]] = {}
        self._preds: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> Vertex:
        """Add ``vertex``; re-adding the identical vertex is a no-op."""
        existing = self._vertices.get(vertex.name)
        if existing is not None:
            if existing != vertex:
                raise GraphError(
                    f"vertex {vertex.name!r} already present with different "
                    f"attributes"
                )
            return existing
        self._vertices[vertex.name] = vertex
        self._succs[vertex.name] = set()
        self._preds[vertex.name] = set()
        return vertex

    def add_edge(self, u: Vertex | str, v: Vertex | str) -> None:
        """Add the dependency edge ``u -> v`` (idempotent).

        Vertex arguments are added to the graph if not yet present; string
        arguments must name existing vertices.
        """
        un = self._resolve(u)
        vn = self._resolve(v)
        if un == vn:
            raise GraphError(f"self-edge on {un!r} is not allowed")
        self._succs[un].add(vn)
        self._preds[vn].add(un)

    def _resolve(self, v: Vertex | str) -> str:
        if isinstance(v, Vertex):
            self.add_vertex(v)
            return v.name
        if v not in self._vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return v

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        if isinstance(name, Vertex):
            return name.name in self._vertices
        return name in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def vertex(self, name: str) -> Vertex:
        """Return the vertex with ``name``, raising :class:`GraphError` if absent."""
        try:
            return self._vertices[name]
        except KeyError:
            raise GraphError(f"unknown vertex {name!r}") from None

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """All vertices, in insertion order."""
        return tuple(self._vertices.values())

    @property
    def vertex_names(self) -> Tuple[str, ...]:
        return tuple(self._vertices)

    def successors(self, v: Vertex | str) -> Tuple[Vertex, ...]:
        name = v.name if isinstance(v, Vertex) else v
        if name not in self._vertices:
            raise GraphError(f"unknown vertex {name!r}")
        return tuple(self._vertices[s] for s in sorted(self._succs[name]))

    def predecessors(self, v: Vertex | str) -> Tuple[Vertex, ...]:
        name = v.name if isinstance(v, Vertex) else v
        if name not in self._vertices:
            raise GraphError(f"unknown vertex {name!r}")
        return tuple(self._vertices[p] for p in sorted(self._preds[name]))

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate over edges as (u, v) vertex pairs."""
        for un, succs in self._succs.items():
            for vn in sorted(succs):
                yield self._vertices[un], self._vertices[vn]

    def n_edges(self) -> int:
        return sum(len(s) for s in self._succs.values())

    def sources(self) -> Tuple[Vertex, ...]:
        """Vertices with no predecessors."""
        return tuple(
            v for v in self._vertices.values() if not self._preds[v.name]
        )

    def sinks(self) -> Tuple[Vertex, ...]:
        """Vertices with no successors."""
        return tuple(
            v for v in self._vertices.values() if not self._succs[v.name]
        )

    def gpu_vertices(self) -> Tuple[Vertex, ...]:
        """All GPU-kind vertices, in insertion order."""
        return tuple(v for v in self._vertices.values() if v.kind is OpKind.GPU)

    # ------------------------------------------------------------------
    # validation and structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Vertex]:
        """One topological order (Kahn's algorithm); raises on cycles."""
        indeg = {n: len(p) for n, p in self._preds.items()}
        # Deterministic: process ready vertices in insertion order.
        order: List[Vertex] = []
        ready = [n for n in self._vertices if indeg[n] == 0]
        while ready:
            n = ready.pop(0)
            order.append(self._vertices[n])
            for s in sorted(self._succs[n]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self._vertices):
            cyc = sorted(n for n in self._vertices if indeg[n] > 0)
            raise CycleError(f"graph contains a cycle through {cyc}")
        return order

    def validate(self) -> None:
        """Check acyclicity and start/end reachability requirements.

        If the graph contains ``start``/``end`` vertices, every vertex must
        be reachable from ``start`` and must reach ``end`` (paper §III-A).
        """
        self.topological_order()
        if START.name in self._vertices:
            reach = self._reachable_from(START.name)
            missing = set(self._vertices) - reach
            if missing:
                raise GraphError(
                    f"vertices unreachable from start: {sorted(missing)}"
                )
        if END.name in self._vertices:
            coreach = self._reaching(END.name)
            missing = set(self._vertices) - coreach
            if missing:
                raise GraphError(
                    f"vertices that cannot reach end: {sorted(missing)}"
                )

    def _reachable_from(self, name: str) -> Set[str]:
        seen = {name}
        stack = [name]
        while stack:
            n = stack.pop()
            for s in self._succs[n]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    def _reaching(self, name: str) -> Set[str]:
        seen = {name}
        stack = [name]
        while stack:
            n = stack.pop()
            for p in self._preds[n]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def with_start_end(self) -> "Graph":
        """Return a copy augmented with artificial ``start``/``end`` vertices.

        ``start`` precedes every source and ``end`` follows every sink, so
        the result satisfies the paper's requirement that there is a path
        from ``start`` to each vertex and from each vertex to ``end``.
        Idempotent: if both already exist, returns a plain copy.
        """
        g = self.copy()
        if START.name not in g._vertices:
            sources = [v for v in g.sources() if v.name != END.name]
            g.add_vertex(START)
            for s in sources:
                g.add_edge(START, s)
        if END.name not in g._vertices:
            sinks = [
                v
                for v in g.sinks()
                if v.name not in (START.name, END.name)
            ]
            g.add_vertex(END)
            for s in sinks:
                g.add_edge(s, END)
        g.validate()
        return g

    def copy(self) -> "Graph":
        g = Graph()
        g._vertices = dict(self._vertices)
        g._succs = {n: set(s) for n, s in self._succs.items()}
        g._preds = {n: set(p) for n, p in self._preds.items()}
        return g

    def transitive_closure(self) -> Mapping[str, Set[str]]:
        """Map each vertex name to the set of names reachable from it."""
        order = self.topological_order()
        closure: Dict[str, Set[str]] = {v.name: set() for v in order}
        for v in reversed(order):
            acc = closure[v.name]
            for s in self._succs[v.name]:
                acc.add(s)
                acc |= closure[s]
        return closure

    @classmethod
    def from_edges(
        cls, vertices: Iterable[Vertex], edges: Iterable[Tuple[str, str]]
    ) -> "Graph":
        """Build a graph from a vertex iterable and (name, name) edge pairs."""
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={len(self)}, |E|={self.n_edges()})"
