"""Oriented-graph data model and the structural predicates used everywhere.

An oriented graph here is a finite, irreflexive, antisymmetric edge relation
on a nonempty set of named vertices.  Graphs are immutable values: every
"modification" (renaming, cutting) builds a new graph.  Vertex and edge
tuples are kept sorted so that iteration, tie-breaking and serialization are
deterministic.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, GraphInvariantError

# User-facing vertex tokens.  A leading '#' marks the reserved namespace for
# machine-generated secondary vertices; the text formats reject it.
TOKEN_RE = re.compile(r"#?[A-Za-z0-9_]+\Z")

# Compass slots: Y in {N, S} crossed with X in {W, E}.
SLOTS = ("NW", "SW", "NE", "SE")

# Side-mark bits (`OrientedGraph.side_marks`): the side of an endpoint v of
# a tree edge, once that edge is removed, holds an edge pointing toward v or
# an edge pointing away from v.
TOWARD = 1
AWAY = 2


class Edge(NamedTuple):
    tail: str
    head: str

    def __str__(self) -> str:
        return f"{self.tail}>{self.head}"


class VertexClass(Enum):
    WEST = "west"          # no incoming edges, at least one outgoing
    EAST = "east"          # no outgoing edges, at least one incoming
    INNER = "inner"        # both
    ISOLATED = "isolated"  # neither


class Step(NamedTuple):
    """One move of a semipath: the edge used and whether it was walked
    tail-to-head (forward) or head-to-tail (backward)."""

    edge: Edge
    forward: bool


def _check_token(name: str) -> None:
    if not TOKEN_RE.match(name):
        raise GraphInvariantError(f"bad vertex token {name!r}")


@dataclass(frozen=True)
class SemiPath:
    """A direction-blind simple walk: distinct vertices joined by steps that
    may traverse each edge either way.  A path is the all-forward case."""

    vertices: tuple[str, ...]
    steps: tuple[Step, ...]

    @classmethod
    def through(cls, graph: "OrientedGraph", vertices: Iterable[str]) -> "SemiPath":
        """Build the semipath visiting `vertices` in order, reading each
        step's edge and direction off `graph`."""
        vs = tuple(vertices)
        if not vs:
            raise DomainError("a semipath needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise DomainError(f"semipath vertices must be distinct: {vs}")
        steps = []
        for a, b in zip(vs, vs[1:]):
            if graph.has_edge(a, b):
                steps.append(Step(Edge(a, b), True))
            elif graph.has_edge(b, a):
                steps.append(Step(Edge(b, a), False))
            else:
                raise DomainError(f"no edge joins {a} and {b}")
        for v in vs:
            if not graph.has_vertex(v):
                raise DomainError(f"unknown vertex {v!r}")
        return cls(vs, tuple(steps))

    @property
    def is_path(self) -> bool:
        return all(step.forward for step in self.steps)

    @property
    def first(self) -> str:
        return self.vertices[0]

    @property
    def last(self) -> str:
        return self.vertices[-1]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(step.edge for step in self.steps)

    def cognate(self) -> "SemiPath":
        """The same walk in the opposite order."""
        steps = tuple(Step(s.edge, not s.forward) for s in reversed(self.steps))
        return SemiPath(tuple(reversed(self.vertices)), steps)

    def covers(self, edge: Edge) -> bool:
        return any(step.edge == edge for step in self.steps)

    def __str__(self) -> str:
        if not self.steps:
            return self.vertices[0]
        out = [self.vertices[0]]
        for v, step in zip(self.vertices[1:], self.steps):
            out.append(">" if step.forward else "<")
            out.append(v)
        return "".join(out)


@dataclass(frozen=True)
class OrientedGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def of(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "OrientedGraph":
        """Validated constructor: checks tokens, endpoint membership,
        irreflexivity and antisymmetry, and canonicalizes the ordering."""
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise GraphInvariantError("vertex set must be nonempty")
        for v in vs:
            _check_token(v)
        es = tuple(sorted({Edge(*e) for e in edges}))
        vset = set(vs)
        pairs = {(e.tail, e.head) for e in es}
        for e in es:
            if e.tail == e.head:
                raise GraphInvariantError(f"irreflexivity violated by {e}")
            if e.tail not in vset or e.head not in vset:
                raise GraphInvariantError(f"edge {e} has an undeclared endpoint")
            if (e.head, e.tail) in pairs:
                raise GraphInvariantError(
                    f"antisymmetry violated by {e} and {Edge(e.head, e.tail)}"
                )
        return cls(vs, es)

    @classmethod
    def unchecked(cls, vertices: Iterable[str], edges: Iterable[Edge]) -> "OrientedGraph":
        """Constructor for graphs whose invariants the caller guarantees (a
        side of a valid tree, a cut-tree's root): it only sorts distinct
        vertices and distinct `Edge`s."""
        return cls(tuple(sorted(vertices)), tuple(sorted(edges)))

    # -- basic queries ----------------------------------------------------

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def _vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.tail].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def _in(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.head].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def has_edge(self, tail: str, head: str) -> bool:
        return Edge(tail, head) in self._edge_set

    def contains_edge(self, e: Edge) -> bool:
        return e in self._edge_set

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self._require_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        self._require_vertex(v)
        return self._in[v]

    def out_degree(self, v: str) -> int:
        return len(self.out_edges(v))

    def in_degree(self, v: str) -> int:
        return len(self.in_edges(v))

    def _require_vertex(self, v: str) -> None:
        if v not in self._vertex_set:
            raise DomainError(f"unknown vertex {v!r}")

    def _require_edge(self, e: Edge) -> None:
        if e not in self._edge_set:
            raise DomainError(f"unknown edge {e}")

    # -- vertex and edge classification -----------------------------------

    def vertex_class(self, v: str) -> VertexClass:
        self._require_vertex(v)
        has_in = bool(self._in[v])
        has_out = bool(self._out[v])
        if has_in and has_out:
            return VertexClass.INNER
        if has_out:
            return VertexClass.WEST
        if has_in:
            return VertexClass.EAST
        return VertexClass.ISOLATED

    @cached_property
    def west_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.vertex_class(v) is VertexClass.WEST)

    @cached_property
    def east_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.vertex_class(v) is VertexClass.EAST)

    @cached_property
    def inner_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.vertex_class(v) is VertexClass.INNER)

    def is_w_edge(self, e: Edge) -> bool:
        """True when `e` begins in a west vertex."""
        self._require_edge(e)
        return not self._in[e.tail]

    def is_e_edge(self, e: Edge) -> bool:
        """True when `e` ends in an east vertex."""
        self._require_edge(e)
        return not self._out[e.head]

    def is_inner_edge(self, e: Edge) -> bool:
        self._require_edge(e)
        return (
            self.vertex_class(e.tail) is VertexClass.INNER
            and self.vertex_class(e.head) is VertexClass.INNER
        )

    @cached_property
    def w_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if self.is_w_edge(e))

    @cached_property
    def e_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if self.is_e_edge(e))

    @cached_property
    def inner_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if self.is_inner_edge(e))

    def is_functional_edge(self, e: Edge, side: str) -> bool:
        """Functionality of a W-edge (side 'W': the tail has out-degree 1)
        or of an E-edge (side 'E': the head has in-degree 1)."""
        if side == "W":
            if not self.is_w_edge(e):
                raise DomainError(f"{e} is not a W-edge")
            return self.out_degree(e.tail) == 1
        if side == "E":
            if not self.is_e_edge(e):
                raise DomainError(f"{e} is not an E-edge")
            return self.in_degree(e.head) == 1
        raise DomainError(f"side must be 'W' or 'E', got {side!r}")

    # -- connectivity and circularity --------------------------------------

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def is_weakly_connected(self) -> bool:
        return self.component_witness() is None

    def component_witness(self) -> tuple[str, str] | None:
        """A pair of vertices joined by no semipath, or None when none exists."""
        order, parent = self._walk(self.vertices[0])
        if len(order) == len(self.vertices):
            return None
        return next((order[0], v) for v in self.vertices if v not in parent)

    def _walk(self, start: str, cut: Edge | None = None) -> tuple[list[str], dict[str, str]]:
        """Breadth-first order of the vertices `start` reaches without
        crossing the edge `cut`, and the vertex each was reached from: its
        parent in the tree rooted at `start` (`start` is its own)."""
        order = [start]
        parent = {start: start}
        barred = {cut.tail: cut.head, cut.head: cut.tail} if cut else {}
        for v in order:  # the loop also visits what it appends
            bar = barred.get(v)
            for w in self._adjacency[v]:
                if w not in parent and w != bar:
                    parent[w] = v
                    order.append(w)
        return order, parent

    def _edge_between(self, u: str, v: str) -> Edge:
        return Edge(u, v) if (u, v) in self._edge_set else Edge(v, u)

    @cached_property
    def side_marks(self) -> dict[Edge, tuple[int, int]]:
        """For every edge, the TOWARD/AWAY bits of its tail's side and of its
        head's side once the edge is removed (the graph must be a tree).

        An all-directions fold over the tree rooted at the first vertex: a
        pass in reverse breadth-first order gathers the bits of each subtree,
        and a forward pass adds those of everything outside it, from the
        parent's outside and the siblings' subtrees.  Per-parent counts of
        the children that carry each bit leave one sibling out in O(1).
        """
        self._require_tree()
        order, parent = self._walk(self.vertices[0])
        edge = {c: self._edge_between(parent[c], c) for c in order[1:]}
        below = dict.fromkeys(order, 0)  # bits of v's subtree, seen from v
        hung: dict[str, int] = {}  # bits of c's subtree and parent edge, seen from the parent
        count = {bit: dict.fromkeys(order, 0) for bit in (TOWARD, AWAY)}
        for c in reversed(order[1:]):
            p, e = parent[c], edge[c]
            hung[c] = bits = below[c] | (TOWARD if e.head == p else AWAY)
            below[p] |= bits
            for bit in (TOWARD, AWAY):
                count[bit][p] += bool(bits & bit)
        outside = {order[0]: 0}  # bits beyond v's subtree, parent edge included, seen from v
        marks: dict[Edge, tuple[int, int]] = {}
        for c in order[1:]:
            p, e = parent[c], edge[c]
            rest = outside[p]
            for bit in (TOWARD, AWAY):
                if count[bit][p] > bool(hung[c] & bit):
                    rest |= bit
            marks[e] = (below[c], rest) if e.tail == c else (rest, below[c])
            outside[c] = rest | (TOWARD if e.head == c else AWAY)
        return marks

    def side(self, v: str, cut: Edge) -> tuple[list[str], list[Edge]]:
        """The vertices and edges of the side of `v` once the edge `cut` is
        removed (the graph must be a tree)."""
        members, parent = self._walk(v, cut)
        return members, [self._edge_between(parent[w], w) for w in members[1:]]

    @cached_property
    def is_asemicyclic(self) -> bool:
        return self.semicycle_witness() is None

    def semicycle_witness(self) -> tuple[str, ...] | None:
        """A semicycle as a closed vertex sequence, or None.

        For an antisymmetric irreflexive relation a semicycle is exactly an
        undirected cycle, so DFS over the underlying graph suffices; the
        brute-force semipath enumerator stays in the test suite as an oracle.
        """
        parent: dict[str, str | None] = {}
        for root in self.vertices:
            if root in parent:
                continue
            parent[root] = None
            stack = [(root, iter(self._adjacency[root]))]
            while stack:
                v, it = stack[-1]
                advanced = False
                for w in it:
                    if w == parent[v]:
                        continue
                    if w in parent:
                        # Close the cycle v .. w using the DFS tree.
                        chain = [v]
                        cur = v
                        while cur != w:
                            cur = parent[cur]  # type: ignore[assignment]
                            chain.append(cur)
                        chain.reverse()
                        return tuple(chain) + (chain[0],)
                    parent[w] = v
                    stack.append((w, iter(self._adjacency[w])))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
        return None

    @cached_property
    def is_we_functional(self) -> bool:
        return self.nonfunctional_witness() is None

    def nonfunctional_witness(self) -> Edge | None:
        """A W- or E-edge that is not functional, or None."""
        for e in self.edges:
            if self.is_w_edge(e) and self.out_degree(e.tail) != 1:
                return e
            if self.is_e_edge(e) and self.in_degree(e.head) != 1:
                return e
        return None

    @cached_property
    def is_tree(self) -> bool:
        return self.is_weakly_connected and self.is_asemicyclic

    def _require_tree(self) -> None:
        if not self.is_tree:
            raise DomainError("graph must be weakly connected and asemicyclic")

    # -- semipaths ---------------------------------------------------------

    def unique_semipath(self, u: str, v: str) -> SemiPath:
        """The one semipath joining `u` to `v` (the graph must be a tree)."""
        self._require_tree()
        self._require_vertex(u)
        self._require_vertex(v)
        if u == v:
            return SemiPath((u,), ())
        prev: dict[str, str] = {u: u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for y in self._adjacency[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        chain = [v]
        while chain[-1] != u:
            chain.append(prev[chain[-1]])
        chain.reverse()
        return SemiPath.through(self, chain)

    # -- derived graphs ----------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "OrientedGraph":
        """A copy with vertices renamed; names not mentioned stay put."""
        sub = lambda v: mapping.get(v, v)
        renamed = [sub(v) for v in self.vertices]
        if len(set(renamed)) != len(renamed):
            raise DomainError(f"renaming {mapping} collapses vertices")
        return OrientedGraph.of(renamed, [(sub(e.tail), sub(e.head)) for e in self.edges])

    def __str__(self) -> str:
        isolated = [v for v in self.vertices if not self._in[v] and not self._out[v]]
        parts = [str(e) for e in self.edges] + isolated
        return "{" + ", ".join(parts) + "}"


def split_at_inner_edge(
    graph: OrientedGraph, e: Edge, b: str, c: str
) -> tuple[OrientedGraph, OrientedGraph]:
    """Cut the inner edge `e` = (a, d) of a tree back into two graphs: the
    side of a with the fresh east vertex `b` on the new E-edge (a, b), and
    the side of d with the fresh west vertex `c` on the new W-edge (c, d)."""
    if not graph.contains_edge(e) or not graph.is_inner_edge(e):
        raise DomainError(f"{e} is not an inner edge")
    a, d = e
    west_members, west_edges = graph.side(a, e)
    east_members, east_edges = graph.side(d, e)
    west = OrientedGraph.of(west_members + [b], west_edges + [Edge(a, b)])
    east = OrientedGraph.of(east_members + [c], east_edges + [Edge(c, d)])
    return west, east
