"""Per-vertex compasses: the local description of a plural-cut graph.

A compass assigns to every inner vertex four incident edges NW/SW/NE/SE
(the W slots end in the vertex, the E slots begin in it).  A graph with a
compass is a local compass graph when it is weakly connected, asemicyclic,
W-E-functional with an inner vertex, separates N from S, and every directed
path is decent.  Paths that enter at a west vertex or leave at an east
vertex are decent by convention; without that convention no star would
qualify.

Decency depends only on a path's first and last edges, so condition (5)
never builds the set of directed paths: per-edge bad-start and bad-end
marks and one linear fold over the tree decide it (`reach_marks`), and the
same fold serves `compose_local` and the bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import CompositionError, DomainError, ValidationError
from .graph import SLOTS, Edge, OrientedGraph, SemiPath


@dataclass(frozen=True)
class Compass:
    """An immutable (vertex, slot) -> edge assignment, canonically ordered."""

    entries: tuple[tuple[str, str, Edge], ...]

    @classmethod
    def of(cls, assignments: Mapping[tuple[str, str], Edge]) -> "Compass":
        entries = tuple(sorted((v, slot, e) for (v, slot), e in assignments.items()))
        for v, slot, _ in entries:
            if slot not in SLOTS:
                raise ValidationError(f"bad compass slot {slot!r} at {v}")
        if len({(v, s) for v, s, _ in entries}) != len(entries):
            raise ValidationError("duplicate compass slot")
        return cls(entries)

    @cached_property
    def _map(self) -> dict[tuple[str, str], Edge]:
        return {(v, slot): e for v, slot, e in self.entries}

    def get(self, v: str, slot: str) -> Edge | None:
        return self._map.get((v, slot))

    def edge(self, v: str, slot: str) -> Edge:
        value = self.get(v, slot)
        if value is None:
            raise DomainError(f"compass has no {slot} value at {v}")
        return value

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted({v for v, _, _ in self.entries}))

    def substituted(self, replacements: Mapping[Edge, Edge]) -> "Compass":
        return Compass.of(
            {(v, slot): replacements.get(e, e) for v, slot, e in self.entries}
        )

    def merged(self, other: "Compass") -> "Compass":
        combined = dict(self._map)
        for key, e in other._map.items():
            if key in combined and combined[key] != e:
                raise ValidationError(f"conflicting compass values at {key}")
            combined[key] = e
        return Compass.of(combined)


@dataclass(frozen=True)
class LocalCompassGraph:
    """A graph together with a compass; valid instances satisfy the five
    conditions checked by `is_local_compass_graph`."""

    graph: OrientedGraph
    compass: Compass

    @classmethod
    def checked(cls, graph: OrientedGraph, compass: Compass, extended: bool = False) -> "LocalCompassGraph":
        verdict = is_local_compass_graph(graph, compass, extended=extended)
        if not verdict.ok:
            raise DomainError(f"not a local compass graph: {verdict.describe()}")
        return cls(graph, compass)


def compass_shape_problems(graph: OrientedGraph, compass: Compass) -> list[str]:
    """Missing, extraneous, or misdirected compass slots, as messages."""
    problems = []
    inner = set(graph.inner_vertices)
    for v in sorted(inner):
        for slot in SLOTS:
            value = compass.get(v, slot)
            if value is None:
                problems.append(f"missing {slot} at {v}")
                continue
            if not graph.contains_edge(value):
                problems.append(f"{slot} at {v} is not an edge: {value}")
            elif slot.endswith("W") and value.head != v:
                problems.append(f"{slot} at {v} must end in {v}, got {value}")
            elif slot.endswith("E") and value.tail != v:
                problems.append(f"{slot} at {v} must begin in {v}, got {value}")
    for v, slot, _ in compass.entries:
        if v not in inner:
            problems.append(f"compass names non-inner vertex {v}")
            break
    return problems


def separates_n_from_s(graph: OrientedGraph, compass: Compass) -> bool:
    """True when the N and S choices differ at every vertex and side where
    the degree leaves room for a difference."""
    problems = compass_shape_problems(graph, compass)
    if problems:
        raise ValidationError("; ".join(problems))
    return separation_witness(graph, compass) is None


def separation_witness(graph: OrientedGraph, compass: Compass) -> tuple[str, str] | None:
    for v in graph.inner_vertices:
        for x, degree in (("W", graph.in_degree(v)), ("E", graph.out_degree(v))):
            if degree >= 2 and compass.get(v, "N" + x) == compass.get(v, "S" + x):
                return (v, x)
    return None


def _require_path(graph: OrientedGraph, path: SemiPath) -> None:
    if not path.is_path:
        raise DomainError(f"{path} is not a path (it has a backward step)")
    for step in path.steps:
        if not graph.contains_edge(step.edge):
            raise DomainError(f"{step.edge} is not an edge of the graph")
    for v in path.vertices:
        if not graph.has_vertex(v):
            raise DomainError(f"unknown vertex {v!r}")


def is_y_decent(graph: OrientedGraph, compass: Compass, path: SemiPath, y: str) -> bool:
    """Decency for one of N and S: the path leaves its first vertex along
    that vertex's Y-east choice, or arrives at its last vertex along the
    Y-west choice.  A W-edge first step or an E-edge last step counts
    automatically (the boundary vertex has no compass)."""
    if y not in ("N", "S"):
        raise DomainError(f"Y must be 'N' or 'S', got {y!r}")
    _require_path(graph, path)
    if len(path.vertices) == 1:
        return True
    first = path.steps[0].edge
    if graph.is_w_edge(first) or compass.get(path.first, y + "E") == first:
        return True
    last = path.steps[-1].edge
    return graph.is_e_edge(last) or compass.get(path.last, y + "W") == last


def is_decent(graph: OrientedGraph, compass: Compass, path: SemiPath) -> bool:
    return is_y_decent(graph, compass, path, "N") and is_y_decent(graph, compass, path, "S")


# One bit per Y, in the order in which decency is tested.
_Y_BITS = {"N": 1, "S": 2}


def reach_marks(
    graph: OrientedGraph, marks: Mapping[Edge, int], downstream: bool = True
) -> dict[Edge, int]:
    """Each edge's bit mask OR-ed with the masks of every edge downstream
    of it (upstream when `downstream` is false).

    One Kahn-style pass over the graph, which must be a tree: an edge is
    folded once every edge beyond its far end has been, starting at the
    sinks (the sources), so the cost is linear and nothing recurses."""
    graph._require_tree()
    ahead, behind = (
        (graph.out_edges, graph.in_edges) if downstream else (graph.in_edges, graph.out_edges)
    )
    beyond = dict.fromkeys(graph.vertices, 0)
    pending = {v: len(ahead(v)) for v in graph.vertices}
    ready = [v for v, count in pending.items() if not count]
    folded: dict[Edge, int] = {}
    while ready:
        v = ready.pop()
        for e in behind(v):
            near = e.tail if downstream else e.head
            folded[e] = marks[e] | beyond[v]
            beyond[near] |= folded[e]
            pending[near] -= 1
            if not pending[near]:
                ready.append(near)
    return folded


def _indecency_marks(
    graph: OrientedGraph, compass: Compass
) -> tuple[dict[Edge, int], dict[Edge, int]]:
    """Per edge, the Ys for which it is a bad start (not a W-edge and not
    its tail's YE choice) and a bad end (not an E-edge and not its head's YW
    choice).  A path is Y-indecent exactly when its first edge is a Y bad
    start and its last edge a Y bad end."""
    starts, ends = {}, {}
    for e in graph.edges:
        w_edge, e_edge = graph.is_w_edge(e), graph.is_e_edge(e)
        starts[e] = ends[e] = 0
        for y, bit in _Y_BITS.items():
            if not w_edge and compass.get(e.tail, y + "E") != e:
                starts[e] |= bit
            if not e_edge and compass.get(e.head, y + "W") != e:
                ends[e] |= bit
    return starts, ends


def _first_indecent(
    graph: OrientedGraph, starts: Mapping[Edge, int], ends: Mapping[Edge, int]
) -> tuple[SemiPath, str] | None:
    """The canonically least path whose first edge is a Y bad start and
    whose last edge a Y bad end, with the first such Y.

    It begins at the least vertex, and along its least out-edge, whose bad
    starts reach a bad end of the same Y; it then steps to the least child
    that still reaches one and stops at the first.  Only that path is
    built."""
    reach = reach_marks(graph, ends)
    for v in graph.vertices:
        for first in graph.out_edges(v):
            live = starts[first] & reach[first]
            if not live:
                continue
            chain, edge = [v, first.head], first
            while not ends[edge] & live:
                edge = next(e for e in graph.out_edges(edge.head) if reach[e] & live)
                chain.append(edge.head)
            failing = ends[edge] & live
            y = next(y for y, bit in _Y_BITS.items() if failing & bit)
            return (SemiPath.through(graph, chain), y)
    return None


def indecent_path_witness(graph: OrientedGraph, compass: Compass) -> tuple[SemiPath, str] | None:
    """The first indecent path in canonical order with its failing Y, or
    None when every path is decent.  Linear in the size of the tree: the
    edges are marked and folded once, and only the witness is built."""
    return _first_indecent(graph, *_indecency_marks(graph, compass))


_REASONS = {
    1: "not weakly connected",
    2: "has a semicycle",
    3: "not W-E-functional with an inner vertex",
    4: "does not separate N from S",
    5: "has an indecent path",
}


@dataclass(frozen=True)
class QFailure:
    """First failing Q-condition (1 connectivity, 2 asemicyclicity,
    3 W-E-functionality with an inner vertex) and its witness."""

    condition: int
    witness: object

    def describe(self) -> str:
        return f"condition ({self.condition}) fails: {_REASONS[self.condition]} ({self.witness})"


def q_failure(graph: OrientedGraph, extended: bool = False) -> QFailure | None:
    """The first of conditions (1)-(3) the graph fails, shared by recognition
    and the local check.  With `extended`, an identity-shaped graph (an edge,
    no inner vertex) passes condition (3)."""
    if not graph.is_weakly_connected:
        return QFailure(1, graph.component_witness())
    if not graph.is_asemicyclic:
        return QFailure(2, graph.semicycle_witness())
    if not graph.is_we_functional:
        return QFailure(3, graph.nonfunctional_witness())
    if extended:
        if not graph.edges:
            return QFailure(3, "no edge")
    elif not graph.inner_vertices:
        return QFailure(3, "no inner vertex")
    return None


@dataclass(frozen=True)
class LocalCheck:
    """Outcome of the five-condition check, with the first failure."""

    ok: bool
    condition: int | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "local compass graph"
        return QFailure(self.condition, self.witness).describe()  # the same words for (4), (5)


def is_local_compass_graph(graph: OrientedGraph, compass: Compass, extended: bool = False) -> LocalCheck:
    """Check the five defining conditions in order, reporting the first
    failure with a witness (`q_failure` decides the first three)."""
    failure = q_failure(graph, extended=extended)
    if failure is not None:
        return LocalCheck(False, failure.condition, failure.witness)
    shape = compass_shape_problems(graph, compass)
    if shape:
        return LocalCheck(False, 4, "; ".join(shape))
    separation = separation_witness(graph, compass)
    if separation is not None:
        return LocalCheck(False, 4, separation)
    indecent = indecent_path_witness(graph, compass)
    if indecent is not None:
        return LocalCheck(False, 5, indecent)
    return LocalCheck(True)


def cut_graph(d_west: OrientedGraph, e_west: Edge, d_east: OrientedGraph, e_east: Edge) -> OrientedGraph:
    """Splice two disjoint graphs along a cut.

    `e_west` = (a, b) must be a functional E-edge of `d_west` and
    `e_east` = (c, d) a functional W-edge of `d_east`; the result joins the
    graphs by the single new edge (a, d), with b and c gone.
    """
    overlap = set(d_west.vertices) & set(d_east.vertices)
    if overlap:
        raise DomainError(f"operand graphs share vertices {sorted(overlap)}")
    if not (d_west.contains_edge(e_west) and d_west.is_e_edge(e_west)):
        raise DomainError(f"{e_west} is not an E-edge of the west operand")
    if not d_west.is_functional_edge(e_west, "E"):
        raise DomainError(f"E-edge {e_west} is not functional")
    if not (d_east.contains_edge(e_east) and d_east.is_w_edge(e_east)):
        raise DomainError(f"{e_east} is not a W-edge of the east operand")
    if not d_east.is_functional_edge(e_east, "W"):
        raise DomainError(f"W-edge {e_east} is not functional")
    a, b = e_west
    c, d = e_east
    vertices = [v for v in d_west.vertices if v != b] + [v for v in d_east.vertices if v != c]
    edges = [e for e in d_west.edges if e != e_west]
    edges += [e for e in d_east.edges if e != e_east]
    edges.append(Edge(a, d))
    return OrientedGraph.of(vertices, edges)


def compose_local(
    west: LocalCompassGraph, e_west: Edge, east: LocalCompassGraph, e_east: Edge
) -> LocalCompassGraph:
    """Cut two local compass graphs together.

    Compass values equal to a consumed edge become the new edge; the other
    values carry over.  Only paths covering the new edge need a decency
    check: such a path is indecent exactly when a bad start on or upstream
    of the new edge meets a bad end of the same Y on or downstream of it.
    The least indecent one is reported as the composition error.
    """
    carrier = cut_graph(west.graph, e_west, east.graph, e_east)
    new_edge = Edge(e_west.tail, e_east.head)
    replacements = {e_west: new_edge, e_east: new_edge}
    merged = west.compass.substituted(replacements).merged(
        east.compass.substituted(replacements)
    )
    starts, ends = _indecency_marks(carrier, merged)
    cut = {e: int(e == new_edge) for e in carrier.edges}
    above, below = reach_marks(carrier, cut), reach_marks(carrier, cut, downstream=False)
    covering = _first_indecent(
        carrier,
        {e: starts[e] if above[e] else 0 for e in carrier.edges},
        {e: ends[e] if below[e] else 0 for e in carrier.edges},
    )
    if covering is not None:
        path, y = covering
        raise CompositionError(
            f"path {path} covering the cut edge {new_edge} is not {y}-decent"
        )
    return LocalCompassGraph(carrier, merged)
