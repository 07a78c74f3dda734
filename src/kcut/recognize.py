"""Combinatorial recognition of plural-cut graphs, with certificates.

A Q-graph is an oriented graph that is weakly connected, asemicyclic and
W-E-functional with an inner vertex.  A K-graph is a Q-graph in which no
three transversal edges share a vertex; it then decomposes into a single
transversal semipath plus trees planted on it, oriented toward the root on
the in-going side and away from it on the out-going side.  Failures are
certified: a failing condition with a witness, or a bifurcating triple of
transversal edges classified by its in/out pattern at the shared vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compass import Compass
from .construct import Construction, compose, fresh_secondary_names, leaf, make_basic
from .errors import DomainError, GraphInvariantError
from .graph import AWAY, TOWARD, Edge, OrientedGraph, SemiPath, split_at_inner_edge

KGRAPH = "kgraph"
QGRAPH_ONLY = "qgraph-only"
NOT_QGRAPH = "not-qgraph"


@dataclass(frozen=True)
class QFailure:
    """First failing Q-condition (1 connectivity, 2 asemicyclicity,
    3 W-E-functionality with an inner vertex) and its witness."""

    condition: int
    witness: object

    def describe(self) -> str:
        reasons = {1: "not weakly connected", 2: "has a semicycle", 3: "not W-E-functional with an inner vertex"}
        return f"condition ({self.condition}) fails: {reasons[self.condition]} ({self.witness})"


@dataclass(frozen=True)
class QVerdict:
    ok: bool
    failure: QFailure | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Bifurcation:
    """Three transversal edges sharing a vertex, classified by how many of
    them come in and go out there: (3,0), (2,1), (1,2) or (0,3)."""

    vertex: str
    edges: tuple[Edge, Edge, Edge]
    pattern: tuple[int, int]


@dataclass(frozen=True)
class Decomposition:
    """Transversal semipath (a single designated vertex when there are no
    transversal edges) plus the trees hanging off its vertices."""

    transversal: SemiPath
    transversal_vertices: tuple[str, ...]
    in_trees: tuple[tuple[str, OrientedGraph], ...]
    out_trees: tuple[tuple[str, OrientedGraph], ...]


@dataclass(frozen=True)
class Verdict:
    kind: str
    decomposition: Decomposition | None = None
    bifurcation: Bifurcation | None = None
    failure: QFailure | None = None


def is_proper(sp: SemiPath) -> bool:
    """A semipath with a direction change: neither it nor its cognate is a
    path."""
    return any(s.forward for s in sp.steps) and any(not s.forward for s in sp.steps)


def q_failure(graph: OrientedGraph, extended: bool = False) -> QFailure | None:
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


def is_qgraph(graph: OrientedGraph, extended: bool = False) -> QVerdict:
    failure = q_failure(graph, extended=extended)
    return QVerdict(failure is None, failure)


def _require_qgraph(graph: OrientedGraph, extended: bool = False) -> None:
    failure = q_failure(graph, extended=extended)
    if failure is not None:
        raise DomainError(f"not a Q-graph: {failure.describe()}")


def _is_transversal(graph: OrientedGraph, e: Edge) -> bool:
    tail_side, head_side = graph.side_marks[e]
    return bool(head_side & TOWARD and tail_side & AWAY)


def is_transversal_edge(graph: OrientedGraph, e: Edge, extended: bool = False) -> bool:
    """An edge (a, b) is transversal when a proper semipath starts a,b and a
    proper semipath starts b,a.  In a tree that means the side of b holds an
    edge pointing toward b and the side of a an edge pointing away from a."""
    _require_qgraph(graph, extended=extended)
    if not graph.contains_edge(e):
        raise DomainError(f"unknown edge {e}")
    return _is_transversal(graph, e)


def transversal_edges(graph: OrientedGraph, extended: bool = False) -> tuple[Edge, ...]:
    _require_qgraph(graph, extended=extended)
    return tuple(e for e in graph.edges if _is_transversal(graph, e))


def _bifurcation_from(t_edges: tuple[Edge, ...]) -> Bifurcation | None:
    incident: dict[str, list[Edge]] = {}
    for e in t_edges:
        incident.setdefault(e.tail, []).append(e)
        incident.setdefault(e.head, []).append(e)
    for v in sorted(incident):
        edges = sorted(incident[v])
        if len(edges) >= 3:
            triple = tuple(edges[:3])
            ins = sum(1 for e in triple if e.head == v)
            return Bifurcation(v, triple, (ins, 3 - ins))
    return None


def transversal_bifurcation_witness(
    graph: OrientedGraph, extended: bool = False
) -> Bifurcation | None:
    """The canonically first vertex where three transversal edges meet,
    with the three smallest such edges, or None."""
    return _bifurcation_from(transversal_edges(graph, extended=extended))


def _hanging_tree(graph: OrientedGraph, root: str, attach: Edge) -> OrientedGraph:
    """The subtree reached from `root` through `attach`, including `attach`
    and `root` itself."""
    far = attach.head if attach.tail == root else attach.tail
    members, edges = graph.side(far, attach)
    return OrientedGraph.unchecked(members + [root], edges + [attach])


def _hangs_uniformly(graph: OrientedGraph, root: str, attach: Edge) -> bool:
    """Is the subtree hanging from `root` through `attach` oriented toward
    the root when `attach` comes in, and away from it when it goes out?"""
    tail_side, head_side = graph.side_marks[attach]
    if attach.head == root:
        return not tail_side & AWAY
    return not head_side & TOWARD


def _assemble_transversal(graph: OrientedGraph, t_edges: tuple[Edge, ...]) -> SemiPath:
    """Order the transversal edges into their semipath; of the two cognate
    readings, the one starting at the smaller vertex is returned."""
    incident: dict[str, list[Edge]] = {}
    for e in t_edges:
        incident.setdefault(e.tail, []).append(e)
        incident.setdefault(e.head, []).append(e)
    ends = sorted(v for v, es in incident.items() if len(es) == 1)
    if len(ends) != 2:
        raise GraphInvariantError(f"transversal edges do not form one path: {t_edges}")
    start = ends[0]
    walk = [start]
    used: set[Edge] = set()
    while len(used) < len(t_edges):
        step = next(e for e in incident[walk[-1]] if e not in used)
        used.add(step)
        walk.append(step.head if step.tail == walk[-1] else step.tail)
    return SemiPath.through(graph, walk)


def _degenerate_root(graph: OrientedGraph) -> str:
    """The shared root of a transversal-free decomposition: the smallest
    vertex all of whose hanging subtrees are uniformly oriented."""
    candidates = graph.inner_vertices or graph.vertices
    for v in candidates:
        if all(_hangs_uniformly(graph, v, e) for e in graph.in_edges(v) + graph.out_edges(v)):
            return v
    raise DomainError("no vertex roots a uniformly oriented decomposition")


def _build_decomposition(
    graph: OrientedGraph, t_edges: tuple[Edge, ...]
) -> Decomposition:
    if t_edges:
        transversal = _assemble_transversal(graph, t_edges)
        t_vertices = set(transversal.vertices)
    else:
        root = _degenerate_root(graph)
        transversal = SemiPath((root,), ())
        t_vertices = {root}
    t_edge_set = set(t_edges)
    in_trees = []
    out_trees = []
    for v in sorted(t_vertices):
        for e in graph.in_edges(v) + graph.out_edges(v):
            if e in t_edge_set:
                continue
            inward = e.head == v
            if not _hangs_uniformly(graph, v, e):
                kind, way = ("in-going", "toward") if inward else ("out-going", "away from")
                raise GraphInvariantError(f"{kind} tree at {v} via {e} is not oriented {way} its root")
            (in_trees if inward else out_trees).append((v, _hanging_tree(graph, v, e)))
    by_attachment = lambda item: (item[0], item[1].edges)
    return Decomposition(
        transversal=transversal,
        transversal_vertices=tuple(sorted(t_vertices)),
        in_trees=tuple(sorted(in_trees, key=by_attachment)),
        out_trees=tuple(sorted(out_trees, key=by_attachment)),
    )


def is_kgraph(graph: OrientedGraph, extended: bool = False) -> Verdict:
    """Classify a graph, carrying the matching certificate: a Q-condition
    failure, a transversal bifurcation, or the full decomposition."""
    failure = q_failure(graph, extended=extended)
    if failure is not None:
        return Verdict(NOT_QGRAPH, failure=failure)
    t_edges = transversal_edges(graph, extended=extended)
    bifurcation = _bifurcation_from(t_edges)
    if bifurcation is not None:
        return Verdict(QGRAPH_ONLY, bifurcation=bifurcation)
    return Verdict(KGRAPH, decomposition=_build_decomposition(graph, t_edges))


def decompose(graph: OrientedGraph, extended: bool = False) -> Decomposition:
    """The transversal-and-trees decomposition of a K-graph."""
    verdict = is_kgraph(graph, extended=extended)
    if verdict.kind != KGRAPH:
        raise DomainError(f"not a K-graph: {verdict}")
    if verdict.decomposition is None:
        raise GraphInvariantError(f"a K-graph verdict without a decomposition: {verdict}")
    return verdict.decomposition


def synthesize_compass(graph: OrientedGraph, extended: bool = False) -> Compass | None:
    """A compass making the graph a local compass graph, or None when the
    graph has a transversal bifurcation (and hence admits none).

    Along the transversal a forward step fixes SE at its tail and NW at its
    head, a backward step SW and NE; every remaining slot takes the smallest
    eligible edge, or the two smallest where the degree forces N and S to
    differ.
    """
    _require_qgraph(graph, extended=extended)
    t_edges = transversal_edges(graph, extended=extended)
    if _bifurcation_from(t_edges) is not None:
        return None
    assignments: dict[tuple[str, str], Edge] = {}
    if t_edges:
        walk = _assemble_transversal(graph, t_edges).vertices
        for a, b in zip(walk, walk[1:]):
            if graph.has_edge(a, b):
                assignments[(a, "SE")] = Edge(a, b)
                assignments[(b, "NW")] = Edge(a, b)
            else:
                assignments[(a, "SW")] = Edge(b, a)
                assignments[(b, "NE")] = Edge(b, a)
    for v in graph.inner_vertices:
        for x, edges in (("W", graph.in_edges(v)), ("E", graph.out_edges(v))):
            north = assignments.get((v, "N" + x))
            south = assignments.get((v, "S" + x))
            if len(edges) == 1:
                assignments[(v, "N" + x)] = north or edges[0]
                assignments[(v, "S" + x)] = south or edges[0]
                continue
            if north is None and south is None:
                north, south = edges[0], edges[1]
            elif north is None:
                north = next(e for e in edges if e != south)
            elif south is None:
                south = next(e for e in edges if e != north)
            assignments[(v, "N" + x)] = north
            assignments[(v, "S" + x)] = south
    return Compass.of(assignments)


def qgraph_construction(graph: OrientedGraph, d: Edge, x: str) -> Construction:
    """A mode-Q construction of the graph whose N and S distinguished edges
    on side `x` both equal `d`.

    Splits at the smallest inner edge and steers the recursion so that the
    side holding `d` keeps it distinguished while the other side distinguishes
    its own piece of the cut.
    """
    _require_qgraph(graph)
    if x not in ("W", "E"):
        raise DomainError(f"X must be 'W' or 'E', got {x!r}")
    if not graph.contains_edge(d):
        raise DomainError(f"unknown edge {d}")
    if x == "W" and not graph.is_w_edge(d):
        raise DomainError(f"{d} is not a W-edge")
    if x == "E" and not graph.is_e_edge(d):
        raise DomainError(f"{d} is not an E-edge")
    names = fresh_secondary_names(graph.vertices)
    return _qgraph_construction(graph, d, x, names)


def _qgraph_construction(graph, d, x, names) -> Construction:
    inner = graph.inner_edges
    if not inner:
        center = graph.inner_vertices[0]
        wests = tuple(e.tail for e in graph.in_edges(center))
        easts = tuple(e.head for e in graph.out_edges(center))
        if x == "W":
            nw = sw = d
            ne = se = graph.out_edges(center)[0]
        else:
            ne = se = d
            nw = sw = graph.in_edges(center)[0]
        return leaf(make_basic(center, wests, easts, nw, sw, ne, se, mode="Q"), "Q")
    e = inner[0]
    b, c = next(names), next(names)
    west_graph, east_graph = split_at_inner_edge(graph, e, b, c)
    e_west = Edge(e.tail, b)
    e_east = Edge(c, e.head)
    if x == "W":
        if west_graph.contains_edge(d):
            g_west = _qgraph_construction(west_graph, d, "W", names)
            g_east = _qgraph_construction(east_graph, e_east, "W", names)
        else:
            g_west = _qgraph_construction(west_graph, e_west, "E", names)
            g_east = _qgraph_construction(east_graph, d, "W", names)
    else:
        if east_graph.contains_edge(d):
            g_east = _qgraph_construction(east_graph, d, "E", names)
            g_west = _qgraph_construction(west_graph, e_west, "E", names)
        else:
            g_east = _qgraph_construction(east_graph, e_east, "W", names)
            g_west = _qgraph_construction(west_graph, d, "E", names)
    return compose(g_west, e_west, g_east, e_east)
