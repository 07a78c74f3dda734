"""The two-way bridge between constructions and local compass graphs.

`lambda_of` reads a compass off a construction: each basic leaf stamps its
distinguished edges onto its center, and every cut redirects values equal to
a consumed edge onto the new edge.  `construction_from_compass` inverts it:
it splits the carrier at inner edges, restricting the compass to each side,
until only stars (and, in the extended setting, single edges) remain.  The
distinguished edges of a construction can also be recovered from its compass
alone: the X-edge all of whose covering paths are YX-paths.  That is read
off one linear fold of the non-YX edges over the tree; no path is built.
"""

from __future__ import annotations

from .compass import Compass, LocalCompassGraph, is_local_compass_graph, reach_marks
from .construct import Construction, IdentityGraph, compose, fresh_secondary_names, leaf, make_basic
from .errors import DomainError
from .graph import Edge, OrientedGraph, SemiPath, split_at_inner_edge


def lambda_of(g: Construction) -> LocalCompassGraph:
    """The local compass graph of a construction: its root graph with the
    leaf compasses pushed through all cuts."""
    if g.mode != "K":
        raise DomainError("only mode-K constructions carry a compass")
    return LocalCompassGraph(g.root_graph, Compass.of(_compass_entries(g)))


def _compass_entries(g: Construction) -> dict[tuple[str, str], Edge]:
    if g.is_leaf:
        obj = g.leaf_obj
        if isinstance(obj, IdentityGraph):
            return {}
        assert obj is not None
        return {(obj.center, slot): edge for slot, edge in obj.distinguished.items()}
    assert g.left is not None and g.right is not None
    assert g.cut_west is not None and g.cut_east is not None
    new_edge = g.cut_edge
    entries = {}
    for child in (g.left, g.right):
        for key, value in _compass_entries(child).items():
            if value in (g.cut_west, g.cut_east):
                value = new_edge
            entries[key] = value
    return entries


def is_yx_edge(graph: OrientedGraph, compass: Compass, e: Edge, y: str, x: str) -> bool:
    """Is `e` the vertex's own Y-choice at the X end, or an edge whose X end
    has no compass at all (E-edges count for YW, W-edges for YE)?"""
    if y not in ("N", "S") or x not in ("W", "E"):
        raise DomainError(f"bad compass direction {y!r}{x!r}")
    if not graph.contains_edge(e):
        raise DomainError(f"unknown edge {e}")
    if x == "W":
        return compass.get(e.head, y + "W") == e or graph.is_e_edge(e)
    return compass.get(e.tail, y + "E") == e or graph.is_w_edge(e)


def is_yx_path(graph: OrientedGraph, compass: Compass, path: SemiPath, y: str, x: str) -> bool:
    """A path every edge of which is a YX-edge."""
    if not path.is_path:
        raise DomainError(f"{path} is not a path")
    return all(is_yx_edge(graph, compass, e, y, x) for e in path.edges)


def distinguished_from_compass(lcg: LocalCompassGraph, y: str, x: str) -> Edge:
    """The unique X-edge all of whose covering paths are YX-paths; for the
    compass of a construction this recovers that construction's YX edge.

    The paths covering a W-edge are the paths that start with it, so all
    of them are YW-paths exactly when it and every edge downstream of it are
    YW-edges; an E-edge reads upstream instead."""
    graph, compass = lcg.graph, lcg.compass
    strays = {e: int(not is_yx_edge(graph, compass, e, y, x)) for e in graph.edges}
    beyond = reach_marks(graph, strays, downstream=x == "W")
    pool = graph.w_edges if x == "W" else graph.e_edges
    hits = [h for h in pool if not beyond[h]]
    if len(hits) != 1:
        raise DomainError(
            f"{len(hits)} candidate {y}{x} edges {hits}: not the compass of a construction"
        )
    return hits[0]


def construction_from_compass(lcg: LocalCompassGraph, extended: bool = False) -> Construction:
    """A construction whose compass is exactly `lcg`.

    The carrier is split at its smallest inner edge, with fresh secondary
    vertices rebuilding the two cut pieces and the compass restricted to
    each side; stars become basic leaves read off the compass.
    """
    verdict = is_local_compass_graph(lcg.graph, lcg.compass, extended=extended)
    if not verdict.ok:
        raise DomainError(f"not a local compass graph: {verdict.describe()}")
    names = fresh_secondary_names(lcg.graph.vertices)
    return _build(lcg.graph, lcg.compass, names)


def _build(graph: OrientedGraph, compass: Compass, names) -> Construction:
    inner_edges = graph.inner_edges
    if not inner_edges:
        inner = graph.inner_vertices
        if not inner:
            # extended base case: a single edge
            edge = graph.edges[0]
            return leaf(IdentityGraph(edge.tail, edge.head), "K")
        center = inner[0]
        wests = tuple(e.tail for e in graph.in_edges(center))
        easts = tuple(e.head for e in graph.out_edges(center))
        basic = make_basic(
            center,
            wests,
            easts,
            compass.edge(center, "NW"),
            compass.edge(center, "SW"),
            compass.edge(center, "NE"),
            compass.edge(center, "SE"),
            mode="K",
        )
        return leaf(basic, "K")
    e = inner_edges[0]
    b, c = next(names), next(names)
    west_graph, east_graph = split_at_inner_edge(graph, e, b, c)
    e_west = Edge(e.tail, b)
    e_east = Edge(c, e.head)
    west_compass = compass.restricted(west_graph.inner_vertices).substituted({e: e_west})
    east_compass = compass.restricted(east_graph.inner_vertices).substituted({e: e_east})
    return compose(
        _build(west_graph, west_compass, names),
        e_west,
        _build(east_graph, east_compass, names),
        e_east,
    )
