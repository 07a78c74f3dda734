"""The two-way bridge between constructions and local compass graphs.

`lambda_of` reads a compass off a construction: each basic leaf stamps its
distinguished edges onto its center, and every cut redirects values equal to
a consumed edge onto the new edge; `construct.same_compass_graph` decides
equivalence up to rho and sigma by this compass.  `construction_from_compass`
inverts it without splitting anything: every inner vertex becomes a star
whose distinguished edges are its compass values, each inner edge becomes a
fresh pair of stubs, and one breadth-first walk cuts the stars back together
along the inner edges, children into parents, in O(n log n) and without
recursion (`construct.assemble`).  In the extended setting a single edge
becomes an identity leaf.  The distinguished edges of a construction can
also be recovered from its compass alone: the X-edge all of whose covering
paths are YX-paths.  That is read off one linear fold of the non-YX edges
over the tree; no path is built.
"""

from __future__ import annotations

from .compass import Compass, LocalCompassGraph, reach_marks
from .construct import Construction, _compass_entries, assemble
from .errors import DomainError
from .graph import SLOTS, Edge, OrientedGraph, SemiPath


def lambda_of(g: Construction) -> LocalCompassGraph:
    """The local compass graph of a construction: its root graph with the
    leaf compasses pushed through all cuts."""
    if g.mode != "K":
        raise DomainError("only mode-K constructions carry a compass")
    return LocalCompassGraph(g.root_graph, Compass.of(_compass_entries(g)))


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
    """A construction whose compass is exactly `lcg`: the star of every
    inner vertex reads its distinguished edges off the compass, and the
    stars are cut back together along the inner edges (`assemble`)."""
    LocalCompassGraph.checked(lcg.graph, lcg.compass, extended=extended)
    compass = lcg.compass
    return assemble(lcg.graph, "K", lambda v, star, toward: [star[compass.edge(v, s)] for s in SLOTS])
