"""Independent brute-force oracles the production code is checked against.

Everything here recomputes results from first principles: semicycles by
exhaustive semiwalk extension, transversal edges by enumerating semipaths
(and by one breadth-first search per edge side), the root of a
transversal-free decomposition by building every hanging tree,
decency by pairwise forward reachability (with the indecent-path witness,
the covering-path check of `compose_local` and the recovery of
distinguished edges re-derived from every directed path), conditions
(1)-(3) as the local check first wrote them, compass
existence by enumerating all assignments, rewrite equivalence by
breadth-first search over moves, rewrite moves by hand-written cuts (and
their applicability by building every move), equivalence up to rho and
sigma by canonical renaming and leaf multisets, star graphs of basic leaves
by the validating graph constructor, cuts by copying and re-validating whole
root graphs, cut-tree walks by recursion, constructions from a compass (and
mode-Q constructions) by splitting at the smallest inner edge and
recursing, and oriented-tree counts from labeled trees.  None of it shares algorithms with the production path it checks.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from unittest import mock

from kcut import (
    SLOTS,
    CompositionError,
    Construction,
    DomainError,
    Edge,
    GraphInvariantError,
    IdentityGraph,
    OrientedGraph,
    RewriteError,
    SemiPath,
    applicable_rho_moves,
    apply_rho_move,
    eliminate_identities,
    is_local_compass_graph,
    is_yx_edge,
    rho_equivalent,
    sigma_canonical,
)
from kcut import construct
from kcut.compass import Compass, LocalCompassGraph, cut_graph
from kcut.construct import compose, fresh_secondary_names, leaf, make_basic
from kcut.recognize import q_failure


def semicycle_exists(graph: OrientedGraph) -> bool:
    """Exhaustive search for a closed semiwalk with >= 3 distinct vertices."""

    def extend(walk: list[str]) -> bool:
        last = walk[-1]
        for nxt in graph._adjacency[last]:
            if nxt == walk[0] and len(walk) >= 3:
                return True
            if nxt not in walk:
                walk.append(nxt)
                if extend(walk):
                    return True
                walk.pop()
        return False

    return any(extend([v]) for v in graph.vertices)


def all_semipaths(graph: OrientedGraph) -> list[SemiPath]:
    """Every simple semipath with at least two vertices."""
    found: list[SemiPath] = []

    def extend(walk: list[str]) -> None:
        for nxt in graph._adjacency[walk[-1]]:
            if nxt in walk:
                continue
            walk.append(nxt)
            found.append(SemiPath.through(graph, walk))
            extend(walk)
            walk.pop()

    for v in graph.vertices:
        extend([v])
    return found


def unique_semipath(graph: OrientedGraph, u: str, v: str) -> SemiPath:
    """The one semipath joining `u` to `v` in a tree, read back from `v`
    along the breadth-first parents of a walk from `u`."""
    graph._require_tree()
    for w in (u, v):
        if not graph.has_vertex(w):
            raise DomainError(f"unknown vertex {w!r}")
    _, parent = graph._walk(u)
    chain = [v]
    while chain[-1] != u:
        chain.append(parent[chain[-1]])
    return SemiPath.through(graph, reversed(chain))


def proper_semipaths(graph: OrientedGraph) -> list[SemiPath]:
    def is_proper(sp: SemiPath) -> bool:
        return any(s.forward for s in sp.steps) and any(not s.forward for s in sp.steps)

    return [sp for sp in all_semipaths(graph) if is_proper(sp)]


def transversal_edge_by_enumeration(graph: OrientedGraph, edge: Edge) -> bool:
    """The defining condition verbatim: some proper semipath starts
    tail,head and some proper semipath starts head,tail."""
    proper = proper_semipaths(graph)
    starts = {(sp.vertices[0], sp.vertices[1]) for sp in proper}
    return (edge.tail, edge.head) in starts and (edge.head, edge.tail) in starts


def transversal_edges_by_enumeration(graph: OrientedGraph) -> set[Edge]:
    return {e for e in graph.edges if transversal_edge_by_enumeration(graph, e)}


def _side_parents(graph: OrientedGraph, root: str, avoid: Edge) -> dict[str, str]:
    """Parent map of the component reachable from `root` without traversing
    `avoid`; the root is absent from the map."""
    parents: dict[str, str] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in graph._adjacency[v]:
            if {v, w} == {avoid.tail, avoid.head}:
                continue
            if w not in seen:
                seen.add(w)
                parents[w] = v
                queue.append(w)
    return parents


def side_has_step(graph: OrientedGraph, root: str, avoid: Edge, toward: bool) -> bool:
    """Does the side of `root` (with `avoid` removed) contain an edge
    pointing toward the root (`toward`) or away from it (not `toward`)?
    One breadth-first search plus a scan of every edge."""
    parents = _side_parents(graph, root, avoid)
    members = set(parents) | {root}
    for e in graph.edges:
        if e == avoid or e.tail not in members or e.head not in members:
            continue
        if toward and parents.get(e.tail) == e.head:
            return True
        if not toward and parents.get(e.head) == e.tail:
            return True
    return False


def transversal_edges_by_sides(graph: OrientedGraph) -> tuple[Edge, ...]:
    """The tree reading of transversality, tested edge by edge: the head's
    side holds an edge pointing toward the head, the tail's side one
    pointing away from the tail."""
    return tuple(
        e
        for e in graph.edges
        if side_has_step(graph, e.head, e, toward=True)
        and side_has_step(graph, e.tail, e, toward=False)
    )


def _hanging_tree_by_scan(graph: OrientedGraph, root: str, attach: Edge) -> OrientedGraph:
    far = attach.head if attach.tail == root else attach.tail
    members = set(_side_parents(graph, far, attach)) | {far, root}
    edges = [attach] + [
        e
        for e in graph.edges
        if e != attach and e.tail in members - {root} and e.head in members - {root}
    ]
    return OrientedGraph.of(members, edges)


def _oriented_uniformly(tree: OrientedGraph, root: str, inward: bool) -> bool:
    parents = {root: root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in tree._adjacency[v]:
            if w not in parents:
                parents[w] = v
                queue.append(w)
    return all((parents.get(e.tail) == e.head) == inward for e in tree.edges)


def degenerate_root_by_scan(graph: OrientedGraph) -> str | None:
    """The smallest inner vertex (any vertex when none is inner) all of
    whose hanging trees, each built by scanning every edge, are oriented
    toward it when they hang from an in-edge and away from it otherwise."""
    for v in graph.inner_vertices or graph.vertices:
        if all(
            _oriented_uniformly(_hanging_tree_by_scan(graph, v, e), v, e.head == v)
            for e in graph.in_edges(v) + graph.out_edges(v)
        ):
            return v
    return None


def bifurcation_by_enumeration(graph: OrientedGraph) -> tuple[Edge, Edge, Edge] | None:
    """Any triple of distinct transversal edges sharing a vertex."""
    t_edges = sorted(transversal_edges_by_enumeration(graph))
    for triple in itertools.combinations(t_edges, 3):
        shared = set.intersection(*({e.tail, e.head} for e in triple))
        if shared:
            return triple
    return None


def forward_paths_by_reachability(graph: OrientedGraph) -> list[tuple[str, ...]]:
    """All directed paths, found pairwise: for each ordered vertex pair,
    breadth-first search along forward edges only."""
    out = []
    for u in graph.vertices:
        prev: dict[str, str] = {u: u}
        queue = deque([u])
        while queue:
            v = queue.popleft()
            for edge in graph.out_edges(v):
                if edge.head not in prev:
                    prev[edge.head] = v
                    queue.append(edge.head)
        for v in graph.vertices:
            if v != u and v in prev:
                chain = [v]
                while chain[-1] != u:
                    chain.append(prev[chain[-1]])
                out.append(tuple(reversed(chain)))
    return sorted(out)


def decent_by_definition(graph: OrientedGraph, compass: Compass, chain: tuple[str, ...], y: str) -> bool:
    """Decency re-derived from scratch, boundary convention included."""
    if len(chain) == 1:
        return True
    first = Edge(chain[0], chain[1])
    last = Edge(chain[-2], chain[-1])
    first_ok = graph.is_w_edge(first) or compass.get(chain[0], y + "E") == first
    last_ok = graph.is_e_edge(last) or compass.get(chain[-1], y + "W") == last
    return first_ok or last_ok


def every_path_decent(graph: OrientedGraph, compass: Compass) -> bool:
    return all(
        decent_by_definition(graph, compass, chain, y)
        for chain in forward_paths_by_reachability(graph)
        for y in ("N", "S")
    )


def _chain_edges(chain: tuple[str, ...]) -> list[Edge]:
    return [Edge(a, b) for a, b in zip(chain, chain[1:])]


def indecent_path_by_enumeration(graph: OrientedGraph, compass: Compass) -> tuple[SemiPath, str] | None:
    """The canonically first indecent path with its first failing Y, found
    by testing every directed path in turn."""
    for chain in forward_paths_by_reachability(graph):
        for y in ("N", "S"):
            if not decent_by_definition(graph, compass, chain, y):
                return (SemiPath.through(graph, chain), y)
    return None


def compose_local_by_enumeration(
    west: LocalCompassGraph, e_west: Edge, east: LocalCompassGraph, e_east: Edge
) -> LocalCompassGraph:
    """`compose_local` re-derived: test every directed path that covers the
    new edge, in canonical order, and name the first indecent one."""
    carrier = cut_graph(west.graph, e_west, east.graph, e_east)
    new_edge = Edge(e_west.tail, e_east.head)
    replacements = {e_west: new_edge, e_east: new_edge}
    merged = west.compass.substituted(replacements).merged(
        east.compass.substituted(replacements)
    )
    for chain in forward_paths_by_reachability(carrier):
        if new_edge not in _chain_edges(chain):
            continue
        for y in ("N", "S"):
            if not decent_by_definition(carrier, merged, chain, y):
                path = SemiPath.through(carrier, chain)
                raise CompositionError(
                    f"path {path} covering the cut edge {new_edge} is not {y}-decent"
                )
    return LocalCompassGraph(carrier, merged)


def distinguished_candidates_by_enumeration(lcg: LocalCompassGraph, y: str, x: str) -> list[Edge]:
    """Every X-edge all of whose covering paths are YX-paths, testing each
    edge of each directed path."""
    graph, compass = lcg.graph, lcg.compass
    chains = [_chain_edges(chain) for chain in forward_paths_by_reachability(graph)]
    pool = graph.w_edges if x == "W" else graph.e_edges
    return [
        h
        for h in pool
        if all(
            is_yx_edge(graph, compass, edge, y, x)
            for edges in chains
            if h in edges
            for edge in edges
        )
    ]


def enumerate_compasses(graph: OrientedGraph, branching_limit: int = 7):
    """Yield every N-from-S-separating compass assignment.  Guarded by the
    number of branching (vertex, side) slots to keep the product bounded."""
    per_slot: list[tuple[str, str, list[tuple[Edge, Edge]]]] = []
    branching = 0
    for v in graph.inner_vertices:
        for x, edges in (("W", graph.in_edges(v)), ("E", graph.out_edges(v))):
            if len(edges) == 1:
                pairs = [(edges[0], edges[0])]
            else:
                branching += 1
                pairs = [(n, s) for n in edges for s in edges if n != s]
            per_slot.append((v, x, pairs))
    if branching > branching_limit:
        raise ValueError(f"too many branching slots ({branching}) to enumerate")
    for combo in itertools.product(*(pairs for _, _, pairs in per_slot)):
        assignments = {}
        for (v, x, _), (north, south) in zip(per_slot, combo):
            assignments[(v, "N" + x)] = north
            assignments[(v, "S" + x)] = south
        yield Compass.of(assignments)


def some_valid_compass(graph: OrientedGraph, branching_limit: int = 7) -> Compass | None:
    for compass in enumerate_compasses(graph, branching_limit):
        if is_local_compass_graph(graph, compass).ok:
            return compass
    return None


def _encode(c: Construction):
    if c.is_leaf:
        obj = c.leaf_obj
        if isinstance(obj, IdentityGraph):
            return ("identity", obj.west, obj.east)
        return ("basic", obj.center, obj.west, obj.east, obj.nw, obj.sw, obj.ne, obj.se)
    return ("cut", _encode(c.left), c.cut_west, _encode(c.right), c.cut_east)


def compose_by_copying(
    g_west: Construction, e_west: Edge, g_east: Construction, e_east: Edge
) -> tuple[OrientedGraph, tuple[tuple[str, Edge], ...]]:
    """The cut as first written: splice copies of both root graphs through
    the validating `cut_graph`, then rescan the result for its W- and
    E-edges.  Returns the root graph and the distinguished edges, or raises
    what that cut raised, in the same order."""
    if g_west.mode != g_east.mode:
        raise DomainError(f"operand modes differ: {g_west.mode} vs {g_east.mode}")
    west, east = g_west.yx_map, g_east.yx_map
    if g_west.mode == "K":
        for y in "NS":
            if e_west != west[y + "E"] and e_east != east[y + "W"]:
                raise CompositionError(
                    f"cut edges are distinguished for neither operand at Y={y}: "
                    f"{e_west} is not {y}E of the west operand and "
                    f"{e_east} is not {y}W of the east operand"
                )
    root = cut_graph(g_west.root_graph, e_west, g_east.root_graph, e_east)
    new_edge = Edge(e_west.tail, e_east.head)
    chosen = {}
    for y in "NS":
        chosen[y + "W"] = west[y + "W"] if east[y + "W"] == e_east else east[y + "W"]
        chosen[y + "E"] = east[y + "E"] if west[y + "E"] == e_west else west[y + "E"]
    yx = {slot: new_edge if chosen[slot] in (e_west, e_east) else chosen[slot] for slot in SLOTS}
    if g_west.mode == "K":
        for x, edges in (("W", root.w_edges), ("E", root.e_edges)):
            if len(edges) >= 2 and yx["N" + x] == yx["S" + x]:
                raise GraphInvariantError(
                    f"distinguished {x}-edges collapsed on a branching root: {yx}"
                )
    return root, tuple(yx.items())


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


def construction_by_splitting(lcg: LocalCompassGraph, extended: bool = False) -> Construction:
    """`construction_from_compass` as first written: split the carrier at
    its smallest inner edge, rebuild both sides through the validating
    `OrientedGraph.of`, restrict the compass to each, and recurse down to
    the stars."""
    verdict = is_local_compass_graph(lcg.graph, lcg.compass, extended=extended)
    if not verdict.ok:
        raise DomainError(f"not a local compass graph: {verdict.describe()}")
    names = fresh_secondary_names(lcg.graph.vertices)

    def build(graph: OrientedGraph, compass: Compass) -> Construction:
        if not graph.inner_edges:
            if not graph.inner_vertices:
                edge = graph.edges[0]
                return leaf(IdentityGraph(edge.tail, edge.head), "K")
            center = graph.inner_vertices[0]
            wests = tuple(e.tail for e in graph.in_edges(center))
            easts = tuple(e.head for e in graph.out_edges(center))
            slots = [compass.edge(center, slot) for slot in SLOTS]
            return leaf(make_basic(center, wests, easts, *slots, mode="K"), "K")
        e = graph.inner_edges[0]
        b, c = next(names), next(names)
        west_graph, east_graph = split_at_inner_edge(graph, e, b, c)
        e_west, e_east = Edge(e.tail, b), Edge(c, e.head)

        def restricted(side: OrientedGraph, stub: Edge) -> Compass:
            keep = set(side.inner_vertices)
            return Compass.of({(v, s): stub if x == e else x for v, s, x in compass.entries if v in keep})

        return compose(
            build(west_graph, restricted(west_graph, e_west)), e_west,
            build(east_graph, restricted(east_graph, e_east)), e_east,
        )

    return build(lcg.graph, lcg.compass)


def qgraph_construction_by_splitting(graph: OrientedGraph, d: Edge, x: str) -> Construction:
    """`qgraph_construction` as first written: split at the smallest inner
    edge and steer the recursion so that the side holding `d` keeps it
    distinguished while the other side distinguishes its own stub."""
    failure = q_failure(graph)
    if failure is not None:
        raise DomainError(f"not a Q-graph: {failure.describe()}")
    if x not in ("W", "E"):
        raise DomainError(f"X must be 'W' or 'E', got {x!r}")
    if not graph.contains_edge(d):
        raise DomainError(f"unknown edge {d}")
    if x == "W" and not graph.is_w_edge(d):
        raise DomainError(f"{d} is not a W-edge")
    if x == "E" and not graph.is_e_edge(d):
        raise DomainError(f"{d} is not an E-edge")
    names = fresh_secondary_names(graph.vertices)

    def build(graph: OrientedGraph, d: Edge, x: str) -> Construction:
        if not graph.inner_edges:
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
        e = graph.inner_edges[0]
        b, c = next(names), next(names)
        west_graph, east_graph = split_at_inner_edge(graph, e, b, c)
        e_west, e_east = Edge(e.tail, b), Edge(c, e.head)
        if x == "W":
            if west_graph.contains_edge(d):
                g_west, g_east = build(west_graph, d, "W"), build(east_graph, e_east, "W")
            else:
                g_west, g_east = build(west_graph, e_west, "E"), build(east_graph, d, "W")
        elif east_graph.contains_edge(d):
            g_west, g_east = build(west_graph, e_west, "E"), build(east_graph, d, "E")
        else:
            g_west, g_east = build(west_graph, d, "E"), build(east_graph, e_east, "W")
        return compose(g_west, e_west, g_east, e_east)

    return build(graph, d, x)


def leaves_by_recursion(c: Construction) -> list:
    if c.is_leaf:
        return [c.leaf_obj]
    return leaves_by_recursion(c.left) + leaves_by_recursion(c.right)


def internal_sites_by_recursion(c: Construction) -> list[str]:
    if c.is_leaf:
        return []
    return (
        [""]
        + ["L" + s for s in internal_sites_by_recursion(c.left)]
        + ["R" + s for s in internal_sites_by_recursion(c.right)]
    )


def compass_entries_by_recursion(c: Construction) -> dict:
    """The leaf compasses pushed through the cuts bottom-up, one copied dict
    per node: each cut redirects values equal to a consumed edge."""
    if c.is_leaf:
        obj = c.leaf_obj
        if isinstance(obj, IdentityGraph):
            return {}
        return {(obj.center, slot): edge for slot, edge in obj.distinguished.items()}
    entries = {}
    for child in (c.left, c.right):
        for key, value in compass_entries_by_recursion(child).items():
            entries[key] = c.cut_edge if value in (c.cut_west, c.cut_east) else value
    return entries


def same_compass_graph_by_sigma_rho(g: Construction, h: Construction) -> bool:
    """Equivalence up to rho and sigma as it was first decided: remove
    identity leaves, rename secondary vertices canonically, then compare
    root graphs and multisets of basic leaves.  It never misses an
    equivalent pair, but its NW/SW-first numbering can give two
    inequivalent constructions the same leaves, so it may say True wrongly."""
    return rho_equivalent(sigma_canonical(eliminate_identities(g)), sigma_canonical(eliminate_identities(h)))


def make_basic_through_of(center, west, east, nw, sw, ne, se, mode="K") -> OrientedGraph:
    """The star graph of a basic leaf as `make_basic` gave it before it
    checked tokens itself: every other check of `make_basic` first, then
    the whole star re-validated by `OrientedGraph.of`; returns that graph
    or raises the first error."""
    with mock.patch.object(construct, "_check_token", lambda name: None):
        make_basic(center, west, east, nw, sw, ne, se, mode=mode)
    edges = [(w, center) for w in west] + [(center, x) for x in east]
    return OrientedGraph.of([center, *west, *east], edges)


def rho_equivalent_by_search(g: Construction, h: Construction, max_states: int = 20000) -> bool:
    """Breadth-first search over rewrite moves from g, looking for h."""
    target = _encode(h)
    seen = {_encode(g)}
    queue = deque([g])
    while queue:
        current = queue.popleft()
        if _encode(current) == target:
            return True
        for site, move, direction in applicable_rho_moves(current):
            nxt = apply_rho_move(current, site, move, direction)
            key = _encode(nxt)
            if key not in seen:
                if len(seen) >= max_states:
                    raise RewriteError("state budget exhausted")
                seen.add(key)
                queue.append(nxt)
    return False


def rewrite_node_by_hand(node: Construction, move: str, direction: str) -> Construction:
    """A move at `node` as first written: the same shape checks and texts,
    with membership read off the root graph, then one hand-written pair of
    `compose` calls per move."""
    if node.is_leaf:
        raise RewriteError("no cut at this site")
    shapes = {("assoc", "L2R"): ("west", "east"), ("assoc", "R2L"): ("east", "west"),
              ("commuteE", "L2R"): ("west", "west"), ("commuteW", "L2R"): ("east", "east")}
    key = (move, direction if move == "assoc" else "L2R")
    if key not in shapes:
        raise RewriteError(f"unknown move {move!r} with direction {direction!r}")
    outer, child = shapes[key]
    name = f"{move} {direction}" if move == "assoc" else move
    west, g_w, east, g_e = node.operands
    inner, cut = (west, g_w) if outer == "west" else (east, g_e)
    if inner.is_leaf:
        raise RewriteError(f"{name} needs a cut as the {outer} operand")
    i_w, i_cw, i_e, i_ce = inner.operands
    if cut == inner.cut_edge or i_w.root_graph.contains_edge(cut) != (child == "west"):
        raise RewriteError(f"{name} needs the outer cut {cut} inside the {outer} operand's {child} child")
    if key == ("assoc", "L2R"):
        return compose(i_w, i_cw, compose(i_e, g_w, east, g_e), i_ce)
    if key == ("assoc", "R2L"):
        return compose(compose(west, g_w, i_w, g_e), i_cw, i_e, i_ce)
    if move == "commuteE":
        return compose(compose(i_w, g_w, east, g_e), i_cw, i_e, i_ce)
    return compose(i_w, i_cw, compose(west, g_w, i_e, g_e), i_ce)


def rho_move_by_hand(g: Construction, site: str, move: str, direction: str = "L2R") -> Construction:
    """`apply_rho_move` at an existing site, by recursion down to it."""
    if not site:
        return rewrite_node_by_hand(g, move, direction)
    west, e_west, east, e_east = g.operands
    if site[0] == "L":
        return compose(rho_move_by_hand(west, site[1:], move, direction), e_west, east, e_east)
    return compose(west, e_west, rho_move_by_hand(east, site[1:], move, direction), e_east)


def applicable_rho_moves_by_building(g: Construction) -> list[tuple[str, str, str]]:
    """`applicable_rho_moves` as first written: every move built in full at
    every internal site, kept unless the build raises a `RewriteError`."""
    out = []
    for site in internal_sites_by_recursion(g):
        node = g
        for step in site:
            node = node.left if step == "L" else node.right
        for move, direction in (("assoc", "L2R"), ("assoc", "R2L"), ("commuteE", "L2R"), ("commuteW", "L2R")):
            try:
                rewrite_node_by_hand(node, move, direction)
            except RewriteError:
                continue
            out.append((site, move, direction))
    return out


# -- conditions (1)-(3), as the local check once wrote them inline -----------


def q_conditions_inline(graph: OrientedGraph, extended: bool = False) -> tuple[int, object, str] | None:
    """The first failing condition of (1)-(3) as `is_local_compass_graph`
    checked them before it called `q_failure`: each witness computed in
    turn, then the inner vertex (an edge, once extended).  Returns the
    condition, its witness and the text the check gave, or None."""
    reasons = {1: "not weakly connected", 2: "has a semicycle", 3: "not W-E-functional with an inner vertex"}
    failed = lambda condition, witness: (
        condition, witness, f"condition ({condition}) fails: {reasons[condition]} ({witness})"
    )
    components = graph.component_witness()
    if components is not None:
        return failed(1, components)
    semicycle = graph.semicycle_witness()
    if semicycle is not None:
        return failed(2, semicycle)
    nonfunctional = graph.nonfunctional_witness()
    if nonfunctional is not None:
        return failed(3, nonfunctional)
    if extended:
        if not graph.edges:
            return failed(3, "no edge")
    elif not graph.inner_vertices:
        return failed(3, "no inner vertex")
    return None


def oriented_graphs(max_vertices: int):
    """Every oriented graph on 1 to `max_vertices` labelled vertices: each
    pair of vertices joined by no edge or by one edge either way."""
    for n in range(1, max_vertices + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        for ways in itertools.product((None, False, True), repeat=len(pairs)):
            edges = [(a, b) if forward else (b, a) for (a, b), forward in zip(pairs, ways) if forward is not None]
            yield OrientedGraph.of(names, edges)


# -- labeled oriented trees, for enumeration cross-checks --------------------


def canonical_code_by_rootings(graph: OrientedGraph) -> str:
    """The canonical code as first written: the least of the codes of the
    tree rooted at each vertex, every subtree code recomputed."""

    def subtree_code(vertex: str, parent: str | None) -> str:
        parts = []
        for e in graph.edges:
            if vertex in e and parent not in e:
                child, bit = (e.head, ">") if e.tail == vertex else (e.tail, "<")
                parts.append(bit + subtree_code(child, vertex))
        return "(" + "".join(sorted(parts)) + ")"

    return min(subtree_code(v, None) for v in graph.vertices)


def labeled_trees(n: int) -> list[list[tuple[int, int]]]:
    """All labeled trees on 0..n-1 as undirected edge lists, one per
    Pruefer sequence."""
    if n == 1:
        return [[]]
    if n == 2:
        return [[(0, 1)]]
    trees = []
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        heap = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(heap)
        edges = []
        for v in seq:
            u = heapq.heappop(heap)
            edges.append((u, v))
            degree[u] -= 1
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        last = [v for v in range(n) if degree[v] == 1]
        edges.append((last[0], last[1]))
        trees.append(edges)
    return trees


def _oracle_canon(n: int, arcs: frozenset[tuple[int, int]]) -> frozenset:
    """Canonical form by minimizing over all vertex permutations; exact but
    exponential, so only used at tiny sizes."""
    best = None
    for perm in itertools.permutations(range(n)):
        image = frozenset((perm[a], perm[b]) for a, b in arcs)
        key = tuple(sorted(image))
        if best is None or key < best:
            best = key
    return frozenset(best)


def count_oriented_trees_bruteforce(n: int) -> int:
    """Number of oriented trees on n vertices up to isomorphism, from all
    labeled trees and all orientations, deduplicated by permutation canon."""
    seen = set()
    for tree in labeled_trees(n):
        for bits in itertools.product((0, 1), repeat=len(tree)):
            arcs = frozenset(
                (a, b) if bit == 0 else (b, a) for (a, b), bit in zip(tree, bits)
            )
            seen.add(_oracle_canon(n, arcs))
    return len(seen)
