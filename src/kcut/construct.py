"""Constructions: binary cut-trees over basic and identity leaves.

A construction records, at every node, four distinguished edges NW/SW/NE/SE;
only its leaves hold graphs, and a node's root graph is built when read.
Composing two constructions cuts a functional E-edge of the west operand
against a functional W-edge of the east operand, joins the graphs along a
fresh edge, and propagates the distinguished edges.  Mode "K" enforces the
two side conditions that make the result planar-cut shaped (distinct
distinguished edges on branching sides of a leaf; every cut edge
distinguished for both N and S); mode "Q" drops them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import CompositionError, DomainError, GraphInvariantError, RewriteError, ValidationError
from .graph import SLOTS, Edge, OrientedGraph, _check_token

MODES = ("K", "Q")

# Reserved prefix for machine-generated secondary vertex names.
SECONDARY_PREFIX = "#s"


def fresh_secondary_names(taken: Iterable[str]) -> Iterator[str]:
    """Generator of reserved-namespace vertex names avoiding `taken`."""
    used = set(taken)
    return (
        name
        for name in (f"{SECONDARY_PREFIX}{k}" for k in itertools.count(1))
        if name not in used
    )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class BasicKGraph:
    """A single-inner-vertex star with its four distinguished edges."""

    center: str
    west: tuple[str, ...]
    east: tuple[str, ...]
    nw: Edge
    sw: Edge
    ne: Edge
    se: Edge

    @cached_property
    def graph(self) -> OrientedGraph:
        edges = [Edge(w, self.center) for w in self.west]
        edges += [Edge(self.center, e) for e in self.east]
        return OrientedGraph.unchecked((self.center,) + self.west + self.east, edges)

    @property
    def distinguished(self) -> dict[str, Edge]:
        return {"NW": self.nw, "SW": self.sw, "NE": self.ne, "SE": self.se}

    def rename(self, mapping: Mapping[str, str]) -> "BasicKGraph":
        sub = lambda v: mapping.get(v, v)
        sub_edge = lambda e: Edge(sub(e.tail), sub(e.head))
        return make_basic(
            sub(self.center),
            tuple(sub(v) for v in self.west),
            tuple(sub(v) for v in self.east),
            sub_edge(self.nw),
            sub_edge(self.sw),
            sub_edge(self.ne),
            sub_edge(self.se),
            mode="Q",  # renaming never has to re-justify the distinguished edges
        )


@dataclass(frozen=True)
class IdentityGraph:
    """Two vertices and one edge; all four distinguished edges coincide."""

    west: str
    east: str

    @property
    def edge(self) -> Edge:
        return Edge(self.west, self.east)

    @cached_property
    def graph(self) -> OrientedGraph:
        return OrientedGraph.of((self.west, self.east), [(self.west, self.east)])

    @property
    def distinguished(self) -> dict[str, Edge]:
        return {slot: self.edge for slot in SLOTS}

    def rename(self, mapping: Mapping[str, str]) -> "IdentityGraph":
        return IdentityGraph(mapping.get(self.west, self.west), mapping.get(self.east, self.east))


Leaf = BasicKGraph | IdentityGraph


def _check_branching_sides(basic: BasicKGraph) -> None:
    """Distinguished edges must differ on every side with two or more edges."""
    if len(basic.west) >= 2 and basic.nw == basic.sw:
        raise ValidationError(
            f"north and south W-edges coincide ({basic.nw}) although the west side branches"
        )
    if len(basic.east) >= 2 and basic.ne == basic.se:
        raise ValidationError(
            f"north and south E-edges coincide ({basic.ne}) although the east side branches"
        )


def make_basic(
    center: str,
    west: tuple[str, ...] | list[str],
    east: tuple[str, ...] | list[str],
    nw: Edge,
    sw: Edge,
    ne: Edge,
    se: Edge,
    mode: str = "K",
) -> BasicKGraph:
    """Validated basic-leaf constructor.

    In mode "K" a branching side must carry two different distinguished
    edges; mode "Q" accepts any choice.
    """
    _check_mode(mode)
    # stored canonically sorted: the star only depends on the vertex sets
    west = tuple(sorted(west))
    east = tuple(sorted(east))
    if not west or not east:
        raise ValidationError("west and east vertex sequences must be nonempty")
    names = (center,) + west + east
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate vertices among {names}")
    for label, edge in (("NW", nw), ("SW", sw)):
        if edge.head != center or edge.tail not in west:
            raise ValidationError(f"{label} must be a W-edge into {center}, got {edge}")
    for label, edge in (("NE", ne), ("SE", se)):
        if edge.tail != center or edge.head not in east:
            raise ValidationError(f"{label} must be an E-edge out of {center}, got {edge}")
    basic = BasicKGraph(center, west, east, nw, sw, ne, se)
    if mode == "K":
        _check_branching_sides(basic)
    for name in sorted(names):  # as `OrientedGraph.of` would; the star needs no other check
        _check_token(name)
    return basic


@dataclass(frozen=True, eq=False, repr=False)
class Construction:
    """A node of a cut-tree; leaves hold a basic or identity graph.

    Build instances only through `leaf` and `compose`; two constructions are
    equal when their cut-trees are.  A node keeps its distinguished edges,
    its root graph's W- and E-edge counts and, until `compose` hands it on
    to a result, its root index: each root vertex mapped to its W- or
    E-edge, or to None when inner.  A node without one rebuilds it on use.
    `==`, `hash`, `repr` and `str` walk the cut-tree with explicit stacks,
    so they hold at any depth; the hash is kept once computed.
    """

    mode: str
    yx_items: tuple[tuple[str, Edge], ...]
    n_w: int
    n_e: int
    leaf_obj: Leaf | None = None
    left: "Construction | None" = None
    cut_west: Edge | None = None
    cut_east: Edge | None = None
    right: "Construction | None" = None
    _index: dict[str, Edge | None] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Construction):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            one, two = pairs.pop()
            if one is two:
                continue
            if _node_key(one) != _node_key(two):
                return False
            if one.leaf_obj is None:
                pairs += ((one.left, two.left), (one.right, two.right))
        return True

    def __hash__(self) -> int:
        if "_hash" not in self.__dict__:

            def on_node(node: Construction, *operands: int) -> int:
                value = hash(_node_key(node) + operands)
                object.__setattr__(node, "_hash", value)
                return value

            _fold(self, on_node, on_node)
        return self.__dict__["_hash"]

    def __repr__(self) -> str:
        def parts(n: Construction) -> tuple[str, str, str]:
            head = f"Construction(mode={n.mode!r}, yx_items={n.yx_items!r}, n_w={n.n_w!r}, n_e={n.n_e!r}, "
            return (head + f"leaf_obj={n.leaf_obj!r}, left=",
                    f", cut_west={n.cut_west!r}, cut_east={n.cut_east!r}, right=", ")")

        return _render(self, lambda n: "None".join(parts(n)), parts)

    def __str__(self) -> str:
        def leaf_text(n: Construction) -> str:
            kind = "identity" if isinstance(n.leaf_obj, IdentityGraph) else "basic"
            return f"{kind}{n.leaf_obj.graph}"

        return _render(self, leaf_text, lambda n: ("(", f"[{n.cut_west}-|{n.cut_east}]", ")"))

    @property
    def is_leaf(self) -> bool:
        return self.leaf_obj is not None

    def yx(self, slot: str) -> Edge:
        for name, edge in self.yx_items:
            if name == slot:
                return edge
        raise DomainError(f"slot must be one of {SLOTS}, got {slot!r}")

    @property
    def yx_map(self) -> dict[str, Edge]:
        return dict(self.yx_items)

    @property
    def operands(self) -> tuple["Construction", Edge, "Construction", Edge]:
        """The west operand, its cut edge, the east operand and its cut edge."""
        if self.left is None or self.cut_west is None or self.right is None or self.cut_east is None:
            raise DomainError("a leaf performs no cut")
        return self.left, self.cut_west, self.right, self.cut_east

    @property
    def cut_edge(self) -> Edge:
        """The edge this node's cut created in its root graph."""
        _, e_west, _, e_east = self.operands
        return Edge(e_west.tail, e_east.head)

    @cached_property
    def root_graph(self) -> OrientedGraph:
        """Built on first read: each leaf vertex and edge reaches the root or
        is consumed by one cut, and each cut adds one edge, so counts over
        the nodes leave exactly the root's vertices and edges."""
        if self.leaf_obj is not None:
            return self.leaf_obj.graph
        vertices: Counter[str] = Counter()
        edges: Counter[Edge] = Counter()
        for node in self.postorder():
            if node.leaf_obj is not None:
                vertices.update(node.leaf_obj.graph.vertices)
                edges.update(node.leaf_obj.graph.edges)
            else:
                _, e_west, _, e_east = node.operands
                vertices.subtract((e_west.head, e_east.tail))
                edges.subtract((e_west, e_east))
                edges[Edge(e_west.tail, e_east.head)] += 1
        return OrientedGraph.unchecked(
            [v for v, k in vertices.items() if k > 0], [e for e, k in edges.items() if k > 0]
        )

    def postorder(self) -> Iterator["Construction"]:
        """Every node of the cut-tree, operands (west first) before their
        cut, from an explicit stack."""
        stack: list[tuple[Construction, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or node.leaf_obj is not None:
                yield node
            else:
                west, _, east, _ = node.operands
                stack += ((node, True), (east, False), (west, False))

    def leaves(self) -> Iterator[Leaf]:
        return (node.leaf_obj for node in self.postorder() if node.leaf_obj is not None)

    def basic_leaves(self) -> Iterator[BasicKGraph]:
        return (b for b in self.leaves() if isinstance(b, BasicKGraph))

    def internal_sites(self) -> Iterator[str]:
        """Addresses of all internal nodes, root first."""
        stack = [(self, "")]
        while stack:
            node, site = stack.pop()
            if node.leaf_obj is None:
                yield site
                west, _, east, _ = node.operands
                stack += ((east, site + "R"), (west, site + "L"))

    def leaf_vertices(self) -> set[str]:
        return set().union(*(obj.graph.vertices for obj in self.leaves()))

    def secondary_vertices(self) -> set[str]:
        """Leaf vertices consumed by cuts, i.e. absent from the root graph."""
        return self.leaf_vertices().difference(_root_index(self))


def _node_key(n: Construction) -> tuple:
    """What `==` compares at each node of the two cut-trees."""
    return (n.mode, n.yx_items, n.leaf_obj, n.cut_west, n.cut_east)


def _render(c: Construction, leaf_text, parts) -> str:
    """The text of a cut-tree: `leaf_text(node)` at a leaf, and at a cut the
    three strings of `parts(node)` around the west and the east operand."""
    out: list[str] = []
    stack: list = [c]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.leaf_obj is not None:
            out.append(leaf_text(item))
        else:
            opening, middle, closing = parts(item)
            out.append(opening)
            stack += (closing, item.right, middle, item.left)
    return "".join(out)


def _root_index(c: Construction) -> dict[str, Edge | None]:
    """The index of c's root graph, rebuilt and kept if c handed it on."""
    if c._index is None:
        index: dict[str, Edge | None] = {}
        for e in c.root_graph.edges:  # boundary vertices have degree 1
            for v in e:
                index[v] = None if v in index else e
        object.__setattr__(c, "_index", index)
    return c._index  # type: ignore[return-value]


def _west_holds(west: Construction, east: Construction, e: Edge) -> bool:
    """Does `e`, an edge of the root graph of `west` cut against `east` but not
    the cut's own, come from `west`?  Either index answers; one at hand is read."""
    if west._index is not None:
        return e.tail in west._index
    return e.tail not in _root_index(east)


def _fold(c: Construction, on_leaf, on_cut):
    """Evaluate the cut-tree bottom-up: `on_leaf(node)` at the leaves and
    `on_cut(node, west_value, east_value)` at the cuts."""
    values: list = []
    for node in c.postorder():
        if node.leaf_obj is not None:
            values.append(on_leaf(node))
        else:
            east = values.pop()
            values.append(on_cut(node, values.pop(), east))
    return values.pop()


def leaf(obj: Leaf, mode: str = "K") -> Construction:
    """Wrap a basic or identity graph as a one-node construction."""
    _check_mode(mode)
    if isinstance(obj, BasicKGraph) and mode == "K":
        _check_branching_sides(obj)
    elif isinstance(obj, IdentityGraph):
        obj.graph  # validated on first read: two distinct tokens
    n_w, n_e = (len(obj.west), len(obj.east)) if isinstance(obj, BasicKGraph) else (1, 1)
    distinguished = obj.distinguished
    return Construction(mode, tuple((s, distinguished[s]) for s in SLOTS), n_w, n_e, leaf_obj=obj)


def _distinguished_after_cut(
    west: dict[str, Edge], e_west: Edge, east: dict[str, Edge], e_east: Edge, new_edge: Edge
) -> tuple[tuple[str, Edge], ...]:
    """Propagate the four distinguished edges through a cut.

    Each side keeps the west operand's choice exactly when the east
    operand's corresponding choice is the edge consumed by the cut, and
    dually; a choice equal to a consumed edge (only an identity leaf's can
    be) is replaced by the new edge.
    """
    chosen = {}
    for y in "NS":
        chosen[y + "W"] = west[y + "W"] if east[y + "W"] == e_east else east[y + "W"]
        chosen[y + "E"] = east[y + "E"] if west[y + "E"] == e_west else west[y + "E"]
    return tuple((s, new_edge if chosen[s] in (e_west, e_east) else chosen[s]) for s in SLOTS)


def compose(g_west: Construction, e_west: Edge, g_east: Construction, e_east: Edge) -> Construction:
    """Cut two constructions together.

    In mode "K", for each of N and S the consumed edge must be the matching
    distinguished edge on at least one side; the failure message names the
    offending Y.  The operands' root indexes check what `cut_graph` would:
    cuts keep every surviving vertex's degree, so W/E-edges stay functional.
    """
    if g_west.mode != g_east.mode:
        raise DomainError(f"operand modes differ: {g_west.mode} vs {g_east.mode}")
    mode, west_yx, east_yx = g_west.mode, g_west.yx_map, g_east.yx_map
    if mode == "K":
        for y in "NS":
            if e_west != west_yx[y + "E"] and e_east != east_yx[y + "W"]:
                raise CompositionError(
                    f"cut edges are distinguished for neither operand at Y={y}: "
                    f"{e_west} is not {y}E of the west operand and "
                    f"{e_east} is not {y}W of the east operand"
                )
    west, east = _root_index(g_west), _root_index(g_east)
    overlap = west.keys() & east.keys()  # iterates the smaller index
    if overlap:
        raise DomainError(f"operand graphs share vertices {sorted(overlap)}")
    (a, b), (c, d) = e_west, e_east
    if west.get(b) != e_west:
        raise DomainError(f"{e_west} is not an E-edge of the west operand")
    if east.get(c) != e_east:
        raise DomainError(f"{e_east} is not a W-edge of the east operand")
    new_edge = Edge(a, d)
    yx_items = _distinguished_after_cut(west_yx, e_west, east_yx, e_east, new_edge)
    n_w, n_e = g_west.n_w + g_east.n_w - 1, g_west.n_e + g_east.n_e - 1
    if mode == "K":
        yx = dict(yx_items)
        for x, count in (("W", n_w), ("E", n_e)):
            if count >= 2 and yx["N" + x] == yx["S" + x]:
                raise GraphInvariantError(f"distinguished {x}-edges collapsed on a branching root: {yx}")
    # the result takes the larger index over and copies the smaller into it
    owner, index, other = (g_west, west, east) if len(west) >= len(east) else (g_east, east, west)
    object.__setattr__(owner, "_index", None)
    index.update(other)
    del index[b], index[c]
    for v, consumed in ((a, e_west), (d, e_east)):
        if index[v] == consumed:  # a W-vertex a, or an E-vertex d, keeps its edge
            index[v] = new_edge
    return Construction(mode, yx_items, n_w, n_e, None, g_west, e_west, e_east, g_east, index)


def assemble(graph: OrientedGraph, mode: str, distinguished, root: str | None = None) -> Construction:
    """A construction of `graph`, a tree whose every vertex is inner or a
    leaf, from one star per inner vertex.

    Each inner edge (a, d) gets a fresh pair (b, c) up front, and the star
    at v holds v's edges with every inner one replaced by its stub (a, b) or
    (c, d).  `distinguished(v, star, toward)` gives that star's NW, SW, NE
    and SE edges, where `star` maps each edge at v to its edge in the star
    and `toward` is the star's edge on the way to the star at `root` (None
    there; by default the first inner vertex).  The inner vertices are
    walked breadth-first from `root`; in reverse order each finished piece,
    a connected region of `graph`, is cut into its parent's across their
    shared edge.  Nothing recurses, and `compose` merges the smaller root
    index into the larger, so the whole costs O(n log n).  Without an inner
    vertex, `graph` is one edge and becomes an identity leaf.
    """
    if not graph.inner_vertices:
        return leaf(IdentityGraph(*graph.edges[0]), mode)
    root = root or graph.inner_vertices[0]
    order, parent = graph._walk(root)
    order = [v for v in order if graph._in[v] and graph._out[v]]
    inner = set(order)
    names = fresh_secondary_names(graph.vertices)
    pairs = {e: (next(names), next(names)) for e in graph.edges if e.tail in inner and e.head in inner}
    pieces = {}
    for v in order:
        star = {}
        for e in graph._in[v] + graph._out[v]:
            pair = pairs.get(e)
            star[e] = e if pair is None else Edge(v, pair[0]) if e.tail == v else Edge(pair[1], v)
        toward = None if v == root else star[graph._edge_between(parent[v], v)]
        wests = [s.tail for s in star.values() if s.head == v]
        easts = [s.head for s in star.values() if s.tail == v]
        basic = make_basic(v, wests, easts, *distinguished(v, star, toward), mode=mode)
        pieces[v] = leaf(basic, mode)
    for v in reversed(order[1:]):
        p, child = parent[v], pieces.pop(v)
        e = graph._edge_between(p, v)
        b, c = pairs[e]
        if e.tail == p:
            pieces[p] = compose(pieces[p], Edge(p, b), child, Edge(c, v))
        else:
            pieces[p] = compose(child, Edge(v, b), pieces[p], Edge(c, p))
    return pieces[root]


# -- rewrite moves ---------------------------------------------------------

RHO_MOVES = ("assoc", "commuteE", "commuteW")


# the operand each move needs to be a cut, and the child of that cut that
# must hold the outer cut's edge (a commutation is its own inverse)
_MOVE_SHAPES = {
    ("assoc", "L2R"): ("west", "east"),
    ("assoc", "R2L"): ("east", "west"),
    ("commuteE", "L2R"): ("west", "west"),
    ("commuteW", "L2R"): ("east", "east"),
}


def _lift(
    path: list[tuple[Construction, bool]], h_w: Construction, e_w: Edge, h_e: Construction, e_e: Edge
) -> tuple[Construction, Edge, Construction, Edge]:
    """Lift the cut (h_w [e_w|e_e] h_e) up `path`, the nodes above it nearest
    last, each with whether the cut lies in its west operand: every node's
    own cut moves into the piece holding its cut edge (an associativity or a
    commutation), and the lifted cut's operands come back."""
    for node, went_west in reversed(path):
        west, c_w, east, c_e = node.operands
        if _west_holds(h_w, h_e, c_w if went_west else c_e):
            h_w = compose(h_w, c_w, east, c_e) if went_west else compose(west, c_w, h_w, c_e)
        else:
            h_e = compose(h_e, c_w, east, c_e) if went_west else compose(west, c_w, h_e, c_e)
    return h_w, e_w, h_e, e_e


def _rewrite_node(node: Construction, move: str, direction: str) -> tuple[Construction, bool]:
    """The shape check of a move at `node`: the operand whose cut the move
    lifts to `node`, and whether it is the west one.  Nothing is built."""
    if node.is_leaf:
        raise RewriteError("no cut at this site")
    key = (move, direction if move == "assoc" else "L2R")
    if key not in _MOVE_SHAPES:
        raise RewriteError(f"unknown move {move!r} with direction {direction!r}")
    outer, child = _MOVE_SHAPES[key]
    name = f"{move} {direction}" if move == "assoc" else move
    west, g_w, east, g_e = node.operands
    inner, cut = (west, g_w) if outer == "west" else (east, g_e)
    if inner.is_leaf:
        raise RewriteError(f"{name} needs a cut as the {outer} operand")
    i_w, _, i_e, _ = inner.operands
    if cut == inner.cut_edge or _west_holds(i_w, i_e, cut) != (child == "west"):
        raise RewriteError(f"{name} needs the outer cut {cut} inside the {outer} operand's {child} child")
    return inner, outer == "west"


def apply_rho_move(g: Construction, site: str, move: str, direction: str = "L2R") -> Construction:
    """Apply one associativity/commutation move at a node address.

    The root graph and all four distinguished edges are unchanged; only the
    cut-tree is rearranged: the operand's cut is lifted to the site.  The two
    commute moves are involutions, so their direction argument is accepted
    but irrelevant.
    """
    if move not in RHO_MOVES:
        raise RewriteError(f"move must be one of {RHO_MOVES}, got {move!r}")
    if direction not in ("L2R", "R2L"):
        raise RewriteError(f"direction must be 'L2R' or 'R2L', got {direction!r}")

    path = []  # down to the site: each node passed and the step taken
    node = g
    for step in site:
        if node.is_leaf:
            raise RewriteError(f"no node at address {site!r}")
        if step not in ("L", "R"):
            raise RewriteError(f"bad address character {step!r} in {site!r}")
        path.append((node, step))
        node = node.left if step == "L" else node.right
    inner, is_west = _rewrite_node(node, move, direction)
    node = compose(*_lift([(node, is_west)], *inner.operands))
    for parent, step in reversed(path):  # ... and back up, recomposing
        west, e_west, east, e_east = parent.operands
        node = compose(node, e_west, east, e_east) if step == "L" else compose(west, e_west, node, e_east)
    return node


def applicable_rho_moves(g: Construction) -> list[tuple[str, str, str]]:
    """All (site, move, direction) triples that `apply_rho_move` accepts,
    sites root first, decided by the shape check alone in one walk."""
    out = []
    stack = [(g, "")]
    while stack:
        node, site = stack.pop()
        if node.leaf_obj is None:
            for move, direction in _MOVE_SHAPES:
                try:
                    _rewrite_node(node, move, direction)
                except RewriteError:
                    continue
                out.append((site, move, direction))
            stack += ((node.right, site + "R"), (node.left, site + "L"))
    return out


# -- identity elimination and the two equivalences ---------------------------


def eliminate_identities(c: Construction) -> Construction:
    """The construction with all identity leaves removed by the unit laws.

    Cutting against an identity only renames one boundary vertex, so each
    reduced subtree comes with the renaming that carries its original root
    graph onto the reduced one (vertices it leaves out keep their names).  A
    subtree without identity leaves comes back as it is.  Each renaming has
    one owner, so the cuts update them in place.
    """
    is_identity = lambda x: isinstance(x.leaf_obj, IdentityGraph)

    def on_cut(node, reduced_west, reduced_east):
        (west, wmap), (east, emap) = reduced_west, reduced_east
        old_west, (a, b), old_east, (c, d) = node.operands
        if is_identity(west) and is_identity(east):
            ident = IdentityGraph(wmap.get(a, a), emap.get(d, d))
            return leaf(ident, node.mode), {a: ident.west, d: ident.east}
        if is_identity(east):  # d takes the place of b
            wmap[d] = wmap.pop(b, b)
            return west, wmap
        if is_identity(west):  # a takes the place of c
            emap[a] = emap.pop(c, c)
            return east, emap
        if west is old_west and east is old_east:
            return node, {}
        e_west = Edge(wmap.get(a, a), wmap.pop(b, b))
        e_east = Edge(emap.pop(c, c), emap.get(d, d))
        small, big = sorted((wmap, emap), key=len)
        big.update(small)
        return compose(west, e_west, east, e_east), big

    return _fold(c, lambda node: (node, {}), on_cut)[0]


def _reduced_pair(g: Construction, h: Construction) -> tuple[Construction, Construction]:
    """Both constructions without their identity leaves; the equivalences
    are defined for mode K only."""
    if g.mode != "K" or h.mode != "K":
        raise DomainError("rho-equivalence is defined for mode-K constructions")
    return eliminate_identities(g), eliminate_identities(h)


def rho_equivalent(g: Construction, h: Construction) -> bool:
    """Rewrite equivalence, decided by its complete criterion: equal root
    graphs and equal multisets of basic leaves.  Identity leaves are removed
    by the unit laws first, which also makes a construction equivalent to
    itself cut against an identity."""
    g2, h2 = _reduced_pair(g, h)
    if g2.root_graph != h2.root_graph:
        return False
    return Counter(g2.basic_leaves()) == Counter(h2.basic_leaves())


def _compass_entries(g: Construction) -> dict[tuple[str, str], Edge]:
    """The compass of `bridge.lambda_of`, from one walk down the cut-tree
    carrying, for each edge an enclosing cut consumes, the edge it finally
    becomes in g's root graph.  The nearest enclosing cut that consumes a
    name consumes that edge (a subtree's root edges have distinct names); a
    cut's entries are undone on leaving it."""
    entries: dict[tuple[str, str], Edge] = {}
    fate: dict[Edge, Edge] = {}  # an edge missing here stays itself
    stack: list = [g]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            fate.update(node)
        elif isinstance(node.leaf_obj, BasicKGraph):
            obj = node.leaf_obj
            for slot, edge in obj.distinguished.items():
                entries[(obj.center, slot)] = fate.get(edge, edge)
        elif node.leaf_obj is None:
            west, e_west, east, e_east = node.operands
            new_edge = node.cut_edge
            stack += ({e: fate.get(e, e) for e in (e_west, e_east)}, east, west)
            fate[e_west] = fate[e_east] = fate.get(new_edge, new_edge)
    return entries


def same_compass_graph(g: Construction, h: Construction) -> bool:
    """Are two constructions the same up to rewriting and renaming of
    secondary vertices?  Exactly when, without their identity leaves, their
    root graphs and compasses (lambda) agree: these classes correspond to
    local compass graphs.  One linear walk of each cut-tree decides it."""
    g2, h2 = _reduced_pair(g, h)
    return g2.root_graph == h2.root_graph and _compass_entries(g2) == _compass_entries(h2)


# -- canonical renaming of secondary vertices --------------------------------


def _leaf_secondary_order(obj: Leaf, secondary: set[str], pairing: dict[str, Edge]) -> list[str]:
    """A leaf's secondary vertices in a name-independent order, W side then E
    side: on each, distinguished endpoints first, the rest by the cut edge
    that consumed them."""
    yx = obj.distinguished
    sides = (obj.west, obj.east) if isinstance(obj, BasicKGraph) else ((), ())
    out: list[str] = []
    for x, end in (("W", 0), ("E", 1)):  # a W slot's tail, an E slot's head
        ends = [v for v in dict.fromkeys(yx[y + x][end] for y in "NS") if v in secondary]
        out += ends + sorted((v for v in sides[end] if v in secondary and v not in ends),
                             key=lambda v: pairing[v])
    return out


def rename_construction(c: Construction, mapping: Mapping[str, str]) -> Construction:
    """The same construction tree with vertices renamed everywhere."""
    sub = lambda v: mapping.get(v, v)
    sub_edge = lambda e: Edge(sub(e.tail), sub(e.head))

    def on_cut(node: Construction, west: Construction, east: Construction) -> Construction:
        _, e_west, _, e_east = node.operands
        return compose(west, sub_edge(e_west), east, sub_edge(e_east))

    return _fold(c, lambda node: leaf(node.leaf_obj.rename(mapping), node.mode), on_cut)


def sigma_canonical(g: Construction) -> Construction:
    """Rename all secondary vertices into the reserved `#s<k>` namespace.

    The numbering is anchored on data shared by every construction of the
    same root graph and leaves (distinguished-edge roles and the cut edges
    left in the root graph), so constructions that differ only in the choice
    of secondary vertices canonicalize identically, and rewrite-equivalent
    constructions keep equal leaf multisets after canonicalization.  Not
    conversely: numbering NW and SW endpoints first can give inequivalent
    constructions (NW and SW swapped on a star) the same leaf multiset.
    """
    secondary = g.secondary_vertices()
    if not secondary:
        return g
    pairing: dict[str, Edge] = {}
    for node in g.postorder():
        if node.leaf_obj is None:
            _, e_west, _, e_east = node.operands
            pairing[e_west.head] = pairing[e_east.tail] = Edge(e_west.tail, e_east.head)
    root = _root_index(g)

    def leaf_key(obj: Leaf) -> tuple:
        anchor = tuple(sorted(v for v in obj.graph.vertices if v in root))
        return (anchor, tuple(sorted(obj.graph.vertices)))

    mapping: dict[str, str] = {}
    counter = itertools.count(1)
    for obj in sorted(g.leaves(), key=leaf_key):
        for v in _leaf_secondary_order(obj, secondary, pairing):
            mapping[v] = f"{SECONDARY_PREFIX}{next(counter)}"
    return rename_construction(g, mapping)


# -- splitting a construction at an inner edge -------------------------------


def decompose_at(g: Construction, e: Edge) -> tuple[Construction, Edge, Construction, Edge]:
    """Rearrange `g` so that the cut creating the inner edge `e` sits at the
    root, and return the two operands with their cut edges.

    Recomposing the result with `compose` yields a construction
    rho-equivalent to `g` (the root graph is exactly `g`'s).
    """
    if g.mode != "K":
        raise DomainError("only mode-K constructions are split here")
    if not g.root_graph.contains_edge(e) or not g.root_graph.is_inner_edge(e):
        raise DomainError(f"{e} is not an inner edge of the root graph")
    # down to the cut that created e (no star has an inner edge), then lift it
    path = []
    node = g
    while node.cut_edge != e:
        west, _, east, _ = node.operands
        path.append((node, _west_holds(west, east, e)))
        node = west if path[-1][1] else east
    return _lift(path, *node.operands)
