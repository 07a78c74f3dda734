"""Constructions: binary cut-trees over basic and identity leaves.

A construction records, at every node, an oriented graph together with four
distinguished edges NW/SW/NE/SE.  Composing two constructions cuts a
functional E-edge of the west operand against a functional W-edge of the
east operand, splices the graphs along a fresh edge, and propagates the
distinguished edges.  Mode "K" enforces the two side conditions that make
the result planar-cut shaped (distinct distinguished edges on branching
sides of a leaf; every cut edge distinguished for both N and S); mode "Q"
drops them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import CompositionError, DomainError, GraphInvariantError, RewriteError, ValidationError
from .graph import SLOTS, Edge, OrientedGraph

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
        edges = [(w, self.center) for w in self.west]
        edges += [(self.center, e) for e in self.east]
        return OrientedGraph.of((self.center,) + self.west + self.east, edges)

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
    basic.graph  # force invariant checks
    return basic


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


@dataclass(frozen=True)
class Construction:
    """A node of a cut-tree; leaves hold a basic or identity graph.

    Build instances only through `leaf` and `compose`; two constructions are
    equal when their cut-trees are.  A node keeps its distinguished edges,
    its root graph's W- and E-edge counts and, until `compose` hands it on
    to a result, its root index: each root vertex mapped to its W- or
    E-edge, or to None when inner.  A node without one rebuilds it on use.
    """

    mode: str
    yx_items: tuple[tuple[str, Edge], ...]
    n_w: int = field(compare=False)
    n_e: int = field(compare=False)
    leaf_obj: Leaf | None = None
    left: "Construction | None" = None
    cut_west: Edge | None = None
    cut_east: Edge | None = None
    right: "Construction | None" = None
    _index: dict[str, Edge | None] | None = field(default=None, compare=False, repr=False)

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

    def node_at(self, site: str) -> "Construction":
        """The subtree at a node address: a string of 'L'/'R' from the root."""
        node = self
        for i, step in enumerate(site):
            if node.is_leaf or step not in "LR":
                raise DomainError(f"no node at address {site!r} (stuck after {site[:i]!r})")
            west, _, east, _ = node.operands
            node = west if step == "L" else east
        return node

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

    def __str__(self) -> str:
        if self.leaf_obj is not None:
            kind = "identity" if isinstance(self.leaf_obj, IdentityGraph) else "basic"
            return f"{kind}{self.leaf_obj.graph}"
        return f"({self.left}[{self.cut_west}-|{self.cut_east}]{self.right})"


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


def _rewrite_node(node: Construction, move: str, direction: str) -> Construction:
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
    i_w, i_cw, i_e, i_ce = inner.operands
    if cut == inner.cut_edge or _west_holds(i_w, i_e, cut) != (child == "west"):
        raise RewriteError(f"{name} needs the outer cut {cut} inside the {outer} operand's {child} child")
    if key == ("assoc", "L2R"):
        return compose(i_w, i_cw, compose(i_e, g_w, east, g_e), i_ce)
    if key == ("assoc", "R2L"):
        return compose(compose(west, g_w, i_w, g_e), i_cw, i_e, i_ce)
    if move == "commuteE":
        return compose(compose(i_w, g_w, east, g_e), i_cw, i_e, i_ce)
    return compose(i_w, i_cw, compose(west, g_w, i_e, g_e), i_ce)


def apply_rho_move(g: Construction, site: str, move: str, direction: str = "L2R") -> Construction:
    """Apply one associativity/commutation move at a node address.

    The root graph and all four distinguished edges are unchanged; only the
    cut-tree is rearranged.  The two commute moves are involutions, so their
    direction argument is accepted but irrelevant.
    """
    if move not in RHO_MOVES:
        raise RewriteError(f"move must be one of {RHO_MOVES}, got {move!r}")
    if direction not in ("L2R", "R2L"):
        raise RewriteError(f"direction must be 'L2R' or 'R2L', got {direction!r}")

    def rebuild(node: Construction, rest: str) -> Construction:
        if not rest:
            return _rewrite_node(node, move, direction)
        if node.is_leaf:
            raise RewriteError(f"no node at address {site!r}")
        west, e_west, east, e_east = node.operands
        if rest[0] == "L":
            return compose(rebuild(west, rest[1:]), e_west, east, e_east)
        if rest[0] == "R":
            return compose(west, e_west, rebuild(east, rest[1:]), e_east)
        raise RewriteError(f"bad address character {rest[0]!r} in {site!r}")

    return rebuild(g, site)


def applicable_rho_moves(g: Construction) -> list[tuple[str, str, str]]:
    """All (site, move, direction) triples that `apply_rho_move` accepts."""
    out = []
    for site in g.internal_sites():
        node = g.node_at(site)
        for move, direction in _MOVE_SHAPES:
            try:
                _rewrite_node(node, move, direction)
            except RewriteError:
                continue
            out.append((site, move, direction))
    return out


# -- identity elimination and the two equivalences ---------------------------


def _eliminate_identities(c: Construction) -> tuple[Construction, dict[str, str]]:
    """Remove identity leaves by the unit laws.

    Returns the reduced construction together with the renaming that
    carries the original root graph onto the reduced one (cutting against
    an identity only renames one boundary vertex; vertices it leaves out
    keep their names).  A subtree without identity leaves comes back as it
    is.  Each renaming has one owner, so the cuts update them in place.
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

    return _fold(c, lambda node: (node, {}), on_cut)


def eliminate_identities(c: Construction) -> Construction:
    """The construction with all identity leaves removed by the unit laws."""
    return _eliminate_identities(c)[0]


def rho_equivalent(g: Construction, h: Construction) -> bool:
    """Rewrite equivalence, decided by its complete criterion: equal root
    graphs and equal multisets of basic leaves.  Identity leaves are removed
    by the unit laws first, which also makes a construction equivalent to
    itself cut against an identity."""
    if g.mode != "K" or h.mode != "K":
        raise DomainError("rho-equivalence is defined for mode-K constructions")
    g2, _ = _eliminate_identities(g)
    h2, _ = _eliminate_identities(h)
    if g2.root_graph != h2.root_graph:
        return False
    return Counter(g2.basic_leaves()) == Counter(h2.basic_leaves())


# -- canonical renaming of secondary vertices --------------------------------


def _leaf_secondary_order(obj: Leaf, secondary: set[str], pairing: dict[str, Edge]) -> list[str]:
    """A leaf's secondary vertices in a name-independent order: distinguished
    endpoints first, the rest by the cut edge that consumed them."""
    out: list[str] = []

    def push(v: str) -> None:
        if v in secondary and v not in out:
            out.append(v)

    if isinstance(obj, IdentityGraph):
        push(obj.west)
        push(obj.east)
        return out
    push(obj.nw.tail)
    push(obj.sw.tail)
    for v in sorted((v for v in obj.west if v in secondary and v not in out),
                    key=lambda v: pairing[v]):
        out.append(v)
    push(obj.ne.head)
    push(obj.se.head)
    for v in sorted((v for v in obj.east if v in secondary and v not in out),
                    key=lambda v: pairing[v]):
        out.append(v)
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
    constructions keep equal leaf multisets after canonicalization.
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


def same_compass_graph(g: Construction, h: Construction) -> bool:
    """Do two constructions denote the same object up to rewriting and
    renaming of secondary vertices?

    Identity leaves are removed before canonicalization: cutting against an
    identity demotes a root vertex to secondary, and renaming it first would
    leave the unit laws undecidable by the leaf-multiset criterion.
    """
    g2 = sigma_canonical(eliminate_identities(g))
    h2 = sigma_canonical(eliminate_identities(h))
    return rho_equivalent(g2, h2)


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
    # down to the cut that created e (no star has an inner edge) ...
    path = []
    node = g
    while node.cut_edge != e:
        west, _, east, _ = node.operands
        path.append((node, _west_holds(west, east, e)))
        node = west if path[-1][1] else east
    h_w, e_w, h_e, e_e = node.operands
    # ... and back up: a node whose west operand became (h_w [e] h_e) moves its
    # cut into the piece holding its cut edge (assoc. or commutation), and dually
    for node, went_west in reversed(path):
        west, c_w, east, c_e = node.operands
        if _west_holds(h_w, h_e, c_w if went_west else c_e):
            h_w = compose(h_w, c_w, east, c_e) if went_west else compose(west, c_w, h_w, c_e)
        else:
            h_e = compose(h_e, c_w, east, c_e) if went_west else compose(west, c_w, h_e, c_e)
    return h_w, e_w, h_e, e_e
