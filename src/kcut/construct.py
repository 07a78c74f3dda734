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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import CompositionError, DomainError, RewriteError, ValidationError
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

    `root_graph` and the distinguished edges are exactly the values computed
    bottom-up by `leaf` and `compose`; build instances only through those.
    """

    mode: str
    root_graph: OrientedGraph
    yx_items: tuple[tuple[str, Edge], ...]
    leaf_obj: Leaf | None = None
    left: "Construction | None" = None
    cut_west: Edge | None = None
    cut_east: Edge | None = None
    right: "Construction | None" = None

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
    def cut_edge(self) -> Edge:
        """The edge this node's cut created in its root graph."""
        if self.is_leaf:
            raise DomainError("a leaf performs no cut")
        assert self.cut_west is not None and self.cut_east is not None
        return Edge(self.cut_west.tail, self.cut_east.head)

    def node_at(self, site: str) -> "Construction":
        """The subtree at a node address: a string of 'L'/'R' from the root."""
        node = self
        for i, step in enumerate(site):
            if node.is_leaf or step not in "LR":
                raise DomainError(f"no node at address {site!r} (stuck after {site[:i]!r})")
            node = node.left if step == "L" else node.right  # type: ignore[assignment]
            assert node is not None
        return node

    def leaves(self) -> Iterator[Leaf]:
        if self.is_leaf:
            assert self.leaf_obj is not None
            yield self.leaf_obj
        else:
            assert self.left is not None and self.right is not None
            yield from self.left.leaves()
            yield from self.right.leaves()

    def basic_leaves(self) -> Iterator[BasicKGraph]:
        return (b for b in self.leaves() if isinstance(b, BasicKGraph))

    def internal_sites(self) -> Iterator[str]:
        """Addresses of all internal nodes, root first."""
        if self.is_leaf:
            return
        yield ""
        assert self.left is not None and self.right is not None
        for sub in self.left.internal_sites():
            yield "L" + sub
        for sub in self.right.internal_sites():
            yield "R" + sub

    def leaf_vertices(self) -> set[str]:
        out: set[str] = set()
        for obj in self.leaves():
            out.update(obj.graph.vertices)
        return out

    def secondary_vertices(self) -> set[str]:
        """Leaf vertices consumed by cuts, i.e. absent from the root graph."""
        return self.leaf_vertices() - set(self.root_graph.vertices)

    def __str__(self) -> str:
        if self.is_leaf:
            assert self.leaf_obj is not None
            kind = "identity" if isinstance(self.leaf_obj, IdentityGraph) else "basic"
            return f"{kind}{self.leaf_obj.graph}"
        return f"({self.left}[{self.cut_west}-|{self.cut_east}]{self.right})"


def leaf(obj: Leaf, mode: str = "K") -> Construction:
    """Wrap a basic or identity graph as a one-node construction."""
    _check_mode(mode)
    if isinstance(obj, BasicKGraph) and mode == "K":
        _check_branching_sides(obj)
    yx_items = tuple((slot, obj.distinguished[slot]) for slot in SLOTS)
    return Construction(mode=mode, root_graph=obj.graph, yx_items=yx_items, leaf_obj=obj)


def _distinguished_after_cut(
    g_west: Construction, e_west: Edge, g_east: Construction, e_east: Edge, new_edge: Edge
) -> tuple[tuple[str, Edge], ...]:
    """Propagate the four distinguished edges through a cut.

    Each side keeps the west operand's choice exactly when the east
    operand's corresponding choice is the edge consumed by the cut, and
    dually; a choice equal to a consumed edge is replaced by the new edge
    (this only happens when an operand is an identity leaf, whose choices
    all coincide with its single edge).
    """
    out = []
    for y in "NS":
        w = g_west.yx(y + "W") if g_east.yx(y + "W") == e_east else g_east.yx(y + "W")
        e = g_east.yx(y + "E") if g_west.yx(y + "E") == e_west else g_west.yx(y + "E")
        for slot, value in ((y + "W", w), (y + "E", e)):
            if value in (e_west, e_east):
                value = new_edge
            out.append((slot, value))
    order = {slot: i for i, slot in enumerate(SLOTS)}
    return tuple(sorted(out, key=lambda item: order[item[0]]))


def compose(g_west: Construction, e_west: Edge, g_east: Construction, e_east: Edge) -> Construction:
    """Cut two constructions together.

    In mode "K", for each of N and S the consumed edge must be the matching
    distinguished edge on at least one side; the failure message names the
    offending Y.
    """
    if g_west.mode != g_east.mode:
        raise DomainError(f"operand modes differ: {g_west.mode} vs {g_east.mode}")
    mode = g_west.mode
    if mode == "K":
        for y in "NS":
            if e_west != g_west.yx(y + "E") and e_east != g_east.yx(y + "W"):
                raise CompositionError(
                    f"cut edges are distinguished for neither operand at Y={y}: "
                    f"{e_west} is not {y}E of the west operand and "
                    f"{e_east} is not {y}W of the east operand"
                )
    root = cut_graph(g_west.root_graph, e_west, g_east.root_graph, e_east)
    new_edge = Edge(e_west.tail, e_east.head)
    yx_items = _distinguished_after_cut(g_west, e_west, g_east, e_east, new_edge)
    result = Construction(
        mode=mode,
        root_graph=root,
        yx_items=yx_items,
        left=g_west,
        cut_west=e_west,
        cut_east=e_east,
        right=g_east,
    )
    if mode == "K":
        yx = result.yx_map
        for x, edges in (("W", root.w_edges), ("E", root.e_edges)):
            assert len(edges) < 2 or yx["N" + x] != yx["S" + x], (
                f"distinguished {x}-edges collapsed on a branching root: {yx}"
            )
    return result


# -- rewrite moves ---------------------------------------------------------

RHO_MOVES = ("assoc", "commuteE", "commuteW")


def _rewrite_node(node: Construction, move: str, direction: str) -> Construction:
    if node.is_leaf:
        raise RewriteError("no cut at this site")
    assert node.left is not None and node.right is not None
    g_w, g_e = node.cut_west, node.cut_east
    assert g_w is not None and g_e is not None

    if move == "assoc" and direction == "L2R":
        inner = node.left
        if inner.is_leaf:
            raise RewriteError("assoc L2R needs a cut as the west operand")
        assert inner.left is not None and inner.right is not None
        if not inner.right.root_graph.contains_edge(g_w):
            raise RewriteError(
                f"assoc L2R needs the outer cut {g_w} inside the west operand's east child"
            )
        return compose(
            inner.left,
            inner.cut_west,  # type: ignore[arg-type]
            compose(inner.right, g_w, node.right, g_e),
            inner.cut_east,  # type: ignore[arg-type]
        )
    if move == "assoc" and direction == "R2L":
        inner = node.right
        if inner.is_leaf:
            raise RewriteError("assoc R2L needs a cut as the east operand")
        assert inner.left is not None and inner.right is not None
        if not inner.left.root_graph.contains_edge(g_e):
            raise RewriteError(
                f"assoc R2L needs the outer cut {g_e} inside the east operand's west child"
            )
        return compose(
            compose(node.left, g_w, inner.left, g_e),
            inner.cut_west,  # type: ignore[arg-type]
            inner.right,
            inner.cut_east,  # type: ignore[arg-type]
        )
    if move == "commuteE":
        inner = node.left
        if inner.is_leaf:
            raise RewriteError("commuteE needs a cut as the west operand")
        assert inner.left is not None and inner.right is not None
        if not inner.left.root_graph.contains_edge(g_w):
            raise RewriteError(
                f"commuteE needs the outer cut {g_w} inside the west operand's west child"
            )
        return compose(
            compose(inner.left, g_w, node.right, g_e),
            inner.cut_west,  # type: ignore[arg-type]
            inner.right,
            inner.cut_east,  # type: ignore[arg-type]
        )
    if move == "commuteW":
        inner = node.right
        if inner.is_leaf:
            raise RewriteError("commuteW needs a cut as the east operand")
        assert inner.left is not None and inner.right is not None
        if not inner.right.root_graph.contains_edge(g_e):
            raise RewriteError(
                f"commuteW needs the outer cut {g_e} inside the east operand's east child"
            )
        return compose(
            inner.left,
            inner.cut_west,  # type: ignore[arg-type]
            compose(node.left, g_w, inner.right, g_e),
            inner.cut_east,  # type: ignore[arg-type]
        )
    raise RewriteError(f"unknown move {move!r} with direction {direction!r}")


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
        assert node.left is not None and node.right is not None
        if rest[0] == "L":
            return compose(rebuild(node.left, rest[1:]), node.cut_west, node.right, node.cut_east)  # type: ignore[arg-type]
        if rest[0] == "R":
            return compose(node.left, node.cut_west, rebuild(node.right, rest[1:]), node.cut_east)  # type: ignore[arg-type]
        raise RewriteError(f"bad address character {rest[0]!r} in {site!r}")

    return rebuild(g, site)


def applicable_rho_moves(g: Construction) -> list[tuple[str, str, str]]:
    """All (site, move, direction) triples that `apply_rho_move` accepts."""
    out = []
    for site in g.internal_sites():
        node = g.node_at(site)
        for move, direction in (
            ("assoc", "L2R"),
            ("assoc", "R2L"),
            ("commuteE", "L2R"),
            ("commuteW", "L2R"),
        ):
            try:
                _rewrite_node(node, move, direction)
            except RewriteError:
                continue
            out.append((site, move, direction))
    return out


# -- identity elimination and the two equivalences ---------------------------


def _eliminate_identities(c: Construction) -> tuple[Construction, dict[str, str]]:
    """Remove identity leaves by the unit laws.

    Returns the reduced construction together with the vertex renaming that
    carries the original root graph onto the reduced one (cutting against an
    identity only renames one boundary vertex).
    """
    if c.is_leaf:
        return c, {v: v for v in c.root_graph.vertices}
    assert c.left is not None and c.right is not None
    assert c.cut_west is not None and c.cut_east is not None
    left, lmap = _eliminate_identities(c.left)
    right, rmap = _eliminate_identities(c.right)
    a, b = c.cut_west
    cc, d = c.cut_east
    left_is_identity = left.is_leaf and isinstance(left.leaf_obj, IdentityGraph)
    right_is_identity = right.is_leaf and isinstance(right.leaf_obj, IdentityGraph)

    if left_is_identity and right_is_identity:
        ident = IdentityGraph(lmap[a], rmap[d])
        return leaf(ident, c.mode), {a: lmap[a], d: rmap[d]}
    if right_is_identity:
        mapping = {v: lmap[v] for v in c.left.root_graph.vertices if v != b}
        mapping[d] = lmap[b]
        return left, mapping
    if left_is_identity:
        mapping = {v: rmap[v] for v in c.right.root_graph.vertices if v != cc}
        mapping[a] = rmap[cc]
        return right, mapping
    e_west = Edge(lmap[a], lmap[b])
    e_east = Edge(rmap[cc], rmap[d])
    mapping = {v: lmap[v] for v in c.left.root_graph.vertices if v != b}
    mapping.update({v: rmap[v] for v in c.right.root_graph.vertices if v != cc})
    return compose(left, e_west, right, e_east), mapping


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


def _rebuild(c: Construction, mapping: Mapping[str, str]) -> Construction:
    if c.is_leaf:
        assert c.leaf_obj is not None
        return leaf(c.leaf_obj.rename(mapping), c.mode)
    assert c.left is not None and c.right is not None
    assert c.cut_west is not None and c.cut_east is not None
    sub = lambda v: mapping.get(v, v)
    return compose(
        _rebuild(c.left, mapping),
        Edge(sub(c.cut_west.tail), sub(c.cut_west.head)),
        _rebuild(c.right, mapping),
        Edge(sub(c.cut_east.tail), sub(c.cut_east.head)),
    )


def rename_construction(c: Construction, mapping: Mapping[str, str]) -> Construction:
    """The same construction tree with vertices renamed everywhere."""
    return _rebuild(c, mapping)


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

    def record(c: Construction) -> None:
        if c.is_leaf:
            return
        assert c.left is not None and c.right is not None
        assert c.cut_west is not None and c.cut_east is not None
        record(c.left)
        record(c.right)
        pairing[c.cut_west.head] = c.cut_edge
        pairing[c.cut_east.tail] = c.cut_edge

    record(g)
    root_set = set(g.root_graph.vertices)

    def leaf_key(obj: Leaf) -> tuple:
        anchor = tuple(sorted(set(obj.graph.vertices) & root_set))
        return (anchor, tuple(sorted(obj.graph.vertices)))

    mapping: dict[str, str] = {}
    counter = itertools.count(1)
    for obj in sorted(g.leaves(), key=leaf_key):
        for v in _leaf_secondary_order(obj, secondary, pairing):
            mapping[v] = f"{SECONDARY_PREFIX}{next(counter)}"
    return _rebuild(g, mapping)


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
    return _decompose_at(g, e)


def _decompose_at(g: Construction, e: Edge) -> tuple[Construction, Edge, Construction, Edge]:
    assert not g.is_leaf  # an inner edge of a star's root graph cannot exist
    assert g.left is not None and g.right is not None
    assert g.cut_west is not None and g.cut_east is not None
    if g.cut_edge == e:
        return g.left, g.cut_west, g.right, g.cut_east
    if g.left.root_graph.contains_edge(e):
        h_w, e_w, h_e, e_e = _decompose_at(g.left, e)
        # g is rewrite-equivalent to (h_w [e] h_e) [cut] right
        if h_e.root_graph.contains_edge(g.cut_west):
            # associativity: move the outer cut inside the east piece
            return h_w, e_w, compose(h_e, g.cut_west, g.right, g.cut_east), e_e
        # commutation of two cuts into the same west piece
        return compose(h_w, g.cut_west, g.right, g.cut_east), e_w, h_e, e_e
    h_w, e_w, h_e, e_e = _decompose_at(g.right, e)
    # g is rewrite-equivalent to left [cut] (h_w [e] h_e)
    if h_w.root_graph.contains_edge(g.cut_east):
        return compose(g.left, g.cut_west, h_w, g.cut_east), e_w, h_e, e_e
    # commutation of two cuts into the same east piece
    return h_w, e_w, compose(g.left, g.cut_west, h_e, g.cut_east), e_e
