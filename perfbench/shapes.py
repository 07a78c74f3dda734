"""Seeded input shapes for the kcut benchmark, with their answers.

Every shape is plain data (vertex and edge lists, graph-file text or
construction-script text), never a kcut object, so each timed instance
rebuilds its input from scratch.  Each shape also carries the answers it has
by construction; none of them is computed by the code being measured.

Vertex names are drawn from a seeded namer, so the seed changes the
canonical (sorted) order of vertices and edges, and with it which inner edge
the bridge splits first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Oriented trees with n vertices up to isomorphism, n = 1..9 (OEIS A000238).
A000238 = (1, 1, 3, 8, 27, 91, 350, 1376, 5743)

Edge = tuple[str, str]


class Namer:
    """Maps role names to distinct seeded tokens over [a-z0-9]."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names: dict[str, str] = {}
        self.used: set[str] = set()

    def __call__(self, role: str) -> str:
        name = self.names.get(role)
        if name is None:
            while True:
                name = "n" + str(self.rng.randrange(10**7))
                if name not in self.used:
                    break
            self.used.add(name)
            self.names[role] = name
        return name


def relabel(vertices, edges, rng: random.Random) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
    """The same graph with every vertex renamed by a fresh seeded namer."""
    name = Namer(rng)
    return (
        tuple(name(v) for v in vertices),
        tuple((name(t), name(h)) for t, h in edges),
    )


@dataclass(frozen=True)
class GraphShape:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    # (vertex, slot, edge) compass values; empty for a bare graph
    compass: tuple[tuple[str, str, Edge], ...] = ()
    transversal_count: int = 0

    def file_text(self, rng: random.Random) -> str:
        """Graph-file text with the records of each kind in seeded order."""
        vs = [f"v {v}" for v in self.vertices]
        es = [f"e {t} {h}" for t, h in self.edges]
        cs = [f"c {v} {slot} {t} {h}" for v, slot, (t, h) in self.compass]
        for lines in (vs, es, cs):
            rng.shuffle(lines)
        return "\n".join(vs + es + cs) + "\n"

    def canonical_text(self) -> str:
        """The graph records as `serialize_graph` prints them (sorted)."""
        lines = [f"v {v}" for v in sorted(self.vertices)]
        lines += [f"e {t} {h}" for t, h in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    def sorted_compass(self) -> tuple[tuple[str, str, Edge], ...]:
        return tuple(sorted(self.compass))


def chain(k: int, rng: random.Random) -> GraphShape:
    """A directed spine v0 -> ... -> vk with a west leaf on v0 and a private
    east leaf on every vi: 2k + 3 vertices, a K-graph with no transversal
    edge.  Its compass takes the one in-edge for NW and SW and splits NE/SE
    between the spine edge and the leaf edge in seeded order; every directed
    path then ends along a YW choice or an E-edge, so it is valid."""
    name = Namer(rng)
    spine = [name(f"v{i}") for i in range(k + 1)]
    leaves = [name(f"x{i}") for i in range(k + 1)]
    west = name("w")
    edges = [(west, spine[0])]
    edges += [(spine[i], spine[i + 1]) for i in range(k)]
    edges += [(spine[i], leaves[i]) for i in range(k + 1)]
    compass = []
    for i, v in enumerate(spine):
        incoming = (west, v) if i == 0 else (spine[i - 1], v)
        compass += [(v, "NW", incoming), (v, "SW", incoming)]
        outs = [(v, leaves[i])] if i == k else [(v, spine[i + 1]), (v, leaves[i])]
        if len(outs) == 2 and rng.random() < 0.5:
            outs.reverse()
        compass += [(v, "NE", outs[0]), (v, "SE", outs[-1])]
    return GraphShape(tuple([west] + spine + leaves), tuple(edges), tuple(compass), 0)


def zigzag(k: int, rng: random.Random) -> GraphShape:
    """A spine s0 .. sk whose k edges alternate direction, each spine vertex
    padded with one private leaf so that it is inner: 2k + 2 vertices.  The
    k - 2 middle spine edges are transversal and no vertex meets three of
    them, so it is a K-graph."""
    if k < 2:
        raise ValueError("a zigzag needs at least two spine edges")
    name = Namer(rng)
    spine = [name(f"s{i}") for i in range(k + 1)]
    edges = [
        (spine[i], spine[i + 1]) if i % 2 == 0 else (spine[i + 1], spine[i])
        for i in range(k)
    ]
    has_in = {h for _, h in edges}
    vertices = list(spine)
    for i, v in enumerate(spine):
        pad = name(f"p{i}")
        vertices.append(pad)
        edges.append((v, pad) if v in has_in else (pad, v))
    return GraphShape(tuple(vertices), tuple(edges), (), k - 2)


@dataclass(frozen=True)
class CombShape:
    """Scripts for one k-star comb and the answers they have.

    `left` nests every cut on the west operand, one `let` per cut; `right`
    nests them on the east operand, which is a rewrite of the same object;
    `variant` is `left` with one cut taken at NE instead of SE, which leaves
    a different root graph.  All three root graphs are chains: the spine
    m1 -> ... -> mk with a private east leaf on each mi.
    """

    k: int
    left: str
    right: str
    variant: str
    root: GraphShape  # root graph of `left`, compass = its lambda compass
    split_edge: Edge  # an inner edge to decompose `left` at
    secondary_count: int


def comb(k: int, rng: random.Random) -> CombShape:
    name = Namer(rng)
    a = [name(f"a{i}") for i in range(k)]
    m = [name(f"m{i}") for i in range(k)]
    p = [name(f"p{i}") for i in range(k)]
    q = [name(f"q{i}") for i in range(k)]
    stars = [
        f"basic S{i} {{ west: {a[i]}; east: {p[i]} {q[i]}; center: {m[i]}; "
        f"NW: {a[i]}; SW: {a[i]}; NE: {p[i]}; SE: {q[i]} }}"
        for i in range(k)
    ]

    def left_script(ne_at: int | None) -> str:
        lines = ["mode K"] + stars
        prev = "S0"
        for j in range(k - 1):
            east = p[j] if j == ne_at else q[j]
            lines.append(f"let C{j} = cut({prev}, {m[j]}->{east}, S{j + 1}, {a[j + 1]}->{m[j + 1]})")
            prev = f"C{j}"
        lines.append(f"emit {prev}")
        return "\n".join(lines) + "\n"

    lines = ["mode K"] + stars
    prev = f"S{k - 1}"
    for j in range(k - 2, -1, -1):
        lines.append(f"let R{j} = cut(S{j}, {m[j]}->{q[j]}, {prev}, {a[j + 1]}->{m[j + 1]})")
        prev = f"R{j}"
    lines.append(f"emit {prev}")
    right = "\n".join(lines) + "\n"

    edges = [(a[0], m[0])] + [(m[j], m[j + 1]) for j in range(k - 1)]
    edges += [(m[j], p[j]) for j in range(k)] + [(m[k - 1], q[k - 1])]
    compass = []
    for j in range(k):
        incoming = (a[0], m[0]) if j == 0 else (m[j - 1], m[j])
        south = (m[j], m[j + 1]) if j < k - 1 else (m[j], q[j])
        compass += [(m[j], "NW", incoming), (m[j], "SW", incoming)]
        compass += [(m[j], "NE", (m[j], p[j])), (m[j], "SE", south)]
    vertices = [a[0]] + m + p + [q[k - 1]]
    root = GraphShape(tuple(vertices), tuple(edges), tuple(compass), 0)
    # fixed positions, so that the work per comb depends on k and on the
    # seeded names only
    j = k // 3
    return CombShape(
        k=k,
        left=left_script(None),
        right=right,
        variant=left_script(k // 2),
        root=root,
        split_edge=(m[j], m[j + 1]),
        secondary_count=2 * (k - 1),
    )


@dataclass(frozen=True)
class DeepShape:
    """A star a -> m -> z cut against n identity leaves in turn; the root
    graph stays the star a -> m -> y_n and the cut-tree is n deep.
    `script` builds it with one `let` per cut, `nest` with one n-deep
    `cut(` expression."""

    n: int
    script: str
    nest: str
    root: GraphShape
    secondary_count: int


def identity_padded(n: int, rng: random.Random) -> DeepShape:
    name = Namer(rng)
    a, m, z = name("a"), name("m"), name("z")
    x = [name(f"x{i}") for i in range(n)]
    y = [name(f"y{i}") for i in range(n)]
    head = [
        "mode K",
        f"basic S {{ west: {a}; east: {z}; center: {m}; NW: {a}; SW: {a}; NE: {z}; SE: {z} }}",
    ]
    head += [f"identity I{i} {{ west: {x[i]}; east: {y[i]} }}" for i in range(n)]
    lets = []
    prev, tail = "S", z
    for i in range(n):
        lets.append(f"let D{i} = cut({prev}, {m}->{tail}, I{i}, {x[i]}->{y[i]})")
        prev, tail = f"D{i}", y[i]
    script = "\n".join(head + lets + [f"emit {prev}"]) + "\n"
    expr = "cut(" * n + "S"
    tail = z
    for i in range(n):
        expr += f", {m}->{tail}, I{i}, {x[i]}->{y[i]})"
        tail = y[i]
    nest = "\n".join(head + [f"emit {expr}"]) + "\n"
    last = y[-1]
    compass = (
        (m, "NW", (a, m)), (m, "SW", (a, m)), (m, "NE", (m, last)), (m, "SE", (m, last)),
    )
    root = GraphShape((a, m, last), ((a, m), (m, last)), compass, 0)
    return DeepShape(n, script, nest, root, secondary_count=2 * n)
