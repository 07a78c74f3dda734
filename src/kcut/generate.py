"""Generators: exhaustive oriented-tree enumeration and random constructions.

Oriented trees are enumerated up to isomorphism by growing a leaf at a time
and deduplicating on a canonical code (minimum over all rootings of the
direction-annotated subtree encoding).  Representatives are relabelled
deterministically, so the stream is byte-stable.
"""

from __future__ import annotations

import itertools
import os
import random
from functools import lru_cache

from .construct import Construction, compose, leaf, make_basic
from .errors import ConfigError, DomainError
from .graph import Edge, OrientedGraph

DEFAULT_MAX_ENUM = 10
MAX_ENUM_ENV = "KCUT_MAX_ENUM"


def max_enumeration_size() -> int:
    raw = os.environ.get(MAX_ENUM_ENV, "")
    if not raw:
        return DEFAULT_MAX_ENUM
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{MAX_ENUM_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError(f"{MAX_ENUM_ENV} must be positive, got {value}")
    return value


def _rooted_codes(graph: OrientedGraph):
    """The graph's direction-annotated adjacency, and `code(v, parent)`: the
    code of the subtree at v seen from `parent` (None for the whole tree
    rooted at v).  Codes are kept once computed, so the rootings at every
    vertex together cost one code per vertex and per directed edge."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        adj[e.tail].append((e.head, ">"))
        adj[e.head].append((e.tail, "<"))
    known: dict[tuple[str, str | None], str] = {}

    def code(vertex: str, parent: str | None = None) -> str:
        if (vertex, parent) not in known:
            parts = sorted(bit + code(child, vertex) for child, bit in adj[vertex] if child != parent)
            known[(vertex, parent)] = "(" + "".join(parts) + ")"
        return known[(vertex, parent)]

    return adj, code


def canonical_code(graph: OrientedGraph) -> str:
    """Isomorphism-invariant code of an oriented tree."""
    if not graph.is_tree:
        raise DomainError("canonical codes are defined for oriented trees")
    _, code = _rooted_codes(graph)
    return min(code(v) for v in graph.vertices)


def _names() -> itertools.chain:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return itertools.chain(letters, (a + b for a in letters for b in letters))


def canonical_representative(graph: OrientedGraph) -> OrientedGraph:
    """The same oriented tree relabelled a, b, c, ... along a canonical
    traversal, identical for isomorphic inputs."""
    adj, code = _rooted_codes(graph)
    root = min(graph.vertices, key=code)
    names = _names()
    mapping: dict[str, str] = {}

    def visit(vertex: str, parent: str | None) -> None:
        mapping[vertex] = next(names)
        children = sorted(
            ((child, bit) for child, bit in adj[vertex] if child != parent),
            key=lambda cb: (cb[1], code(cb[0], vertex), cb[0]),
        )
        for child, _ in children:
            visit(child, vertex)

    visit(root, None)
    return graph.rename(mapping)


@lru_cache(maxsize=None)
def _enumerated(size: int) -> tuple[OrientedGraph, ...]:
    if size == 1:
        return (OrientedGraph.of(["a"], []),)
    seen: dict[str, OrientedGraph] = {}
    for smaller in _enumerated(size - 1):
        for v in smaller.vertices:
            for orient in ("out", "in"):
                new_edge = Edge("zz", v) if orient == "in" else Edge(v, "zz")
                # a tree grown by a fresh leaf is a tree: no re-validation
                grown = OrientedGraph.unchecked(smaller.vertices + ("zz",), smaller.edges + (new_edge,))
                _, code = _rooted_codes(grown)
                key = min(map(code, grown.vertices))
                if key not in seen:
                    seen[key] = canonical_representative(grown)
    return tuple(seen[key] for key in sorted(seen))


def enumerate_oriented_trees(size: int):
    """All weakly connected antisymmetric orientations of trees with exactly
    `size` vertices, one representative per isomorphism class, in canonical
    order."""
    bound = max_enumeration_size()
    if size < 1:
        raise DomainError(f"size must be positive, got {size}")
    if size > bound:
        raise ConfigError(
            f"size {size} exceeds the enumeration bound {bound} "
            f"(override with {MAX_ENUM_ENV})"
        )
    yield from _enumerated(size)


# -- deterministic random constructions ---------------------------------------


def _random_leaf(rng: random.Random, index: int, mode: str) -> Construction:
    k_w = rng.randint(1, 3)
    k_e = rng.randint(1, 3)
    center = f"m{index}"
    wests = tuple(f"w{index}_{j}" for j in range(k_w))
    easts = tuple(f"e{index}_{j}" for j in range(k_e))
    w_edges = [Edge(w, center) for w in wests]
    e_edges = [Edge(center, e) for e in easts]
    if mode == "K":
        nw, sw = (w_edges[0], w_edges[1]) if k_w >= 2 else (w_edges[0], w_edges[0])
        ne, se = (e_edges[0], e_edges[1]) if k_e >= 2 else (e_edges[0], e_edges[0])
        if k_w >= 2 and rng.random() < 0.5:
            nw, sw = sw, nw
        if k_e >= 2 and rng.random() < 0.5:
            ne, se = se, ne
    else:
        nw, sw = rng.choice(w_edges), rng.choice(w_edges)
        ne, se = rng.choice(e_edges), rng.choice(e_edges)
    return leaf(make_basic(center, wests, easts, nw, sw, ne, se, mode=mode), mode)


def random_construction(seed: int, leaf_count: int, mode: str = "K") -> Construction:
    """A pseudo-random construction, deterministic in the seed.

    Mode-K cuts consume a currently distinguished edge on each side (either
    SE against NW or NE against SW), which always satisfies the cut's side
    conditions; mode-Q cuts pick any functional E-/W-edge pair.
    """
    if leaf_count < 1:
        raise DomainError(f"leaf_count must be positive, got {leaf_count}")
    if mode not in ("K", "Q"):
        raise DomainError(f"mode must be 'K' or 'Q', got {mode!r}")
    rng = random.Random(seed)
    pool = [_random_leaf(rng, i, mode) for i in range(leaf_count)]
    while len(pool) > 1:
        west = pool.pop(rng.randrange(len(pool)))
        east = pool.pop(rng.randrange(len(pool)))
        if mode == "K":
            e_slot, w_slot = rng.choice((("SE", "NW"), ("NE", "SW")))
            e_west, e_east = west.yx(e_slot), east.yx(w_slot)
        else:
            e_west = rng.choice(west.root_graph.e_edges)
            e_east = rng.choice(east.root_graph.w_edges)
        pool.append(compose(west, e_west, east, e_east))
    return pool[0]
