"""Recognition from side marks, against per-edge searches and enumeration.

`OrientedGraph.side_marks` gives, for every edge and each of its endpoints,
whether that endpoint's side holds an edge pointing toward it or away from
it.  Transversality, the root of a transversal-free decomposition and the
orientation of hanging trees are all read off those bits.  They are
compared here with oracles that search each side on its own, and run on
inputs deeper than the default recursion limit.
"""

from __future__ import annotations

import sys

from kcut import (
    decompose,
    is_kgraph,
    is_local_compass_graph,
    is_qgraph,
    synthesize_compass,
    transversal_edges,
)
from kcut.errors import DomainError
from kcut.generate import enumerate_oriented_trees
from kcut.graph import AWAY, TOWARD
from kcut.recognize import KGRAPH, _degenerate_root

import oracles
from helpers import g


def _trees(limit: int):
    for size in range(1, limit + 1):
        yield from enumerate_oriented_trees(size)


def _side_bits(graph, v, cut) -> int:
    toward = oracles.side_has_step(graph, v, cut, toward=True)
    away = oracles.side_has_step(graph, v, cut, toward=False)
    return (TOWARD if toward else 0) | (AWAY if away else 0)


def test_side_marks_match_a_search_of_each_side():
    for tree in _trees(7):
        expected = {e: (_side_bits(tree, e.tail, e), _side_bits(tree, e.head, e)) for e in tree.edges}
        assert tree.side_marks == expected


def test_transversal_edges_and_degenerate_root_match_the_scans():
    rooted = qgraphs = crossed = 0
    for tree in _trees(8):
        if tree.edges:
            try:
                root = _degenerate_root(tree)
            except DomainError:
                root = None
            assert root == oracles.degenerate_root_by_scan(tree)
            rooted += root is not None
        if is_qgraph(tree, extended=True):
            t_edges = transversal_edges(tree, extended=True)
            assert t_edges == oracles.transversal_edges_by_sides(tree)
            qgraphs += 1
            crossed += bool(t_edges)
    assert (rooted, qgraphs, crossed) == (261, 312, 63)


def test_transversal_edges_match_enumeration_on_every_small_tree():
    for tree in _trees(7):
        if is_qgraph(tree, extended=True):
            expected = oracles.transversal_edges_by_enumeration(tree)
            assert set(transversal_edges(tree, extended=True)) == expected


# -- inputs deeper than the default recursion limit ---------------------------


def _default_recursion_limit(check):
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return check()
    finally:
        sys.setrecursionlimit(previous)


def _zigzag(k: int):
    """The spine s0000 .. s<k> whose k edges alternate direction, each spine
    vertex padded with a private leaf so that it is inner; the names sort
    along the spine."""
    spine = [f"s{i:04d}" for i in range(k + 1)]
    items = [
        f"{spine[i]}>{spine[i + 1]}" if i % 2 == 0 else f"{spine[i + 1]}>{spine[i]}"
        for i in range(k)
    ]
    has_in = {item.split(">")[1] for item in items}
    items += [f"{v}>p{i:04d}" if v in has_in else f"p{i:04d}>{v}" for i, v in enumerate(spine)]
    return g(*items), spine


def test_deep_zigzag_is_a_kgraph_along_its_spine():
    graph, spine = _zigzag(1500)
    assert len(graph.vertices) == 3002

    def check():
        verdict = is_kgraph(graph)
        assert verdict.kind == KGRAPH
        built = verdict.decomposition
        assert len(built.transversal.edges) == 1498
        assert built.transversal.vertices == tuple(spine[1:-1])
        assert decompose(graph) == built
        compass = synthesize_compass(graph)
        assert compass is not None
        assert is_local_compass_graph(graph, compass).ok

    _default_recursion_limit(check)


def test_deep_in_tree_spine_roots_its_decomposition_at_the_far_end():
    # v0000 -> ... -> v1000 -> x with a private west leaf on every spine
    # vertex: no transversal edge, and only v1000 sees every hanging tree
    # oriented toward it or away from it.
    items = [f"w{i:04d}>v{i:04d}" for i in range(1001)]
    items += [f"v{i:04d}>v{i + 1:04d}" for i in range(1000)] + ["v1000>x"]
    graph = g(*items)
    assert len(graph.vertices) == 2003
    verdict = _default_recursion_limit(lambda: is_kgraph(graph))
    assert verdict.kind == KGRAPH
    built = verdict.decomposition
    assert built.transversal.vertices == ("v1000",) and built.transversal.edges == ()
    assert len(built.in_trees) == 2 and built.out_trees == (("v1000", g("v1000>x")),)
