"""The split-free assembler behind `construction_from_compass` and
`qgraph_construction`.

Every inner vertex becomes a star, every inner edge a fresh pair of stubs,
and one breadth-first walk cuts the stars back together, children into
parents.  These tests hold it to the compass it was given, to the
recursion it replaced (`oracles.construction_by_splitting` and
`oracles.qgraph_construction_by_splitting`), to the same error texts, and
to inputs far deeper than the default recursion limit.
"""

from __future__ import annotations

import time

from kcut import (
    Compass,
    DomainError,
    Edge,
    KcutError,
    construction_from_compass,
    is_kgraph,
    is_local_compass_graph,
    is_qgraph,
    lambda_of,
    qgraph_construction,
    synthesize_compass,
)
from kcut.compass import LocalCompassGraph
from kcut.generate import enumerate_oriented_trees
from kcut.recognize import KGRAPH

import oracles
from helpers import F1, F3, F4, F5, F6, F6_COMPASS, g
from test_sides import _default_recursion_limit, _zigzag


def _trees(limit: int):
    for size in range(2, limit + 1):
        yield from enumerate_oriented_trees(size)


def _sorted_spine(k: int):
    """The directed spine v0000 -> .. -> v<k> with a private west and east
    leaf on every spine vertex (3k + 3 vertices), and a compass that takes
    the spine edges as SW and NE wherever there is one; the names sort
    along the spine."""
    spine = [f"v{i:04d}" for i in range(k + 1)]
    edges, assignments = [], {}
    for i, v in enumerate(spine):
        west, east = Edge(f"w{i:04d}", v), Edge(v, f"x{i:04d}")
        ahead = Edge(v, spine[i + 1]) if i < k else east
        behind = Edge(spine[i - 1], v) if i else west
        edges += [west, east] + ([ahead] if i < k else [])
        assignments.update({(v, "NW"): west, (v, "SW"): behind, (v, "NE"): ahead, (v, "SE"): east})
    return g(*(str(e) for e in edges)), Compass.of(assignments)


def test_lambda_of_the_assembly_is_every_valid_compass():
    checked = 0
    for graph in _trees(7):
        if not graph.inner_vertices or not is_qgraph(graph):
            continue
        for compass in oracles.enumerate_compasses(graph):
            lcg = LocalCompassGraph(graph, compass)
            if not is_local_compass_graph(graph, compass).ok:
                continue
            built = construction_from_compass(lcg)
            assert built.root_graph == graph
            assert lambda_of(built) == lcg == lambda_of(oracles.construction_by_splitting(lcg))
            checked += 1
    assert checked == 613


def test_mode_k_agrees_with_the_splitting_recursion():
    checked = 0
    for graph in _trees(8):
        if is_kgraph(graph, extended=True).kind != KGRAPH:
            continue
        for extended in (False, True) if graph.inner_vertices else (True,):
            lcg = LocalCompassGraph(graph, synthesize_compass(graph, extended=extended))
            built = construction_from_compass(lcg, extended=extended)
            old = oracles.construction_by_splitting(lcg, extended=extended)
            assert built.root_graph == old.root_graph == graph
            assert lambda_of(built) == lambda_of(old) == lcg
            checked += 1
    assert checked == 623


def test_mode_q_agrees_with_the_splitting_recursion():
    checked = 0
    for graph in _trees(8):
        if not is_qgraph(graph):
            continue
        for x, pool in (("W", graph.w_edges), ("E", graph.e_edges)):
            for d in pool:
                built = qgraph_construction(graph, d, x)
                old = oracles.qgraph_construction_by_splitting(graph, d, x)
                assert built.root_graph == old.root_graph == graph
                assert built.yx_items == old.yx_items
                checked += 1
    assert checked == 1392


def _outcome(fn, *args, **kwargs):
    try:
        built = fn(*args, **kwargs)
    except KcutError as err:
        return type(err), str(err)
    return built.root_graph, built.yx_items


def test_bad_input_gets_the_same_errors():
    inputs = [(F4, Compass.of({})), (F5, Compass.of({})), (F6, F6_COMPASS), (g("a>b"), Compass.of({}))]
    for graph in _trees(5):
        inputs += [(graph, Compass.of({}))] + [(graph, c) for c in oracles.enumerate_compasses(graph)]
    for graph, compass in inputs:
        lcg = LocalCompassGraph(graph, compass)
        assert _outcome(construction_from_compass, lcg) == _outcome(oracles.construction_by_splitting, lcg)
    failures = 0
    for graph, d, x in [
        (F5, Edge("a", "b"), "W"),
        (F4, Edge("m", "x1"), "W"),
        (F4, Edge("x1", "o1"), "W"),
        (F4, Edge("w", "m"), "E"),
        (F3, Edge("w", "p"), "N"),
        (F1, Edge("w1", "e1"), "W"),
        (g("a>b"), Edge("a", "b"), "W"),
    ]:
        new = _outcome(qgraph_construction, graph, d, x)
        assert new == _outcome(oracles.qgraph_construction_by_splitting, graph, d, x)
        failures += new[0] is DomainError
    assert failures == 7


def test_a_sorted_4800_vertex_spine_assembles_in_under_a_second():
    graph, compass = _sorted_spine(1599)
    assert len(graph.vertices) == 4800
    lcg = LocalCompassGraph(graph, compass)
    began = time.perf_counter()
    built = _default_recursion_limit(lambda: construction_from_compass(lcg))
    assert time.perf_counter() - began < 1.0
    assert built.root_graph == graph
    assert _default_recursion_limit(lambda: lambda_of(built)) == lcg


def test_a_sorted_zigzag_assembles_under_the_default_recursion_limit():
    graph, _ = _zigzag(1500)
    assert len(graph.vertices) == 3002

    def check():
        compass = synthesize_compass(graph)
        built = construction_from_compass(LocalCompassGraph(graph, compass))
        assert built.root_graph == graph
        assert lambda_of(built).compass == compass
        steered = qgraph_construction(graph, graph.w_edges[-1], "W")
        assert steered.root_graph == graph
        assert steered.yx("NW") == steered.yx("SW") == graph.w_edges[-1]

    _default_recursion_limit(check)


def test_deep_assembled_trees_compare_hash_and_print_without_recursion():
    graph, compass = _sorted_spine(3000)
    lcg = LocalCompassGraph(graph, compass)

    def check():
        one, two = construction_from_compass(lcg), construction_from_compass(lcg)
        assert one is not two and one == two and hash(one) == hash(two)
        depth, node = 0, one  # each spine star is cut in from the far end
        while not node.is_leaf:
            node, depth = node.right, depth + 1
        assert depth == 3000
        mirrored = Compass.of({(v, "NS"[s[0] == "N"] + s[1]): e for v, s, e in compass.entries})
        assert one != construction_from_compass(LocalCompassGraph(graph, mirrored))
        text, shown = str(one), repr(one)
        assert text.count("[") == 3000 and text.startswith("(basic{")
        assert shown.count("Construction(") == 6001

    _default_recursion_limit(check)

