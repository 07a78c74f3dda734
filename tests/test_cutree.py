"""Cut-trees that do not copy their root graph at every node.

`compose` checks a cut on the operands' root indexes and keeps O(1)
summaries; the root graph is built once, on first read, through the
trusted `OrientedGraph.unchecked`.  These tests compare both with the
copying cut they replace (`oracles.compose_by_copying`) and with
`OrientedGraph.of`, pin what `==` means on constructions, and run walks,
parses and memory on cut-trees deeper than the default recursion limit.
"""

from __future__ import annotations

import gc
import tracemalloc

from kcut import (
    Edge,
    IdentityGraph,
    KcutError,
    OrientedGraph,
    apply_rho_move,
    applicable_rho_moves,
    compose,
    construction_from_compass,
    decompose_at,
    eliminate_identities,
    lambda_of,
    leaf,
    make_basic,
    qgraph_construction,
    rename_construction,
    same_compass_graph,
    sigma_canonical,
    synthesize_compass,
)
from kcut.bridge import _compass_entries
from kcut.compass import LocalCompassGraph
from kcut.formats import run_script, script_of
from kcut.generate import enumerate_oriented_trees, random_construction
from kcut.recognize import KGRAPH, _hanging_tree, is_kgraph

import oracles


def _random_constructions(count: int):
    for seed in range(count):
        yield random_construction(seed, 1 + seed % 5, "KQ"[seed % 2])


def _bridge_outputs(limit: int):
    for size in range(2, limit + 1):
        for graph in enumerate_oriented_trees(size):
            if is_kgraph(graph).kind != KGRAPH:
                continue
            if graph.inner_vertices:
                yield construction_from_compass(LocalCompassGraph(graph, synthesize_compass(graph)))
                yield qgraph_construction(graph, graph.w_edges[0], "W")
            yield construction_from_compass(
                LocalCompassGraph(graph, synthesize_compass(graph, extended=True)), extended=True
            )


def _cuts(c):
    return [node for node in c.postorder() if not node.is_leaf]


def _outcome(fn, *args):
    try:
        built = fn(*args)
    except KcutError as err:
        return type(err), str(err)
    return built if isinstance(built, tuple) else (built.root_graph, built.yx_items)


def _comb_script(k: int) -> str:
    """A left-nested comb of k stars, one `let` per cut."""
    lines = ["mode K"] + [
        f"basic S{i} {{ west: a{i}; east: p{i} q{i}; center: m{i}; NW: a{i}; SW: a{i}; NE: p{i}; SE: q{i} }}"
        for i in range(k)
    ]
    prev = "S0"
    for j in range(k - 1):
        lines.append(f"let C{j} = cut({prev}, m{j}->q{j}, S{j + 1}, a{j + 1}->m{j + 1})")
        prev = f"C{j}"
    return "\n".join(lines + [f"emit {prev}"]) + "\n"


def _identity_padded(n: int):
    """A star cut against n identities in turn: a cut-tree n deep."""
    built = leaf(make_basic("m", ["a"], ["z"], Edge("a", "m"), Edge("a", "m"), Edge("m", "z"), Edge("m", "z")))
    tail = "z"
    for i in range(n):
        built = compose(built, Edge("m", tail), leaf(IdentityGraph(f"x{i}", f"y{i}")), Edge(f"x{i}", f"y{i}"))
        tail = f"y{i}"
    return built


def test_equality_is_structural_equality_of_the_cut_tree():
    script = _comb_script(4)
    one, two = run_script(script), run_script(script)
    assert one == two and hash(one) == hash(two)
    for built in _random_constructions(20):
        again = run_script(script_of(built))
        assert again == built and hash(again) == hash(built)
    # the same root graph and distinguished edges by another cut-tree
    site, move, direction = applicable_rho_moves(one)[0]
    moved = apply_rho_move(one, site, move, direction)
    assert moved.root_graph == one.root_graph and moved.yx_items == one.yx_items
    assert moved != one
    # a changed cut edge
    west = leaf(make_basic("m", ["w"], ["e1", "e2"], Edge("w", "m"), Edge("w", "m"),
                           Edge("m", "e1"), Edge("m", "e2"), mode="Q"), "Q")
    east = leaf(make_basic("n", ["v"], ["f"], Edge("v", "n"), Edge("v", "n"),
                           Edge("n", "f"), Edge("n", "f"), mode="Q"), "Q")
    at_e1 = compose(west, Edge("m", "e1"), east, Edge("v", "n"))
    at_e2 = compose(west, Edge("m", "e2"), east, Edge("v", "n"))
    assert at_e1 != at_e2
    assert at_e1 == compose(west, Edge("m", "e1"), east, Edge("v", "n"))


def test_every_cut_matches_the_copying_oracle():
    checked = 0
    for built in list(_random_constructions(300)) + list(_bridge_outputs(7)):
        for node in _cuts(built):
            west, e_west, east, e_east = node.operands
            assert oracles.compose_by_copying(west, e_west, east, e_east) == (
                node.root_graph,
                node.yx_items,
            )
            checked += 1
    assert checked > 1000  # 1062 cuts


BAD_CUTS = ("modes differ", "share vertices", "is not an E-edge", "is not a W-edge", "distinguished for neither")


def test_bad_cuts_raise_what_the_copying_cut_raised():
    seen = set()
    constructions = list(_random_constructions(100))
    for i, west in enumerate(constructions):
        east = constructions[(i * 7 + 4) % len(constructions)]  # same mode as west
        disjoint = rename_construction(east, {v: "x" + v for v in east.leaf_vertices()})
        for other in (disjoint, east, constructions[(i + 1) % len(constructions)]):
            for e_west in west.root_graph.edges:
                for e_east in other.root_graph.edges:
                    expected = _outcome(oracles.compose_by_copying, west, e_west, other, e_east)
                    assert _outcome(compose, west, e_west, other, e_east) == expected
                    seen.update(kind for kind in BAD_CUTS if kind in str(expected[1]))
    assert seen == set(BAD_CUTS)


def test_the_trusted_constructor_equals_the_validating_one():
    hanging = 0
    for size in range(2, 9):
        for graph in enumerate_oriented_trees(size):
            for v in graph.vertices:
                for attach in graph.in_edges(v) + graph.out_edges(v):
                    far = attach.head if attach.tail == v else attach.tail
                    members, edges = graph.side(far, attach)
                    expected = OrientedGraph.of(members + [v], edges + [attach])
                    assert _hanging_tree(graph, v, attach) == expected
                    hanging += 1
    assert hanging > 10000
    for built in _random_constructions(300):
        root = built.root_graph
        assert root == OrientedGraph.of(root.vertices, root.edges)
        assert root == OrientedGraph.unchecked(reversed(root.vertices), reversed(root.edges))


def test_walks_keep_their_order_and_fold_like_the_recursion():
    for built in list(_random_constructions(100)) + [_identity_padded(6)]:
        assert list(built.leaves()) == oracles.leaves_by_recursion(built)
        assert list(built.internal_sites()) == oracles.internal_sites_by_recursion(built)
        if built.mode == "K":
            assert _compass_entries(built) == oracles.compass_entries_by_recursion(built)


def test_walks_run_below_the_default_recursion_limit():
    deep = _identity_padded(1500)
    assert len(list(deep.leaves())) == 1501
    sites = list(deep.internal_sites())
    assert len(sites) == 1500 and sites[-1] == "L" * 1499
    assert deep.root_graph == OrientedGraph.of(["a", "m", "y1499"], [("a", "m"), ("m", "y1499")])
    assert len(deep.secondary_vertices()) == 3000
    lam = lambda_of(deep)
    assert lam.compass.edge("m", "SE") == Edge("m", "y1499")
    assert eliminate_identities(deep).root_graph == deep.root_graph.rename({"y1499": "z"})
    assert sigma_canonical(deep).root_graph == deep.root_graph
    assert same_compass_graph(deep, deep)


def test_decompose_at_walks_a_deep_comb():
    comb = run_script(_comb_script(1500))
    west, e_west, east, e_east = decompose_at(comb, Edge("m100", "m101"))
    assert (e_west.tail, e_east.head) == ("m100", "m101")
    assert len(west.root_graph.vertices) + len(east.root_graph.vertices) == len(comb.root_graph.vertices) + 2
    assert compose(west, e_west, east, e_east).root_graph == comb.root_graph


def _retained_bytes(script: str) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        built = run_script(script)
        built.root_graph
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_retained_memory_of_a_comb_grows_linearly():
    small, large = _comb_script(500), _comb_script(1000)
    at_500, at_1000 = _retained_bytes(small), _retained_bytes(large)
    assert at_1000 <= 2.3 * at_500
    assert at_1000 < 15 * 2**20
