from __future__ import annotations

import time

import pytest
from hypothesis import given, settings

from kcut import (
    SLOTS,
    DomainError,
    OrientedGraph,
    SemiPath,
    decompose,
    is_kgraph,
    is_local_compass_graph,
    is_proper,
    is_qgraph,
    is_transversal_edge,
    qgraph_construction,
    synthesize_compass,
    transversal_bifurcation_witness,
    transversal_edges,
)
from kcut.generate import enumerate_oriented_trees
from kcut.recognize import KGRAPH, NOT_QGRAPH, QGRAPH_ONLY

import oracles
from helpers import F1, F2, F3, F4, F5, FIG_TRANSVERSAL, e, g
from test_graph import small_trees
from test_sides import _zigzag


def test_proper_semipaths_need_a_direction_change():
    assert not is_proper(oracles.unique_semipath(F1, "w1", "e1"))
    assert is_proper(oracles.unique_semipath(F3, "r", "q"))
    assert not is_proper(oracles.unique_semipath(F1, "w1", "m"))
    assert not is_proper(SemiPath(("m",), ()))


def test_transversal_edges_on_fixtures():
    # frozen from the semipath-enumeration oracle
    assert is_transversal_edge(F3, e("p>q"))
    assert not is_transversal_edge(F3, e("p>r"))
    assert not is_transversal_edge(F2, e("m>n"))
    assert oracles.transversal_edges_by_enumeration(F3) == {e("p>q")}
    assert oracles.transversal_edges_by_enumeration(F2) == set()
    assert transversal_edges(F1) == ()


def test_transversal_edge_requires_q_conditions():
    with pytest.raises(DomainError, match="not a Q-graph"):
        is_transversal_edge(F5, e("a>b"))


def test_bifurcation_witness_on_the_three_armed_graph():
    witness = transversal_bifurcation_witness(F4)
    assert witness is not None
    assert witness.vertex == "m"
    assert witness.edges == (e("m>x1"), e("m>x2"), e("m>x3"))
    assert witness.pattern == (0, 3)
    assert oracles.bifurcation_by_enumeration(F4) == witness.edges
    assert transversal_bifurcation_witness(F3) is None
    assert transversal_bifurcation_witness(F1) is None
    assert oracles.bifurcation_by_enumeration(F3) is None


def test_classification_of_fixtures():
    assert is_kgraph(F3).kind == KGRAPH
    assert is_kgraph(F4).kind == QGRAPH_ONLY
    assert is_kgraph(F4).bifurcation.pattern == (0, 3)
    verdict = is_kgraph(F5)
    assert verdict.kind == NOT_QGRAPH and verdict.failure.condition == 2


def test_qgraph_verdicts():
    assert is_qgraph(F4)
    assert not is_qgraph(F5)
    assert is_qgraph(F5).failure.condition == 2
    assert not is_qgraph(g("a>b"))
    assert is_qgraph(g("a>b"), extended=True)


def test_decompose_f3():
    built = decompose(F3)
    assert built.transversal.vertices == ("p", "q")
    assert built.transversal_vertices == ("p", "q")
    assert built.in_trees == ((("p"), g("w>p")), (("q"), g("s>q")))
    assert built.out_trees == ((("p"), g("p>r")), (("q"), g("q>e")))


def test_decompose_star_has_shared_root_form():
    built = decompose(F1)
    assert built.transversal.vertices == ("m",)
    assert built.transversal.steps == ()
    assert built.in_trees == (("m", g("w1>m")), ("m", g("w2>m")))
    assert built.out_trees == (("m", g("m>e1")),)


def test_decompose_rejects_non_kgraphs():
    with pytest.raises(DomainError, match="not a K-graph"):
        decompose(F4)


def reassembled_edges(decomposition):
    edges = list(decomposition.transversal.edges)
    for _, tree in decomposition.in_trees + decomposition.out_trees:
        edges.extend(tree.edges)
    return edges


def test_decomposition_reassembles_exactly():
    for graph in (F1, F2, F3, FIG_TRANSVERSAL):
        built = decompose(graph)
        edges = reassembled_edges(built)
        assert sorted(edges) == list(graph.edges)
        assert len(edges) == len(set(edges))
        for root, tree in built.in_trees + built.out_trees:
            assert set(tree.vertices) & set(built.transversal_vertices) == {root}


def test_figure_graph_decomposes_to_the_seven_vertex_transversal():
    assert oracles.transversal_edges_by_enumeration(FIG_TRANSVERSAL) == {
        e("b>a"), e("c>b"), e("c>d"), e("d>e"), e("f>e"), e("f>g"),
    }
    built = decompose(FIG_TRANSVERSAL)
    assert built.transversal.vertices == ("a", "b", "c", "d", "e", "f", "g")
    in_roots = sorted({root for root, _ in built.in_trees})
    out_roots = sorted({root for root, _ in built.out_trees})
    assert in_roots == ["a", "c", "e", "f", "g"]
    assert out_roots == ["a", "e", "g"]


def test_synthesized_compass_on_f3():
    compass = synthesize_compass(F3)
    assert compass is not None
    assert compass.edge("p", "SE") == e("p>q")
    assert compass.edge("q", "NW") == e("p>q")
    # frozen from the validity check: the deterministic fill
    assert {s: compass.edge("p", s) for s in SLOTS} == {
        "NW": e("w>p"), "SW": e("w>p"), "NE": e("p>r"), "SE": e("p>q"),
    }
    assert {s: compass.edge("q", s) for s in SLOTS} == {
        "NW": e("p>q"), "SW": e("s>q"), "NE": e("q>e"), "SE": e("q>e"),
    }
    assert is_local_compass_graph(F3, compass).ok


def test_synthesized_compass_matches_the_figure_seed():
    compass = synthesize_compass(FIG_TRANSVERSAL)
    assert compass is not None
    assert compass.edge("a", "SW") == e("b>a")
    assert compass.edge("b", "NE") == e("b>a")
    assert compass.edge("b", "SW") == e("c>b")
    assert compass.edge("c", "NE") == e("c>b")
    assert compass.edge("c", "SE") == e("c>d")
    assert compass.edge("d", "NW") == e("c>d")
    assert is_local_compass_graph(FIG_TRANSVERSAL, compass).ok


def test_synthesize_returns_none_exactly_when_bifurcating():
    assert synthesize_compass(F4) is None
    assert oracles.some_valid_compass(F4) is None
    compass = synthesize_compass(F1)
    assert compass is not None and is_local_compass_graph(F1, compass).ok


def test_the_other_transversal_assignment_also_works():
    # the mirrored seed: NE at the tail and SW at the head of forward steps
    compass = synthesize_compass(F3)
    flipped = dict(compass._map)
    flipped[("p", "NE")] = e("p>q")
    flipped[("p", "SE")] = e("p>r")
    flipped[("q", "SW")] = e("p>q")
    flipped[("q", "NW")] = e("s>q")
    from kcut.compass import Compass

    assert is_local_compass_graph(F3, Compass.of(flipped)).ok


def test_qgraph_construction_base_and_steering():
    built = qgraph_construction(F1, e("m>e1"), "E")
    assert built.is_leaf and built.mode == "Q"
    assert built.yx("NE") == built.yx("SE") == e("m>e1")

    for x, d in (("W", e("w>m")), ("E", e("x1>o1"))):
        built = qgraph_construction(F4, d, x)
        assert built.mode == "Q"
        assert built.root_graph == F4
        assert built.yx("N" + x) == built.yx("S" + x) == d

    built = qgraph_construction(F3, e("q>e"), "E")
    assert built.root_graph == F3
    assert built.yx("NE") == built.yx("SE") == e("q>e")


def test_extended_family_admits_the_identity_graph():
    ident = g("a>b")
    assert is_kgraph(ident).kind == NOT_QGRAPH
    verdict = is_kgraph(ident, extended=True)
    assert verdict.kind == KGRAPH
    built = verdict.decomposition
    assert built.transversal.vertices == ("a",)
    assert built.out_trees == (("a", ident),) and built.in_trees == ()
    compass = synthesize_compass(ident, extended=True)
    assert compass is not None and compass.entries == ()
    assert is_local_compass_graph(ident, compass, extended=True).ok


def test_qgraph_construction_rejects_wrong_side():
    with pytest.raises(DomainError, match="not a W-edge"):
        qgraph_construction(F4, e("m>x1"), "W")
    with pytest.raises(DomainError, match="not a Q-graph"):
        qgraph_construction(F5, e("a>b"), "W")


# -- randomized agreement with the enumeration oracles ------------------------


@settings(max_examples=150, deadline=None)
@given(small_trees())
def test_transversal_edges_agree_with_enumeration(tree):
    if not is_qgraph(tree):
        return
    expected = oracles.transversal_edges_by_enumeration(tree)
    assert set(transversal_edges(tree)) == expected


@settings(max_examples=150, deadline=None)
@given(small_trees())
def test_bifurcation_agrees_with_enumeration(tree):
    if not is_qgraph(tree):
        return
    assert (transversal_bifurcation_witness(tree) is None) == (
        oracles.bifurcation_by_enumeration(tree) is None
    )


@settings(max_examples=100, deadline=None)
@given(small_trees())
def test_kgraphs_decompose_and_reassemble(tree):
    verdict = is_kgraph(tree)
    if verdict.kind != KGRAPH:
        return
    built = verdict.decomposition
    edges = reassembled_edges(built)
    assert sorted(edges) == list(tree.edges)
    assert len(edges) == len(set(edges))


def test_decomposition_invariants_raise_rather_than_assert():
    # hand `_build_decomposition` edge sets that are not the transversal of F4; the
    # checks must raise, so they also hold under `python -O`
    from kcut import GraphInvariantError
    from kcut.recognize import _assemble_transversal, _build_decomposition

    arms = (e("m>x1"), e("m>x2"), e("m>x3"))
    with pytest.raises(GraphInvariantError, match="do not form one path"):
        _assemble_transversal(F4, arms)
    with pytest.raises(GraphInvariantError, match="out-going tree at m via m>x3 is not oriented away"):
        _build_decomposition(F4, arms[:2])


# -- one classification per graph object ---------------------------------------


def _fresh(graph):
    return OrientedGraph.of(graph.vertices, graph.edges)


_CALLS = {"verdict": is_kgraph, "decomposition": decompose, "compass": synthesize_compass}


def _result(graph, name, extended):
    try:
        return _CALLS[name](graph, extended=extended)
    except DomainError as err:
        return str(err)


def test_kept_verdicts_give_what_a_fresh_graph_gives():
    checked = 0
    for size in range(1, 9):
        for tree in enumerate_oriented_trees(size):
            for extended in (False, True):
                fresh = {name: _result(_fresh(tree), name, extended) for name in _CALLS}
                for order in (list(_CALLS), list(reversed(_CALLS))):
                    shared = _fresh(tree)
                    assert {name: _result(shared, name, extended) for name in order} == fresh
                # a verdict kept for the other flag does not answer for this one
                shared = _fresh(tree)
                _result(shared, "verdict", not extended)
                assert {name: _result(shared, name, extended) for name in _CALLS} == fresh
                checked += 1
    assert checked == 2 * 1857


def test_decompose_after_is_kgraph_reads_the_kept_verdict():
    graph, _ = _zigzag(599)
    assert len(graph.vertices) == 1200
    verdict = is_kgraph(graph)
    assert verdict.kind == KGRAPH
    times = []
    for _ in range(5):
        began = time.perf_counter()
        decomposition = decompose(graph)
        times.append(time.perf_counter() - began)
    assert decomposition is verdict.decomposition
    assert min(times) < 1e-3
    assert synthesize_compass(graph) == synthesize_compass(_fresh(graph))
