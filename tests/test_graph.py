from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import (
    DomainError,
    Edge,
    GraphInvariantError,
    OrientedGraph,
    SemiPath,
    VertexClass,
)

import oracles
from helpers import F1, F3, F4, F5, e, g


def test_construction_rejects_loops():
    with pytest.raises(GraphInvariantError, match="irreflexiv"):
        OrientedGraph.of(["a"], [("a", "a")])


def test_construction_rejects_antiparallel_edges():
    with pytest.raises(GraphInvariantError, match="antisymmetr"):
        OrientedGraph.of(["a", "b"], [("a", "b"), ("b", "a")])


def test_construction_rejects_dangling_endpoints():
    with pytest.raises(GraphInvariantError, match="undeclared"):
        OrientedGraph.of(["a"], [("a", "b")])


def test_construction_rejects_empty_vertex_set():
    with pytest.raises(GraphInvariantError, match="nonempty"):
        OrientedGraph.of([], [])


def test_construction_rejects_bad_tokens():
    with pytest.raises(GraphInvariantError, match="token"):
        OrientedGraph.of(["a b"], [])


def test_canonical_ordering():
    one = OrientedGraph.of(["b", "a", "c"], [("c", "b"), ("a", "b")])
    two = OrientedGraph.of(["c", "b", "a"], [("a", "b"), ("c", "b")])
    assert one == two
    assert one.vertices == ("a", "b", "c")
    assert one.edges == (Edge("a", "b"), Edge("c", "b"))


def test_vertex_class_on_star():
    assert F1.vertex_class("w1") is VertexClass.WEST
    assert F1.vertex_class("m") is VertexClass.INNER
    assert F1.vertex_class("e1") is VertexClass.EAST
    assert g("a>b", "c").vertex_class("c") is VertexClass.ISOLATED
    with pytest.raises(DomainError):
        F1.vertex_class("nope")


def test_functional_edges():
    assert F1.is_functional_edge(e("w1>m"), "W")
    assert F1.is_functional_edge(e("m>e1"), "E")
    two_heads = g("w>a", "w>b")
    assert not two_heads.is_functional_edge(e("w>a"), "W")
    with pytest.raises(DomainError, match="not an E-edge"):
        F1.is_functional_edge(e("w1>m"), "E")


def test_weak_connectivity():
    assert F1.is_weakly_connected
    split = g("w1>m", "w2>m", "m>e1", "x>y")
    assert not split.is_weakly_connected
    witness = split.component_witness()
    assert witness is not None
    a, b = witness
    assert {a, b} <= set(split.vertices)
    assert OrientedGraph.of(["lonely"], []).is_weakly_connected


def test_asemicyclicity_on_fixtures():
    assert not F5.is_asemicyclic
    witness = F5.semicycle_witness()
    assert witness[0] == witness[-1]
    assert len(set(witness[:-1])) == len(witness) - 1 >= 3
    assert F1.is_asemicyclic
    assert F3.is_asemicyclic  # matches the exhaustive search below


def test_we_functionality():
    assert F1.is_we_functional
    bad = g("w>m", "m>x", "m2>x")
    assert not bad.is_we_functional
    assert bad.nonfunctional_witness() in (e("m>x"), e("m2>x"))
    assert F4.is_we_functional  # every leaf degree is 1


def test_unique_semipath_forced_cases():
    sp = oracles.unique_semipath(F1, "w1", "e1")
    assert sp.vertices == ("w1", "m", "e1")
    assert [s.forward for s in sp.steps] == [True, True]
    single = oracles.unique_semipath(F1, "m", "m")
    assert single.vertices == ("m",) and single.steps == ()


def test_unique_semipath_mixed_directions():
    sp = oracles.unique_semipath(F3, "r", "s")
    assert sp.vertices == ("r", "p", "q", "s")
    assert [s.forward for s in sp.steps] == [False, True, False]
    # cognate comes from swapping the arguments
    assert oracles.unique_semipath(F3, "s", "r") == sp.cognate()


def test_unique_semipath_requires_tree():
    with pytest.raises(DomainError):
        oracles.unique_semipath(F5, "a", "b")


def _directed_chains(tree):
    """The vertex sequences of the all-forward semipaths between distinct
    vertices, read off `oracles.unique_semipath`, in canonical order."""
    chains = []
    for u in tree.vertices:
        for v in tree.vertices:
            if u != v and oracles.unique_semipath(tree, u, v).is_path:
                chains.append(oracles.unique_semipath(tree, u, v).vertices)
    return sorted(chains)


def test_directed_paths_star():
    chains = set(oracles.forward_paths_by_reachability(F1))
    assert chains == {
        ("w1", "m"),
        ("w2", "m"),
        ("m", "e1"),
        ("w1", "m", "e1"),
        ("w2", "m", "e1"),
    }
    assert set(_directed_chains(F1)) == chains
    assert oracles.forward_paths_by_reachability(g("a>b")) == [("a", "b")]


def test_directed_paths_match_pairwise_reachability():
    # frozen from the reachability oracle: F3 has 10 directed paths
    expected = oracles.forward_paths_by_reachability(F3)
    assert len(expected) == 10
    assert _directed_chains(F3) == expected
    assert all(SemiPath.through(F3, chain).is_path for chain in expected)


def test_semipath_through_validates():
    with pytest.raises(DomainError):
        SemiPath.through(F1, ["w1", "e1"])
    with pytest.raises(DomainError):
        SemiPath.through(F1, ["w1", "m", "w1"])


def test_rename_roundtrip():
    renamed = F1.rename({"w1": "u"})
    assert renamed.has_edge("u", "m")
    assert renamed.rename({"u": "w1"}) == F1
    with pytest.raises(DomainError):
        F1.rename({"w1": "w2"})


# -- randomized agreement with the oracles ----------------------------------


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            pick = draw(st.sampled_from(["none", "fwd", "rev"]))
            if pick == "fwd":
                edges.append((names[i], names[j]))
            elif pick == "rev":
                edges.append((names[j], names[i]))
    return OrientedGraph.of(names, edges)


@settings(max_examples=300, deadline=None)
@given(small_digraphs())
def test_asemicyclicity_agrees_with_exhaustive_search(graph):
    assert graph.is_asemicyclic == (not oracles.semicycle_exists(graph))


@st.composite
def small_trees(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        if draw(st.booleans()):
            edges.append((names[parent], names[i]))
        else:
            edges.append((names[i], names[parent]))
    return OrientedGraph.of(names, edges)


@settings(max_examples=200, deadline=None)
@given(small_trees())
def test_tree_lemma_edge_count(tree):
    assert tree.is_tree
    assert len(tree.edges) == len(tree.vertices) - 1


@settings(max_examples=100, deadline=None)
@given(small_trees())
def test_unique_semipath_is_the_only_one(tree):
    semipaths = oracles.all_semipaths(tree)
    by_ends = {}
    for sp in semipaths:
        by_ends.setdefault((sp.vertices[0], sp.vertices[-1]), []).append(sp)
    for (u, v), found in by_ends.items():
        assert len(found) == 1
        assert oracles.unique_semipath(tree, u, v) == found[0]


@settings(max_examples=100, deadline=None)
@given(small_trees())
def test_directed_paths_agree_with_reachability_oracle(tree):
    chains = oracles.forward_paths_by_reachability(tree)
    assert _directed_chains(tree) == chains
    assert len(chains) <= len(tree.vertices) ** 2
