from __future__ import annotations

import pytest

from kcut import (
    DomainError,
    IdentityGraph,
    apply_rho_move,
    applicable_rho_moves,
    compose,
    construction_from_compass,
    distinguished_from_compass,
    is_local_compass_graph,
    is_yx_edge,
    is_yx_path,
    lambda_of,
    leaf,
    rho_equivalent,
    same_compass_graph,
    sigma_canonical,
)
from kcut.compass import LocalCompassGraph

from helpers import F1, F1_COMPASS, F4, compass_of, e, g
from test_construct import f1_leaf, f2_construction, three_leaf_construction

import oracles


def test_lambda_of_a_leaf_is_its_own_compass():
    lcg = lambda_of(f1_leaf())
    assert lcg.graph == F1
    assert lcg.compass == F1_COMPASS


def test_lambda_pushes_leaf_values_onto_cut_edges():
    lcg = lambda_of(f2_construction())
    assert lcg.compass == compass_of(
        {
            "m": {"NW": "w1>m", "SW": "w2>m", "NE": "m>n", "SE": "m>n"},
            "n": {"NW": "m>n", "SW": "m>n", "NE": "n>e2", "SE": "n>e3"},
        }
    )
    assert is_local_compass_graph(lcg.graph, lcg.compass).ok


def test_lambda_is_invariant_under_rewrite_moves():
    start = three_leaf_construction()
    for site, move, direction in applicable_rho_moves(start):
        assert lambda_of(apply_rho_move(start, site, move, direction)) == lambda_of(start)


def test_yx_edges_on_the_star():
    assert is_yx_edge(F1, F1_COMPASS, e("m>e1"), "N", "E")
    # not the NW choice, but a W-edge counts as a YE-edge of either Y
    assert not is_yx_edge(F1, F1_COMPASS, e("w2>m"), "N", "W")
    assert is_yx_edge(F1, F1_COMPASS, e("w2>m"), "N", "E")
    assert is_yx_edge(F1, F1_COMPASS, e("w2>m"), "S", "W")


def test_yx_edges_on_a_cut_edge():
    lcg = lambda_of(f2_construction())
    assert is_yx_edge(lcg.graph, lcg.compass, e("m>n"), "S", "E")


def test_yx_paths_edge_by_edge():
    lcg = lambda_of(f2_construction())
    northwest = oracles.unique_semipath(lcg.graph, "w1", "e2")
    assert is_yx_path(lcg.graph, lcg.compass, northwest, "N", "W")
    assert not is_yx_path(lcg.graph, lcg.compass, northwest, "S", "W")
    single = oracles.unique_semipath(lcg.graph, "m", "n")
    assert is_yx_path(lcg.graph, lcg.compass, single, "S", "E") == is_yx_edge(
        lcg.graph, lcg.compass, e("m>n"), "S", "E"
    )
    with pytest.raises(DomainError, match="not a path"):
        is_yx_path(lcg.graph, lcg.compass, oracles.unique_semipath(lcg.graph, "w1", "w2"), "N", "W")


def test_lambda_stamps_distinguished_edges_onto_their_endpoints():
    # the W choices of a construction reappear at their heads, the E choices
    # at their tails, for generated constructions of any shape
    from kcut.generate import random_construction

    for seed in range(100):
        built = random_construction(seed, 1 + seed % 4, "K")
        lcg = lambda_of(built)
        for y in "NS":
            w_edge = built.yx(y + "W")
            assert lcg.compass.get(w_edge.head, y + "W") == w_edge
            e_edge = built.yx(y + "E")
            assert lcg.compass.get(e_edge.tail, y + "E") == e_edge


def test_distinguished_edges_recovered_from_the_compass():
    built = f2_construction()
    lcg = lambda_of(built)
    assert distinguished_from_compass(lcg, "N", "W") == e("w1>m")
    assert distinguished_from_compass(lcg, "S", "E") == e("n>e3")
    for slot, expected in built.yx_map.items():
        assert distinguished_from_compass(lcg, slot[0], slot[1]) == expected
    single = lambda_of(f1_leaf())
    assert distinguished_from_compass(single, "S", "E") == e("m>e1")


def test_construction_from_compass_base_case():
    rebuilt = construction_from_compass(lambda_of(f1_leaf()))
    assert rebuilt == f1_leaf()


def test_construction_from_compass_roundtrips_through_lambda():
    for built in (f2_construction(), three_leaf_construction()):
        lcg = lambda_of(built)
        rebuilt = construction_from_compass(lcg)
        assert rebuilt.mode == "K"
        assert rebuilt.root_graph == built.root_graph
        assert lambda_of(rebuilt) == lcg
        assert same_compass_graph(rebuilt, built)
        assert rho_equivalent(sigma_canonical(rebuilt), sigma_canonical(built))


def test_construction_from_compass_rejects_invalid_input():
    some = compass_of(
        {
            "m": {"NW": "w>m", "SW": "w>m", "NE": "m>x1", "SE": "m>x2"},
            "x1": {"NW": "m>x1", "SW": "z1>x1", "NE": "x1>o1", "SE": "x1>o1"},
            "x2": {"NW": "m>x2", "SW": "z2>x2", "NE": "x2>o2", "SE": "x2>o2"},
            "x3": {"NW": "m>x3", "SW": "z3>x3", "NE": "x3>o3", "SE": "x3>o3"},
        }
    )
    with pytest.raises(DomainError, match="condition"):
        construction_from_compass(LocalCompassGraph(F4, some))


def test_extended_roundtrip_through_an_identity():
    ident = LocalCompassGraph(g("a>b"), compass_of({}))
    built = construction_from_compass(ident, extended=True)
    assert built.is_leaf and isinstance(built.leaf_obj, IdentityGraph)
    assert lambda_of(built) == ident


def test_identity_cut_keeps_lambda_consistent():
    base = f2_construction()
    padded = compose(base, e("n>e2"), leaf(IdentityGraph("iw", "ie")), e("iw>ie"))
    lcg = lambda_of(padded)
    assert lcg.graph == padded.root_graph
    assert is_local_compass_graph(lcg.graph, lcg.compass).ok
