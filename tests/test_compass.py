from __future__ import annotations

import pytest

from kcut import (
    CompositionError,
    DomainError,
    SemiPath,
    ValidationError,
    compose_local,
    indecent_path_witness,
    is_decent,
    is_local_compass_graph,
    is_qgraph,
    is_y_decent,
    separates_n_from_s,
)
from kcut.compass import Compass, LocalCompassGraph, separation_witness

import oracles
from helpers import F1, F1_COMPASS, F4, F5, F6, F6_COMPASS, compass_of, e, g


def path(graph, *vertices):
    return SemiPath.through(graph, vertices)


def test_separation_on_the_star():
    assert separates_n_from_s(F1, F1_COMPASS)
    collapsed = compass_of(
        {"m": {"NW": "w1>m", "SW": "w1>m", "NE": "m>e1", "SE": "m>e1"}}
    )
    assert not separates_n_from_s(F1, collapsed)
    assert separation_witness(F1, collapsed) == ("m", "W")


def test_separation_requires_a_total_compass():
    partial = Compass.of({("m", "NW"): e("w1>m")})
    with pytest.raises(ValidationError, match="missing"):
        separates_n_from_s(F1, partial)


def test_separation_with_branching_east_vertex():
    f2 = g("w1>m", "w2>m", "m>n", "n>e2", "n>e3")
    compass = compass_of(
        {
            "m": {"NW": "w1>m", "SW": "w2>m", "NE": "m>n", "SE": "m>n"},
            "n": {"NW": "m>n", "SW": "m>n", "NE": "n>e2", "SE": "n>e3"},
        }
    )
    assert separates_n_from_s(f2, compass)


def test_decency_of_the_configured_path():
    # frozen from the enumeration oracle: a,b,c fails N but passes S
    assert not is_y_decent(F6, F6_COMPASS, path(F6, "a", "b", "c"), "N")
    assert is_y_decent(F6, F6_COMPASS, path(F6, "a", "b", "c"), "S")
    assert not oracles.decent_by_definition(F6, F6_COMPASS, ("a", "b", "c"), "N")


def test_boundary_convention_makes_edge_paths_decent():
    assert is_decent(F1, F1_COMPASS, path(F1, "w1", "m", "e1"))
    assert is_decent(F1, F1_COMPASS, path(F1, "w2", "m"))
    assert is_decent(F6, F6_COMPASS, path(F6, "a", "b", "c", "o1"))


def test_single_vertex_paths_are_decent():
    assert is_decent(F1, F1_COMPASS, SemiPath(("m",), ()))


def test_decency_rejects_semipaths_with_backward_steps():
    with pytest.raises(DomainError, match="not a path"):
        is_y_decent(F6, F6_COMPASS, oracles.unique_semipath(F6, "d", "b"), "N")


def test_indecent_path_witness_finds_the_configuration():
    witness = indecent_path_witness(F6, F6_COMPASS)
    assert witness is not None
    found, y = witness
    assert found.vertices == ("a", "b", "c") and y == "N"


def test_indecent_path_witness_none_after_repair():
    repaired = compass_of(
        {
            "a": {"NW": "i1>a", "SW": "i1>a", "NE": "a>b", "SE": "a>d"},
            "b": {"NW": "a>b", "SW": "a>b", "NE": "b>c", "SE": "b>c"},
            "c": {"NW": "e>c", "SW": "b>c", "NE": "c>o1", "SE": "c>o1"},
        }
    )
    assert indecent_path_witness(F6, repaired) is None
    assert oracles.every_path_decent(F6, repaired)


def test_indecent_path_witness_none_on_star():
    assert indecent_path_witness(F1, F1_COMPASS) is None


def test_local_check_reports_first_failure():
    anything = Compass.of({})
    semicyclic = is_local_compass_graph(F5, anything)
    assert not semicyclic.ok and semicyclic.condition == 2
    split = is_local_compass_graph(g("a>b", "x>y"), anything)
    assert split.condition == 1
    no_inner = is_local_compass_graph(g("a>b"), anything)
    assert no_inner.condition == 3
    # the identity shape is admitted once extended
    assert is_local_compass_graph(g("a>b"), anything, extended=True).ok


def test_conditions_1_to_3_have_one_definition():
    """The local check and recognition report conditions (1)-(3) as the
    local check's own inline copy did, on every small oriented graph."""
    count = 0
    for graph in oracles.oriented_graphs(4):
        for extended in (False, True):
            expected = oracles.q_conditions_inline(graph, extended)
            local = is_local_compass_graph(graph, Compass.of({}), extended=extended)
            failure = is_qgraph(graph, extended=extended).failure
            if expected is None:
                assert failure is None and local.condition not in (1, 2, 3)
            else:
                assert (local.condition, local.witness, local.describe()) == expected
                assert (failure.condition, failure.witness, failure.describe()) == expected
        count += 1
    assert count == 1 + 3 + 27 + 729


def test_local_check_full_pass_and_decency_failure():
    assert is_local_compass_graph(F1, F1_COMPASS).ok
    failing = is_local_compass_graph(F6, F6_COMPASS)
    assert failing.condition == 5
    found, y = failing.witness
    assert found.vertices == ("a", "b", "c") and y == "N"


def test_every_possible_compass_fails_on_the_three_armed_graph():
    # F4 admits no valid compass at all (exhaustive over all assignments)
    assert oracles.some_valid_compass(F4) is None
    some = compass_of(
        {
            "m": {"NW": "w>m", "SW": "w>m", "NE": "m>x1", "SE": "m>x2"},
            "x1": {"NW": "m>x1", "SW": "z1>x1", "NE": "x1>o1", "SE": "x1>o1"},
            "x2": {"NW": "m>x2", "SW": "z2>x2", "NE": "x2>o2", "SE": "x2>o2"},
            "x3": {"NW": "m>x3", "SW": "z3>x3", "NE": "x3>o3", "SE": "x3>o3"},
        }
    )
    verdict = is_local_compass_graph(F4, some)
    assert not verdict.ok and verdict.condition == 5


def test_compose_local_carries_values_onto_the_cut_edge():
    left = LocalCompassGraph(F1, F1_COMPASS)
    right = LocalCompassGraph(
        g("w3>n", "n>e2", "n>e3"),
        compass_of({"n": {"NW": "w3>n", "SW": "w3>n", "NE": "n>e2", "SE": "n>e3"}}),
    )
    combined = compose_local(left, e("m>e1"), right, e("w3>n"))
    assert combined.graph == g("w1>m", "w2>m", "m>n", "n>e2", "n>e3")
    assert combined.compass.edge("m", "NE") == e("m>n")
    assert combined.compass.edge("m", "SE") == e("m>n")
    assert combined.compass.edge("n", "NW") == e("m>n")
    assert combined.compass.edge("n", "SW") == e("m>n")
    assert is_local_compass_graph(combined.graph, combined.compass).ok


def test_compose_local_rejects_indecent_covering_paths():
    left = LocalCompassGraph(
        g("w4>p", "p>f1", "p>f2"),
        compass_of({"p": {"NW": "w4>p", "SW": "w4>p", "NE": "p>f1", "SE": "p>f2"}}),
    )
    right = LocalCompassGraph(
        g("g1>q", "g2>q", "q>e4"),
        compass_of({"q": {"NW": "g1>q", "SW": "g2>q", "NE": "q>e4", "SE": "q>e4"}}),
    )
    # mirror of the accepted cut: consume NE of the left and SW of the right
    ok = compose_local(left, e("p>f1"), right, e("g2>q"))
    assert is_local_compass_graph(ok.graph, ok.compass).ok
    with pytest.raises(CompositionError, match="decent"):
        compose_local(left, e("p>f1"), right, e("g1>q"))


def test_compose_local_of_chains_is_trivially_decent():
    left = LocalCompassGraph(
        g("a1>b1", "b1>c1"),
        compass_of({"b1": {"NW": "a1>b1", "SW": "a1>b1", "NE": "b1>c1", "SE": "b1>c1"}}),
    )
    right = LocalCompassGraph(
        g("a2>b2", "b2>c2"),
        compass_of({"b2": {"NW": "a2>b2", "SW": "a2>b2", "NE": "b2>c2", "SE": "b2>c2"}}),
    )
    combined = compose_local(left, e("b1>c1"), right, e("a2>b2"))
    assert is_local_compass_graph(combined.graph, combined.compass).ok


def test_checked_constructor_raises_with_witness():
    with pytest.raises(DomainError, match="condition"):
        LocalCompassGraph.checked(F6, F6_COMPASS)
    assert LocalCompassGraph.checked(F1, F1_COMPASS).graph == F1
