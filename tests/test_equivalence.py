"""Equivalence up to rewriting (rho) and renaming of secondary vertices
(sigma), decided by lambda.

Constructions modulo rho and sigma correspond to local compass graphs, so
`same_compass_graph` compares root graphs and lambda compasses once
identity leaves are gone.  These tests hold it to that correspondence on
every valid compass of every tree up to 7 vertices, rewritten by moves,
renamings and identity cuts, and to the route it replaced
(`oracles.same_compass_graph_by_sigma_rho`), which also says True for some
constructions with different compasses.
"""

from __future__ import annotations

import random

import pytest

from kcut import (
    Compass,
    DomainError,
    Edge,
    IdentityGraph,
    OrientedGraph,
    applicable_rho_moves,
    apply_rho_move,
    compose,
    construction_from_compass,
    is_local_compass_graph,
    is_qgraph,
    lambda_of,
    leaf,
    rename_construction,
    same_compass_graph,
)
from kcut.compass import LocalCompassGraph
from kcut.formats import run_script

import oracles
from test_assemble import _trees


def _rewritten(built, rng: random.Random):
    """`built` with its secondary vertices renamed, cut against an identity
    on a W-edge and on an E-edge, and moved by a few rewrite moves.  (The
    vertices an identity cut consumes keep their names: the unit laws give
    them back to the root graph.)"""
    secondary = sorted(built.secondary_vertices())
    renamed = rename_construction(built, {v: f"z{k}" for k, v in enumerate(reversed(secondary))})
    graph = renamed.root_graph
    w_edge, e_edge = rng.choice(graph.w_edges), rng.choice(graph.e_edges)
    padded = compose(leaf(IdentityGraph("iw1", "ie1")), Edge("iw1", "ie1"), renamed, w_edge)
    padded = compose(padded, e_edge, leaf(IdentityGraph("iw2", "ie2")), Edge("iw2", "ie2"))
    for _ in range(3):
        padded = apply_rho_move(padded, *rng.choice(applicable_rho_moves(padded)))
    return padded


def _compass_families():
    """Per tree up to 7 vertices with a valid compass: the constructions of
    its valid compasses, in enumeration order (distinct compasses)."""
    for graph in _trees(7):
        if not graph.inner_vertices or not is_qgraph(graph):
            continue
        compasses = [c for c in oracles.enumerate_compasses(graph) if is_local_compass_graph(graph, c).ok]
        yield [construction_from_compass(LocalCompassGraph(graph, c)) for c in compasses]


def test_equivalence_is_equality_of_compasses_on_every_small_tree():
    rng = random.Random(7)
    pairs = oracle_says_true_wrongly = 0
    for family in _compass_families():
        variants = [_rewritten(built, rng) for built in family]
        for i, one in enumerate(family):
            assert variants[i].root_graph != one.root_graph  # the identity cuts renamed it
            for j, other in enumerate(variants):
                same = same_compass_graph(one, other)
                assert same == (i == j) == same_compass_graph(other, one), (one, other)
                by_sigma_rho = oracles.same_compass_graph_by_sigma_rho(one, other)
                assert by_sigma_rho or not same
                oracle_says_true_wrongly += by_sigma_rho and not same
                pairs += 1
    assert pairs == 7021  # ordered pairs of the 613 valid compasses, by carrier
    print(f"sigma+rho route: {oracle_says_true_wrongly} of {pairs} pairs wrongly called equivalent")


# The carrier b>a>c>f, e>d>c has exactly two valid compasses: they differ by
# swapping NW and SW at c.
SWAP_CARRIER = OrientedGraph.of("abcdef", [("b", "a"), ("a", "c"), ("c", "f"), ("e", "d"), ("d", "c")])


def _swap_compass(north: str, south: str) -> Compass:
    entries = {}
    for v, west, east in (("a", "b>a", "a>c"), ("d", "e>d", "d>c"), ("c", None, "c>f")):
        for y in "NS":
            if west:
                entries[(v, y + "W")] = Edge(*west.split(">"))
            entries[(v, y + "E")] = Edge(*east.split(">"))
    entries[("c", "NW")] = Edge(north, "c")
    entries[("c", "SW")] = Edge(south, "c")
    return Compass.of(entries)


def test_swapping_nw_and_sw_at_one_star_is_not_equivalent():
    one, two = (
        construction_from_compass(LocalCompassGraph(SWAP_CARRIER, _swap_compass(n, s)))
        for n, s in (("a", "d"), ("d", "a"))
    )
    valid = [c for c in oracles.enumerate_compasses(SWAP_CARRIER) if is_local_compass_graph(SWAP_CARRIER, c).ok]
    assert sorted(map(lambda_of, (one, two)), key=str) == sorted(
        (LocalCompassGraph(SWAP_CARRIER, c) for c in valid), key=str
    )
    assert lambda_of(one) != lambda_of(two)
    assert not same_compass_graph(one, two) and not same_compass_graph(two, one)
    assert oracles.same_compass_graph_by_sigma_rho(one, two)  # the old false positive
    assert same_compass_graph(one, one) and same_compass_graph(two, two)


SWAP_SCRIPT = """\
basic L1 { west: b; east: s1; center: a; NW: b; SW: b; NE: s1; SE: s1 }
basic L2 { west: e; east: s3; center: d; NW: e; SW: e; NE: s3; SE: s3 }
basic L3 { west: s2 s4; east: f; center: c; NW: s2; SW: s4; NE: f; SE: f }
let C1 = cut(L2, d->s3, L3, s4->c)
let C2 = cut(L1, a->s1, C1, s2->c)
emit C2
"""

SWAPPED_SCRIPT = SWAP_SCRIPT.replace("NW: s2; SW: s4", "NW: s4; SW: s2")


def test_the_swap_scripts_build_the_two_compasses():
    one, two = run_script(SWAP_SCRIPT), run_script(SWAPPED_SCRIPT)
    assert one.root_graph == two.root_graph == SWAP_CARRIER
    assert lambda_of(one) == LocalCompassGraph(SWAP_CARRIER, _swap_compass("a", "d"))
    assert lambda_of(two) == LocalCompassGraph(SWAP_CARRIER, _swap_compass("d", "a"))
    assert not same_compass_graph(one, two)


def test_equivalence_needs_mode_k():
    q_built = run_script("mode Q\n" + SWAP_SCRIPT)
    k_built = run_script(SWAP_SCRIPT)
    for pair in ((q_built, k_built), (k_built, q_built), (q_built, q_built)):
        with pytest.raises(DomainError, match="^rho-equivalence is defined for mode-K constructions$"):
            same_compass_graph(*pair)
