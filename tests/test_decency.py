"""Condition (5) and its two relatives against path enumeration.

`indecent_path_witness`, `compose_local` and `distinguished_from_compass`
decide decency from per-edge marks without building the set of directed
paths.  Each is compared here with an oracle that tests every directed path,
and the local check is run on a spine too deep for any recursive walk.
"""

from __future__ import annotations

import random
import sys

from kcut import (
    DomainError,
    KcutError,
    compose_local,
    distinguished_from_compass,
    indecent_path_witness,
    is_kgraph,
    is_local_compass_graph,
    lambda_of,
    rename_construction,
)
from kcut.compass import Compass, LocalCompassGraph
from kcut.generate import enumerate_oriented_trees, random_construction

import oracles
from helpers import e, g


def _trees_with_an_inner_vertex(limit: int):
    for size in range(1, limit + 1):
        for tree in enumerate_oriented_trees(size):
            if tree.inner_vertices:
                yield tree


def _random_compass(graph, rng: random.Random) -> Compass:
    """Any choice of in-edges for the W slots and out-edges for the E slots;
    N and S may coincide."""
    assignments = {}
    for v in graph.inner_vertices:
        for slot in ("NW", "SW"):
            assignments[(v, slot)] = rng.choice(graph.in_edges(v))
        for slot in ("NE", "SE"):
            assignments[(v, slot)] = rng.choice(graph.out_edges(v))
    return Compass.of(assignments)


def test_witness_matches_enumeration_on_every_separating_compass():
    cases = indecent = 0
    for tree in _trees_with_an_inner_vertex(7):
        for compass in oracles.enumerate_compasses(tree):
            expected = oracles.indecent_path_by_enumeration(tree, compass)
            assert indecent_path_witness(tree, compass) == expected
            cases += 1
            indecent += expected is not None
    assert (cases, indecent) == (1468, 44)


def test_witness_matches_enumeration_on_random_compasses():
    rng = random.Random(8)
    cases = indecent = 0
    for tree in _trees_with_an_inner_vertex(8):
        for _ in range(4):
            compass = _random_compass(tree, rng)
            expected = oracles.indecent_path_by_enumeration(tree, compass)
            assert indecent_path_witness(tree, compass) == expected
            cases += 1
            indecent += expected is not None
    assert cases == 7080 and indecent > 200


def _outcome(compose, *args):
    try:
        return compose(*args)
    except KcutError as error:
        return (type(error), str(error))


def test_compose_local_matches_enumeration():
    rng = random.Random(23)
    accepted = rejected = 0
    for seed in range(300):
        west = random_construction(seed, 1 + seed % 4, "K")
        east = random_construction(seed + 700, 1 + (seed + 2) % 4, "K")
        east = rename_construction(east, {v: f"r_{v}" for v in east.leaf_vertices()})
        args = (
            lambda_of(west),
            rng.choice(west.root_graph.e_edges),
            lambda_of(east),
            rng.choice(east.root_graph.w_edges),
        )
        got = _outcome(compose_local, *args)
        assert got == _outcome(oracles.compose_local_by_enumeration, *args)
        if isinstance(got, tuple):
            rejected += 1
        else:
            accepted += 1
    assert accepted > 50 and rejected > 50


def test_distinguished_from_compass_matches_enumeration():
    rng = random.Random(31)
    unique = ambiguous = 0
    for seed in range(300):
        lcg = lambda_of(random_construction(seed, 1 + seed % 5, "K"))
        if seed % 2:
            # a compass no construction has: the bridge must reject it alike
            lcg = LocalCompassGraph(lcg.graph, _random_compass(lcg.graph, rng))
        for y in ("N", "S"):
            for x in ("W", "E"):
                hits = oracles.distinguished_candidates_by_enumeration(lcg, y, x)
                if len(hits) == 1:
                    assert distinguished_from_compass(lcg, y, x) == hits[0]
                    unique += 1
                    continue
                try:
                    distinguished_from_compass(lcg, y, x)
                except DomainError as error:
                    assert str(error) == (
                        f"{len(hits)} candidate {y}{x} edges {hits}: "
                        "not the compass of a construction"
                    )
                else:
                    raise AssertionError(f"no error for {len(hits)} candidates")
                ambiguous += 1
    assert unique > 600 and ambiguous > 10


# -- a spine deeper than the default recursion limit -------------------------


SPINE = 1000  # spine vertices v0000 .. v1000: 3 * SPINE + 1 = 3001 vertices


def _name(kind: str, i: int) -> str:
    return f"{kind}{i:04d}"


def _deep_chain(flipped: int | None = None):
    """The spine v0 -> ... -> v1000 with a private west leaf and a private
    east leaf on every spine vertex but the last.  NW takes the west leaf
    and SW the spine in-edge, NE the spine out-edge and SE the east leaf,
    so every spine path starts N-decently and ends S-decently; `flipped`
    swaps NE and SE at that spine vertex."""
    items, assignments = [], {}
    for i in range(SPINE):
        v, nxt = _name("v", i), _name("v", i + 1)
        west, east = e(f"{_name('w', i)}>{v}"), e(f"{v}>{_name('x', i)}")
        spine_in = e(f"{_name('v', i - 1)}>{v}") if i else west
        spine_out = e(f"{v}>{nxt}")
        items += [str(west), str(east), str(spine_out)]
        north_east, south_east = (east, spine_out) if i == flipped else (spine_out, east)
        for slot, edge in (("NW", west), ("SW", spine_in), ("NE", north_east), ("SE", south_east)):
            assignments[(v, slot)] = edge
    return g(*items), Compass.of(assignments)


def _default_recursion_limit(check):
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return check()
    finally:
        sys.setrecursionlimit(previous)


def test_local_check_on_a_deep_spine():
    graph, compass = _deep_chain()
    assert len(graph.vertices) == 3001
    assert _default_recursion_limit(lambda: is_local_compass_graph(graph, compass)).ok


def test_flipped_east_choice_on_a_deep_spine_fails_condition_five():
    flipped = SPINE - 2
    graph, compass = _deep_chain(flipped)
    verdict = _default_recursion_limit(lambda: is_local_compass_graph(graph, compass))
    assert verdict.condition == 5
    path, y = verdict.witness
    assert path.vertices == (_name("v", flipped), _name("v", flipped + 1)) and y == "N"


def test_deep_spine_is_a_kgraph_along_its_spine():
    # every spine edge but the last has a west leaf ahead and an east leaf
    # behind it, so it is transversal
    graph, _ = _deep_chain()
    verdict = _default_recursion_limit(lambda: is_kgraph(graph))
    assert verdict.kind == "kgraph"
    transversal = verdict.decomposition.transversal
    assert transversal.is_path and len(transversal.edges) == SPINE - 1
    assert transversal.vertices == tuple(_name("v", i) for i in range(SPINE))
