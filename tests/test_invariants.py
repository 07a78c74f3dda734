"""Cross-module properties: congruence of the equivalence, agreement of the
two composition routes, boundary decency, and renaming equivariance."""

from __future__ import annotations

import random

from kcut import (
    CompositionError,
    Edge,
    SemiPath,
    apply_rho_move,
    applicable_rho_moves,
    compose,
    compose_local,
    construction_from_compass,
    decompose,
    decompose_at,
    is_decent,
    is_kgraph,
    is_qgraph,
    lambda_of,
    rename_construction,
    rho_equivalent,
    same_compass_graph,
    sigma_canonical,
    synthesize_compass,
)
from kcut.generate import enumerate_oriented_trees, random_construction
from kcut.recognize import KGRAPH

import oracles
from helpers import e, g
from test_construct import f2_construction, r_leaf


def _disjoint(construction, prefix):
    mapping = {v: f"{prefix}{v}" for v in construction.leaf_vertices()}
    return rename_construction(construction, mapping)


def test_rho_equivalence_is_a_congruence():
    base = f2_construction()
    moved = None
    for site, move, direction in applicable_rho_moves(
        compose(base, e("n>e2"), _disjoint(r_leaf(), "x_"), e("x_rw2>x_r0"))
    ):
        moved = apply_rho_move(
            compose(base, e("n>e2"), _disjoint(r_leaf(), "x_"), e("x_rw2>x_r0")),
            site,
            move,
            direction,
        )
        break
    assert moved is not None
    left_one = compose(base, e("n>e2"), _disjoint(r_leaf(), "x_"), e("x_rw2>x_r0"))
    assert rho_equivalent(left_one, moved)
    # composing two equivalent pairs on both sides stays equivalent;
    # S holds through the west operand's SE, N through the tail's NW
    tail = _disjoint(r_leaf(), "y_")
    combined_one = compose(left_one, e("n>e3"), tail, e("y_rw1>y_r0"))
    combined_two = compose(moved, e("n>e3"), tail, e("y_rw1>y_r0"))
    assert rho_equivalent(combined_one, combined_two)


def test_equivalence_relation_laws_on_samples():
    rng = random.Random(3)
    for seed in range(20):
        a = random_construction(seed, 2 + seed % 3, "K")
        assert rho_equivalent(a, a)
        moves = applicable_rho_moves(a)
        if not moves:
            continue
        b = apply_rho_move(a, *rng.choice(moves))
        c = apply_rho_move(b, *rng.choice(applicable_rho_moves(b)))
        assert rho_equivalent(a, b) and rho_equivalent(b, a)
        assert rho_equivalent(b, c) and rho_equivalent(a, c)


def test_compose_and_compose_local_agree():
    # the two composition routes accept and reject the same cuts
    rng = random.Random(17)
    agreements = rejections = 0
    for seed in range(120):
        west = random_construction(seed, 1 + seed % 3, "K")
        east = _disjoint(random_construction(seed + 500, 1 + (seed + 1) % 3, "K"), "r_")
        e_west = rng.choice(west.root_graph.e_edges)
        e_east = rng.choice(east.root_graph.w_edges)
        try:
            built = compose(west, e_west, east, e_east)
            worked = True
        except CompositionError:
            worked = False
        try:
            local = compose_local(lambda_of(west), e_west, lambda_of(east), e_east)
            local_worked = True
        except CompositionError:
            local_worked = False
        assert worked == local_worked
        if worked:
            assert lambda_of(built) == local
            agreements += 1
        else:
            rejections += 1
    assert agreements > 0 and rejections > 0


def test_paths_covering_no_inner_edge_are_always_decent():
    checked = 0
    for graph in enumerate_oriented_trees(6):
        if not is_qgraph(graph):
            continue
        compass = synthesize_compass(graph)
        if compass is None:
            continue
        assert oracles.every_path_decent(graph, compass)
        for chain in oracles.forward_paths_by_reachability(graph):
            path = SemiPath.through(graph, chain)
            if any(graph.is_inner_edge(edge) for edge in path.edges):
                continue
            assert is_decent(graph, compass, path)
            checked += 1
    assert checked > 100


def test_decompose_commutes_with_renaming():
    for size in (5, 6, 7):
        for graph in enumerate_oriented_trees(size):
            if is_kgraph(graph).kind != KGRAPH:
                continue
            mapping = {v: f"r{v}" for v in graph.vertices}
            renamed = graph.rename(mapping)
            original = decompose(graph)
            image = decompose(renamed)
            mapped = {e for e in original.transversal.edges}
            mapped = {(mapping[t], mapping[h]) for t, h in mapped}
            assert {tuple(x) for x in image.transversal.edges} == mapped
            # canonical orientation re-applies in the new namespace
            if image.transversal.steps:
                ends = (image.transversal.vertices[0], image.transversal.vertices[-1])
                assert ends[0] == min(ends)


def test_decompose_at_recomposes_at_every_inner_edge():
    for seed in range(60):
        built = random_construction(seed, 2 + seed % 4, "K")
        for inner in built.root_graph.inner_edges:
            h_w, e_w, h_e, e_e = decompose_at(built, inner)
            rebuilt = compose(h_w, e_w, h_e, e_e)
            assert Edge(e_w.tail, e_e.head) == inner
            assert rebuilt.root_graph == built.root_graph
            assert rho_equivalent(rebuilt, built)


def test_construction_from_compass_on_arbitrary_compasses():
    for seed in range(200):
        built = random_construction(seed, 1 + seed % 5, "K")
        lcg = lambda_of(built)
        rebuilt = construction_from_compass(lcg)
        assert lambda_of(rebuilt) == lcg
        assert rho_equivalent(sigma_canonical(rebuilt), sigma_canonical(built))
        assert same_compass_graph(rebuilt, built)


def test_mode_k_roots_are_kgraphs_and_mode_q_roots_are_qgraphs():
    for seed in range(60):
        assert is_kgraph(random_construction(seed, 1 + seed % 5, "K").root_graph).kind == KGRAPH
        assert is_qgraph(random_construction(seed, 1 + seed % 5, "Q").root_graph)


def test_distinguished_edges_never_collapse_on_branching_sides():
    for seed in range(200):
        built = random_construction(seed, 1 + seed % 6, "K")
        root = built.root_graph
        for x, pool in (("W", root.w_edges), ("E", root.e_edges)):
            for y in "NS":
                assert built.yx(y + x) in pool
            if len(pool) >= 2:
                assert built.yx("N" + x) != built.yx("S" + x)
