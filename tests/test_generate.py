from __future__ import annotations

from pathlib import Path

import pytest

from kcut import ConfigError, is_kgraph, is_qgraph
from kcut.generate import (
    canonical_code,
    canonical_representative,
    enumerate_oriented_trees,
    max_enumeration_size,
    random_construction,
)
from kcut.recognize import KGRAPH

import oracles
from helpers import g

GOLDEN = Path(__file__).parent / "data" / "enumerate_max6.golden"


def golden_counts() -> dict[int, int]:
    out = {}
    for line in GOLDEN.read_text().splitlines():
        size, count = line.split()
        out[int(size)] = int(count)
    return out


def test_single_size_two_graph():
    graphs = list(enumerate_oriented_trees(2))
    assert len(graphs) == 1
    assert len(graphs[0].edges) == 1


def test_three_vertex_orientations():
    graphs = list(enumerate_oriented_trees(3))
    assert len(graphs) == 3
    shapes = sorted(
        (max(gr.out_degree(v) for v in gr.vertices), max(gr.in_degree(v) for v in gr.vertices))
        for gr in graphs
    )
    # the chain, the two-in star, and the two-out star
    assert shapes == [(1, 1), (1, 2), (2, 1)]


def test_counts_match_the_golden_file():
    for size, count in golden_counts().items():
        assert len(list(enumerate_oriented_trees(size))) == count


def test_counts_match_the_bruteforce_oracle_at_small_sizes():
    for size in range(1, 6):
        assert oracles.count_oriented_trees_bruteforce(size) == golden_counts()[size]


def test_enumeration_has_no_duplicates_and_is_deterministic():
    graphs = list(enumerate_oriented_trees(6))
    assert len({canonical_code(gr) for gr in graphs}) == len(graphs)
    assert graphs == list(enumerate_oriented_trees(6))
    for gr in graphs:
        assert gr.is_tree
        assert len(gr.edges) == len(gr.vertices) - 1


def test_canonical_representative_is_isomorphism_invariant():
    one = g("a>b", "b>c", "d>b")
    two = g("x>y", "y>q", "p>y")
    assert canonical_code(one) == canonical_code(two)
    assert canonical_representative(one) == canonical_representative(two)


def test_enumeration_bound_is_enforced(monkeypatch):
    monkeypatch.setenv("KCUT_MAX_ENUM", "4")
    assert max_enumeration_size() == 4
    with pytest.raises(ConfigError, match="exceeds"):
        list(enumerate_oriented_trees(5))
    monkeypatch.setenv("KCUT_MAX_ENUM", "nope")
    with pytest.raises(ConfigError, match="integer"):
        max_enumeration_size()


def test_random_construction_is_deterministic_and_classified():
    assert random_construction(1, 1, "K").is_leaf
    assert random_construction(5, 4, "K") == random_construction(5, 4, "K")
    for seed in range(10):
        built = random_construction(seed, 3, "K")
        assert is_kgraph(built.root_graph).kind == KGRAPH
        q_built = random_construction(seed, 3, "Q")
        assert is_qgraph(q_built.root_graph)
        assert len(q_built.root_graph.edges) == len(q_built.root_graph.vertices) - 1


def test_canonical_code_matches_the_code_of_every_rooting():
    for size in range(1, 9):
        for tree in enumerate_oriented_trees(size):
            renamed = tree.rename({v: f"v{len(tree.vertices) - i}" for i, v in enumerate(tree.vertices)})
            assert canonical_code(tree) == canonical_code(renamed) == oracles.canonical_code_by_rootings(renamed)
            assert canonical_representative(renamed) == tree
