from __future__ import annotations

import pytest

from kcut import (
    CompositionError,
    DomainError,
    Edge,
    GraphInvariantError,
    IdentityGraph,
    KcutError,
    RewriteError,
    ValidationError,
    apply_rho_move,
    applicable_rho_moves,
    compose,
    cut_graph,
    decompose_at,
    eliminate_identities,
    leaf,
    make_basic,
    rho_equivalent,
    same_compass_graph,
    sigma_canonical,
)
from kcut.generate import enumerate_oriented_trees

import oracles
from helpers import F1, F2, e, g


def f1_leaf():
    return leaf(make_basic("m", ("w1", "w2"), ("e1",), e("w1>m"), e("w2>m"), e("m>e1"), e("m>e1")))


def b1_leaf():
    return leaf(make_basic("n", ("w3",), ("e2", "e3"), e("w3>n"), e("w3>n"), e("n>e2"), e("n>e3")))


def f2_construction():
    return compose(f1_leaf(), e("m>e1"), b1_leaf(), e("w3>n"))


def b2_leaf():
    return leaf(make_basic("p", ("w4",), ("f1", "f2"), e("w4>p"), e("w4>p"), e("p>f1"), e("p>f2")))


def b3_leaf():
    return leaf(make_basic("q", ("g1", "g2"), ("e4",), e("g1>q"), e("g2>q"), e("q>e4"), e("q>e4")))


def r_leaf():
    return leaf(
        make_basic("r0", ("rw1", "rw2"), ("re1",), e("rw1>r0"), e("rw2>r0"), e("r0>re1"), e("r0>re1"))
    )


def three_leaf_construction():
    # ((F1 . B1) . R): the outer cut consumes an E-edge of the middle leaf.
    return compose(f2_construction(), e("n>e2"), r_leaf(), e("rw2>r0"))


# -- basic leaves ------------------------------------------------------------


def test_make_basic_single_east_edge_forces_equal_choices():
    basic = make_basic("m", ("w1", "w2"), ("e1",), e("w1>m"), e("w2>m"), e("m>e1"), e("m>e1"))
    assert basic.graph == F1


def test_make_basic_rejects_equal_west_choices_in_mode_k():
    with pytest.raises(ValidationError, match="west"):
        make_basic("m", ("w1", "w2"), ("e1",), e("w1>m"), e("w1>m"), e("m>e1"), e("m>e1"))


def test_make_basic_accepts_equal_west_choices_in_mode_q():
    basic = make_basic(
        "m", ("w1", "w2"), ("e1",), e("w1>m"), e("w1>m"), e("m>e1"), e("m>e1"), mode="Q"
    )
    assert basic.nw == basic.sw


def test_make_basic_rejects_duplicates_and_misplaced_edges():
    with pytest.raises(ValidationError, match="duplicate"):
        make_basic("m", ("w1", "w1"), ("e1",), e("w1>m"), e("w1>m"), e("m>e1"), e("m>e1"))
    with pytest.raises(ValidationError, match="NW"):
        make_basic("m", ("w1",), ("e1",), e("m>e1"), e("w1>m"), e("m>e1"), e("m>e1"))


def _star_outcome(build):
    """The vertices and edges (with the types of the edges) of a star graph,
    or the type and text of the error building it raised."""
    try:
        graph = build()
    except KcutError as err:
        return type(err), str(err)
    return graph.vertices, graph.edges, {type(edge) for edge in graph.edges}


def _same_as_through_of(center, west, east, *edges, mode="K"):
    built = _star_outcome(lambda: make_basic(center, west, east, *edges, mode=mode).graph)
    assert built == _star_outcome(lambda: oracles.make_basic_through_of(center, west, east, *edges, mode=mode))
    return built


def test_make_basic_builds_every_star_as_the_validating_constructor_does():
    checked = 0
    for size in range(3, 9):
        for graph in enumerate_oriented_trees(size):
            for v in graph.inner_vertices:
                ins, outs = graph.in_edges(v), graph.out_edges(v)
                west, east = [x.tail for x in ins], [x.head for x in outs]
                for mode in ("K", "Q"):
                    built = _same_as_through_of(v, west, east, ins[0], ins[-1], outs[0], outs[-1], mode=mode)
                    assert built[0] == tuple(sorted([v, *west, *east]))
                    checked += 1
    assert checked == 8172  # 4086 stars, in both modes


MAKE_BASIC_ERRORS = [
    # (center, west, east, NW, SW, NE, SE, mode), each failing
    ("m", ("w1", "w2"), ("e1",), "w1>m", "w1>m", "m>e1", "m>e1", "K"),  # equal west choices
    ("m", ("w1", "w1"), ("e1",), "w1>m", "w1>m", "m>e1", "m>e1", "K"),  # duplicate names
    ("m", ("w1",), ("e1",), "m>e1", "w1>m", "m>e1", "m>e1", "K"),  # NW not a W-edge
    ("m", ("w1",), ("e1",), "w1>m", "w1>m", "m>e1", "w1>m", "K"),  # SE not an E-edge
    ("m", (), ("e1",), "w1>m", "w1>m", "m>e1", "m>e1", "K"),  # no west side
    ("m", ("w1",), ("e1",), "w1>m", "w1>m", "m>e1", "m>e1", "X"),  # no such mode
    ("m!", ("w1",), ("e1",), "w1>m!", "w1>m!", "m!>e1", "m!>e1", "K"),  # bad center
    ("m", ("w1", ""), ("e1",), "w1>m", ">m", "m>e1", "m>e1", "Q"),  # empty name
    ("m", ("z!", "a-b"), ("e1",), "z!>m", "a-b>m", "m>e1", "m>e1", "K"),  # two bad names
    ("m?", ("w1",), ("b!",), "w1>m?", "w1>m?", "m?>b!", "m?>b!", "K"),  # the first in sorted order
    ("m", ("#",), ("e1",), "#>m", "#>m", "m>e1", "m>e1", "Q"),  # a bare reserved prefix
    ("m!", ("w1", "w2"), ("e1",), "w1>m!", "w1>m!", "m!>e1", "m!>e1", "K"),  # branching before tokens
    ("m!", ("w1",), ("e1",), "e1>m!", "w1>m!", "m!>e1", "m!>e1", "K"),  # misplaced NW before tokens
]


@pytest.mark.parametrize("case", MAKE_BASIC_ERRORS, ids=range(len(MAKE_BASIC_ERRORS)))
def test_make_basic_fails_as_the_validating_constructor_does(case):
    center, west, east, *edges, mode = case
    outcome = _same_as_through_of(center, west, east, *(Edge(*x.split(">")) for x in edges), mode=mode)
    assert outcome[0] in (DomainError, GraphInvariantError, ValidationError)


# -- the cut operation --------------------------------------------------------


def test_cut_graph_matches_the_definition():
    b1 = g("w3>n", "n>e2", "n>e3")
    assert cut_graph(F1, e("m>e1"), b1, e("w3>n")) == F2


def test_cut_against_identity_renames_one_vertex():
    ident = g("i_w>i_e")
    assert cut_graph(ident, e("i_w>i_e"), F1, e("w1>m")) == F1.rename({"w1": "i_w"})
    assert cut_graph(F1, e("m>e1"), ident, e("i_w>i_e")) == F1.rename({"e1": "i_e"})


def test_cut_graph_rejects_wrong_side():
    with pytest.raises(DomainError, match="not an E-edge"):
        cut_graph(F1, e("w1>m"), g("x>y"), e("x>y"))


def test_cut_graph_rejects_shared_vertices():
    with pytest.raises(DomainError, match="share"):
        cut_graph(F1, e("m>e1"), g("w1>z"), e("w1>z"))


def test_cut_graph_rejects_nonfunctional_pieces():
    two_tails = g("w>a", "v>a", "a>x", "a>y")  # E-edges into x,y are functional
    fan = g("c>d1", "c>d2")
    with pytest.raises(DomainError, match="not functional"):
        cut_graph(two_tails, e("a>x"), fan, e("c>d1"))


# -- composition and distinguished edges --------------------------------------


def test_compose_propagates_distinguished_edges():
    built = f2_construction()
    assert built.root_graph == F2
    assert built.yx_map == {
        "NW": e("w1>m"),
        "SW": e("w2>m"),
        "NE": e("n>e2"),
        "SE": e("n>e3"),
    }


def test_compose_accepts_cut_distinguished_on_mixed_sides():
    built = compose(b2_leaf(), e("p>f1"), b3_leaf(), e("g2>q"))
    assert built.root_graph == g("w4>p", "p>f2", "p>q", "g1>q", "q>e4")


def test_compose_rejects_undistinguished_cut_naming_y():
    with pytest.raises(CompositionError, match="Y=S"):
        compose(b2_leaf(), e("p>f1"), b3_leaf(), e("g1>q"))


def test_compose_rejects_mode_mismatch():
    q_leaf = leaf(
        make_basic("m", ("w1",), ("e1",), e("w1>m"), e("w1>m"), e("m>e1"), e("m>e1"), mode="Q"),
        mode="Q",
    )
    with pytest.raises(DomainError, match="mode"):
        compose(q_leaf, e("m>e1"), b1_leaf(), e("w3>n"))


# -- rewrite moves ------------------------------------------------------------


def test_assoc_preserves_root_and_distinguished_edges():
    nested_left = three_leaf_construction()
    moved = apply_rho_move(nested_left, "", "assoc", "L2R")
    assert moved.left.is_leaf and not moved.right.is_leaf
    assert moved.root_graph == nested_left.root_graph
    assert moved.yx_map == nested_left.yx_map
    back = apply_rho_move(moved, "", "assoc", "R2L")
    assert back.root_graph == nested_left.root_graph
    assert back.yx_map == nested_left.yx_map


def test_moves_on_a_leaf_are_rewrite_errors():
    single = f1_leaf()
    for move in ("assoc", "commuteE", "commuteW"):
        with pytest.raises(RewriteError):
            apply_rho_move(single, "", move, "L2R")


def test_move_at_missing_site_is_a_rewrite_error():
    with pytest.raises(RewriteError):
        apply_rho_move(three_leaf_construction(), "LL", "assoc", "L2R")


def test_applicable_moves_apply_cleanly():
    start = three_leaf_construction()
    moves = applicable_rho_moves(start)
    assert moves, "a three-leaf construction must admit at least one move"
    for site, move, direction in moves:
        rewritten = apply_rho_move(start, site, move, direction)
        assert rewritten.root_graph == start.root_graph
        assert rewritten.yx_map == start.yx_map
        assert rho_equivalent(rewritten, start)


# -- rewrite equivalence -------------------------------------------------------


def test_rho_equivalence_is_reflexive_and_move_invariant():
    start = three_leaf_construction()
    assert rho_equivalent(start, start)
    moved = apply_rho_move(start, "", "assoc", "L2R")
    assert rho_equivalent(start, moved)


def test_rho_equivalence_distinguishes_leaf_names():
    one = f2_construction()
    other = compose(
        leaf(make_basic("m", ("w1", "w2"), ("k1",), e("w1>m"), e("w2>m"), e("m>k1"), e("m>k1"))),
        e("m>k1"),
        leaf(make_basic("n", ("k2",), ("e2", "e3"), e("k2>n"), e("k2>n"), e("n>e2"), e("n>e3"))),
        e("k2>n"),
    )
    assert one.root_graph == other.root_graph
    assert not rho_equivalent(one, other)
    # but they denote the same object once secondary names are canonical
    assert same_compass_graph(one, other)


# -- canonical renaming of secondary vertices ----------------------------------


def test_sigma_canonical_leaves_leaf_constructions_alone():
    single = f1_leaf()
    assert sigma_canonical(single) is single


def test_sigma_canonical_renames_cut_endpoints():
    built = sigma_canonical(f2_construction())
    assert built.root_graph == F2
    assert built.cut_west == Edge("m", "#s2")
    assert built.cut_east == Edge("#s1", "n")
    assert built.secondary_vertices() == {"#s1", "#s2"}


def test_sigma_variants_canonicalize_identically():
    variant = compose(
        leaf(make_basic("m", ("w1", "w2"), ("zz",), e("w1>m"), e("w2>m"), e("m>zz"), e("m>zz"))),
        e("m>zz"),
        leaf(make_basic("n", ("yy",), ("e2", "e3"), e("yy>n"), e("yy>n"), e("n>e2"), e("n>e3"))),
        e("yy>n"),
    )
    assert sigma_canonical(variant) == sigma_canonical(f2_construction())


# -- splitting at an inner edge -------------------------------------------------


def test_decompose_at_top_cut_returns_the_children():
    built = f2_construction()
    h_w, e_w, h_e, e_e = decompose_at(built, Edge("m", "n"))
    assert h_w == built.left and h_e == built.right
    assert (e_w, e_e) == (built.cut_west, built.cut_east)


def test_decompose_at_deeper_edge_recomposes_equivalently():
    built = three_leaf_construction()
    for inner in built.root_graph.inner_edges:
        h_w, e_w, h_e, e_e = decompose_at(built, inner)
        rebuilt = compose(h_w, e_w, h_e, e_e)
        assert rebuilt.root_graph == built.root_graph
        assert rho_equivalent(rebuilt, built)
        assert Edge(e_w.tail, e_e.head) == inner


def test_decompose_at_rejects_non_inner_edges():
    with pytest.raises(DomainError, match="inner"):
        decompose_at(f2_construction(), Edge("w1", "m"))


# -- identity leaves and the unit laws ------------------------------------------


def identity_leaf(west="iw", east="ie"):
    return leaf(IdentityGraph(west, east))


def test_identity_composition_renames_and_substitutes():
    built = compose(f1_leaf(), e("m>e1"), identity_leaf(), e("iw>ie"))
    assert built.root_graph == F1.rename({"e1": "ie"})
    assert built.yx_map == {
        "NW": e("w1>m"),
        "SW": e("w2>m"),
        "NE": e("m>ie"),
        "SE": e("m>ie"),
    }


def test_unit_laws_up_to_equivalence():
    base = f2_construction()
    on_the_east = compose(base, e("n>e2"), identity_leaf(), e("iw>ie"))
    assert on_the_east.root_graph == base.root_graph.rename({"e2": "ie"})
    assert rho_equivalent(on_the_east, base)
    on_the_west = compose(identity_leaf(), e("iw>ie"), base, e("w1>m"))
    assert on_the_west.root_graph == base.root_graph.rename({"w1": "iw"})
    assert rho_equivalent(on_the_west, base)
    assert same_compass_graph(on_the_east, base)
    assert same_compass_graph(on_the_west, base)


def test_identity_against_identity_collapses():
    built = compose(identity_leaf("a1", "b1"), e("a1>b1"), identity_leaf("a2", "b2"), e("a2>b2"))
    assert built.root_graph == g("a1>b2")
    assert all(edge == e("a1>b2") for edge in built.yx_map.values())
    collapsed = eliminate_identities(built)
    assert collapsed.is_leaf and isinstance(collapsed.leaf_obj, IdentityGraph)
