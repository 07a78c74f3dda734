from __future__ import annotations

import pytest

from kcut import KcutError, ParseError, construction_from_compass, sigma_canonical, synthesize_compass
from kcut.compass import LocalCompassGraph
from kcut.formats import parse_graph, run_script, script_of, serialize_graph
from kcut.generate import enumerate_oriented_trees, random_construction
from kcut.recognize import KGRAPH, is_kgraph

from helpers import F1, F1_COMPASS, F2, e

F1_TEXT = """\
v e1
v m
v w1
v w2
e m e1
e w1 m
e w2 m
"""

F2_SCRIPT = """\
mode K
basic F1 { west: w1 w2; east: e1; center: m; NW: w1; SW: w2; NE: e1; SE: e1 }
basic B1 { west: w3; east: e2 e3; center: n; NW: w3; SW: w3; NE: e2; SE: e3 }
let G = cut(F1, m->e1, B1, w3->n)
emit G
"""


def test_parse_graph_fixture():
    graph, compass = parse_graph(F1_TEXT)
    assert graph == F1
    assert compass is None


def test_serialize_then_parse_is_identity():
    text = serialize_graph(F1, F1_COMPASS)
    graph, compass = parse_graph(text)
    assert graph == F1 and compass == F1_COMPASS
    assert serialize_graph(graph, compass) == text


def test_parse_reports_irreflexive_edges_with_position():
    with pytest.raises(ParseError, match="line 2.*irreflexiv"):
        parse_graph("v a\ne a a\n")


def test_parse_reports_antisymmetric_pairs():
    with pytest.raises(ParseError, match="antisymmetry"):
        parse_graph("v a\nv b\ne a b\ne b a\n")


def test_parse_requires_declarations_before_use():
    with pytest.raises(ParseError, match="undeclared vertex"):
        parse_graph("v a\ne a b\nv b\n")
    with pytest.raises(ParseError, match="undeclared edge"):
        parse_graph("v a\nv b\nv c\ne a b\nc b NW c b\n")


def test_parse_checks_compass_shape():
    with pytest.raises(ParseError, match="must end in"):
        parse_graph("v a\nv b\nv c\ne a b\ne b c\nc b NW b c\n")
    with pytest.raises(ParseError, match="not inner"):
        parse_graph("v a\nv b\ne a b\nc a NE a b\n")


def test_parse_allows_comments_and_blank_lines():
    graph, _ = parse_graph("# header\n\nv a\nv b\ne a b\n")
    assert graph.has_edge("a", "b")


def test_serialize_rejects_reserved_names():
    from kcut import OrientedGraph

    with pytest.raises(KcutError, match="reserved"):
        serialize_graph(OrientedGraph.of(["#s1", "b"], [("#s1", "b")]))


def test_run_script_builds_the_example():
    built = run_script(F2_SCRIPT)
    assert built.root_graph == F2
    assert built.yx_map == {
        "NW": e("w1>m"),
        "SW": e("w2>m"),
        "NE": e("n>e2"),
        "SE": e("n>e3"),
    }


def test_run_script_rejects_side_condition_failures_with_location():
    bad = """\
basic B2 { west: w4; east: f1 f2; center: p; NW: w4; SW: w4; NE: f1; SE: f2 }
basic B3 { west: g1 g2; east: e4; center: q; NW: g1; SW: g2; NE: e4; SE: e4 }
let G = cut(B2, p->f1, B3, g1->q)
emit G
"""
    with pytest.raises(ParseError, match="line 3.*Y=S"):
        run_script(bad)


def test_mode_q_scripts_accept_collapsed_leaves():
    script = """\
mode Q
basic B { west: w1 w2; east: e1; center: m; NW: w1; SW: w1; NE: e1; SE: e1 }
emit B
"""
    built = run_script(script)
    assert built.mode == "Q"
    assert built.yx("NW") == built.yx("SW") == e("w1>m")


def test_mode_k_scripts_reject_collapsed_leaves():
    script = """\
basic B { west: w1 w2; east: e1; center: m; NW: w1; SW: w1; NE: e1; SE: e1 }
emit B
"""
    with pytest.raises(ParseError, match="line 1.*west"):
        run_script(script)


def test_script_names_are_consumed_once():
    script = F2_SCRIPT + "let H = cut(F1, m->e1, B1, w3>n)\n"
    with pytest.raises(ParseError, match="after emit"):
        run_script(script)
    reuse = """\
basic F1 { west: w1 w2; east: e1; center: m; NW: w1; SW: w2; NE: e1; SE: e1 }
let G = cut(F1, m->e1, F1, w1->m)
emit G
"""
    with pytest.raises(ParseError, match="already consumed"):
        run_script(reuse)


def test_script_requires_emit_and_known_names():
    with pytest.raises(ParseError, match="emit"):
        run_script("basic B { west: a; east: b; center: m; NW: a; SW: a; NE: b; SE: b }\n")
    with pytest.raises(ParseError, match="undefined"):
        run_script("emit nothing\n")


def test_nested_cut_expressions():
    script = """\
basic A { west: a1; east: a2; center: a0; NW: a1; SW: a1; NE: a2; SE: a2 }
basic B { west: b1; east: b2; center: b0; NW: b1; SW: b1; NE: b2; SE: b2 }
basic C { west: c1; east: c2; center: c0; NW: c1; SW: c1; NE: c2; SE: c2 }
emit cut(cut(A, a0->a2, B, b1->b0), b0->b2, C, c1->c0)
"""
    built = run_script(script)
    assert len(list(built.leaves())) == 3


def test_identity_statements_compose():
    script = """\
basic A { west: a1; east: a2; center: a0; NW: a1; SW: a1; NE: a2; SE: a2 }
identity I { west: iw; east: ie }
let G = cut(A, a0->a2, I, iw->ie)
emit G
"""
    built = run_script(script)
    assert built.root_graph.has_edge("a0", "ie")


def test_script_roundtrip_for_generated_constructions():
    for seed in range(5):
        built = random_construction(seed, 4, "K")
        assert run_script(script_of(built)) == built
        q_built = random_construction(seed, 4, "Q")
        assert run_script(script_of(q_built)) == q_built


def _identity_nest(depth: int) -> tuple[list[str], str]:
    """Declarations and a `cut(` expression nested `depth` deep: a star cut
    against one identity per level."""
    head = ["mode K", "basic S { west: a; east: z; center: m; NW: a; SW: a; NE: z; SE: z }"]
    head += [f"identity I{i} {{ west: x{i}; east: y{i} }}" for i in range(depth)]
    expr, tail = "cut(" * depth + "S", "z"
    for i in range(depth):
        expr += f", m->{tail}, I{i}, x{i}->y{i})"
        tail = f"y{i}"
    return head, expr


def test_a_deep_cut_nest_parses_below_the_recursion_limit():
    head, expr = _identity_nest(2000)
    built = run_script("\n".join(head + [f"emit {expr}"]) + "\n")
    assert built.root_graph.vertices == ("a", "m", "y1999")
    assert built.yx("SE") == e("m>y1999")
    with pytest.raises(ParseError) as info:
        run_script("\n".join(head + [f"emit {expr[:-1]}"]) + "\n")
    assert str(info.value) == f"line {len(head) + 1}, column {len(expr)}: expected ')'"


def test_scripts_round_trip_reserved_secondary_names():
    """The bridge and sigma name secondary vertices `#s<k>`; the script of
    every such construction parses back to it."""
    count = 0
    for size in range(2, 9):
        for graph in enumerate_oriented_trees(size):
            if is_kgraph(graph).kind != KGRAPH:
                continue
            extended = not graph.inner_vertices
            lcg = LocalCompassGraph(graph, synthesize_compass(graph, extended=extended))
            built = construction_from_compass(lcg, extended=extended)
            for c in (built, sigma_canonical(built)):
                assert run_script(script_of(c)) == c
                count += 1
    assert count == 622
