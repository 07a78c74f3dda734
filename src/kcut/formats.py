"""Line-oriented text formats: graph files and construction scripts.

Graph files carry one record per line: `v NAME`, `e TAIL HEAD`, or
`c INNER SLOT TAIL HEAD` for a compass value.  Names must be declared
before use; serialization is canonical (sorted records), so parsing a
serialized graph reproduces it byte for byte.

Construction scripts declare leaves and cut them together:

    mode K
    basic F1 { west: w1 w2; east: e1; center: m; NW: w1; SW: w2; NE: e1; SE: e1 }
    identity I1 { west: a; east: b }
    let G = cut(F1, m->e1, B1, w3->n)
    emit G

`cut` arguments may be names or nested `cut(...)` expressions; each defined
name is consumed at most once (the operand graphs of a cut must be
disjoint).  Blank lines and lines starting with `#` are ignored in both
formats.
"""

from __future__ import annotations

import re

from .compass import Compass
from .construct import Construction, IdentityGraph, compose, leaf, make_basic
from .errors import KcutError, ParseError
from .graph import SLOTS, Edge, OrientedGraph

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _check_name(token: str, line: int, col: int) -> str:
    if not _NAME_RE.match(token):
        raise ParseError(f"bad token {token!r}", line, col)
    return token


# -- graph files ---------------------------------------------------------------


def parse_graph(text: str) -> tuple[OrientedGraph, Compass | None]:
    vertices: dict[str, int] = {}
    edges: dict[Edge, int] = {}
    compass: dict[tuple[str, str], tuple[Edge, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "v":
            if len(fields) != 2:
                raise ParseError("expected `v NAME`", lineno)
            name = _check_name(fields[1], lineno, 3)
            if name in vertices:
                raise ParseError(f"duplicate vertex {name}", lineno)
            vertices[name] = lineno
        elif kind == "e":
            if len(fields) != 3:
                raise ParseError("expected `e TAIL HEAD`", lineno)
            tail, head = fields[1], fields[2]
            for token in (tail, head):
                _check_name(token, lineno, 3)
                if token not in vertices:
                    raise ParseError(f"undeclared vertex {token}", lineno)
            if tail == head:
                raise ParseError(f"irreflexivity violated by {tail}>{head}", lineno)
            edge = Edge(tail, head)
            if edge in edges:
                raise ParseError(f"duplicate edge {edge}", lineno)
            if Edge(head, tail) in edges:
                raise ParseError(f"antisymmetry violated by {edge}", lineno)
            edges[edge] = lineno
        elif kind == "c":
            if len(fields) != 5:
                raise ParseError("expected `c INNER SLOT TAIL HEAD`", lineno)
            inner, slot, tail, head = fields[1:]
            if slot not in SLOTS:
                raise ParseError(f"slot must be one of {'/'.join(SLOTS)}", lineno)
            edge = Edge(tail, head)
            if edge not in edges:
                raise ParseError(f"undeclared edge {edge}", lineno)
            if slot.endswith("W") and edge.head != inner:
                raise ParseError(f"{slot} value must end in {inner}", lineno)
            if slot.endswith("E") and edge.tail != inner:
                raise ParseError(f"{slot} value must begin in {inner}", lineno)
            if (inner, slot) in compass:
                raise ParseError(f"duplicate compass slot {slot} at {inner}", lineno)
            compass[(inner, slot)] = (edge, lineno)
        else:
            raise ParseError(f"unknown record {kind!r}", lineno)
    if not vertices:
        raise ParseError("a graph needs at least one `v` line", max(1, text.count("\n") + 1))
    graph = OrientedGraph.of(vertices, edges)
    inner_set = set(graph.inner_vertices)
    for (vertex, slot), (_, lineno) in compass.items():
        if vertex not in inner_set:
            raise ParseError(f"compass vertex {vertex} is not inner", lineno)
    if not compass:
        return graph, None
    return graph, Compass.of({key: edge for key, (edge, _) in compass.items()})


def serialize_graph(graph: OrientedGraph, compass: Compass | None = None) -> str:
    """Canonical graph-file text; `parse_graph` inverts it exactly."""
    for v in graph.vertices:
        if v.startswith("#"):
            raise KcutError(f"reserved vertex name {v!r} is not serializable")
    lines = [f"v {v}" for v in graph.vertices]
    lines += [f"e {e.tail} {e.head}" for e in graph.edges]
    if compass is not None:
        order = {slot: i for i, slot in enumerate(SLOTS)}
        entries = sorted(compass.entries, key=lambda it: (it[0], order[it[1]]))
        lines += [f"c {v} {slot} {e.tail} {e.head}" for v, slot, e in entries]
    return "\n".join(lines) + "\n"


# -- construction scripts --------------------------------------------------------


class _Script:
    """The state of one script run: its mode, its names and what it emitted."""

    def __init__(self) -> None:
        self.mode = "K"
        self.definitions: dict[str, tuple[Construction, int]] = {}
        self.consumed: dict[str, int] = {}
        self.emitted: Construction | None = None


_CUT_RE = re.compile(r"cut\s*\(")
_EDGE_RE = re.compile(r"(#?[A-Za-z0-9_]+)\s*->\s*(#?[A-Za-z0-9_]+)")
_SCAN_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class _ExprParser:
    """Reader for `NAME` / `cut(expr, a->b, expr, c->d)` that keeps its open
    cuts on a stack, so nesting depth is bounded by memory only."""

    def __init__(self, text: str, line: int, script: _Script):
        self.text = text
        self.pos = 0
        self.line = line
        self.script = script

    def _skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, literal: str) -> None:
        self._skip_spaces()
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.line, self.pos + 1)
        self.pos += len(literal)

    def _edge(self) -> Edge:
        self._skip_spaces()
        match = _EDGE_RE.match(self.text, self.pos)
        if not match:
            raise ParseError("expected an edge TAIL->HEAD", self.line, self.pos + 1)
        self.pos = match.end()
        return Edge(match.group(1), match.group(2))

    def expression(self) -> Construction:
        # open cuts, innermost last: [] until the west operand, then [west, e_west]
        pending: list[list] = []
        while True:
            self._skip_spaces()
            if _CUT_RE.match(self.text, self.pos):
                self._expect("cut")
                self._expect("(")
                pending.append([])
                continue
            match = _SCAN_NAME_RE.match(self.text, self.pos)
            if not match:
                raise ParseError("expected a name or cut(...)", self.line, self.pos + 1)
            self.pos = match.end()
            value = self._use(match.group(0))
            while pending and pending[-1]:
                west, e_west = pending.pop()
                self._expect(",")
                e_east = self._edge()
                self._expect(")")
                try:
                    value = compose(west, e_west, value, e_east)
                except KcutError as err:
                    raise ParseError(str(err), self.line, self.pos) from err
            if not pending:
                return value
            self._expect(",")
            pending[-1] += (value, self._edge())
            self._expect(",")

    def _use(self, name: str) -> Construction:
        if name in self.script.consumed:
            raise ParseError(
                f"{name} was already consumed on line {self.script.consumed[name]}",
                self.line,
            )
        if name not in self.script.definitions:
            raise ParseError(f"undefined name {name}", self.line)
        built, _ = self.script.definitions[name]
        self.script.consumed[name] = self.line
        return built

    def finish(self) -> None:
        self._skip_spaces()
        if self.pos != len(self.text):
            raise ParseError("trailing input after expression", self.line, self.pos + 1)


_FIELD_RE = re.compile(r"\{(.*)\}\s*\Z", re.DOTALL)


def _parse_fields(text: str, line: int) -> dict[str, list[str]]:
    match = _FIELD_RE.search(text)
    if not match:
        raise ParseError("expected `{ field: value; ... }`", line)
    fields: dict[str, list[str]] = {}
    for chunk in match.group(1).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ParseError(f"expected `field: value` in {chunk!r}", line)
        key, _, value = chunk.partition(":")
        fields[key.strip()] = value.split()
    return fields


def _one(fields: dict[str, list[str]], key: str, line: int) -> str:
    values = fields.get(key)
    if not values or len(values) != 1:
        raise ParseError(f"field {key!r} needs exactly one token", line)
    return values[0]


def _define(script: _Script, name: str, built: Construction, line: int) -> None:
    if name in script.definitions:
        raise ParseError(f"duplicate definition of {name}", line)
    script.definitions[name] = (built, line)


def run_script(text: str) -> Construction:
    """Execute a construction script and return the emitted construction."""
    script = _Script()
    saw_statement = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if script.emitted is not None:
            raise ParseError("statements after emit", lineno)
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "mode":
            if saw_statement:
                raise ParseError("mode must precede all other statements", lineno)
            if rest not in ("K", "Q"):
                raise ParseError("mode must be K or Q", lineno)
            script.mode = rest
            continue
        saw_statement = True
        if keyword == "basic":
            name, _, body = rest.partition(" ")
            _check_name(name, lineno, 7)
            fields = _parse_fields(body, lineno)
            unknown = set(fields) - {"west", "east", "center", "NW", "SW", "NE", "SE"}
            if unknown:
                raise ParseError(f"unknown fields {sorted(unknown)}", lineno)
            wests = fields.get("west") or []
            easts = fields.get("east") or []
            if not wests or not easts:
                raise ParseError("basic needs nonempty west and east", lineno)
            center = _one(fields, "center", lineno)
            try:
                built = make_basic(
                    center,
                    wests,
                    easts,
                    Edge(_one(fields, "NW", lineno), center),
                    Edge(_one(fields, "SW", lineno), center),
                    Edge(center, _one(fields, "NE", lineno)),
                    Edge(center, _one(fields, "SE", lineno)),
                    mode=script.mode,
                )
            except KcutError as err:
                raise ParseError(str(err), lineno) from err
            _define(script, name, leaf(built, script.mode), lineno)
        elif keyword == "identity":
            name, _, body = rest.partition(" ")
            _check_name(name, lineno, 10)
            fields = _parse_fields(body, lineno)
            try:
                ident = IdentityGraph(_one(fields, "west", lineno), _one(fields, "east", lineno))
                _define(script, name, leaf(ident, script.mode), lineno)
            except KcutError as err:
                raise ParseError(str(err), lineno) from err
        elif keyword == "let":
            name, _, expr_text = rest.partition("=")
            name = name.strip()
            _check_name(name, lineno, 5)
            parser = _ExprParser(expr_text.strip(), lineno, script)
            built = parser.expression()
            parser.finish()
            _define(script, name, built, lineno)
        elif keyword == "emit":
            parser = _ExprParser(rest, lineno, script)
            script.emitted = parser.expression()
            parser.finish()
        else:
            raise ParseError(f"unknown statement {keyword!r}", lineno)
    if script.emitted is None:
        raise ParseError("script never reached an emit statement", max(1, text.count("\n") + 1))
    return script.emitted


def script_of(construction: Construction) -> str:
    """A script that rebuilds the construction (leaves first, cuts bottom-up),
    from the cut-tree's postorder and a stack of the names not yet cut."""
    lines = [f"mode {construction.mode}"]
    names: list[str] = []
    leaves = cuts = 0
    for node in construction.postorder():
        obj = node.leaf_obj
        if obj is None:
            east, west = names.pop(), names.pop()
            cuts += 1
            names.append(f"C{cuts}")
            lines.append(
                f"let {names[-1]} = cut({west}, {node.cut_west.tail}->{node.cut_west.head}, "
                f"{east}, {node.cut_east.tail}->{node.cut_east.head})"
            )
            continue
        leaves += 1
        names.append(f"L{leaves}")
        if isinstance(obj, IdentityGraph):
            lines.append(f"identity {names[-1]} {{ west: {obj.west}; east: {obj.east} }}")
        else:
            lines.append(
                f"basic {names[-1]} {{ west: {' '.join(obj.west)}; east: {' '.join(obj.east)}; "
                f"center: {obj.center}; NW: {obj.nw.tail}; SW: {obj.sw.tail}; "
                f"NE: {obj.ne.head}; SE: {obj.se.head} }}"
            )
    lines.append(f"emit {names.pop()}")
    return "\n".join(lines) + "\n"
