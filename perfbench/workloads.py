"""The four benchmark workloads: inputs, per-instance pipelines, CLI jobs.

A workload is built once per set-up from the seed (`__init__`), then the
timed loop runs `run` on every item of `items` in order, pass after pass.
`kc` holds the kcut modules by layer name, as loaded by run.py; every call
into them goes through the Recorder so it is counted, timed and traced.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import shapes
from spans import REJECTED, OpFailed


@dataclass(frozen=True)
class CliJob:
    name: str  # span name, "cli.<command>"
    argv: tuple[str, ...]  # arguments after `python -m kcut.cli`
    exit_code: int
    check: Callable[[str], bool]  # judges stdout


def verdict_record(verdict) -> bytes:
    """A verdict and its certificate as sorted-key JSON, for the digest."""
    payload: dict = {"class": verdict.kind}
    if verdict.decomposition is not None:
        d = verdict.decomposition
        payload["transversal"] = list(d.transversal.vertices)
        payload["transversal_edges"] = [str(e) for e in d.transversal.edges]
        payload["in_trees"] = [[r, [str(e) for e in t.edges]] for r, t in d.in_trees]
        payload["out_trees"] = [[r, [str(e) for e in t.edges]] for r, t in d.out_trees]
    elif verdict.bifurcation is not None:
        b = verdict.bifurcation
        payload["bifurcation"] = [b.vertex, [str(e) for e in b.edges], list(b.pattern)]
    else:
        payload["condition"] = verdict.failure.condition
        payload["witness"] = str(verdict.failure.witness)
    return json.dumps(payload, sort_keys=True).encode()


def _json_line(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[0])


def ladder(*sizes: int) -> tuple[int, ...]:
    """Five sizes taken 6, 4, 3, 2 and 1 times per pass.  With 16 instances
    a pass, the median falls mid-way through the second size and the 90th
    percentile inside the fourth, so neither sits on a boundary between
    sizes, where it would jump between them from run to run."""
    counts = (6, 4, 3, 2, 1)
    return tuple(size for size, count in zip(sizes, counts, strict=True) for _ in range(count))


class Workload:
    name = ""
    # instance_tail_ms: the highest of 50/75/90/95/99 that the run's
    # minimum number of passes (run.min_passes) leaves 10 instances beyond
    tail_percentile = 50
    setup_reps = 5  # set-ups per run; setup_s is their median

    def run(self, rec, item, digest) -> None:
        raise NotImplementedError

    def probes(self, rec, digest) -> None:
        """Per-pass operations outside the instance mix (comb only)."""

    def cli_jobs(self, workdir: Path, rng: random.Random) -> list[CliJob]:
        raise NotImplementedError


class Sweep(Workload):
    """Every oriented tree up to 9 vertices plus random mode-K and mode-Q
    constructions with 2-6 leaves: tiny inputs, most rejected early."""

    name = "sweep"
    tail_percentile = 99
    setup_reps = 3
    RANDOM = 500

    def __init__(self, kc, rec, seed, tiny):
        self.kc = kc
        rng = random.Random(seed)
        largest = 5 if tiny else 9
        items = []
        for size in range(1, largest + 1):
            trees = rec.call("generate.enumerate_oriented_trees", size,
                             lambda s: list(kc.generate.enumerate_oriented_trees(s)), size)
            rec.expect(len(trees) == shapes.A000238[size - 1], "generate.enumerate_oriented_trees",
                       f"{len(trees)} trees with {size} vertices")
            for tree in trees:
                items.append(("tree",) + shapes.relabel(tree.vertices, tree.edges, rng))
        self.cli_input = None  # script and root graph of a mode-K construction
        for i in range(10 if tiny else self.RANDOM):
            mode = "KQ"[i % 2]
            leaves = 2 + (i // 2) % 5
            built = rec.call("generate.random_construction", leaves,
                             kc.generate.random_construction, rng.randrange(2**31), leaves, mode)
            root = built.root_graph
            items.append((mode,) + shapes.relabel(root.vertices, root.edges, rng))
            if mode == "K" and self.cli_input is None:
                self.cli_input = (kc.formats.script_of(built), root)
        self.items = items

    def run(self, rec, item, digest):
        kc = self.kc
        origin, vertices, edges = item
        n = len(vertices)
        graph = rec.call("graph.OrientedGraph.of", n, kc.graph.OrientedGraph.of, vertices, edges)
        q = rec.call("recognize.is_qgraph", n, kc.recognize.is_qgraph, graph)
        verdict = rec.call("recognize.is_kgraph", n, kc.recognize.is_kgraph, graph)
        digest.update(verdict_record(verdict))
        if not q.ok:
            rec.counts["recognize.is_kgraph.rejected"] += 1
            rec.expect(verdict.kind == kc.recognize.NOT_QGRAPH and verdict.failure == q.failure,
                       "recognize.is_kgraph", "a non-Q-graph was not rejected at its Q-condition")
            rec.expect(origin == "tree", "recognize.is_qgraph", "a construction's root is not a Q-graph")
            return
        rec.expect(verdict.kind != kc.recognize.NOT_QGRAPH, "recognize.is_kgraph", "a Q-graph was rejected")
        if origin == "K":
            rec.expect(verdict.kind == kc.recognize.KGRAPH, "recognize.is_kgraph",
                       "a mode-K construction's root is not a K-graph")
        compass = rec.call("recognize.synthesize_compass", n, kc.recognize.synthesize_compass, graph)
        rec.expect((verdict.kind == kc.recognize.KGRAPH) == (compass is not None),
                   "recognize.synthesize_compass", "compass synthesis disagrees with the verdict")
        if compass is None:
            d = graph.w_edges[0]
            built = rec.call("recognize.qgraph_construction", n,
                             kc.recognize.qgraph_construction, graph, d, "W")
            rec.expect(built.root_graph == graph and built.yx("NW") == d == built.yx("SW"),
                       "recognize.qgraph_construction", "mode-Q construction does not rebuild the graph")
            return
        check = rec.call("compass.is_local_compass_graph", n, kc.compass.is_local_compass_graph, graph, compass)
        rec.expect(check.ok, "compass.is_local_compass_graph", "synthesized compass fails the local check")
        lcg = kc.compass.LocalCompassGraph(graph, compass)
        built = rec.call("bridge.construction_from_compass", n, kc.bridge.construction_from_compass, lcg)
        rec.expect(built.root_graph == graph, "bridge.construction_from_compass", "round trip changed the graph")
        lam = rec.call("bridge.lambda_of", n, kc.bridge.lambda_of, built)
        rec.expect(lam.graph == graph and lam.compass == compass, "bridge.lambda_of",
                   "lambda of the rebuilt construction is not the synthesized compass")
        text = rec.call("formats.serialize_graph", n, kc.formats.serialize_graph, graph, compass)
        digest.update(text.encode())

    def cli_jobs(self, workdir, rng):
        script, root = self.cli_input
        vertices, edges = shapes.relabel(root.vertices, root.edges, rng)
        shape = shapes.GraphShape(vertices, edges)
        (workdir / "graph.txt").write_text(shape.file_text(rng))
        (workdir / "a.kcut").write_text(script)
        (workdir / "b.kcut").write_text(script)
        graph_file, a, b = (str(workdir / f) for f in ("graph.txt", "a.kcut", "b.kcut"))
        n = len(vertices)
        kgraph = lambda out: _json_line(out)["class"] == "kgraph" and _json_line(out)["vertices"] == n
        composed = lambda out: sorted(_json_line(out)["vertices"]) == sorted(root.vertices)
        return [
            CliJob("cli.check", ("check", graph_file), 0, kgraph),
            CliJob("cli.decompose", ("decompose", graph_file), 0, kgraph),
            CliJob("cli.compass", ("compass", graph_file), 0,
                   lambda out: out.startswith(shape.canonical_text()) and "\nc " in out),
            CliJob("cli.compose", ("compose", a), 0, composed),
            CliJob("cli.equiv", ("equiv", a, b), 0, lambda out: _json_line(out) == {"equivalent": True}),
        ]


class Chain(Workload):
    """Directed spines with a private east leaf per spine vertex, as
    graph+compass files: the compass check and the bridge dominate."""

    name = "chain"
    tail_percentile = 90
    # spine edges k; 2k + 3 vertices (51 .. 151)
    LADDER = ladder(24, 36, 49, 61, 74)
    TINY = (3, 5)

    def __init__(self, kc, rec, seed, tiny):
        self.kc = kc
        rng = random.Random(seed)
        self.items = []
        for k in self.TINY if tiny else self.LADDER:
            shape = shapes.chain(k, rng)
            self.items.append((shape, shape.file_text(rng), shape.sorted_compass()))

    def run(self, rec, item, digest):
        kc = self.kc
        shape, text, compass_entries = item
        n = len(shape.vertices)
        built_graph = rec.call("graph.OrientedGraph.of", n, kc.graph.OrientedGraph.of, shape.vertices, shape.edges)
        graph, compass = rec.call("formats.parse_graph", n, kc.formats.parse_graph, text)
        rec.expect(graph == built_graph and compass is not None and compass.entries == compass_entries,
                   "formats.parse_graph", "parsed file differs from the generated graph and compass")
        check = rec.call("compass.is_local_compass_graph", n, kc.compass.is_local_compass_graph, graph, compass)
        rec.expect(check.ok, "compass.is_local_compass_graph", "a valid chain compass was rejected")
        # a separate graph object, so the bridge's own local check is not
        # served from the directed paths cached on `graph`
        lcg = kc.compass.LocalCompassGraph(built_graph, compass)
        built = rec.call("bridge.construction_from_compass", n, kc.bridge.construction_from_compass, lcg)
        lam = rec.call("bridge.lambda_of", n, kc.bridge.lambda_of, built)
        rec.expect(lam.graph == graph and lam.compass == compass, "bridge.construction_from_compass",
                   "bridge round trip does not reproduce the graph and compass")
        verdict = rec.call("recognize.is_kgraph", n, kc.recognize.is_kgraph, built_graph)
        rec.expect(verdict.kind == kc.recognize.KGRAPH and not verdict.decomposition.transversal.edges,
                   "recognize.is_kgraph", "a chain is a K-graph without transversal edges")
        digest.update(verdict_record(verdict))

    def cli_jobs(self, workdir, rng):
        shape = shapes.chain(4, rng)
        (workdir / "chain.txt").write_text(shapes.GraphShape(shape.vertices, shape.edges).file_text(rng))
        (workdir / "chain_compass.txt").write_text(shape.file_text(rng))
        plain, with_compass = str(workdir / "chain.txt"), str(workdir / "chain_compass.txt")
        kgraph = lambda out: _json_line(out)["class"] == "kgraph" and not _json_line(out)["transversal_edges"]
        return [
            CliJob("cli.check", ("check", plain), 0, kgraph),
            CliJob("cli.decompose", ("decompose", plain), 0, kgraph),
            CliJob("cli.compass", ("compass", with_compass), 0, lambda out: _json_line(out) == {"compass": "valid"}),
        ]


class Zigzag(Workload):
    """Spines whose edges alternate direction, each spine vertex padded to be
    inner, as graph files: recognition and the bridge's recursion dominate."""

    name = "zigzag"
    tail_percentile = 90
    # spine edges k; 2k + 2 vertices (152 .. 602)
    LADDER = ladder(75, 100, 150, 200, 300)
    TINY = (4, 7)

    def __init__(self, kc, rec, seed, tiny):
        self.kc = kc
        rng = random.Random(seed)
        self.items = []
        for k in self.TINY if tiny else self.LADDER:
            shape = shapes.zigzag(k, rng)
            self.items.append((shape, shape.file_text(rng), shape.canonical_text()))

    def run(self, rec, item, digest):
        kc = self.kc
        shape, text, canonical = item
        n = len(shape.vertices)
        graph, compass = rec.call("formats.parse_graph", n, kc.formats.parse_graph, text)
        rec.expect(compass is None and len(graph.vertices) == n, "formats.parse_graph", "parsed graph differs")
        verdict = rec.call("recognize.is_kgraph", n, kc.recognize.is_kgraph, graph)
        rec.expect(verdict.kind == kc.recognize.KGRAPH
                   and len(verdict.decomposition.transversal.edges) == shape.transversal_count,
                   "recognize.is_kgraph", "a zigzag is a K-graph with k - 2 transversal edges")
        decomposition = rec.call("recognize.decompose", n, kc.recognize.decompose, graph)
        rec.expect(decomposition == verdict.decomposition, "recognize.decompose", "decompose disagrees with is_kgraph")
        compass = rec.call("recognize.synthesize_compass", n, kc.recognize.synthesize_compass, graph)
        rec.expect(compass is not None, "recognize.synthesize_compass", "no compass for a K-graph")
        text = rec.call("formats.serialize_graph", n, kc.formats.serialize_graph, graph, compass)
        rec.expect(text.startswith(canonical), "formats.serialize_graph", "serialized graph is not canonical")
        dot = rec.call("dot.export_dot", n, kc.dot.export_dot, graph, decomposition)
        rec.expect(dot.count("style=dotted") == shape.transversal_count, "dot.export_dot",
                   "DOT output does not mark k - 2 transversal edges")
        lcg = kc.compass.LocalCompassGraph(graph, compass)
        built = rec.call("bridge.construction_from_compass", n, kc.bridge.construction_from_compass, lcg)
        rec.expect(built.root_graph == graph, "bridge.construction_from_compass", "round trip changed the graph")
        digest.update(verdict_record(verdict))
        digest.update(text.encode())
        digest.update(dot.encode())

    def cli_jobs(self, workdir, rng):
        shape = shapes.zigzag(6, rng)
        (workdir / "zigzag.txt").write_text(shape.file_text(rng))
        graph_file, dot_file = str(workdir / "zigzag.txt"), workdir / "zigzag.dot"

        def decomposed(out):
            ok = _json_line(out)["class"] == "kgraph"
            return ok and dot_file.read_text().count("style=dotted") == shape.transversal_count

        return [
            CliJob("cli.check", ("check", graph_file), 0,
                   lambda out: len(_json_line(out)["transversal_edges"]) == shape.transversal_count),
            CliJob("cli.decompose", ("decompose", graph_file, "--dot", str(dot_file)), 0, decomposed),
            CliJob("cli.compass", ("compass", graph_file), 0,
                   lambda out: out.startswith(shape.canonical_text()) and "\nc " in out),
        ]


class Comb(Workload):
    """Deep left-nested cut-trees of stars from scripts with one `let` per
    cut: the construct and formats layers dominate.  Each pass also runs
    the deep-input probes, whose expected outcome is a result or a
    KcutError."""

    name = "comb"
    tail_percentile = 90
    # stars per comb: k leaves, 2k + 2 root vertices (25 .. 100 leaves)
    LADDER = ladder(25, 40, 50, 70, 100)
    TINY = (3, 5)
    DEEP = 1500  # identity leaves in the probe tree; also the nest depth

    def __init__(self, kc, rec, seed, tiny):
        self.kc = kc
        rng = random.Random(seed)
        self.items = [shapes.comb(k, rng) for k in (self.TINY if tiny else self.LADDER)]
        self.deep = shapes.identity_padded(self.DEEP, rng)

    def run(self, rec, item, digest):
        kc = self.kc
        root = item.root
        n = len(root.vertices)
        c = rec.call("formats.run_script", n, kc.formats.run_script, item.left)
        rec.expect(c.root_graph.vertices == tuple(sorted(root.vertices))
                   and c.root_graph.edges == tuple(sorted(root.edges)),
                   "formats.run_script", "comb root graph is not the expected chain")
        script = rec.call("formats.script_of", n, kc.formats.script_of, c)
        again = rec.call("formats.run_script", n, kc.formats.run_script, script)
        rec.expect(again.root_graph == c.root_graph and again.yx_items == c.yx_items,
                   "formats.script_of", "script round trip changed the construction")
        lam = rec.call("bridge.lambda_of", n, kc.bridge.lambda_of, c)
        rec.expect(lam.compass.entries == root.sorted_compass(), "bridge.lambda_of", "wrong comb compass")
        canonical = rec.call("construct.sigma_canonical", n, kc.construct.sigma_canonical, c)
        secondary = canonical.secondary_vertices()
        rec.expect(canonical.root_graph == c.root_graph and len(secondary) == item.secondary_count
                   and all(v.startswith("#s") for v in secondary),
                   "construct.sigma_canonical", "secondary vertices were not renamed canonically")
        right = rec.call("formats.run_script", n, kc.formats.run_script, item.right)
        same = rec.call("construct.same_compass_graph", n, kc.construct.same_compass_graph, c, right)
        rec.expect(same is True, "construct.same_compass_graph", "left and right nesting differ")
        variant = rec.call("formats.run_script", n, kc.formats.run_script, item.variant)
        same = rec.call("construct.same_compass_graph", n, kc.construct.same_compass_graph, c, variant)
        rec.expect(same is False, "construct.same_compass_graph", "the NE variant compared equal")
        west, e_west, east, e_east = rec.call("construct.decompose_at", n, kc.construct.decompose_at,
                                              c, kc.graph.Edge(*item.split_edge))
        rec.expect((e_west.tail, e_east.head) == item.split_edge
                   and west.root_graph.contains_edge(e_west) and east.root_graph.contains_edge(e_east)
                   and len(west.root_graph.vertices) + len(east.root_graph.vertices) == n + 2,
                   "construct.decompose_at", "split does not cut at the requested edge")
        digest.update(script.encode())

    def probes(self, rec, digest):
        """The identity-padded deep tree through lambda, sigma, the script
        format and the equivalence, and the deep `cut(` nest.  Each probe is
        one operation, counted apart from the workload's (`rec.probing`); a
        result is checked, a KcutError is accepted."""
        kc, deep = self.kc, self.deep
        expected_vertices = tuple(sorted(deep.root.vertices))

        def probe(name, fn, *args):
            try:
                result = rec.call(name, 0, fn, *args, rejectable=True)
            except OpFailed:
                return None
            return None if result is REJECTED else result

        with rec.span("bench.probes"), rec.probing():
            tree = probe("formats.run_script", kc.formats.run_script, deep.script)
            if tree is not None:
                self._probe_check(rec, tree.root_graph.vertices == expected_vertices,
                                  "formats.run_script", "deep tree has the wrong root graph")
                lam = probe("bridge.lambda_of", kc.bridge.lambda_of, tree)
                if lam is not None:
                    self._probe_check(rec, lam.compass.entries == deep.root.sorted_compass(),
                                      "bridge.lambda_of", "deep tree has the wrong compass")
                canonical = probe("construct.sigma_canonical", kc.construct.sigma_canonical, tree)
                if canonical is not None:
                    self._probe_check(rec, canonical.root_graph == tree.root_graph,
                                      "construct.sigma_canonical", "sigma changed the deep root graph")
                script = probe("formats.script_of", kc.formats.script_of, tree)
                if script is not None:
                    self._probe_check(rec, script.count("\nidentity ") == deep.n,
                                      "formats.script_of", "deep script lost identity leaves")
                    digest.update(script.encode())
                same = probe("construct.same_compass_graph", kc.construct.same_compass_graph, tree, tree)
                if same is not None:
                    self._probe_check(rec, same is True, "construct.same_compass_graph",
                                      "the deep tree differs from itself")
            nested = probe("formats.run_script", kc.formats.run_script, deep.nest)
            if nested is not None:
                self._probe_check(rec, nested.root_graph.vertices == expected_vertices,
                                  "formats.run_script", "deep nest has the wrong root graph")

    @staticmethod
    def _probe_check(rec, ok, name, what):
        try:
            rec.expect(ok, name, what)
        except OpFailed:
            pass

    def cli_jobs(self, workdir, rng):
        item = shapes.comb(5, rng)
        for label in ("left", "right", "variant"):
            (workdir / f"{label}.kcut").write_text(getattr(item, label))
        left, right, variant = (str(workdir / f"{label}.kcut") for label in ("left", "right", "variant"))
        return [
            CliJob("cli.compose", ("compose", left), 0,
                   lambda out: sorted(_json_line(out)["vertices"]) == sorted(item.root.vertices)),
            CliJob("cli.equiv", ("equiv", left, right), 0, lambda out: _json_line(out) == {"equivalent": True}),
            CliJob("cli.equiv", ("equiv", left, variant), 0, lambda out: _json_line(out) == {"equivalent": False}),
        ]


WORKLOADS = {w.name: w for w in (Sweep, Chain, Zigzag, Comb)}
