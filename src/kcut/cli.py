"""Command-line interface.

Verdicts are printed as one JSON object per line with sorted keys, so the
output is schema-stable.  Exit codes: 0 for a K-graph or plain success, 2
for a Q-graph that is not a K-graph, 3 for a graph that is not a Q-graph,
and 1 for usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compass import is_local_compass_graph
from .construct import same_compass_graph
from .dot import export_dot
from .errors import KcutError
from .formats import parse_graph, run_script, script_of, serialize_graph
from .generate import (
    enumerate_oriented_trees,
    max_enumeration_size,
    random_construction,
)
from .recognize import (
    KGRAPH,
    NOT_QGRAPH,
    QGRAPH_ONLY,
    Decomposition,
    is_kgraph,
    synthesize_compass,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QGRAPH_ONLY = 2
EXIT_NOT_QGRAPH = 3

_CLASS_EXIT = {KGRAPH: EXIT_OK, QGRAPH_ONLY: EXIT_QGRAPH_ONLY, NOT_QGRAPH: EXIT_NOT_QGRAPH}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _decomposition_json(decomposition: Decomposition) -> dict:
    return {
        "transversal": list(decomposition.transversal.vertices),
        "transversal_edges": [str(e) for e in decomposition.transversal.edges],
        "in_trees": [
            {"root": root, "edges": [str(e) for e in tree.edges]}
            for root, tree in decomposition.in_trees
        ],
        "out_trees": [
            {"root": root, "edges": [str(e) for e in tree.edges]}
            for root, tree in decomposition.out_trees
        ],
    }


def _verdict_json(graph, verdict) -> dict:
    payload = {
        "class": verdict.kind,
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
    }
    if verdict.kind == KGRAPH:
        payload.update(_decomposition_json(verdict.decomposition))
    elif verdict.kind == QGRAPH_ONLY:
        payload["bifurcation"] = {
            "vertex": verdict.bifurcation.vertex,
            "edges": [str(e) for e in verdict.bifurcation.edges],
            "pattern": list(verdict.bifurcation.pattern),
        }
    else:
        payload["condition"] = verdict.failure.condition
        payload["witness"] = str(verdict.failure.witness)
    return payload


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise KcutError(f"{path}: not UTF-8 text (byte {err.start})") from None


def _cmd_check(args) -> int:
    graph, _ = parse_graph(_read(args.file))
    verdict = is_kgraph(graph)
    _emit(_verdict_json(graph, verdict))
    return _CLASS_EXIT[verdict.kind]


def _cmd_decompose(args) -> int:
    graph, _ = parse_graph(_read(args.file))
    verdict = is_kgraph(graph)
    _emit(_verdict_json(graph, verdict))
    if verdict.kind != KGRAPH:
        return _CLASS_EXIT[verdict.kind]
    if args.dot:
        Path(args.dot).write_text(export_dot(graph, verdict.decomposition))
    return EXIT_OK


def _cmd_compose(args) -> int:
    built = run_script(_read(args.script))
    payload = {
        "mode": built.mode,
        "vertices": list(built.root_graph.vertices),
        "edges": [str(e) for e in built.root_graph.edges],
        "yx": {slot: str(edge) for slot, edge in built.yx_items},
    }
    _emit(payload)
    if args.graph_out:
        Path(args.graph_out).write_text(serialize_graph(built.root_graph))
    return EXIT_OK


def _cmd_compass(args) -> int:
    graph, compass = parse_graph(_read(args.file))
    if compass is not None:
        check = is_local_compass_graph(graph, compass)
        if check.ok:
            _emit({"compass": "valid"})
            return EXIT_OK
        _emit({"compass": "invalid", "condition": check.condition, "witness": str(check.witness)})
        return EXIT_NOT_QGRAPH if check.condition in (1, 2, 3) else EXIT_QGRAPH_ONLY
    verdict = is_kgraph(graph)
    if verdict.kind != KGRAPH:
        _emit(_verdict_json(graph, verdict))
        return _CLASS_EXIT[verdict.kind]
    compass = synthesize_compass(graph)
    assert compass is not None
    sys.stdout.write(serialize_graph(graph, compass))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    one = run_script(_read(args.script1))
    two = run_script(_read(args.script2))
    _emit({"equivalent": same_compass_graph(one, two)})
    return EXIT_OK


def _cmd_gen(args) -> int:
    built = random_construction(args.seed, args.leaves, args.mode.upper())
    sys.stdout.write(script_of(built))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    index = 0
    for size in range(1, args.max + 1):
        for graph in enumerate_oriented_trees(size):
            payload = {
                "id": index,
                "size": size,
                "vertices": list(graph.vertices),
                "edges": [str(e) for e in graph.edges],
            }
            if args.classify:
                payload["class"] = is_kgraph(graph).kind
            _emit(payload)
            index += 1
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcut",
        description="Recognize, decompose, build and compare plural-cut graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="classify a graph file")
    check.add_argument("file")
    check.set_defaults(handler=_cmd_check)

    decompose = sub.add_parser("decompose", help="decompose a K-graph file")
    decompose.add_argument("file")
    decompose.add_argument("--dot", help="write a DOT rendering here")
    decompose.set_defaults(handler=_cmd_decompose)

    compose_cmd = sub.add_parser("compose", help="run a construction script")
    compose_cmd.add_argument("script")
    compose_cmd.add_argument("--graph-out", help="write the root graph here")
    compose_cmd.set_defaults(handler=_cmd_compose)

    compass = sub.add_parser("compass", help="validate or synthesize a compass")
    compass.add_argument("file")
    compass.set_defaults(handler=_cmd_compass)

    equiv = sub.add_parser("equiv", help="compare two scripts up to rewriting")
    equiv.add_argument("script1")
    equiv.add_argument("script2")
    equiv.set_defaults(handler=_cmd_equiv)

    gen = sub.add_parser("gen", help="emit a pseudo-random construction script")
    gen.add_argument("--mode", choices=["k", "q", "K", "Q"], default="k")
    gen.add_argument("--leaves", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(handler=_cmd_gen)

    enumerate_cmd = sub.add_parser("enumerate", help="stream oriented trees up to a size")
    enumerate_cmd.add_argument("--max", type=int, default=max_enumeration_size())
    enumerate_cmd.add_argument("--classify", action="store_true")
    enumerate_cmd.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KcutError as err:
        print(f"kcut: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"kcut: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
