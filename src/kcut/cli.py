"""Command-line interface.

Verdicts are printed as one JSON object per line with sorted keys, so the
output is schema-stable.  Exit codes: 0 for a K-graph or plain success, 2
for a Q-graph that is not a K-graph, 3 for a graph that is not a Q-graph,
and 1 for usage, parse or validation errors; a reader that closes stdout
early ends the command with 0 and nothing on stderr.  Each command imports
the modules it uses when it runs, so start-up loads no other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import GraphInvariantError, KcutError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QGRAPH_ONLY = 2
EXIT_NOT_QGRAPH = 3


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _decomposition_json(decomposition) -> dict:
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


def _report(graph, verdict) -> int:
    """Print a verdict with its certificate; return its exit code."""
    from .recognize import KGRAPH, QGRAPH_ONLY

    payload = {
        "class": verdict.kind,
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
    }
    if verdict.kind == KGRAPH:
        payload.update(_decomposition_json(verdict.decomposition))
        code = EXIT_OK
    elif verdict.kind == QGRAPH_ONLY:
        payload["bifurcation"] = {
            "vertex": verdict.bifurcation.vertex,
            "edges": [str(e) for e in verdict.bifurcation.edges],
            "pattern": list(verdict.bifurcation.pattern),
        }
        code = EXIT_QGRAPH_ONLY
    else:
        payload["condition"] = verdict.failure.condition
        payload["witness"] = str(verdict.failure.witness)
        code = EXIT_NOT_QGRAPH
    _emit(payload)
    return code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise KcutError(f"{path}: not UTF-8 text (byte {err.start})") from None


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except BrokenPipeError as err:  # only stdout's reader may leave early
        raise KcutError(str(err)) from None


def _cmd_decompose(args) -> int:
    from .formats import parse_graph
    from .recognize import is_kgraph

    graph, _ = parse_graph(_read(args.file))
    verdict = is_kgraph(graph)
    code = _report(graph, verdict)
    if code == EXIT_OK and args.dot:
        from .dot import export_dot

        _write_file(args.dot, export_dot(graph, verdict.decomposition))
    return code


def _cmd_compose(args) -> int:
    from .formats import run_script, serialize_graph

    built = run_script(_read(args.script))
    payload = {
        "mode": built.mode,
        "vertices": list(built.root_graph.vertices),
        "edges": [str(e) for e in built.root_graph.edges],
        "yx": {slot: str(edge) for slot, edge in built.yx_items},
    }
    _emit(payload)
    if args.graph_out:
        _write_file(args.graph_out, serialize_graph(built.root_graph))
    return EXIT_OK


def _cmd_compass(args) -> int:
    from .compass import is_local_compass_graph
    from .formats import parse_graph, serialize_graph
    from .recognize import KGRAPH, is_kgraph, synthesize_compass

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
        return _report(graph, verdict)
    compass = synthesize_compass(graph)
    if compass is None:
        raise GraphInvariantError("a K-graph without a compass")
    sys.stdout.write(serialize_graph(graph, compass))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    from .construct import same_compass_graph
    from .formats import run_script

    one = run_script(_read(args.script1))
    two = run_script(_read(args.script2))
    _emit({"equivalent": same_compass_graph(one, two)})
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .formats import script_of
    from .generate import random_construction

    built = random_construction(args.seed, args.leaves, args.mode.upper())
    sys.stdout.write(script_of(built))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .generate import enumerate_oriented_trees, max_enumeration_size
    from .recognize import is_kgraph

    index = 0
    for size in range(1, (max_enumeration_size() if args.max is None else args.max) + 1):
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
    check.set_defaults(handler=_cmd_decompose, dot=None)

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
    enumerate_cmd.add_argument("--max", type=int, help="largest tree size (default: the enumeration bound)")
    enumerate_cmd.add_argument("--classify", action="store_true")
    enumerate_cmd.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except KcutError as err:
        print(f"kcut: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # stdout's reader left early (`kcut enumerate | head -1`)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # for the flush at exit
        os.close(devnull)
        return EXIT_OK
    except OSError as err:
        print(f"kcut: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
