from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kcut
from kcut.cli import main
from kcut.formats import parse_graph, serialize_graph
from kcut.compass import is_local_compass_graph

from helpers import F1, F3, F4, F5, F6, F6_COMPASS


def _python(*argv):
    """Run a fresh interpreter that imports kcut from the tree under test."""
    src = str(Path(kcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_json(out):
    return json.loads(out.splitlines()[0])


F2_SCRIPT = """\
basic F1 { west: w1 w2; east: e1; center: m; NW: w1; SW: w2; NE: e1; SE: e1 }
basic B1 { west: w3; east: e2 e3; center: n; NW: w3; SW: w3; NE: e2; SE: e3 }
let G = cut(F1, m->e1, B1, w3->n)
emit G
"""

F2_SCRIPT_ASSOC = """\
basic B1 { west: w3; east: e2 e3; center: n; NW: w3; SW: w3; NE: e2; SE: e3 }
basic F1 { west: w1 w2; east: e1; center: m; NW: w1; SW: w2; NE: e1; SE: e1 }
let G = cut(F1, m->e1, B1, w3->n)
emit G
"""

F2_SCRIPT_OTHER_NAMES = """\
basic F1 { west: w1 w2; east: zz; center: m; NW: w1; SW: w2; NE: zz; SE: zz }
basic B1 { west: yy; east: e2 e3; center: n; NW: yy; SW: yy; NE: e2; SE: e3 }
let G = cut(F1, m->zz, B1, yy->n)
emit G
"""


def test_check_classifies_with_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "check", write(tmp_path, "f3", serialize_graph(F3)))
    assert code == 0
    payload = first_json(out)
    assert payload["class"] == "kgraph"
    assert payload["transversal"] == ["p", "q"]

    code, out, _ = run(capsys, "check", write(tmp_path, "f4", serialize_graph(F4)))
    assert code == 2
    payload = first_json(out)
    assert payload["class"] == "qgraph-only"
    assert payload["bifurcation"]["pattern"] == [0, 3]

    code, out, _ = run(capsys, "check", write(tmp_path, "f5", serialize_graph(F5)))
    assert code == 3
    assert first_json(out)["condition"] == 2


def test_check_reports_parse_errors(tmp_path, capsys):
    code, _, err = run(capsys, "check", write(tmp_path, "bad", "v a\ne a a\n"))
    assert code == 1
    assert "irreflexiv" in err


def test_a_bad_identity_leaf_is_reported_on_its_line(tmp_path, capsys):
    script = write(tmp_path, "loop.kc", "mode K\nidentity I { west: a; east: a }\nemit I\n")
    code, out, err = run(capsys, "compose", script)
    assert (code, out, err) == (1, "", "kcut: line 2, column 1: irreflexivity violated by a>a\n")


def test_decompose_writes_dot(tmp_path, capsys):
    dot_path = tmp_path / "out.dot"
    code, out, _ = run(
        capsys, "decompose", write(tmp_path, "f3", serialize_graph(F3)), "--dot", str(dot_path)
    )
    assert code == 0
    assert "in_trees" in first_json(out)
    assert "dotted" in dot_path.read_text()


def test_decompose_exits_per_class_on_non_kgraphs(tmp_path, capsys):
    code, out, _ = run(capsys, "decompose", write(tmp_path, "f4", serialize_graph(F4)))
    assert code == 2
    assert first_json(out)["class"] == "qgraph-only"


def test_compose_prints_root_graph_and_yx(tmp_path, capsys):
    code, out, _ = run(capsys, "compose", write(tmp_path, "s.kc", F2_SCRIPT))
    assert code == 0
    payload = first_json(out)
    assert payload["yx"] == {"NW": "w1>m", "SW": "w2>m", "NE": "n>e2", "SE": "n>e3"}
    assert "m>n" in payload["edges"]


def test_compose_error_exits_one(tmp_path, capsys):
    bad = F2_SCRIPT.replace("cut(F1, m->e1, B1, w3->n)", "cut(F1, w1->m, B1, w3->n)")
    code, _, err = run(capsys, "compose", write(tmp_path, "s.kc", bad))
    assert code == 1 and "E-edge" in err


def test_compass_validates_and_synthesizes(tmp_path, capsys):
    valid = write(tmp_path, "f3", serialize_graph(F3))
    code, out, _ = run(capsys, "compass", valid)
    assert code == 0
    graph, compass = parse_graph(out)
    assert graph == F3 and compass is not None
    assert is_local_compass_graph(graph, compass).ok

    failing = write(tmp_path, "f6", serialize_graph(F6, F6_COMPASS))
    code, out, _ = run(capsys, "compass", failing)
    assert code == 2
    assert first_json(out)["condition"] == 5

    none_exists = write(tmp_path, "f4", serialize_graph(F4))
    code, out, _ = run(capsys, "compass", none_exists)
    assert code == 2
    assert first_json(out)["class"] == "qgraph-only"


# `kcut compass` on F6, byte for byte: the witness is printed as
# str((SemiPath, y)), so this pins the canonically first indecent path.
F6_COMPASS_STDOUT = (
    '{"compass": "invalid", "condition": 5, "witness": "(SemiPath('
    "vertices=('a', 'b', 'c'), steps=("
    "Step(edge=Edge(tail='a', head='b'), forward=True), "
    "Step(edge=Edge(tail='b', head='c'), forward=True))), 'N')\"}\n"
)


def test_compass_prints_the_indecent_witness_byte_for_byte(tmp_path, capsys):
    failing = write(tmp_path, "f6", serialize_graph(F6, F6_COMPASS))
    code, out, err = run(capsys, "compass", failing)
    assert (code, out, err) == (2, F6_COMPASS_STDOUT, "")


def test_equiv_compares_scripts(tmp_path, capsys):
    one = write(tmp_path, "one.kc", F2_SCRIPT)
    two = write(tmp_path, "two.kc", F2_SCRIPT_ASSOC)
    code, out, _ = run(capsys, "equiv", one, two)
    assert code == 0 and first_json(out) == {"equivalent": True}

    renamed = write(tmp_path, "three.kc", F2_SCRIPT_OTHER_NAMES)
    code, out, _ = run(capsys, "equiv", one, renamed)
    assert code == 0 and first_json(out) == {"equivalent": True}

    different = write(tmp_path, "four.kc", F2_SCRIPT.replace("w1 w2", "w1 w2 w5"))
    code, out, _ = run(capsys, "equiv", one, different)
    assert code == 0 and first_json(out) == {"equivalent": False}


def test_gen_output_feeds_compose(tmp_path, capsys):
    code, script_text, _ = run(capsys, "gen", "--mode", "k", "--leaves", "3", "--seed", "9")
    assert code == 0
    code, out, _ = run(capsys, "compose", write(tmp_path, "gen.kc", script_text))
    assert code == 0
    assert first_json(out)["mode"] == "K"
    code, again, _ = run(capsys, "gen", "--mode", "k", "--leaves", "3", "--seed", "9")
    assert again == script_text


def test_enumerate_streams_json_lines(tmp_path, capsys):
    code, out, _ = run(capsys, "enumerate", "--max", "4", "--classify")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 1 + 1 + 3 + 8
    assert [line["id"] for line in lines] == list(range(len(lines)))
    assert all(line["class"] in ("kgraph", "qgraph-only", "not-qgraph") for line in lines)
    sizes = {line["size"] for line in lines}
    assert sizes == {1, 2, 3, 4}


def test_enumerate_respects_the_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KCUT_MAX_ENUM", "3")
    code, _, err = run(capsys, "enumerate", "--max", "5")
    assert code == 1 and "exceeds" in err


@pytest.mark.parametrize("command", ["check", "decompose", "compass", "compose", "equiv"])
def test_a_file_that_is_not_utf8_gives_one_line_and_exit_one(tmp_path, capsys, command):
    path = tmp_path / "latin"
    path.write_bytes(b"v\xff\xfe")
    argv = [command, str(path)] + ([str(path)] if command == "equiv" else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"kcut: {path}: not UTF-8 text (byte 1)\n")


def test_fixture_commands_behave_the_same_under_python_dash_o(tmp_path, capsys):
    """No exit code or stdout of the commands above depends on `assert`."""
    f3, f4, f5 = (
        write(tmp_path, name, serialize_graph(graph)) for name, graph in (("f3", F3), ("f4", F4), ("f5", F5))
    )
    f6 = write(tmp_path, "f6", serialize_graph(F6, F6_COMPASS))
    script = write(tmp_path, "s.kc", F2_SCRIPT)
    commands = [
        ["check", f3], ["check", f4], ["check", f5], ["check", write(tmp_path, "bad", "v a\ne a a\n")],
        ["decompose", f3, "--dot", str(tmp_path / "out.dot")], ["decompose", f4],
        ["compose", script],
        ["compose", write(tmp_path, "bad.kc", F2_SCRIPT.replace("m->e1, B1", "w1->m, B1"))],
        ["compass", f3], ["compass", f6], ["compass", f4],
        ["equiv", script, write(tmp_path, "two.kc", F2_SCRIPT_ASSOC)],
        ["equiv", script, write(tmp_path, "three.kc", F2_SCRIPT_OTHER_NAMES)],
        ["gen", "--mode", "k", "--leaves", "3", "--seed", "9"],
        ["enumerate", "--max", "4", "--classify"],
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        proc = _python("-O", "-m", "kcut.cli", *argv)
        assert (proc.returncode, proc.stdout) == (code, out), argv


# The CLI as a program prints the kcut modules it loaded on stderr.
_LOADED = """
import json, sys
from kcut.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("kcut"))), file=sys.stderr)
sys.exit(code)
"""


def test_each_command_loads_only_the_modules_it_uses(tmp_path):
    script = write(tmp_path, "s.kc", F2_SCRIPT)
    f3 = write(tmp_path, "f3", serialize_graph(F3))
    by_script = {"kcut.recognize", "kcut.bridge", "kcut.generate", "kcut.dot"}
    cases = [
        (["compose", script], by_script),
        (["equiv", script, script], by_script),
        (["check", f3], {"kcut.bridge", "kcut.generate", "kcut.dot"}),
        (["compass", f3], {"kcut.bridge", "kcut.generate", "kcut.dot"}),
        (["decompose", f3], {"kcut.bridge", "kcut.generate"}),
    ]
    for argv, absent in cases:
        proc = _python("-c", _LOADED, *argv)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stderr.splitlines()[-1]))
        assert "kcut.errors" in loaded and not loaded & absent, argv


def test_every_exported_name_loads_on_first_use():
    proc = _python("-c", (
        "import sys, kcut\n"
        "assert [m for m in sys.modules if m.startswith('kcut.')] == []\n"
        "for name in kcut.__all__:\n"
        "    exec(f'from kcut import {name}')\n"
        "print(len(kcut.__all__))\n"
    ))
    assert (proc.returncode, proc.stdout) == (0, "56\n"), proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        kcut.nothing


def test_a_bad_enumeration_bound_fails_only_enumerate(capsys, monkeypatch):
    monkeypatch.setenv("KCUT_MAX_ENUM", "nope")
    code, out, _ = run(capsys, "gen", "--leaves", "2")
    assert code == 0 and out.startswith("mode K\n")
    code, out, err = run(capsys, "enumerate")
    assert (code, out, err) == (1, "", "kcut: KCUT_MAX_ENUM must be an integer, got 'nope'\n")


def test_equiv_tells_apart_a_swap_of_nw_and_sw(tmp_path, capsys):
    from test_equivalence import SWAP_SCRIPT, SWAPPED_SCRIPT

    one, two = write(tmp_path, "one.kc", SWAP_SCRIPT), write(tmp_path, "two.kc", SWAPPED_SCRIPT)
    assert run(capsys, "equiv", one, two) == (0, '{"equivalent": false}\n', "")
    assert run(capsys, "equiv", one, one) == (0, '{"equivalent": true}\n', "")


def test_equiv_on_a_mode_q_script_gives_one_line_and_exit_one(tmp_path, capsys):
    from test_equivalence import SWAP_SCRIPT

    q_script = write(tmp_path, "q.kc", "mode Q\n" + SWAP_SCRIPT)
    k_script = write(tmp_path, "k.kc", SWAP_SCRIPT)
    for argv in ((q_script, k_script), (k_script, q_script)):
        code, out, err = run(capsys, "equiv", *argv)
        assert (code, out, err) == (1, "", "kcut: rho-equivalence is defined for mode-K constructions\n")


def test_a_reader_that_closes_stdout_early_is_not_an_error():
    """The output (about 250 kB) outgrows the pipe, so the writer is still
    writing when the reader leaves after one line."""
    src = str(Path(kcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kcut.cli", "enumerate", "--max", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["id"] == 0
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_a_broken_pipe_on_an_output_file_is_still_an_error(tmp_path, capsys, monkeypatch):
    """Only stdout's reader may leave early: a file output cut short by a
    broken pipe keeps exit 1 and its one line."""
    f3, script = write(tmp_path, "f3", serialize_graph(F3)), write(tmp_path, "f2.kc", F2_SCRIPT)

    def broken(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(Path, "write_text", broken)
    for argv in (["decompose", f3, "--dot", "out.dot"], ["compose", script, "--graph-out", "out.txt"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "kcut: [Errno 32] Broken pipe\n")
