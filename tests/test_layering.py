"""Imports inside the package run one way.

`graph` sits at the bottom.  `construct` and `compass` each stand on it
alone, `recognize` and `bridge` on both, with `formats`, `dot`, `generate`
and `cli` on top.  Every kcut import of every module is read from its
source with `ast` and must appear in the table below; a new edge fails
until the table says it is meant.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kcut

PACKAGE = Path(kcut.__file__).resolve().parent

ALLOWED = {
    "errors": set(),
    "graph": {"errors"},
    "construct": {"errors", "graph"},
    "compass": {"errors", "graph"},
    "recognize": {"errors", "graph", "construct", "compass"},
    "bridge": {"errors", "graph", "construct", "compass"},
    "formats": {"errors", "graph", "construct", "compass"},
    "generate": {"errors", "graph", "construct"},
    "dot": {"errors", "graph", "recognize"},
    "cli": {"errors", "compass", "construct", "dot", "formats", "generate", "recognize"},
    "__init__": {"errors", "graph", "construct", "compass", "bridge", "recognize"},
}


def kcut_imports(path: Path) -> set[str]:
    """The kcut modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "kcut":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kcut" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_is_in_the_table():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ALLOWED)


def test_kcut_imports_follow_the_layering():
    unexpected = {
        path.stem: sorted(kcut_imports(path) - ALLOWED[path.stem])
        for path in sorted(PACKAGE.glob("*.py"))
        if kcut_imports(path) - ALLOWED[path.stem]
    }
    assert unexpected == {}


def test_the_reader_sees_relative_and_absolute_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .graph import Edge\nfrom . import bridge\nfrom kcut.recognize import is_kgraph\n"
        "import kcut.cli\nimport os\nfrom typing import Any\n"
    )
    assert kcut_imports(source) == {"graph", "bridge", "recognize", "cli"}
