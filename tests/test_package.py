"""The package's exports: ``__all__`` names each public name once, every
name resolves, each has a caller outside the tests, and README's library
overview lists exactly these names under the modules that define them."""

import ast
import re
from pathlib import Path

import ctxfam

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
NOT_NAMES = {"B", "N", "Q", "ctxfam"}  # kinds and the command, in backticks


def overview_rows():
    """(module, backticked identifiers in its Contents cell) per row."""
    section = README.read_text().split("## Library overview", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`ctxfam."):
            yield cells[1].strip().strip("`"), re.findall(r"`([A-Za-z_]\w*)`", cells[2])


def test_all_has_no_duplicates():
    assert len(ctxfam.__all__) == len(set(ctxfam.__all__))


def test_every_exported_name_resolves():
    assert [name for name in ctxfam.__all__ if not hasattr(ctxfam, name)] == []


def test_star_import():
    namespace = {}
    exec("from ctxfam import *", namespace)
    assert set(ctxfam.__all__) <= namespace.keys()


def test_library_overview_lists_the_exports():
    listed = []
    for module, names in overview_rows():
        for name in names:
            if name in NOT_NAMES:
                continue
            assert name in ctxfam.__all__, name
            assert getattr(ctxfam, name).__module__ == module, name
            listed.append(name)
    assert sorted(listed) == sorted(ctxfam.__all__)


def names_used(path):
    """The identifiers a module reads: names, attributes, imported names
    and string constants that are identifiers (a name looked up by text)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_export_has_a_caller_outside_the_tests():
    """The library's own modules, the demos and the benchmark harness use
    every exported name; a name only the tests call belongs in the tests."""
    sources = [p for p in (ROOT / "src" / "ctxfam").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    sources += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used = {name for path in sources for name in names_used(path)}
    assert [name for name in ctxfam.__all__ if name not in used] == []
