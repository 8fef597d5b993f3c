"""The package's exports: ``__all__`` names each public name once, every
name resolves, and README's library overview lists exactly these names
under the modules that define them."""

import re
from pathlib import Path

import ctxfam

README = Path(__file__).resolve().parents[1] / "README.md"
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
