"""The traced benchmark run wraps ctxfam's functions and constructors by
name; a renamed or removed one must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

from ctxfam import cli, family, fdlogic, formats, realisability
from ctxfam.family import ContextualFamily
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import KRelation

from conftest import DESCENT_MISSES

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (cli, family, fdlogic, formats, realisability, ContextualFamily, MonoidValue, KRelation)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._undo)
        assert len(wrapped) > 20
        for owner, attr, original in wrapped:
            assert any(owner is o for o in OWNERS)
            assert callable(original)
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[name] is saved[name] for name in saved), owner


def test_every_relation_built_passes_the_counted_constructor(tmp_path, capsys):
    """``relation.krelations_built`` counts ``KRelation.__init__``: checking a
    three-context family builds the three parsed relations and nothing
    else.  The pairwise check compares annotation sums on the rows it
    groups, so it builds no marginal relation."""
    doc = tmp_path / "family.fam"
    doc.write_text(
        "monoid N\n"
        "context x y\n0 0 : 1\n0 1 : 1\n1 1 : 2\n"
        "context y z\n0 0 : 1\n1 0 : 2\n1 1 : 1\n"
        "context x z\n0 0 : 2\n1 0 : 1\n1 1 : 1\n"
    )
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["check", str(doc)]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "locally consistent\n"
    _total, _own, calls = tracer.times()
    assert calls["relation.marginalise"] == 0
    assert tracer.counts["relation.krelations_built"] == 3
    # Rows stored: three per parsed relation.
    assert tracer.counts["relation.krelations_built.amount"] == 3 * 3


def test_relations_from_both_readers_pass_the_counted_constructor(tmp_path, capsys):
    """The family reader builds every relation through the counted
    ``KRelation.__init__``, whichever reader read its block: here the
    first block mixes weighted and unweighted rows, which the column
    reader declines and the line reader reads, and the other two are
    read as columns."""
    text = (
        "monoid N\n"
        "context x y\n0 0\n0 1 : 1\n1 1 : 2\n1 0\n"
        "context y z\n0 0 : 2\n1 0 : 1\n1 1 : 2\n"
        "context x z\n0 0 : 2\n1 0 : 1\n1 1 : 2\n"
    )
    blocks = [block.splitlines() for block in text.split("context ")[1:]]
    read = [formats._read_block(MonoidKind.N, tuple(head.split()), rows, 1, {}) for head, *rows in blocks]
    assert read[0] is None and all(read[1:])
    doc = tmp_path / "family.fam"
    doc.write_text(text)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["check", str(doc)]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "locally consistent\n"
    assert tracer.counts["relation.krelations_built"] == 3
    assert tracer.counts["relation.krelations_built.amount"] == sum(len(rows) for _, *rows in blocks) == 10


def test_global_lp_records_the_solver_span(tmp_path, capsys):
    """A Q family's global check solves one system with one unknown per
    support-join row, and the traced run sees that call and its size."""
    text = (
        "monoid Q\n"
        "context x y\n0 0 : 1\n1 0 : 2\n1 1 : 1\n"
        "context y z\n0 0 : 2\n0 1 : 1\n1 1 : 1\n"
    )
    doc = tmp_path / "family.fam"
    doc.write_text(text)
    join, _cells = family._support_join(formats.parse_family(text))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["global", str(doc)]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.startswith("globally consistent\n")
    _total, _own, calls = tracer.times()
    assert calls["feasibility.solve"] == 1
    assert tracer.counts["feasibility.unknowns_max"] == len(join) == 5


def traced_global(tmp_path, text):
    """The span calls and counts of a traced ``global`` on ``text``, whose
    family is globally consistent."""
    doc = tmp_path / "family.fam"
    doc.write_text(text)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["global", str(doc)]) == 0
    finally:
        tracer.uninstall()
    _total, _own, calls = tracer.times()
    return calls, tracer.counts


def test_n_global_records_the_solver_span_where_the_descent_misses(tmp_path, capsys):
    """N makes the same one solver call as Q where its first descent
    misses a cell, so the traced run sees it; where the descent meets
    every cell, on the digit-token cycle and on an acyclic path, it makes
    none."""
    join, _cells = family._support_join(formats.parse_family(DESCENT_MISSES))
    calls, counts = traced_global(tmp_path, DESCENT_MISSES)
    assert calls["feasibility.solve"] == 1
    assert counts["feasibility.unknowns_max"] == len(join) == 4
    cycle = (
        "monoid N\n"
        "context x y\n9 9 : 2\n9 10 : 1\n10 100 : 1\n100 9 : 1\n"
        "context y z\n9 9 : 3\n10 10 : 1\n100 100 : 1\n"
        "context x z\n9 9 : 2\n9 10 : 1\n10 100 : 1\n100 9 : 1\n"
    )
    path = (
        "monoid N\n"
        "context x y\n0 0 : 2\n0 1 : 1\n1 1 : 2\n"
        "context y z\n0 0 : 1\n0 1 : 1\n1 0 : 2\n1 1 : 1\n"
        "context z w\n0 0 : 2\n0 1 : 1\n1 1 : 2\n"
    )
    for text in (cycle, path):
        calls, counts = traced_global(tmp_path, text)
        assert calls.get("feasibility.solve", 0) == 0
        assert counts["feasibility.unknowns_max"] == 0
    assert capsys.readouterr().out.count("globally consistent\n") == 3
