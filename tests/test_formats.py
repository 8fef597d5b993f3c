"""Text format round-trips and positioned diagnostics."""

import pytest

from ctxfam.family import ContextualFamily, LocalConsistencyError
from ctxfam.fdlogic import FD
from ctxfam.formats import (
    FormatError,
    parse_family,
    parse_fd,
    parse_fds,
    parse_relations,
    serialize_decomposition,
    serialize_family,
    serialize_fd,
    serialize_fds,
    serialize_relation,
)
from ctxfam.monoid import MonoidKind
from ctxfam.realisability import decompose_cycles, realise

from conftest import CS_EXT_ROWS, ST_ROWS, TC_ROWS, brel, wrel

TEACHING_TEXT = """\
monoid B
context Student Teacher
Alice Charlie
Bob David
context Teacher Course
Charlie Math
David CS
context Course Student
Math Alice
CS Alice
CS Bob
"""


class TestParseRelations:
    def test_boolean_family_document(self):
        relations = parse_relations(TEACHING_TEXT)
        assert [sorted(r.variables) for r in relations] == [
            ["Student", "Teacher"],
            ["Course", "Teacher"],
            ["Course", "Student"],
        ]
        assert all(r.kind is MonoidKind.B for r in relations)
        assert len(relations[2]) == 3

    def test_weighted_rows_and_default_annotation(self):
        text = "monoid Q\ncontext x y\n0 1 : 3/2\n1 0\n"
        (relation,) = parse_relations(text)
        weights = {str(row): value.payload for row, value in relation.rows()}
        assert weights == {"x=0,y=1": pytest.approx(1.5), "x=1,y=0": 1}

    def test_comments_and_blank_lines_ignored(self):
        text = "# family\nmonoid N\n\ncontext x\n0 : 2  # annotated\n"
        (relation,) = parse_relations(text)
        assert relation.total().payload == 2


class TestParseDiagnostics:
    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("", 1, "empty document"),
            ("monoid R\ncontext x\n0\n", 1, "unknown monoid 'R'"),
            ("monoid B\nmonoid B\ncontext x\n0\n", 2, "duplicate monoid line"),
            ("monoid B\ncontext x x\n0 0\n", 2, "repeats a variable"),
            ("monoid B\ncontext x\n0\ncontext x\n1\n", 4, "duplicate context"),
            ("monoid B\n0 1\n", 2, "row appears before any context"),
            ("monoid B\ncontext x y\n0\n", 3, "row has 1 values for context of arity 2"),
            ("monoid N\ncontext x\n0 : 0\n", 3, "zero annotation"),
            ("monoid B\ncontext x y\n0 1\n0 1\n", 4, "duplicate row"),
            ("monoid B\n", 1, "document declares no context"),
            ("monoid N\ncontext x\n0 : 1/2\n", 3, "decimal digits"),
            ("context x\n0\n", 1, "expected 'monoid B|N|Q' on the first line"),
        ],
    )
    def test_error_carries_line_and_message(self, text, line, fragment):
        with pytest.raises(FormatError) as excinfo:
            parse_relations(text)
        assert excinfo.value.line == line
        assert fragment in str(excinfo.value)

    def test_line_numbers_skip_comments(self):
        text = "# one\n# two\nmonoid B\ncontext x\n\n0\n0\n"
        with pytest.raises(FormatError) as excinfo:
            parse_relations(text)
        assert excinfo.value.line == 7

    def test_duplicate_deep_in_a_large_block(self):
        rows = [f"a{i} b{i} : 1" for i in range(5000)]
        text = "\n".join(
            ["monoid N", "context x y", *rows, "a3210 b3210 : 2", "context z", "c"]
        )
        with pytest.raises(FormatError) as excinfo:
            parse_relations(text)
        assert excinfo.value.line == 5003
        assert excinfo.value.message == "duplicate row x=a3210,y=b3210"

    def test_parse_family_validates_consistency(self):
        text = (
            "monoid N\n"
            "context Student Teacher\nAlice Charlie\nBob David\n"
            "context Teacher Course\nCharlie Math\nDavid CS\n"
            "context Course Student\nMath Alice\nCS Alice\nCS Bob\n"
        )
        with pytest.raises(LocalConsistencyError) as excinfo:
            parse_family(text)
        assert "Course=CS" in str(excinfo.value.violation.describe())


class TestSerializeRoundTrips:
    def test_family_document_is_canonical_and_round_trips(self):
        family = ContextualFamily(
            [brel(("Teacher", "Student"), [(t, s) for s, t in ST_ROWS])]
        )
        text = serialize_family(family)
        assert text.splitlines()[0] == "monoid B"
        assert text.splitlines()[1] == "context Student Teacher"
        assert parse_family(text) == family

    def test_weighted_round_trip(self):
        family = ContextualFamily(
            [
                wrel(MonoidKind.Q, ("x", "y"), [(("0", "1"), "3/2"), (("1", "0"), "1")]),
                wrel(MonoidKind.Q, ("y", "z"), [(("1", "0"), "3/2"), (("0", "1"), "1")]),
            ]
        )
        assert parse_family(serialize_family(family)) == family

    def test_serialisation_is_sorted(self):
        family = ContextualFamily(
            [brel(("b", "a"), [("1", "0"), ("0", "1")]), brel(("c",), [("0",)])]
        )
        lines = serialize_family(family).splitlines()
        assert lines == ["monoid B", "context a b", "0 1", "1 0", "context c", "0"]

    def test_relation_round_trip(self):
        relation = wrel(MonoidKind.N, ("x", "y"), [(("0", "0"), "2")])
        (back,) = parse_relations(serialize_relation(relation))
        assert back == relation

    def test_random_families_round_trip(self):
        import random

        from ctxfam.fdlogic import random_family_satisfying

        from conftest import random_weighted_family

        rng = random.Random(11)
        premises = [FD.cd(["x", "y"]), FD.cd(["y", "z"])]
        seen = 0
        for _ in range(25):
            family = random_family_satisfying(premises, rng)
            if family is None:
                continue
            assert parse_family(serialize_family(family)) == family
            seen += 1
        for kind in (MonoidKind.N, MonoidKind.Q):
            for _ in range(15):
                family = random_weighted_family([FD.cd(["x", "y"])], {"x", "y"}, kind, rng)
                if family is None:
                    continue
                assert parse_family(serialize_family(family)) == family
                seen += 1
        assert seen > 30


class TestDependencyFormats:
    def test_parse_fd_forms(self):
        assert parse_fd("x -> y") == FD.unary("x", "y")
        assert parse_fd("cd x y z") == FD.cd(["x", "y", "z"])
        assert parse_fd("a b -> c") == FD(frozenset({"a", "b"}), frozenset({"c"}))

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty dependency"),
            ("cd", "cd needs at least one variable"),
            ("x -> y -> z", "exactly one '->'"),
            ("-> y", "variables on both sides"),
        ],
    )
    def test_parse_fd_rejections(self, text, fragment):
        with pytest.raises(FormatError) as excinfo:
            parse_fd(text)
        assert fragment in str(excinfo.value)

    def test_parse_fds_document(self):
        text = "# premises\nx -> y\n\ncd x y z\n"
        assert parse_fds(text) == [FD.unary("x", "y"), FD.cd(["x", "y", "z"])]

    def test_parse_fds_positions_errors(self):
        with pytest.raises(FormatError) as excinfo:
            parse_fds("x -> y\ncd\n")
        assert excinfo.value.line == 2

    def test_parse_fds_empty(self):
        with pytest.raises(FormatError):
            parse_fds("# nothing\n")

    def test_serialize_fd_round_trip(self):
        for fd in (FD.unary("x", "y"), FD.cd(["b", "a"]), FD(frozenset({"p", "q"}), frozenset({"r"}))):
            assert parse_fd(serialize_fd(fd)) == fd

    def test_serialize_fds(self):
        fds = [FD.unary("x", "y"), FD.cd(["x", "y"])]
        assert serialize_fds(fds) == "x -> y\ncd x y\n"


class TestDecompositionOutput:
    def test_empty(self):
        assert serialize_decomposition([]) == ""

    def test_realisation_decomposition_reads_back(self):
        family = ContextualFamily(
            [
                brel(("Student", "Teacher"), ST_ROWS),
                brel(("Teacher", "Course"), TC_ROWS),
                brel(("Course", "Student"), CS_EXT_ROWS),
            ]
        )
        weighted = realise(family, MonoidKind.Q)
        parts = decompose_cycles(weighted)
        text = serialize_decomposition(parts)
        blocks = [l for l in text.splitlines() if l.startswith("cycle ")]
        assert len(blocks) == len(parts)
        for index, (weight, _) in enumerate(parts, start=1):
            assert f"cycle {index} weight" in blocks[index - 1]
