"""Text format round-trips and positioned diagnostics."""

from typing import List, Set, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxfam.family import ContextualFamily, LocalConsistencyError
from ctxfam.fdlogic import FD
from ctxfam.formats import (
    FormatError,
    _significant_lines,
    parse_family,
    parse_fd,
    parse_fds,
    parse_relations,
    serialize_decomposition,
    serialize_family,
    serialize_relation,
)
from ctxfam.monoid import MonoidKind, MonoidValue, parse_value
from ctxfam.realisability import decompose_cycles, realise
from ctxfam.relation import Assignment

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
            ("monoid N\ncontext x y\n0 0 : 1\n0 1 : \u0661\n", 4, "decimal digits"),
            ("monoid Q\ncontext x\n0 : \u00b2\n", 3, "digits or p/q"),
            ("context x\n0\n", 1, "expected 'monoid B|N|Q' on the first line"),
            ("monoid B\ncontext b a\nx context\n", 3, "row value 'context' is a reserved word"),
            ("monoid B\ncontext b a\ny y\nx monoid\n", 4, "row value 'monoid' is a reserved word"),
            ("monoid N\ncontext x\n0\ncontext y z\n0 0 : 2\n0 monoid : 1\n", 6, "'monoid' is a reserved"),
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
            ("cd x -> y", "'->' is reserved"),
            ("cd -> y", "'->' is reserved"),
            ("x cd -> y", "'cd' is reserved"),
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

    def test_display_round_trip(self):
        for fd in (FD.unary("x", "y"), FD.cd(["b", "a"]), FD(frozenset({"p", "q"}), frozenset({"r"}))):
            assert parse_fd(fd.display()) == fd

    @pytest.mark.parametrize("text", ["a cd -> y", "A cd -> y", "x -> cd"])
    def test_cd_after_the_least_variable_is_a_variable(self, text):
        """``cd`` is refused only where the display would start with it."""
        fd = parse_fd(text)
        assert "cd" in fd.lhs | fd.rhs and not fd.is_cd
        assert parse_fd(fd.display()) == fd

    def test_display_of_a_document(self):
        fds = [FD.unary("x", "y"), FD.cd(["x", "y"])]
        assert [fd.display() for fd in fds] == ["x -> y", "cd x y"]
        assert parse_fds("x -> y\ncd x y\n") == fds

    @given(st.lists(st.sampled_from(["x", "y", "a", "cd", "->"]), min_size=1, max_size=5))
    def test_every_accepted_dependency_reads_back(self, tokens):
        """A dependency the parser accepts is written back as itself, so
        the reserved words never reach the dependency's variables."""
        try:
            fd = parse_fd(" ".join(tokens))
        except FormatError:
            return
        assert parse_fd(fd.display()) == fd


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


def reference_parse(text: str):
    """The parser before rows by position, kept as the reference: one
    Assignment per row, rows listed in ``sort_key`` order.  Returns the
    variables, kind and row list of each context."""
    lines = _significant_lines(text)
    if not lines:
        raise FormatError(1, "empty document; expected a monoid line")
    number, first = lines[0]
    parts = first.split()
    if parts[0] != "monoid" or len(parts) != 2:
        raise FormatError(number, "expected 'monoid B|N|Q' on the first line")
    try:
        kind = MonoidKind(parts[1])
    except ValueError:
        raise FormatError(number, f"unknown monoid {parts[1]!r}") from None
    blocks: List[Tuple[int, Tuple[str, ...]]] = []
    rows: List[list] = []
    seen: Set[Assignment] = set()
    for number, line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "monoid":
            raise FormatError(number, "duplicate monoid line")
        if tokens[0] == "context":
            variables = tuple(tokens[1:])
            if not variables:
                raise FormatError(number, "context needs at least one variable")
            if len(set(variables)) != len(variables):
                raise FormatError(number, "context repeats a variable")
            if any(frozenset(variables) == frozenset(b) for _, b in blocks):
                raise FormatError(number, "duplicate context")
            blocks.append((number, variables))
            rows.append([])
            seen = set()
            continue
        if not blocks:
            raise FormatError(number, "row appears before any context line")
        variables = blocks[-1][1]
        if ":" in tokens:
            cut = tokens.index(":")
            values, weight_tokens = tokens[:cut], tokens[cut + 1 :]
            if len(weight_tokens) != 1:
                raise FormatError(number, "expected a single annotation after ':'")
            try:
                weight = parse_value(kind, weight_tokens[0])
            except ValueError as exc:
                raise FormatError(number, str(exc)) from None
        else:
            values = tokens
            weight = MonoidValue.one(kind)
        if len(values) != len(variables):
            raise FormatError(
                number,
                f"row has {len(values)} values for context of arity {len(variables)}",
            )
        if weight.is_zero:
            raise FormatError(number, "zero annotation: omit the row instead")
        assignment = Assignment(zip(variables, values))
        if assignment in seen:
            raise FormatError(number, f"duplicate row {assignment}")
        seen.add(assignment)
        rows[-1].append((assignment, weight))
    if not blocks:
        raise FormatError(lines[-1][0], "document declares no context")
    return [
        (frozenset(variables), kind, sorted(block, key=lambda kv: kv[0].sort_key))
        for (_, variables), block in zip(blocks, rows)
    ]


TOKENS = st.sampled_from(["0", "1", "10", "2", "9", "01", "a", "B", "b", "c", "a:b", 'x"y'])
RESERVED_TOKENS = st.sampled_from(["0", "a", "b", "context", "monoid", "a:b", 'x"y'])
GOOD_WEIGHTS = {"B": [None, "1"], "N": [None, "1", "2", "3"], "Q": [None, "1", "3/2", "2"]}
BAD_WEIGHTS = ["0", "1/0", "2/3x", "1 2", ""]


@st.composite
def documents(draw, tokens=TOKENS):
    """Family documents of every kind, mostly well formed; contexts may be
    empty, declared out of sorted order, or repeated, and about one row in
    twenty has the wrong arity or a bad annotation.  Row values are drawn
    from ``tokens``."""
    kind = draw(st.sampled_from("BNQ"))
    lines = ["monoid " + kind]
    for _ in range(draw(st.integers(1, 3))):
        variables = draw(
            st.lists(st.sampled_from(["y", "x", "z10", "z2"]), min_size=1, max_size=3, unique=True)
        )
        lines.append("context " + " ".join(variables))
        for _ in range(draw(st.integers(0, 6))):
            arity = len(variables) + draw(st.sampled_from([0] * 38 + [-1, 1]))
            values = draw(st.lists(tokens, min_size=arity, max_size=arity))
            pool = GOOD_WEIGHTS[kind] if draw(st.integers(0, 39)) else BAD_WEIGHTS
            weight = draw(st.sampled_from(pool))
            lines.append(" ".join(values) + ("" if weight is None else " : " + weight))
    return "\n".join(lines) + "\n"


class TestAgreesWithPerRowReference:
    @given(documents())
    def test_parse_relations(self, text):
        try:
            expected = reference_parse(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as new:
                parse_relations(text)
            assert (new.value.line, new.value.message) == (exc.line, exc.message)
            return
        relations = parse_relations(text)
        assert [(r.variables, r.kind, list(r.rows())) for r in relations] == expected

    @given(documents(RESERVED_TOKENS))
    def test_every_accepted_document_reads_back(self, text):
        """Rows are written back in sorted variable order, so a reserved
        word as a row value could open a line; the parser refuses it."""
        try:
            relations = parse_relations(text)
        except FormatError:
            return
        for relation in relations:
            assert parse_relations(serialize_relation(relation)) == [relation]

    def test_duplicate_row_names_the_row_in_variable_order(self):
        text = "monoid N\ncontext z2 x y\n1 0 a\n2 0 a : 3\n1 0 a : 2\n"
        with pytest.raises(FormatError) as new:
            parse_relations(text)
        with pytest.raises(FormatError) as old:
            reference_parse(text)
        assert (new.value.line, new.value.message) == (old.value.line, old.value.message)
        assert new.value.message == "duplicate row x=0,y=a,z2=1"

    def test_empty_context_is_an_empty_relation(self):
        relations = parse_relations("monoid Q\ncontext y x\ncontext z\n4 : 1/2\n")
        assert len(relations[0]) == 0
        assert [(r.variables, r.kind, list(r.rows())) for r in relations] == reference_parse(
            "monoid Q\ncontext y x\ncontext z\n4 : 1/2\n"
        )
