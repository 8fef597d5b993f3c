"""Text format round-trips and positioned diagnostics."""

from typing import List, Set, Tuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctxfam.family import ContextualFamily, LocalConsistencyError
from ctxfam.fdlogic import FD
from ctxfam.formats import (
    FormatError,
    _lines,
    _read_block,
    _read_lines,
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
from ctxfam.relation import Assignment, KRelation

from conftest import CS_EXT_ROWS, ST_ROWS, TC_ROWS, brel, wrel
from row_reference import significant_lines

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
            ("monoid N\ncontext x y\n0 :\n", 3, "expected a single annotation after ':'"),
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
            ("monoid N\ncontext y x\n" + "".join(f"v{i} w{i % 7} : 1\n" for i in range(60)) + "v60 context : 1\n"
             + "".join(f"v{i} w0 : 1\n" for i in range(61, 64)), 63, "row value 'context' is a reserved word"),
            ("monoid N\ncontext x y\n" + "".join(f"v{i} w1 w2 : 1\n" if i == 197 else f"v{i} w{i % 7} : {1 + i % 3}\n"
                                                 for i in range(200)), 200, "row has 3 values for context of arity 2"),
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


class TestWriterRefusesUnreadableText:
    """The document writers refuse a name or value that the parser would
    read back as something else or not at all."""

    @staticmethod
    def one_row(variable, value):
        return ContextualFamily([brel((variable,), [(value,)])])

    @pytest.mark.parametrize(
        "value",
        ["a#b", "", "a b", "a\tb", ":", "context", "monoid"],
        ids=["hash", "empty", "space", "tab", "colon", "context", "monoid"],
    )
    def test_value(self, value):
        message = f"row x={value} holds value {value!r}, which cannot be written in a family document"
        with pytest.raises(ValueError) as err:
            serialize_family(self.one_row("x", value))
        assert str(err.value) == message

    @pytest.mark.parametrize("variable", ["a#b", "", "a b"], ids=["hash", "empty", "space"])
    def test_variable(self, variable):
        with pytest.raises(ValueError, match=f"^variable {variable!r} cannot be written in a family document$"):
            serialize_relation(brel((variable,), [("0",)]))

    @pytest.mark.parametrize("variable", [":", "context", "monoid"])
    def test_variables_the_parser_reads_back(self, variable):
        # A context line names variables only, so these round-trip.
        family = self.one_row(variable, "0")
        assert parse_family(serialize_family(family)) == family

    def test_values_with_a_colon_or_a_reserved_word_inside_round_trip(self):
        family = self.one_row("x", "a:b")
        assert parse_family(serialize_family(family)) == family
        family = ContextualFamily([brel(("x", "y"), [("contexts", "monoids")])])
        assert parse_family(serialize_family(family)) == family

    def test_the_first_row_holding_a_refused_value_is_named(self):
        relation = brel(("x", "y"), [("0", "1"), ("1", "a b"), ("2", "#"), ("3", "a b")])
        with pytest.raises(ValueError, match=r"^row x=1,y=a b holds value 'a b'"):
            serialize_relation(relation)

    def test_a_decomposition_refuses_too(self):
        family = ContextualFamily([brel(("x",), [("a b",)])])
        with pytest.raises(ValueError, match="holds value 'a b'"):
            serialize_decomposition([(MonoidValue.one(MonoidKind.N), family)])


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
            ("y -> x#1", "'#' starts a comment"),
            ("x -> y # note", "'#' starts a comment"),
            ("#", "'#' starts a comment"),
        ],
    )
    def test_parse_fd_rejections(self, text, fragment):
        with pytest.raises(FormatError) as excinfo:
            parse_fd(text)
        assert fragment in str(excinfo.value)

    def test_hash_error_keeps_its_line(self):
        with pytest.raises(FormatError) as excinfo:
            parse_fd("y -> x#1", 7)
        assert excinfo.value.line == 7

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
            assert parse_fd(str(fd)) == fd

    @pytest.mark.parametrize("text", ["a cd -> y", "A cd -> y", "x -> cd"])
    def test_cd_after_the_least_variable_is_a_variable(self, text):
        """``cd`` is refused only where the display would start with it."""
        fd = parse_fd(text)
        assert "cd" in fd.lhs | fd.rhs and not fd.is_cd
        assert parse_fd(str(fd)) == fd

    def test_display_of_a_document(self):
        fds = [FD.unary("x", "y"), FD.cd(["x", "y"])]
        assert [str(fd) for fd in fds] == ["x -> y", "cd x y"]
        assert parse_fds("x -> y\ncd x y\n") == fds

    @given(st.lists(st.sampled_from(["x", "y", "a", "cd", "->"]), min_size=1, max_size=5))
    def test_every_accepted_dependency_reads_back(self, tokens):
        """A dependency the parser accepts is written back as itself, so
        the reserved words never reach the dependency's variables."""
        try:
            fd = parse_fd(" ".join(tokens))
        except FormatError:
            return
        assert parse_fd(str(fd)) == fd

    NAMES = st.sampled_from(["", " ", "a b", "a#", "->", "cd", "x", "y"])

    @given(NAMES, NAMES, st.lists(NAMES, min_size=1, max_size=4))
    def test_builders_accept_what_reads_back(self, x, y, variables):
        """``FD.unary`` and ``FD.cd`` build a dependency exactly when its
        text reads back as itself; the constructor checks nothing."""
        for build, plain in (
            (lambda: FD.unary(x, y), FD(frozenset({x}), frozenset({y}))),
            (lambda: FD.cd(variables), FD(frozenset(variables), frozenset(variables))),
        ):
            try:
                back = parse_fd(str(plain))
            except FormatError:
                back = None
            if back == plain:
                assert build() == plain
            else:
                with pytest.raises(ValueError, match="cannot be written|may not lead"):
                    build()

    @pytest.mark.parametrize("x", ["a b", "a#", ""])
    def test_builders_refuse_unreadable_names(self, x):
        # "a b -> c" reads back as {a, b} -> c; the others do not parse
        with pytest.raises(ValueError, match="cannot be written in a dependency"):
            FD.unary(x, "c")
        with pytest.raises(ValueError, match="cannot be written in a dependency"):
            FD.cd([x, "c"])


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
    Assignment per row, rows listed in the order of their pairs.  Returns the
    variables, kind and row list of each context."""
    lines = significant_lines(text)
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
        (frozenset(variables), kind, sorted(block, key=lambda kv: kv[0].items()))
        for (_, variables), block in zip(blocks, rows)
    ]


TOKENS = st.sampled_from(["0", "1", "10", "2", "9", "01", "a", "B", "b", "c", "a:b", 'x"y'])
RESERVED_TOKENS = st.sampled_from(["0", "a", "b", "context", "monoid", "a:b", 'x"y'])
GOOD_WEIGHTS = {"B": [None, "1"], "N": [None, "1", "2", "3"], "Q": [None, "1", "3/2", "2"]}
BAD_WEIGHTS = ["0", "1/0", "2/3x", "1 2", ""]


MARGINS = st.sampled_from(["", "", "", " ", "\t", " \t "])
SEPARATORS = st.sampled_from([" "] * 4 + ["\t", "  ", " \t"])
COMMENTS = st.sampled_from(["#", "# a note", "#context x", " # 1 : 2", "\t# monoid B"])
ENDINGS = st.sampled_from(["\n"] * 3 + ["\r\n"])


def laid_out(draw, lines: List[List[str]]) -> str:
    r"""The token lines as text: each line with margins of spaces and
    tabs, tokens parted by spaces or tabs, sometimes a trailing comment,
    and ``\n`` or ``\r\n`` ending it.  Blank, whitespace-only and
    comment lines fall before about one line in ten, so the line numbers
    count lines that hold no tokens."""
    text = []
    for tokens in lines:
        while draw(st.integers(0, 9)) == 9:
            text.append(draw(MARGINS) + draw(st.sampled_from(["", "", "# a comment line"])))
        line = draw(MARGINS) + draw(SEPARATORS).join(tokens) + draw(MARGINS)
        if draw(st.integers(0, 4)) == 4:
            line += draw(COMMENTS)
        text.append(line)
    return "".join(line + draw(ENDINGS) for line in text)


@st.composite
def documents(draw, tokens=TOKENS):
    """Family documents of every kind, mostly well formed; contexts may be
    empty, declared out of sorted order, or repeated, and about one row in
    twenty has the wrong arity or a bad annotation.  Row values are drawn
    from ``tokens``.  Lines are laid out by :func:`laid_out`."""
    kind = draw(st.sampled_from("BNQ"))
    lines = [["monoid", kind]]
    for _ in range(draw(st.integers(1, 3))):
        variables = draw(
            st.lists(st.sampled_from(["y", "x", "z10", "z2"]), min_size=1, max_size=3, unique=True)
        )
        lines.append(["context", *variables])
        for _ in range(draw(st.integers(0, 6))):
            arity = len(variables) + draw(st.sampled_from([0] * 38 + [-1, 1]))
            values = draw(st.lists(tokens, min_size=arity, max_size=arity))
            pool = GOOD_WEIGHTS[kind] if draw(st.integers(0, 39)) else BAD_WEIGHTS
            weight = draw(st.sampled_from(pool))
            lines.append(values + ([] if weight is None else [":", weight]))
    return laid_out(draw, lines)


FD_VARIABLES = st.sampled_from(["x", "y", "z", "a", "cd"])
FD_LINES = st.one_of(
    st.builds(lambda lhs, rhs: lhs + ["->"] + rhs, *[st.lists(FD_VARIABLES, min_size=1, max_size=2)] * 2),
    st.builds(lambda variables: ["cd"] + variables, st.lists(FD_VARIABLES, max_size=3)),
    st.lists(st.sampled_from(["x", "y", "cd", "->"]), max_size=4),
)


@st.composite
def dependency_documents(draw):
    """Dependency documents of up to six lines, mostly well formed: about
    one line in three is a random token list.  Lines are laid out by
    :func:`laid_out`."""
    return laid_out(draw, draw(st.lists(FD_LINES, max_size=6)))


def reference_parse_fds(text: str):
    """``parse_fds`` before it read tokens: ``parse_fd`` on each line of the
    reference line reader."""
    out = [parse_fd(line, number) for number, line in significant_lines(text)]
    if not out:
        raise FormatError(1, "empty document; expected dependencies")
    return out


def block_documents() -> List[str]:
    """Documents of long uniform blocks, the shape the block reader reads
    as columns: blocks of 60 rows with one row mutated near the end, so
    the error must be found by line; blocks mixing weighted and
    unweighted rows; contexts declared out of sorted order and contexts
    of one variable; comments, tabs and ``\r\n`` endings."""

    def rows(kind: str, arity: int, weighted: bool, count: int = 60) -> List[str]:
        weight = {"B": "1", "N": "2", "Q": "3/2"}[kind]
        out = []
        for i in range(count):
            values = [f"v{i}"] + [f"w{i % 3 * (j + 1)}" for j in range(arity - 1)]
            out.append(" ".join(values) + (f" : {weight}" if weighted else ""))
        return out

    mutations = [
        lambda row: row.rsplit(" ", 1)[0] if " : " not in row else row.split(" ", 1)[1],  # arity
        lambda row: row + " :",  # a stray ':'
        lambda row: row + " : 1 : 2",  # a second ':'
        lambda row: row.split(" : ")[0] + " : x",  # a bad weight
        lambda row: row.split(" : ")[0] + " : 0",  # a zero weight
        lambda row: row.split(" : ")[0] + " : :",  # ':' as the weight
        lambda row: "v0" + row[row.index(" ") :] if " " in row else "v0",  # the first row again, or its weight changed
        lambda row: "monoid N",  # a monoid line in the block
        lambda row: "context",  # a context with no variables
    ]
    # A reserved word is refused only once every block has read cleanly,
    # which the reference does not know: it must meet the later block's
    # error first.
    reserved = [
        lambda row: row.replace(" ", " context ", 1).rsplit(" ", 1)[0] if " " in row else "x context",
        lambda row: row.replace(" ", " monoid ", 1).rsplit(" ", 1)[0] if " " in row else "x monoid",
    ]
    texts = []
    for kind, variables, weighted in [("N", "x y", True), ("B", "y x", False), ("Q", "z2 x y", True),
                                      ("N", "y", False), ("Q", "x", True), ("B", "z10 z2", True)]:
        arity = len(variables.split())
        block = rows(kind, arity, weighted)
        clean = ["monoid " + kind, "context " + variables, *block, "context q", *rows(kind, 1, not weighted)]
        texts.append("\n".join(clean) + "\n")
        for mutate in mutations + reserved:
            broken = list(block)
            broken[-3] = mutate(broken[-3])
            # A later block with a wrong row: an error in the first block comes first.
            texts.append("\n".join(["monoid " + kind, "context " + variables, *broken,
                                    "context q", "a b"]) + "\n")
            if mutate not in reserved:
                texts.append("\n".join(["monoid " + kind, "context " + variables, *broken]) + "\n")
    mixed = ["monoid N", "context y x"] + [f"v{i} w{i % 5}" + (f" : {1 + i % 3}" if i % 4 else "")
                                            for i in range(60)]
    texts.append("\n".join(mixed) + "\n")
    texts.append("\n".join(mixed + ["v7 w2 : 3"]) + "\n")  # a duplicate across the two kinds of row
    texts.append("\n".join(mixed[:40] + ["v99 w1 w3"] + mixed[40:]) + "\n")
    laid = ["# a long block", "monoid Q  # kind", "\tcontext z x  # out of order"]
    laid += [f"\t{'v%d' % i}\t w{i % 3} : {i + 1}/2  # row {i}" if i % 2 else f"  v{i} w{i % 3}  "
             for i in range(60)]
    laid += ["", "  # a comment line", "context y", *[f"u{i}" for i in range(55)]]
    texts.append("\r\n".join(laid) + "\r\n")
    texts.append("\r\n".join(laid[:-4] + ["u3 : 0"] + laid[-4:]) + "\r\n")
    return texts


def with_examples(texts: List[str]):
    """Run a ``@given`` test on each of ``texts`` as well."""

    def decorate(test):
        for text in reversed(texts):
            test = example(text)(test)
        return test

    return decorate


@st.composite
def one_width_documents(draw):
    """One-context documents of B, N or Q whose rows all have one width:
    arity 1-3, every row weighted or none, about one weight in twenty
    bad, and rows drawn from few values, so some repeat.  Lines are laid
    out by :func:`laid_out`."""
    kind = draw(st.sampled_from("BNQ"))
    variables = draw(st.lists(st.sampled_from(["y", "x", "z10", "z2"]), min_size=1, max_size=3, unique=True))
    weighted = draw(st.booleans())
    lines = [["monoid", kind], ["context", *variables]]
    for _ in range(draw(st.integers(0, 12))):
        values = draw(st.lists(TOKENS, min_size=len(variables), max_size=len(variables)))
        pool = GOOD_WEIGHTS[kind][1:] if draw(st.integers(0, 19)) else ["0", "1/0", "2/3x"]
        lines.append(values + ([":", draw(st.sampled_from(pool))] if weighted else []))
    return laid_out(draw, lines)


def check_readers_agree(text: str) -> Set[str]:
    """Read each context block of a family document with both readers:
    the column reader must decline it or read exactly the line reader's
    store, must read a well-formed block of one width with no ``monoid``
    row, and must decline every other block.  Returns which of those
    others were met: ``"widths"``, ``"monoid"``."""
    lines = _lines(text)
    kind = MonoidKind(next(filter(None, lines)).split()[1])
    one = MonoidValue.one(kind).payload
    heads = [i for i, line in enumerate(lines) if line.split()[:1] == ["context"]]
    met = set()
    for head, end in zip(heads, heads[1:] + [len(lines)]):
        variables = tuple(lines[head].split()[1:])
        if not variables or len(set(variables)) != len(variables):
            continue
        rows = list(filter(None, lines[head + 1 : end]))
        try:
            by_line = _read_lines(kind, variables, lines, head + 1, end, one, {})
        except FormatError:
            by_line = None
        by_column = _read_block(kind, variables, rows, one, {})
        assert by_column is None or by_column == by_line
        if len(set(len(row.split()) for row in rows)) > 1:
            met.add("widths")
            assert by_column is None
        elif any(row.split()[0] == "monoid" for row in rows):
            met.add("monoid")
            assert by_column is None
        elif by_line is not None:
            assert by_column == by_line
    return met


class TestColumnReaderContract:
    @given(one_width_documents())
    def test_generated_one_width_blocks(self, text):
        check_readers_agree(text)

    def test_block_documents(self):
        met = [check_readers_agree(text) for text in block_documents()]
        assert sum("widths" in m for m in met) >= 3
        assert sum("monoid" in m for m in met) >= 2


class Text(str):
    """A ``str`` subclass for document text.  The reader's tokens are
    exact ``str`` because ``splitlines`` returns ``str``; ``str.partition``
    would return a line of this type itself when it holds no ``#``."""


class TestAgreesWithPerRowReference:
    @given(documents())
    @with_examples(block_documents())
    @example(Text("monoid Q  # kind\ncontext y x\nb a : 1/2\na b # no weight\nc\tc : 3\ncontext z\nw\n"))
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
        # The reader's relations skip the constructor's per-row tests, and
        # would pass them: exact tuples of exact str, in row order.
        for r in relations:
            assert KRelation(r.variables, r.kind, dict(r._rows)) == r
            assert all(type(key) is tuple and all(type(value) is str for value in key) for key in r._rows)
            assert list(r._rows) == sorted(r._rows)

    @given(dependency_documents())
    def test_parse_fds(self, text):
        try:
            expected = reference_parse_fds(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as new:
                parse_fds(text)
            assert (new.value.line, new.value.message) == (exc.line, exc.message)
            return
        assert parse_fds(text) == expected

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
