"""Command-line interface: exit codes, verdict lines, and file outputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctxfam import fdlogic, feasibility, realisability
from ctxfam.cli import main
from ctxfam.formats import FormatError, parse_family, parse_fd, parse_relations, serialize_family
from ctxfam.monoid import MonoidKind, MonoidValue, parse_value

from conftest import DESCENT_MISSES, grid_document
from test_monoid import LONGEST, TOO_LONG

TEACHING = """\
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

EXTENDED = TEACHING.replace("Math Alice\n", "Math Alice\nMath Bob\n")

TRANSITIVITY = "x -> y\ny -> z\n"
CHAIN = "x -> y\ny -> z\ncd x y z\n"


@pytest.fixture
def teaching(tmp_path):
    path = tmp_path / "teaching.fam"
    path.write_text(TEACHING)
    return str(path)


@pytest.fixture
def extended(tmp_path):
    path = tmp_path / "extended.fam"
    path.write_text(EXTENDED)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_consistent(self, capsys, teaching):
        code, out, _ = run(capsys, "check", teaching)
        assert code == 0
        assert out.splitlines()[0] == "locally consistent"

    def test_inconsistent_names_the_disagreement(self, capsys, tmp_path):
        path = tmp_path / "broken.fam"
        path.write_text(
            "monoid B\n"
            "context Student Teacher\nAlice Charlie\n"
            "context Teacher Course\nCharlie Math\nDavid CS\n"
        )
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "locally inconsistent"
        assert "Teacher=David" in lines[1]

    @pytest.mark.parametrize("weight", ["1", "2"])
    def test_nested_contexts_refused_whatever_the_weights(self, capsys, tmp_path, weight):
        path = tmp_path / "nested.fam"
        path.write_text(f"monoid N\ncontext x\n0 : {weight}\ncontext x y\n0 0 : 2\n")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: context ['x'] is contained in ['x', 'y']; "
            "maximal contexts must form an antichain\n"
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.fam"))
        assert code == 2
        assert err.startswith("error: cannot read")

    def test_syntax_error_positions(self, capsys, tmp_path):
        path = tmp_path / "bad.fam"
        path.write_text("monoid B\ncontext x y\n0\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line 3" in err
        assert "arity" in err


# CI's hash-seed documents on acyclic context sets, whose first descent
# meets every cell: a weighted N path of three contexts and a weighted N
# star of three, with their witnesses.
N_PATH = (
    "monoid N\ncontext x y\n0 0 : 2\n0 1 : 1\n1 1 : 2\ncontext y z\n0 0 : 1\n0 1 : 1\n1 0 : 2\n1 1 : 1\n"
    "context z w\n0 0 : 2\n0 1 : 1\n1 1 : 2\n"
)
N_PATH_WITNESS = """\
monoid N
context w x y z
0 0 0 0 : 1
0 0 1 0 : 1
1 0 0 1 : 1
1 1 1 0 : 1
1 1 1 1 : 1
"""
N_STAR = (
    "monoid N\ncontext h a\n0 0 : 1\n0 1 : 2\n1 0 : 2\ncontext h b\n0 0 : 2\n0 1 : 1\n1 1 : 2\n"
    "context h c\n0 0 : 3\n1 0 : 1\n1 1 : 1\n"
)
N_STAR_WITNESS = """\
monoid N
context a b c h
0 0 0 0 : 1
0 1 0 1 : 1
0 1 1 1 : 1
1 0 0 0 : 1
1 1 0 0 : 1
"""
# CI's hash-seed document on which the solver's dual simplex pivots
# twice: a weighted Q 3-cycle, with its global witness and the
# realisation of its support.
Q_PIVOTS = (
    "monoid Q\ncontext x y\n0 0 : 1\n0 1 : 1/2\n1 0 : 1\n1 1 : 2\ncontext x z\n0 0 : 1/2\n0 1 : 1\n1 0 : 1\n1 1 : 2\n"
    "context y z\n0 0 : 1\n0 1 : 1\n1 0 : 1/2\n1 1 : 2\n"
)
Q_PIVOTS_WITNESS = """\
monoid Q
context x y z
0 0 0 : 1/2
0 0 1 : 1/2
0 1 1 : 1/2
1 0 0 : 1/2
1 0 1 : 1/2
1 1 0 : 1/2
1 1 1 : 3/2
"""
Q_PIVOTS_SUPPORT_REALISED = """\
monoid Q
context x y
0 0 : 5
0 1 : 3
1 0 : 3
1 1 : 1
context x z
0 0 : 5
0 1 : 3
1 0 : 3
1 1 : 1
context y z
0 0 : 5
0 1 : 3
1 0 : 3
1 1 : 1
"""


class TestGlobal:
    def test_inconsistent_teaching(self, capsys, teaching):
        code, out, _ = run(capsys, "global", teaching)
        assert code == 1
        assert out.splitlines()[0] == "globally inconsistent"

    def test_boolean_global_needs_exact_projections(self, capsys, extended):
        code, out, _ = run(capsys, "global", extended)
        assert code == 1
        assert out.splitlines()[0] == "globally inconsistent"

    @pytest.mark.parametrize("kind", ["N", "Q"])
    def test_grid_refused_past_the_cell_check(self, capsys, tmp_path, kind):
        path = tmp_path / "grid.fam"
        path.write_text(grid_document(kind))
        assert run(capsys, "global", str(path)) == (1, "globally inconsistent\n", "")

    @pytest.mark.parametrize(
        "document, expected",
        [(N_PATH, N_PATH_WITNESS), (N_STAR, N_STAR_WITNESS)],
        ids=["path", "star"],
    )
    def test_acyclic_witness_pinned(self, capsys, tmp_path, document, expected):
        """CI's hash-seed documents on acyclic context sets, whose N
        witnesses the first descent finds with no tableau."""
        path = tmp_path / "acyclic.fam"
        path.write_text(document)
        assert run(capsys, "global", str(path)) == (0, "globally consistent\n" + expected, "")

    def test_descent_miss_witness_pinned(self, capsys, tmp_path):
        """CI's hash-seed document whose first descent misses a cell: the
        solver and the integer search find its witness."""
        path = tmp_path / "descent.fam"
        path.write_text(DESCENT_MISSES)
        expected = "globally consistent\nmonoid N\ncontext x y z\n0 0 1 : 2\n0 1 0 : 2\n1 0 0 : 1\n"
        assert run(capsys, "global", str(path)) == (0, expected, "")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["global"], "globally consistent\n" + Q_PIVOTS_WITNESS),
            (["realisable", "--monoid", "Q"], "realisable\n" + Q_PIVOTS_SUPPORT_REALISED),
        ],
        ids=["global", "realisable"],
    )
    def test_pivoting_document_pinned(self, capsys, tmp_path, monkeypatch, argv, expected):
        """CI's hash-seed document on which the dual simplex pivots twice
        in ``global``."""
        path = tmp_path / "pivots.fam"
        path.write_text(Q_PIVOTS)
        pivots = []
        entering = feasibility._entering
        monkeypatch.setattr(feasibility, "_entering", lambda *args: pivots.append(args) or entering(*args))
        assert run(capsys, argv[0], str(path), *argv[1:]) == (0, expected, "")
        assert len(pivots) >= (2 if argv[0] == "global" else 0)

    def test_witness_marginalises_to_every_context(self, capsys, tmp_path):
        text = "monoid N\ncontext x y\n0 0 : 2\n1 1 : 1\ncontext y z\n0 1 : 2\n1 0 : 1\n"
        path = tmp_path / "ok.fam"
        path.write_text(text)
        code, out, _ = run(capsys, "global", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "globally consistent"
        (witness,) = parse_relations("\n".join(lines[1:]) + "\n")
        family = parse_family(text)
        for context in family.contexts:
            assert witness.marginalise(context) == family.relation_at(context)


class TestOpg:
    def test_counts_order_and_edges(self, capsys, teaching):
        code, out, _ = run(capsys, "opg", teaching)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "overlap projection graph: 6 vertices, 7 edges"
        assert lines[1] == "cycle order: Course Student | Course Teacher | Student Teacher"
        assert sum(1 for l in lines if l.startswith("vertex ")) == 6
        assert sum(1 for l in lines if l.startswith("edge ")) == 7
        assert "edge 2:Alice -> 0:CS  Course=CS,Student=Alice" in lines

    def test_full_output(self, capsys, teaching):
        code, out, err = run(capsys, "opg", teaching)
        assert (code, err) == (0, "")
        assert out == (
            "overlap projection graph: 6 vertices, 7 edges\n"
            "cycle order: Course Student | Course Teacher | Student Teacher\n"
            "vertex 0:CS\n"
            "vertex 0:Math\n"
            "vertex 1:Charlie\n"
            "vertex 1:David\n"
            "vertex 2:Alice\n"
            "vertex 2:Bob\n"
            "edge 2:Alice -> 0:CS  Course=CS,Student=Alice\n"
            "edge 2:Bob -> 0:CS  Course=CS,Student=Bob\n"
            "edge 2:Alice -> 0:Math  Course=Math,Student=Alice\n"
            "edge 0:CS -> 1:David  Course=CS,Teacher=David\n"
            "edge 0:Math -> 1:Charlie  Course=Math,Teacher=Charlie\n"
            "edge 1:Charlie -> 2:Alice  Student=Alice,Teacher=Charlie\n"
            "edge 1:David -> 2:Bob  Student=Bob,Teacher=David\n"
        )

    def test_output_is_deterministic(self, capsys, teaching):
        first = run(capsys, "opg", teaching)
        second = run(capsys, "opg", teaching)
        assert first == second

    def test_dot_file(self, capsys, teaching, tmp_path):
        dot = tmp_path / "graph.dot"
        code, _, _ = run(capsys, "opg", teaching, "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph opg {")
        assert '  4 [label="2:Alice"];\n' in text
        assert '  0 [label="0:CS"];\n' in text
        assert '  4 -> 0 [label="Course=CS,Student=Alice"];\n' in text

    def test_non_cyclic_arrangement_refused(self, capsys, tmp_path):
        path = tmp_path / "two.fam"
        path.write_text("monoid B\ncontext x y\n0 0\ncontext y z\n0 0\n")
        code, _, err = run(capsys, "opg", str(path))
        assert code == 2
        assert err.startswith("error:")


# CI's hash-seed document with no rows: two B contexts, whose LP is the
# empty system.
EMPTY = "monoid B\ncontext x y\ncontext y z\n"


class TestRealisable:
    def test_uncovered_edge_reported(self, capsys, teaching):
        code, out, _ = run(capsys, "realisable", teaching, "--monoid", "N")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "not realisable"
        assert lines[1] == "uncovered edge: 2:Alice -> 0:CS  Course=CS,Student=Alice"

    def test_extension_carries_witness(self, capsys, extended):
        code, out, _ = run(capsys, "realisable", extended, "--monoid", "Q")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "realisable"
        witness = parse_family("\n".join(lines[1:]) + "\n")
        assert witness.support() == parse_family(EXTENDED)

    @pytest.mark.parametrize("kind", ["N", "Q"])
    def test_lp_refusal_names_no_edge(self, capsys, tmp_path, five_context_family, kind):
        path = tmp_path / "five.fam"
        path.write_text(serialize_family(five_context_family))
        assert run(capsys, "realisable", str(path), "--monoid", kind) == (1, "not realisable\n", "")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["realisable", "--monoid", "Q"], "realisable\nmonoid Q\ncontext x y\ncontext y z\n"),
            (["realisable", "--monoid", "N"], "realisable\nmonoid N\ncontext x y\ncontext y z\n"),
            (["global"], "globally consistent\nmonoid B\ncontext x y z\n"),
        ],
        ids=["realisable-Q", "realisable-N", "global"],
    )
    def test_empty_family_pinned(self, capsys, tmp_path, monkeypatch, argv, expected):
        """The LP of a family with no rows goes through the solver as any
        other, with no row over no column."""
        path = tmp_path / "empty.fam"
        path.write_text(EMPTY)
        calls = []
        solve = realisability.find_rational_solution
        monkeypatch.setattr(realisability, "find_rational_solution", lambda *call: calls.append(call) or solve(*call))
        assert run(capsys, argv[0], str(path), *argv[1:]) == (0, expected, "")
        assert calls == ([([], [], range(0))] if argv[0] == "realisable" else [])

    def test_empty_path_of_three_contexts(self, capsys, tmp_path):
        """Two pairs of empty relations after the first, neither with a
        cell for the LP to leave out."""
        path = tmp_path / "empty3.fam"
        path.write_text("monoid B\ncontext x y\ncontext y z\ncontext z w\n")
        expected = "realisable\nmonoid Q\ncontext w z\ncontext x y\ncontext y z\n"
        assert run(capsys, "realisable", str(path), "--monoid", "Q") == (0, expected, "")

    def test_monoid_flag_required_values(self, capsys, teaching):
        code, _, err = run(capsys, "realisable", teaching, "--monoid", "B")
        assert code == 2
        assert err.startswith("error:")


class TestRealise:
    def test_frozen_half_weight_realisation(self, capsys, extended):
        code, out, _ = run(capsys, "realise", extended, "--monoid", "Q", "--weight", "1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "realisable"
        body = "\n".join(lines[1:]) + "\n"
        assert "CS Alice : 1" in body
        assert "CS Bob : 3/2" in body
        assert "Math Alice : 3/2" in body
        assert "Math Bob : 1" in body
        assert body.count(": 5/2") == 4

    def test_output_file_written(self, capsys, extended, tmp_path):
        target = tmp_path / "weighted.fam"
        code, _, _ = run(
            capsys, "realise", extended, "--monoid", "N", "--output", str(target)
        )
        assert code == 0
        family = parse_family(target.read_text())
        assert family.support() == parse_family(EXTENDED)

    def test_unrealisable_input(self, capsys, teaching):
        code, out, _ = run(capsys, "realise", teaching, "--monoid", "N")
        assert code == 1
        assert out.splitlines()[0] == "not realisable"


TRIANGLE = "monoid B\ncontext x y\n0 0\ncontext y z\n0 0\ncontext x z\n0 0\n"
BIG_TOKENS = [("N", "{}"), ("Q", "{}"), ("Q", "{}/7"), ("Q", "7/{}")]
BIG_IDS = ["N", "Q", "Q-numerator", "Q-denominator"]


class TestBigNumbers:
    """A number of 4300 digits is read and one of 4301 refused at its
    line, and every witness and violation is written exactly, however
    many digits it has.  The interpreter's limit on int-to-text
    conversion is lifted while a command runs and restored after it."""

    @pytest.fixture(autouse=True)
    def limit_restored(self):
        limit = sys.get_int_max_str_digits()
        yield
        assert sys.get_int_max_str_digits() == limit

    @staticmethod
    def exactly(number):
        """The text of ``number``, past the interpreter's digit limit."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(number)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("kind, token", BIG_TOKENS, ids=BIG_IDS)
    def test_4300_digits_read_and_checked(self, capsys, tmp_path, kind, token):
        document = f"monoid {kind}\ncontext x y\n0 0 : {token.format(LONGEST)}\n"
        payload = parse_value(MonoidKind(kind), token.format(LONGEST)).payload
        family = parse_family(document)
        assert [v for rel in family.maximal_relations() for _, v in rel.rows()] == [MonoidValue(MonoidKind(kind), payload)]
        path = tmp_path / "big.fam"
        path.write_text(document)
        assert run(capsys, "check", str(path)) == (0, "locally consistent\n", "")

    @pytest.mark.parametrize("kind, token", BIG_TOKENS, ids=BIG_IDS)
    def test_4301_digits_refused_at_their_line(self, capsys, tmp_path, kind, token):
        document = f"monoid {kind}\ncontext x y\n0 0 : 1\n1 1 : {token.format(TOO_LONG)}\n"
        with pytest.raises(FormatError) as exc:
            parse_family(document)
        assert str(exc.value) == "line 4: annotation has more than 4300 digits"
        path = tmp_path / "big.fam"
        path.write_text(document)
        err = f"error: {path}: line 4: annotation has more than 4300 digits\n"
        assert run(capsys, "check", str(path)) == (2, "", err)

    @pytest.mark.parametrize("kind, token", BIG_TOKENS, ids=BIG_IDS)
    def test_realise_weight_of_4300_digits(self, capsys, tmp_path, kind, token):
        """Each row of a triangle lies on the three cycles searched, so
        each payload is three times the weight: 4301 digits for N."""
        path = tmp_path / "triangle.fam"
        path.write_text(TRIANGLE)
        weight = token.format(LONGEST)
        three = self.exactly(3 * parse_value(MonoidKind(kind), weight).payload)
        rows = "".join(f"context {c}\n0 0 : {three}\n" for c in ("x y", "x z", "y z"))
        expected = f"realisable\nmonoid {kind}\n{rows}"
        assert run(capsys, "realise", str(path), "--monoid", kind, "--weight", weight) == (0, expected, "")

    @pytest.mark.parametrize("kind, token", BIG_TOKENS, ids=BIG_IDS)
    def test_realise_weight_of_4301_digits(self, capsys, tmp_path, kind, token):
        path = tmp_path / "triangle.fam"
        path.write_text(TRIANGLE)
        argv = ["realise", str(path), "--monoid", kind, "--weight", token.format(TOO_LONG)]
        assert run(capsys, *argv) == (2, "", "error: annotation has more than 4300 digits\n")

    def test_violation_of_4301_digits(self, capsys, tmp_path):
        """Two 4300-digit weights summed onto y = 0 in one context, weight
        1 in the other: the violation names the 4301-digit sum."""
        path = tmp_path / "inconsistent.fam"
        path.write_text(f"monoid N\ncontext x y\n0 0 : {LONGEST}\n1 0 : {LONGEST}\ncontext y z\n0 0 : 1\n")
        twice = "1" + "9" * 4299 + "8"
        out = f"locally inconsistent\ncontexts (x y) and (y z) disagree at y=0: {twice} vs 1\n"
        assert run(capsys, "check", str(path)) == (1, out, "")


class TestDecompose:
    def test_three_cycles_from_frozen_realisation(self, capsys, extended, tmp_path):
        weighted = tmp_path / "weighted.fam"
        run(capsys, "realise", extended, "--monoid", "Q", "--weight", "1/2",
            "--output", str(weighted))
        code, out, _ = run(capsys, "decompose", str(weighted))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "decomposition: 3 cycles"
        assert lines[1] == "cycle 1 weight 3/2"
        assert "cycle 2 weight 1" in lines
        assert "cycle 3 weight 3/2" in lines

    def test_boolean_input_rejected(self, capsys, teaching):
        code, _, err = run(capsys, "decompose", teaching)
        assert code == 2
        assert "N or Q" in err


# CI's hash-seed documents whose outputs turn on tie-breaks.  TIES: an N
# cycle whose start vertex x=1 has a six-edge cycle on its first out-edge
# and three triangles after it; FAN: a support with six edges into z=0;
# UNCOVERED: a triangle support with one row, a=0,b=1, on no cycle.  The
# opg listings order vertices by layer and row order and edges by
# context and stored row order.
# A changed but deterministic tie-break prints the same bytes under every
# hash seed, so their full stdout is pinned here.
TIES = """\
monoid N
context x y
1 1 : 2
1 2 : 4
1 4 : 1
2 1 : 1
2 3 : 2
3 1 : 1
4 0 : 1
context x z
1 0 : 1
1 1 : 2
1 2 : 3
1 3 : 1
2 1 : 2
2 3 : 1
3 2 : 1
4 4 : 1
context y z
0 0 : 1
1 1 : 2
1 2 : 1
1 3 : 1
2 2 : 3
2 3 : 1
3 1 : 2
4 4 : 1
"""

CYCLE = """\
monoid N
context x y
0 0 : 2
1 1 : 1
context y z
0 0 : 2
1 1 : 1
context x z
0 0 : 2
1 1 : 1
"""

FAN = """\
monoid B
context x y
0 0
1 1
2 2
3 3
4 4
5 5
context x z
0 0
0 1
1 0
2 0
3 0
4 0
5 0
context y z
0 0
0 1
1 0
2 0
3 0
4 0
5 0
"""

UNCOVERED = """\
monoid B
context a b
0 0
1 1
0 1
context b c
0 0
1 1
context a c
0 0
1 1
"""

TIES_OPG = """\
overlap projection graph: 14 vertices, 23 edges
cycle order: x y | x z | y z
vertex 0:1
vertex 0:2
vertex 0:3
vertex 0:4
vertex 1:0
vertex 1:1
vertex 1:2
vertex 1:3
vertex 1:4
vertex 2:0
vertex 2:1
vertex 2:2
vertex 2:3
vertex 2:4
edge 2:1 -> 0:1  x=1,y=1
edge 2:2 -> 0:1  x=1,y=2
edge 2:4 -> 0:1  x=1,y=4
edge 2:1 -> 0:2  x=2,y=1
edge 2:3 -> 0:2  x=2,y=3
edge 2:1 -> 0:3  x=3,y=1
edge 2:0 -> 0:4  x=4,y=0
edge 0:1 -> 1:0  x=1,z=0
edge 0:1 -> 1:1  x=1,z=1
edge 0:1 -> 1:2  x=1,z=2
edge 0:1 -> 1:3  x=1,z=3
edge 0:2 -> 1:1  x=2,z=1
edge 0:2 -> 1:3  x=2,z=3
edge 0:3 -> 1:2  x=3,z=2
edge 0:4 -> 1:4  x=4,z=4
edge 1:0 -> 2:0  y=0,z=0
edge 1:1 -> 2:1  y=1,z=1
edge 1:2 -> 2:1  y=1,z=2
edge 1:3 -> 2:1  y=1,z=3
edge 1:2 -> 2:2  y=2,z=2
edge 1:3 -> 2:2  y=2,z=3
edge 1:1 -> 2:3  y=3,z=1
edge 1:4 -> 2:4  y=4,z=4
"""

UNCOVERED_OPG = """\
overlap projection graph: 6 vertices, 7 edges
cycle order: a b | a c | b c
vertex 0:0
vertex 0:1
vertex 1:0
vertex 1:1
vertex 2:0
vertex 2:1
edge 2:0 -> 0:0  a=0,b=0
edge 2:1 -> 0:0  a=0,b=1
edge 2:1 -> 0:1  a=1,b=1
edge 0:0 -> 1:0  a=0,c=0
edge 0:1 -> 1:1  a=1,c=1
edge 1:0 -> 2:0  b=0,c=0
edge 1:1 -> 2:1  b=1,c=1
"""

TIES_DECOMPOSED = """\
decomposition: 7 cycles
cycle 1 weight 2
context x y
1 1
context x z
1 1
context y z
1 1
cycle 2 weight 3
context x y
1 2
context x z
1 2
context y z
2 2
cycle 3 weight 1
context x y
1 2
context x z
1 3
context y z
2 3
cycle 4 weight 1
context x y
1 4
4 0
context x z
1 0
4 4
context y z
0 0
4 4
cycle 5 weight 2
context x y
2 3
context x z
2 1
context y z
3 1
cycle 6 weight 1
context x y
2 1
context x z
2 3
context y z
1 3
cycle 7 weight 1
context x y
3 1
context x z
3 2
context y z
1 2
"""

CYCLE_DECOMPOSED = """\
decomposition: 2 cycles
cycle 1 weight 2
context x y
0 0
context x z
0 0
context y z
0 0
cycle 2 weight 1
context x y
1 1
context x z
1 1
context y z
1 1
"""

FAN_REALISED = """\
realisable
monoid N
context x y
0 0 : 5
1 1 : 3
2 2 : 3
3 3 : 3
4 4 : 3
5 5 : 3
context x z
0 0 : 3
0 1 : 2
1 0 : 3
2 0 : 3
3 0 : 3
4 0 : 3
5 0 : 3
context y z
0 0 : 3
0 1 : 2
1 0 : 3
2 0 : 3
3 0 : 3
4 0 : 3
5 0 : 3
"""


class TestTieBreaks:
    @pytest.mark.parametrize(
        "document, argv, expected",
        [
            (TIES, ["decompose"], TIES_DECOMPOSED),
            (CYCLE, ["decompose"], CYCLE_DECOMPOSED),
            (FAN, ["realise", "--monoid", "N"], FAN_REALISED),
            (TIES, ["opg"], TIES_OPG),
            (UNCOVERED, ["opg"], UNCOVERED_OPG),
        ],
        ids=["decompose-ties", "decompose-cycle", "realise-fan", "opg-ties", "opg-uncovered"],
    )
    def test_pinned_stdout(self, capsys, tmp_path, document, argv, expected):
        path = tmp_path / "family.fam"
        path.write_text(document)
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (0, expected)


# A weighted family on a path of two contexts: realisable goes to the LP.
Q_PATH = "monoid Q\ncontext x y\n0 0 : 1/2\n1 0 : 3/2\n1 1 : 1\ncontext y z\n0 0 : 1\n0 1 : 1\n1 1 : 1\n"


class TestWeightedInput:
    """realise and realisable read the support of a weighted document and
    print the bytes they print on that support written in B."""

    @pytest.mark.parametrize("document", [TIES, CYCLE, Q_PATH], ids=["ties", "cycle", "q-path"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["realise", "--monoid", "N"],
            ["realise", "--monoid", "Q", "--weight", "3/2"],
            ["realisable", "--monoid", "N"],
            ["realisable", "--monoid", "Q"],
        ],
        ids=["realise-N", "realise-Q-weight", "realisable-N", "realisable-Q"],
    )
    def test_same_bytes_as_the_support(self, capsys, tmp_path, document, argv):
        weighted = tmp_path / "weighted.fam"
        weighted.write_text(document)
        support = tmp_path / "support.fam"
        support.write_text(serialize_family(parse_family(document).support()))
        assert support.read_text().startswith("monoid B\n")
        ours = run(capsys, argv[0], str(weighted), *argv[1:])
        assert ours == run(capsys, argv[0], str(support), *argv[1:])
        assert ours[0] == (2 if document is Q_PATH and argv[0] == "realise" else 0)


class TestDerive:
    def test_full_rules_chain_trace(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(CHAIN)
        code, out, _ = run(
            capsys, "derive", str(path), "--query", "x -> z", "--rules", "full", "--trace"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "derivable"
        assert lines[-1] == "7. x -> z  [chain(1,2,3,4,5,6)]"

    def test_default_rules_refuse_chain(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(CHAIN)
        code, out, _ = run(capsys, "derive", str(path), "--query", "x -> z")
        assert code == 1
        assert out.splitlines()[0] == "not derivable"

    def test_cycle_derivation_default_rules(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text("x -> y\ny -> z\nz -> x\n")
        code, out, _ = run(capsys, "derive", str(path), "--query", "x -> z", "--trace")
        assert code == 0
        assert out.splitlines()[0] == "derivable"
        assert "[cycle(" in out

    def test_bad_query_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(TRANSITIVITY)
        code, _, err = run(capsys, "derive", str(path), "--query", "x ->")
        assert code == 2
        assert err.startswith("error: query:")


# CI's covering-CD document and its CLASSICAL and NRA traces, captured
# before ``classical_closure`` left the library.
COVERING = "a b -> c\nc -> d\ncd a b c d\n"
COVERING_CLASSICAL = """\
derivable
1. cd a b  [reflexivity]
2. a b -> c  [premise]
3. a b -> a b c  [augmentation(2)]
4. a b -> a b c  [transitivity(1,3)]
5. c -> d  [premise]
6. a b c -> a b c d  [augmentation(5)]
7. a b -> a b c d  [transitivity(4,6)]
8. a b c d -> d  [reflexivity]
9. a b -> d  [transitivity(7,8)]
"""
COVERING_NRA = """\
derivable
1. cd a b  [reflexivity]
2. a b -> c  [premise]
3. a b -> a b c  [augmentation(2)]
4. cd a b c  [reflexivity]
5. a b -> a b c  [chain(1,3,4)]
6. c -> d  [premise]
7. a b c -> a b c d  [augmentation(6)]
8. cd a b c d  [premise]
9. a b -> a b c d  [chain(5,7,8)]
10. a b c d -> d  [reflexivity]
11. cd a b c d  [premise]
12. a b -> d  [chain(9,10,11)]
"""


class TestCoveringTraces:
    @pytest.mark.parametrize(
        "rules, expected", [("classical", COVERING_CLASSICAL), ("nra", COVERING_NRA)]
    )
    def test_pinned_trace(self, capsys, tmp_path, rules, expected):
        path = tmp_path / "covering.fd"
        path.write_text(COVERING)
        argv = ["derive", str(path), "--query", "a b -> d", "--rules", rules, "--trace"]
        assert run(capsys, *argv) == (0, expected, "")


class TestEntail:
    def test_holds_with_bounded_note(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(CHAIN)
        code, out, _ = run(capsys, "entail", str(path), "--query", "x -> z")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "entailment holds"
        assert lines[1].startswith("bounded only:")

    def test_refuted_prints_family(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(TRANSITIVITY)
        code, out, _ = run(capsys, "entail", str(path), "--query", "x -> z")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "entailment refuted"
        family = parse_family("\n".join(lines[1:]) + "\n")
        assert all(family.satisfies(parse_fd(l)) for l in TRANSITIVITY.splitlines())
        assert not family.satisfies(parse_fd("x -> z"))

    def test_search_bounds_are_flags(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(TRANSITIVITY)
        code, out, _ = run(
            capsys, "entail", str(path), "--query", "x -> z",
            "--domain", "3", "--max-rows", "5",
        )
        assert code == 1
        assert out.splitlines()[0] == "entailment refuted"


class TestCounterexample:
    def test_weighted_counterexample(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(TRANSITIVITY)
        code, out, _ = run(
            capsys, "counterexample", str(path), "--query", "x -> z", "--monoid", "N"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "counterexample found"
        family = parse_family("\n".join(lines[1:]) + "\n")
        assert all(family.satisfies(parse_fd(l)) for l in TRANSITIVITY.splitlines())
        assert not family.satisfies(parse_fd("x -> z"))

    def test_derivable_query_has_no_counterexample(self, capsys, tmp_path):
        path = tmp_path / "fds.txt"
        path.write_text(TRANSITIVITY)
        code, out, _ = run(capsys, "counterexample", str(path), "--query", "x -> x")
        assert code == 0
        assert out.splitlines()[0] == "derivable; no counterexample"

    @pytest.mark.parametrize("query, code", [("x -> z", 1), ("y -> x", 1), ("x -> y", 0)])
    def test_one_engine_per_query(self, capsys, tmp_path, monkeypatch, query, code):
        """The query is decided once: one FULL closure engine, refuted or
        not, though every premise lies in the fragment where CR is
        complete."""
        built = []

        class CountingEngine(fdlogic._ClosureEngine):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(fdlogic, "_ClosureEngine", CountingEngine)
        path = tmp_path / "fds.txt"
        path.write_text(TRANSITIVITY)
        assert run(capsys, "counterexample", str(path), "--query", query)[0] == code
        assert [rules for _, rules, *_ in built] == [fdlogic.RuleSet.FULL]

    def test_output_file(self, capsys, tmp_path):
        fds = tmp_path / "fds.txt"
        fds.write_text(TRANSITIVITY)
        target = tmp_path / "cx.fam"
        code, _, _ = run(
            capsys, "counterexample", str(fds), "--query", "x -> z",
            "--output", str(target),
        )
        assert code == 1
        family = parse_family(target.read_text())
        assert len(family.contexts) == 3


TWO_CONTEXTS = "monoid N\ncontext x y\n0 0 : 1\ncontext y z\n0 0 : 1\n"
CYCLE_ERROR = "error: a chordless cycle needs at least 3 contexts, got 2\n"
GENERAL = "error: x y -> z is neither unary nor a CD; only CLASSICAL and NRA accept general dependencies\n"
CD_REFUSAL = "error: counterexample construction covers unary premises and binary CDs; got cd x y z\n"
HASH_QUERY = "error: query: '#' starts a comment and may not appear in a dependency\n"


class TestErrorCorpus:
    """Library errors reach the user as one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "document, argv, err",
        [
            (TWO_CONTEXTS, ["opg"], CYCLE_ERROR),
            (TWO_CONTEXTS, ["decompose"], CYCLE_ERROR),
            (EXTENDED, ["realise", "--monoid", "N", "--weight", "x"],
             "error: N annotation must be decimal digits, got 'x'\n"),
            (TWO_CONTEXTS, ["realise", "--monoid", "N", "--weight", "0"], CYCLE_ERROR),
            (EXTENDED, ["realise", "--monoid", "N", "--weight", "0"],
             "error: realisation weight must be nonzero\n"),
            (TRANSITIVITY, ["derive", "--query", "x -> z", "--rules", "bogus"],
             "error: unknown rule set 'bogus'\n"),
            ("x y -> z\n", ["derive", "--query", "x -> z"], GENERAL),
            ("x y -> z\n", ["counterexample", "--query", "x -> z"], GENERAL),
            (TRANSITIVITY, ["entail", "--query", "x -> z", "--domain", "0"],
             "error: domain size and row budget must be positive\n"),
        ],
        ids=["opg", "decompose", "realise-weight", "realise-cycle", "realise-weight-zero", "derive-rules",
             "derive-general", "counterexample-general", "entail-domain"],
    )
    def test_error_line_and_exit_2(self, capsys, tmp_path, document, argv, err):
        path = tmp_path / "input.txt"
        path.write_text(document)
        assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", err)

    @pytest.mark.parametrize(
        "argv",
        [["global"], ["opg"], ["realise", "--monoid", "N"], ["realisable", "--monoid", "N"], ["decompose"]],
        ids=["global", "opg", "realise", "realisable", "decompose"],
    )
    @pytest.mark.parametrize(
        "document, message",
        [
            ("monoid N\ncontext x y\n0 0 1 : 1\n", "line 3: row has 3 values for context of arity 2"),
            ("monoid N\ncontext x y\n0 0 : 1\n1 0 : 1\ncontext y z\n0 0 : 1\n",
             "contexts (x y) and (y z) disagree at y=0: 2 vs 1"),
        ],
        ids=["malformed", "inconsistent"],
    )
    def test_family_that_does_not_load(self, capsys, tmp_path, document, message, argv):
        """A family that does not parse or is not locally consistent is
        reported with its file name, and no verdict."""
        path = tmp_path / "input.fam"
        path.write_text(document)
        assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("command", ["derive", "entail", "counterexample"])
    def test_dependencies_that_do_not_load(self, capsys, tmp_path, command):
        path = tmp_path / "input.fd"
        path.write_text("x -> y\nx ->\n")
        expected = f"error: {path}: line 2: a dependency needs variables on both sides\n"
        assert run(capsys, command, str(path), "--query", "x -> y") == (2, "", expected)

    @pytest.mark.parametrize(
        "document, argv, flag",
        [
            (EXTENDED, ["realise", "--monoid", "N"], "--output"),
            (TRANSITIVITY, ["counterexample", "--query", "x -> z"], "--output"),
            (TEACHING, ["opg"], "--dot"),
        ],
        ids=["realise", "counterexample", "opg"],
    )
    def test_an_unwritable_file_prints_no_verdict(self, capsys, tmp_path, document, argv, flag):
        """The file is written before anything reaches stdout, so stdout
        never states a verdict that the exit status then denies."""
        path = tmp_path / "input.txt"
        path.write_text(document)
        target = tmp_path / "missing" / "out.txt"
        err = f"error: cannot write {target}: No such file or directory\n"
        assert run(capsys, argv[0], str(path), *argv[1:], flag, str(target)) == (2, "", err)

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["global"], ["opg"], ["realisable", "--monoid", "N"], ["realise", "--monoid", "N"],
         ["decompose"], ["derive", "--query", "x -> y"], ["entail", "--query", "x -> y"],
         ["counterexample", "--query", "x -> y"]],
        ids=lambda argv: argv[0],
    )
    def test_a_file_not_in_utf8_is_named(self, capsys, tmp_path, argv):
        """Every command reads its file through one reader, which names the
        file and the byte that is not UTF-8."""
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"monoid B\ncontext x y\n\xff 0\n")
        err = (f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 21: "
               "invalid start byte\n")
        assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", err)

    @pytest.mark.parametrize("command", ["derive", "entail", "counterexample"])
    @pytest.mark.parametrize("query", ["y -> x#1", "x -> y#1", "x# -> y", "cd x #"])
    def test_hash_in_a_query_is_refused(self, capsys, tmp_path, command, query):
        """A variable with ``#`` would be cut short in the family written
        for the query, so no witness for it could be read back."""
        path = tmp_path / "deps.fd"
        path.write_text("x -> y\ncd x y\ncd y z\n")
        assert run(capsys, command, str(path), "--query", query) == (2, "", HASH_QUERY)


    @pytest.mark.parametrize(
        "document, query, expected",
        [
            ("x y -> z\n", "x y -> w", (2, "", GENERAL)),
            ("x y -> z\n", "x -> x", (2, "", GENERAL)),
            ("x -> y\ny -> z\nz -> x\ncd x y z\n", "x -> z",
             (0, "derivable; no counterexample\n", "")),
            (CHAIN, "x -> z", (0, "derivable; no counterexample\n", "")),
            (CHAIN, "z -> x", (2, "", CD_REFUSAL)),
            (CHAIN, "x y -> z", (2, "", CD_REFUSAL)),
            (TRANSITIVITY, "x y -> z", (2, "", "error: the goal must be a unary dependency\n")),
        ],
        ids=["general-premise-wide-goal", "general-premise-reflexive-goal",
             "ternary-cd-derivable", "ternary-cd-chain-derivable", "ternary-cd-unreachable",
             "ternary-cd-wide-goal", "wide-goal"],
    )
    def test_counterexample_precedence(self, capsys, tmp_path, document, query, expected):
        """``counterexample`` refuses premises outside the fragment first,
        then answers goals CR derives, then, beside a CD wider than two
        variables, goals FULL derives (the chain rule included), and only
        then refuses what its construction does not cover."""
        path = tmp_path / "input.txt"
        path.write_text(document)
        assert run(capsys, "counterexample", str(path), "--query", query) == expected


# ``python -m`` runs the checkout's sources, installed or not.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


class TestEntrypoint:
    def test_module_invocation_round_trip(self, tmp_path):
        path = tmp_path / "teaching.fam"
        path.write_text(TEACHING)
        proc = subprocess.run(
            [sys.executable, "-m", "ctxfam.cli", "check", str(path)],
            env=SRC_ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "locally consistent"

    def test_console_script(self, tmp_path):
        path = tmp_path / "teaching.fam"
        path.write_text(TEACHING)
        proc = subprocess.run(
            ["ctxfam", "check", str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "locally consistent"

    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        """main reuses one parser; each call still prints what a fresh
        process prints, usage errors and help included."""
        monkeypatch.setenv("COLUMNS", "80")
        family = tmp_path / "teaching.fam"
        family.write_text(TEACHING)
        fds = tmp_path / "chain.fds"
        fds.write_text(CHAIN)
        calls = [
            ["check", str(family)],
            ["global", str(family)],
            ["derive", str(fds), "--query", "x -> z", "--rules", "full"],
            ["realisable", str(family)],
            ["opg", "--help"],
            ["--help"],
            ["check", str(tmp_path / "nope.fam")],
        ]
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "ctxfam.cli", *argv],
                env=dict(SRC_ENV, COLUMNS="80"),
                capture_output=True,
                text=True,
            )
            for argv in calls
        ]
        assert [proc.returncode for proc in fresh] == [0, 1, 0, 2, 0, 0, 2]
        for _ in range(2):
            for argv, proc in zip(calls, fresh):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == (
                    proc.returncode,
                    proc.stdout,
                    proc.stderr,
                ), argv

    def test_no_arguments_shows_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ctxfam.cli"], env=SRC_ENV, capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()


# CI's hash-seed documents for the line reader, written with the same
# bytes.  COMMENTED has comment lines, trailing comments, blank lines,
# tabs and \r\n endings; DUPLICATE repeats a row after a comment line, so
# its error names line 6.  Outputs captured before the parsers shared one
# line reader.
COMMENTED = (
    "# a commented family\r\n\r\nmonoid N  # kind\r\n\tcontext x y\r\n0\t0 : 1\r\n  1 0 : 2  \r\n"
    "# a whole-line comment\r\n1 1 : 1\r\n\t\r\ncontext y z # second context\r\n0 0 : 2\r\n"
    "\t0 1\t: 1\r\n1 1 : 1 #\r\n"
)

DUPLICATE = "monoid B\ncontext a b\n0 0\n1 1\n# the next row repeats the first\n0 0\n"

COMMENTED_GLOBAL = """\
globally consistent
monoid N
context x y z
0 0 0 : 1
1 0 0 : 1
1 0 1 : 1
1 1 1 : 1
"""


class TestLineReader:
    @pytest.mark.parametrize(
        "document, command, expected",
        [
            (COMMENTED, "check", (0, "locally consistent\n", "")),
            (COMMENTED, "global", (0, COMMENTED_GLOBAL, "")),
            (DUPLICATE, "check", (2, "", "error: {path}: line 6: duplicate row a=0,b=0\n")),
        ],
        ids=["check-commented", "global-commented", "check-duplicate"],
    )
    def test_pinned_output(self, capsys, tmp_path, document, command, expected):
        path = tmp_path / "family.fam"
        path.write_bytes(document.encode())
        code, out, err = expected
        assert run(capsys, command, str(path)) == (code, out, err.format(path=path))
