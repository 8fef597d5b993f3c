"""Command-line interface: exit codes, verdict lines, and file outputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctxfam.cli import main
from ctxfam.formats import parse_family, parse_fd, parse_relations

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


class TestGlobal:
    def test_inconsistent_teaching(self, capsys, teaching):
        code, out, _ = run(capsys, "global", teaching)
        assert code == 1
        assert out.splitlines()[0] == "globally inconsistent"

    def test_boolean_global_needs_exact_projections(self, capsys, extended):
        code, out, _ = run(capsys, "global", extended)
        assert code == 1
        assert out.splitlines()[0] == "globally inconsistent"

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
            (TRANSITIVITY, ["derive", "--query", "x -> z", "--rules", "bogus"],
             "error: unknown rule set 'bogus'\n"),
            ("x y -> z\n", ["derive", "--query", "x -> z"], GENERAL),
            ("x y -> z\n", ["counterexample", "--query", "x -> z"], GENERAL),
            (TRANSITIVITY, ["entail", "--query", "x -> z", "--domain", "0"],
             "error: domain size and row budget must be positive\n"),
            (CHAIN, ["counterexample", "--query", "x -> z"], CD_REFUSAL),
        ],
        ids=["opg", "decompose", "realise-weight", "realise-cycle", "derive-rules",
             "derive-general", "counterexample-general", "entail-domain",
             "counterexample-cd"],
    )
    def test_error_line_and_exit_2(self, capsys, tmp_path, document, argv, err):
        path = tmp_path / "input.txt"
        path.write_text(document)
        assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", err)


    @pytest.mark.parametrize(
        "document, query, expected",
        [
            ("x y -> z\n", "x y -> w", (2, "", GENERAL)),
            ("x y -> z\n", "x -> x", (2, "", GENERAL)),
            ("x -> y\ny -> z\nz -> x\ncd x y z\n", "x -> z",
             (0, "derivable; no counterexample\n", "")),
            (CHAIN, "z -> x", (2, "", CD_REFUSAL)),
            (CHAIN, "x y -> z", (2, "", CD_REFUSAL)),
            (TRANSITIVITY, "x y -> z", (2, "", "error: the goal must be a unary dependency\n")),
        ],
        ids=["general-premise-wide-goal", "general-premise-reflexive-goal",
             "ternary-cd-derivable", "ternary-cd-unreachable", "ternary-cd-wide-goal",
             "wide-goal"],
    )
    def test_counterexample_precedence(self, capsys, tmp_path, document, query, expected):
        """``counterexample`` refuses premises outside the fragment first,
        then answers derivable goals, and only then refuses what its
        construction does not cover."""
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
