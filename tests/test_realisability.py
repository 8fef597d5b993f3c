"""Overlap projection graphs, cycle covers, realisation, decomposition."""

import io
import pickle
import random
import tempfile
from bisect import bisect_right
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from ctxfam import realisability
from ctxfam.cli import main
from ctxfam.family import ContextSet, ContextualFamily
from ctxfam.fdlogic import FD, random_family_satisfying
from ctxfam.family import LocalConsistencyError
from ctxfam.formats import parse_family, serialize_decomposition, serialize_family
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import Assignment, KRelation
from ctxfam.realisability import (
    NotChordlessCycleError,
    NotRealisableError,
    OpgEdge,
    OpgVertex,
    build_opg,
    classify_chordless_cycle,
    decompose_cycles,
    find_realisation,
    find_simple_cycle_through,
    realisable_lp,
    realise,
)

from conftest import (
    CS,
    ST,
    TC,
    NotSimplyCyclicError,
    brel,
    cycle_contexts,
    lift_uniform,
    lp_witness,
    row,
    wrel,
)
from row_reference import restrict
from test_feasibility import SHAPES, marginal_family


def triangle_family(rows_xy, rows_yz, rows_zx):
    return ContextualFamily(
        [
            brel(("x", "y"), rows_xy),
            brel(("y", "z"), rows_yz),
            brel(("z", "x"), rows_zx),
        ]
    )


UNIT = [("0", "0")]


@pytest.fixture
def unit_triangle():
    return triangle_family(UNIT, UNIT, UNIT)


class TestClassify:
    def test_three_pairwise_overlapping_contexts(self, teaching_family):
        contexts = classify_chordless_cycle(teaching_family.contexts)
        names = [tuple(sorted(c)) for c in contexts]
        assert names == [
            ("Course", "Student"),
            ("Course", "Teacher"),
            ("Student", "Teacher"),
        ]
        assert contexts[0] & contexts[1] == frozenset({"Course"})
        assert contexts[1] & contexts[2] == frozenset({"Teacher"})
        assert contexts[2] & contexts[0] == frozenset({"Student"})

    def test_high_degree_context_refused(self, five_context_family):
        with pytest.raises(NotChordlessCycleError, match="3"):
            classify_chordless_cycle(five_context_family.contexts)

    def test_two_contexts_refused(self):
        cs = ContextSet([frozenset({"x", "y"}), frozenset({"y", "z"})])
        with pytest.raises(NotChordlessCycleError):
            classify_chordless_cycle(cs)

    def test_disconnected_cycles_refused(self):
        cs = ContextSet(
            [
                frozenset(p)
                for p in (("a", "b"), ("b", "c"), ("c", "a"),
                          ("d", "e"), ("e", "f"), ("f", "d"))
            ]
        )
        with pytest.raises(NotChordlessCycleError):
            classify_chordless_cycle(cs)

    def test_longer_cycles_are_ordered_deterministically(self):
        cs = ContextSet(cycle_contexts(5))
        contexts = classify_chordless_cycle(cs)
        assert len(contexts) == 5
        for i, context in enumerate(contexts):
            nxt = contexts[(i + 1) % 5]
            assert context & nxt


class TestBuildOpg:
    def test_teaching_graph_shape(self, teaching_family):
        graph = build_opg(teaching_family)
        assert len(graph.vertices) == 6
        assert len(graph.edges) == 7

    def test_edge_per_row(self, teaching_family):
        graph = build_opg(teaching_family)
        assert len(graph.edges) == sum(
            len(r) for r in teaching_family.maximal_relations()
        )

    def test_empty_family_gives_empty_graph(self):
        family = ContextualFamily(
            [brel(ST, []), brel(TC, []), brel(CS, [])]
        )
        graph = build_opg(family)
        assert graph.vertices == () and graph.edges == ()

    def test_two_disjoint_triangles(self):
        same = [("0", "0"), ("1", "1")]
        family = triangle_family(same, same, same)
        graph = build_opg(family)
        assert len(graph.vertices) == 6
        assert len(graph.edges) == 6
        labels = graph._component_labels()
        assert sorted(labels.count(c) for c in set(labels)) == [3, 3]
        assert graph.uncovered_edges() == ()

    def test_layers_advance_cyclically(self, teaching_family):
        graph = build_opg(teaching_family)
        size = 3
        for edge in graph.edges:
            assert edge.target.layer == edge.context_index
            assert edge.source.layer == (edge.context_index - 1) % size

    def test_weights_do_not_change_the_graph(self, unit_triangle):
        weighted = lift_uniform(unit_triangle, MonoidValue.of(MonoidKind.N, 2))
        assert build_opg(weighted).edges == build_opg(unit_triangle).edges


class TestCycleCover:
    def test_teaching_graph_has_one_uncovered_edge(self, teaching_family):
        graph = build_opg(teaching_family)
        uncovered = graph.uncovered_edges()
        assert len(uncovered) == 1
        assert uncovered[0].label == row(CS, ("CS", "Alice"))

    def test_extension_covers_every_edge(self, extended_family):
        graph = build_opg(extended_family)
        assert graph.uncovered_edges() == ()

    def test_single_triangle_is_covered(self, unit_triangle):
        assert build_opg(unit_triangle).uncovered_edges() == ()


class TestRealisableChordless:
    """On a chordless cycle, ``find_realisation`` realises a support
    exactly when the graph test leaves no edge uncovered."""

    def test_teaching_family_is_not_realisable(self, teaching_family):
        (edge,) = build_opg(teaching_family).uncovered_edges()
        for kind in (MonoidKind.N, MonoidKind.Q):
            with pytest.raises(NotRealisableError) as exc:
                find_realisation(teaching_family, kind)
            assert exc.value.uncovered == (edge,)

    def test_extension_is_realisable(self, extended_family):
        assert find_realisation(extended_family, MonoidKind.N).support() == extended_family

    def test_triangle_is_realisable(self, unit_triangle):
        assert find_realisation(unit_triangle, MonoidKind.Q).support() == unit_triangle

    def test_boolean_kind_rejected(self, unit_triangle):
        with pytest.raises(ValueError):
            find_realisation(unit_triangle, MonoidKind.B)

    def test_non_chordless_contexts_rejected(self, five_context_family):
        with pytest.raises(NotChordlessCycleError):
            build_opg(five_context_family)


class TestSimpleCycles:
    def test_short_cycle_beside_the_long_one(self, teaching_family):
        graph = build_opg(teaching_family)
        (k,) = [
            k for k, e in enumerate(graph.edges) if e.label == row(ST, ("Bob", "David"))
        ]
        cycle = find_simple_cycle_through(graph, k)
        assert cycle[0] is graph.edges[k]
        vertices = {v.boundary for e in cycle for v in (e.source, e.target)}
        assert len(cycle) == 3
        assert vertices == {
            row(("Course",), ("CS",)),
            row(("Student",), ("Bob",)),
            row(("Teacher",), ("David",)),
        }

    def test_extension_edge_needs_the_full_tour(self, extended_family):
        graph = build_opg(extended_family)
        (k,) = [
            k for k, e in enumerate(graph.edges) if e.label == row(CS, ("CS", "Alice"))
        ]
        cycle = find_simple_cycle_through(graph, k)
        assert len(cycle) == 6
        assert {v for e in cycle for v in (e.source, e.target)} == set(graph.vertices)

    def test_uncovered_edge_has_no_cycle(self, teaching_family):
        graph = build_opg(teaching_family)
        (k,) = [
            k for k, e in enumerate(graph.edges) if e.label == row(CS, ("CS", "Alice"))
        ]
        with pytest.raises(NotRealisableError) as err:
            find_simple_cycle_through(graph, k)
        assert err.value.uncovered == (graph.edges[k],)


class TestLiftUniform:
    def test_triangle_lift_has_one_row_per_context(self, teaching_family):
        sub = ContextualFamily(
            [
                brel(ST, [("Alice", "Charlie")]),
                brel(TC, [("Charlie", "Math")]),
                brel(CS, [("Math", "Alice")]),
            ]
        )
        lifted = lift_uniform(sub, MonoidValue.of(MonoidKind.N, 1))
        assert lifted.kind is MonoidKind.N
        assert all(len(r) == 1 for r in lifted.maximal_relations())

    def test_six_cycle_lift_balances_mass(self):
        six_cycle = ContextualFamily(
            [
                brel(CS, [("CS", "Alice"), ("Math", "Bob")]),
                brel(ST, [("Alice", "Charlie"), ("Bob", "David")]),
                brel(TC, [("Charlie", "Math"), ("David", "CS")]),
            ]
        )
        lifted = lift_uniform(six_cycle, MonoidValue.of(MonoidKind.Q, Fraction(1, 2)))
        for relation in lifted.maximal_relations():
            assert len(relation) == 2
            assert relation.total() == MonoidValue.of(MonoidKind.Q, 1)

    def test_zero_weight_rejected(self, unit_triangle):
        with pytest.raises(ValueError):
            lift_uniform(unit_triangle, MonoidValue.zero(MonoidKind.N))

    def test_branching_support_rejected(self, teaching_family):
        with pytest.raises(NotSimplyCyclicError):
            lift_uniform(teaching_family, MonoidValue.of(MonoidKind.N, 1))

    def test_empty_family_rejected(self):
        family = ContextualFamily([brel(ST, []), brel(TC, []), brel(CS, [])])
        with pytest.raises(NotSimplyCyclicError, match="^the empty family is not a cycle$"):
            lift_uniform(family, MonoidValue.of(MonoidKind.N, 1))

    def test_two_disjoint_cycles_rejected(self):
        # Every vertex has one edge in and one out, on two triangles.
        diagonal = [("0", "0"), ("1", "1")]
        family = triangle_family(diagonal, diagonal, diagonal)
        with pytest.raises(NotSimplyCyclicError, match="^the support splits into several cycles$"):
            lift_uniform(family, MonoidValue.of(MonoidKind.N, 1))


class TestRealise:
    def test_extension_round_trips_support(self, extended_family):
        witness = realise(extended_family, MonoidKind.N)
        assert witness.kind is MonoidKind.N
        assert witness.support() == extended_family

    def test_known_weights_for_the_extension(self, extended_family):
        witness = realise(extended_family, MonoidKind.Q, MonoidValue.of(MonoidKind.Q, Fraction(1, 2)))
        cs_relation = witness.relation_at(frozenset(CS))
        assert cs_relation.annotation(row(CS, ("CS", "Alice"))) == MonoidValue.of(
            MonoidKind.Q, 1
        )
        assert cs_relation.annotation(row(CS, ("CS", "Bob"))) == MonoidValue.of(
            MonoidKind.Q, Fraction(3, 2)
        )

    def test_triangle_with_fractional_weight(self, unit_triangle):
        # three covered edges contribute one traversal of the triangle each
        witness = realise(
            unit_triangle, MonoidKind.Q, MonoidValue.of(MonoidKind.Q, Fraction(1, 3))
        )
        for relation in witness.maximal_relations():
            assert relation.total() == MonoidValue.of(MonoidKind.Q, 1)

    @pytest.mark.parametrize(
        "kind, weight, message",
        [
            (MonoidKind.N, MonoidValue.of(MonoidKind.Q, Fraction(1, 2)), "weight 1/2 is not of kind N"),
            (MonoidKind.Q, MonoidValue.of(MonoidKind.N, 2), "weight 2 is not of kind Q"),
        ],
        ids=["Q-into-N", "N-into-Q"],
    )
    def test_weight_of_the_other_kind_refused(self, unit_triangle, kind, weight, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            realise(unit_triangle, kind, weight)

    def test_unrealisable_family_raises_with_the_edge(self, teaching_family):
        with pytest.raises(NotRealisableError) as err:
            realise(teaching_family, MonoidKind.N)
        assert len(err.value.uncovered) == 1
        assert err.value.uncovered[0].label == row(CS, ("CS", "Alice"))

    @pytest.mark.parametrize("covered", [True, False])
    def test_boolean_kind_refused_on_a_cycle(self, unit_triangle, teaching_family, covered):
        """A B support is its own realisation, so B is refused as the
        graph test and the LP refuse it, not answered from the graph."""
        support = unit_triangle if covered else teaching_family
        for call in (realise, find_realisation):
            with pytest.raises(ValueError, match="^realisability concerns the kinds N and Q$"):
                call(support, MonoidKind.B)

    def test_non_cycle_refused_before_the_kind(self, five_context_family):
        with pytest.raises(NotChordlessCycleError):
            realise(five_context_family, MonoidKind.B)
        with pytest.raises(ValueError, match="^realisability concerns the kinds N and Q$"):
            find_realisation(five_context_family, MonoidKind.B)

    def test_empty_family_realises_empty(self):
        family = ContextualFamily([brel(ST, []), brel(TC, []), brel(CS, [])])
        witness = realise(family, MonoidKind.N)
        assert all(len(r) == 0 for r in witness.maximal_relations())


class TestDecompose:
    def test_empty_family_decomposes_to_nothing(self):
        family = ContextualFamily(
            [
                wrel(MonoidKind.Q, ST, []),
                wrel(MonoidKind.Q, TC, []),
                wrel(MonoidKind.Q, CS, []),
            ]
        )
        assert decompose_cycles(family) == []

    def test_uniform_triangle_is_one_cycle(self, unit_triangle):
        weighted = lift_uniform(unit_triangle, MonoidValue.of(MonoidKind.Q, 1))
        parts = decompose_cycles(weighted)
        assert len(parts) == 1
        weight, sub = parts[0]
        assert weight == MonoidValue.of(MonoidKind.Q, 1)
        assert sub == unit_triangle

    def test_boolean_family_rejected(self, unit_triangle):
        with pytest.raises(ValueError):
            decompose_cycles(unit_triangle)

    def test_realisation_round_trips(self, extended_family):
        family = realise(
            extended_family, MonoidKind.Q, MonoidValue.of(MonoidKind.Q, Fraction(1, 2))
        )
        parts = decompose_cycles(family)
        total = None
        for weight, sub in parts:
            assert weight.payload > 0
            lifted = lift_uniform(sub, weight)
            total = lifted if total is None else total + lifted
        assert total == family

    def test_integer_weights_round_trip(self, extended_family):
        family = realise(extended_family, MonoidKind.N)
        parts = decompose_cycles(family)
        total = None
        for weight, sub in parts:
            lifted = lift_uniform(sub, weight)
            total = lifted if total is None else total + lifted
        assert total == family


class TestFindRealisation:
    def test_chordless_cycle_uses_the_graph_witness(self, extended_family):
        assert find_realisation(extended_family, MonoidKind.N) == realise(
            extended_family, MonoidKind.N
        )

    def test_chordless_refusal_carries_the_uncovered_edges(self, teaching_family):
        with pytest.raises(NotRealisableError) as err:
            find_realisation(teaching_family, MonoidKind.Q)
        assert [e.label for e in err.value.uncovered] == [row(CS, ("CS", "Alice"))]

    def test_other_context_sets_use_the_lp(self):
        family = ContextualFamily(
            [brel(("a", "b"), [("0", "0"), ("1", "1")]),
             brel(("b", "c"), [("0", "0"), ("1", "0")])]
        )
        witness = find_realisation(family, MonoidKind.N)
        assert stored(witness) == stored(realisable_lp(family, MonoidKind.N))
        assert witness == ContextualFamily(list(witness.maximal_relations()))
        assert witness.support() == family

    def test_lp_refusal_has_no_uncovered_edges(self, five_context_family):
        with pytest.raises(NotRealisableError) as err:
            find_realisation(five_context_family, MonoidKind.Q)
        assert err.value.uncovered == ()
        # The LP runs after the graph test's refusal is handled, so no
        # exception chains onto its own.
        assert err.value.__context__ is None

    @pytest.mark.parametrize("kind", [MonoidKind.N, MonoidKind.Q])
    @pytest.mark.parametrize(
        "contexts, rows",
        [
            # A path: a b | b c.
            ([("a", "b"), ("b", "c")],
             [[("0", "0"), ("1", "1")], [("0", "0"), ("1", "0")]]),
            # A star around a: a b | a c | a d | a e.
            ([("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")],
             [[("0", "0"), ("0", "1"), ("1", "1")],
              [("0", "0"), ("1", "0"), ("1", "1")],
              [("0", "1"), ("1", "0")],
              [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]]),
        ],
    )
    def test_lp_witness_is_not_validated_again(self, kind, contexts, rows, constructions):
        family = ContextualFamily([brel(c, r) for c, r in zip(contexts, rows)])
        constructions.clear()
        result = find_realisation(family, kind)
        assert not constructions
        assert result.support() == family
        assert result == ContextualFamily(list(result.maximal_relations()))


class TestRealisableLp:
    def test_teaching_family_infeasible(self, teaching_family):
        for kind in (MonoidKind.Q, MonoidKind.N):
            with pytest.raises(NotRealisableError, match="^support is not realisable$") as err:
                realisable_lp(teaching_family, kind)
            assert err.value.uncovered == ()

    def test_extension_feasible_with_integer_witness(self, extended_family):
        witness = realisable_lp(extended_family, MonoidKind.N)
        assert witness.kind is MonoidKind.N
        assert all(
            isinstance(w.payload, int) and w.payload >= 1
            for rel in witness.maximal_relations() for _, w in rel.rows()
        )
        assert witness == ContextualFamily(list(witness.maximal_relations()))
        assert witness.support() == extended_family

    def test_five_context_family_infeasible(self, five_context_family):
        with pytest.raises(NotRealisableError, match="^support is not realisable$") as err:
            realisable_lp(five_context_family, MonoidKind.Q)
        assert err.value.uncovered == ()

    def test_triangle_restrictions_feasible(self, five_context_family):
        for names in ((("a", "b"), ("b", "c"), ("c", "a")),
                      (("a", "d"), ("d", "c"), ("c", "a"))):
            restriction = ContextualFamily(
                [
                    five_context_family.relation_at(frozenset(pair))
                    for pair in names
                ]
            )
            assert realisable_lp(restriction, MonoidKind.Q).support() == restriction
            assert build_opg(restriction).uncovered_edges() == ()

    def test_agrees_with_cycle_cover_on_random_cycles(self):
        rng = random.Random(17)
        checked = 0
        while checked < 40:
            contexts = cycle_contexts(rng.randint(3, 5))
            family = random_family_satisfying([FD.cd(c) for c in contexts], rng)
            if family is None or not any(
                len(r) for r in family.maximal_relations()
            ):
                continue
            feasible = lp_witness(family, MonoidKind.Q) is not None
            covered = not build_opg(family).uncovered_edges()
            assert feasible == covered
            checked += 1


def hoffman_supports(rng):
    """Seeded chordless-cycle supports of both verdicts: sums of closed
    walks, on which every edge lies on a cycle; the same walks with a
    row planted at random; and with a row planted from one component
    into another, which lies on no cycle."""
    for _ in range(50):
        walks = walk_family(rng, MonoidKind.B, [1], components=rng.randint(2, 3))
        yield walks
        yield with_row(rng, walks, lambda rows, _: (rng.choice(rows), rng.choice(rows)))
        yield with_cross_row(rng, walks)


class TestGraphTestIsTheLP:
    """On a chordless cycle the graph test is Hoffman's circulation theorem
    (Hoffman 1960): weights of at least 1 meeting every agreement equation
    exist exactly when every edge of the overlap projection graph lies on
    a cycle.  So the graph test and the LP, over Q and over N, agree."""

    def test_on_random_supports(self):
        verdicts = {True: 0, False: 0}
        for family in hoffman_supports(random.Random("hoffman")):
            covered = not build_opg(family).uncovered_edges()
            assert (lp_witness(family, MonoidKind.Q) is not None) is covered
            assert (lp_witness(family, MonoidKind.N) is not None) is covered
            verdicts[covered] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


class TestDot:
    def test_triangle_dot_is_stable(self, unit_triangle):
        expected = (
            "digraph opg {\n"
            "  rankdir=LR;\n"
            '  0 [label="0:0"];\n'
            '  1 [label="1:0"];\n'
            '  2 [label="2:0"];\n'
            '  2 -> 0 [label="x=0,y=0"];\n'
            '  0 -> 1 [label="x=0,z=0"];\n'
            '  1 -> 2 [label="y=0,z=0"];\n'
            "}\n"
        )
        assert build_opg(unit_triangle).to_dot() == expected

    def test_vertices_with_equal_text_stay_apart(self):
        # Two boundary values of layer 2 both display as "2:x,y,z".
        family = parse_family(
            "monoid B\n"
            "context a b c\n0 x,y z\n1 x y,z\n"
            "context b c d\nx,y z 0\nx y,z 1\n"
            "context a d\n0 0\n1 1\n"
        )
        graph = build_opg(family)
        assert [str(v) for v in graph.vertices[4:]] == ["2:x,y,z", "2:x,y,z"]
        lines = graph.to_dot().splitlines()
        assert lines[2:8] == [f'  {i} [label="{v}"];' for i, v in enumerate(graph.vertices)]
        assert lines[8:14] == [
            '  5 -> 0 [label="a=0,b=x,y,c=z"];',
            '  4 -> 1 [label="a=1,b=x,c=y,z"];',
            '  0 -> 2 [label="a=0,d=0"];',
            '  1 -> 3 [label="a=1,d=1"];',
            '  3 -> 4 [label="b=x,c=y,z,d=1"];',
            '  2 -> 5 [label="b=x,y,c=z,d=0"];',
        ]

    def test_quotes_and_backslashes_are_escaped(self):
        family = parse_family('monoid B\ncontext x y\na"b 0\ncontext y z\n0 c\\d\ncontext x z\na"b c\\d\n')
        assert build_opg(family).to_dot() == (
            "digraph opg {\n"
            "  rankdir=LR;\n"
            '  0 [label="0:a\\"b"];\n'
            '  1 [label="1:c\\\\d"];\n'
            '  2 [label="2:0"];\n'
            '  2 -> 0 [label="x=a\\"b,y=0"];\n'
            '  0 -> 1 [label="x=a\\"b,z=c\\\\d"];\n'
            '  1 -> 2 [label="y=0,z=c\\\\d"];\n'
            "}\n"
        )

    def test_dot_is_deterministic(self, teaching_family):
        first = build_opg(teaching_family).to_dot()
        second = build_opg(teaching_family).to_dot()
        assert first == second


# ---------------------------------------------------------------------------
# The sum-of-lifts realisation and the rebuild-and-peel decomposition that
# realise and decompose_cycles replaced, kept as references: they rebuild
# a family per cycle, so they are only fit for small inputs.


def object_adjacency(graph):
    """Each vertex's out-edges and in-edges, in edge order, keyed by the
    vertex objects."""
    out = {v: [] for v in graph.vertices}
    inc = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.source].append(e)
        inc[e.target].append(e)
    return out, inc


def reference_cycle_through(graph, edge):
    out, _ = object_adjacency(graph)
    start, goal = edge.target, edge.source
    if start == goal:
        return [edge]
    parent, queue, seen = {}, [start], {start}
    while queue:
        fresh = []
        for node in queue:
            for e in out[node]:
                if e.target == goal:
                    path, walk = [e], node
                    while walk != start:
                        back = parent[walk]
                        path.append(back)
                        walk = back.source
                    return [edge] + path[::-1]
                if e.target not in seen:
                    seen.add(e.target)
                    parent[e.target] = e
                    fresh.append(e.target)
        queue = fresh
    raise NotRealisableError(f"edge {edge.describe()} lies on no cycle", (edge,))


def _reference_b_family(contexts, labels):
    """The checked B-family of the given rows: each row goes to the context
    of its variables, and a context with no row gets an empty relation."""
    grouped = {c: {} for c in contexts}
    for label in labels:
        grouped[label.variables][label] = MonoidValue.one(MonoidKind.B)
    return ContextualFamily([KRelation.from_assignments(c, MonoidKind.B, rows) for c, rows in grouped.items()])


def reference_realise(family, kind, weight=None):
    if weight is None:
        weight = MonoidValue.one(kind)
    graph = build_opg(family)
    uncovered = graph.uncovered_edges()
    if uncovered:
        listing = "; ".join(e.describe() for e in uncovered)
        raise NotRealisableError(f"support is not realisable: {listing}", uncovered)
    if not graph.edges:
        return ContextualFamily(
            [KRelation(r.variables, kind, {}) for r in family.maximal_relations()]
        )
    total = None
    for edge in graph.edges:
        cycle = reference_cycle_through(graph, edge)
        part = lift_uniform(
            _reference_b_family(family.contexts, (e.label for e in cycle)), weight
        )
        total = part if total is None else total + part
    return total


def reference_decompose(family):
    parts = []
    current = family
    while any(len(r) for r in current.maximal_relations()):
        graph = build_opg(current.support())
        start = graph.vertices[0]
        cycle = None
        for first in object_adjacency(graph)[0][start]:
            closing = reference_cycle_through(graph, first)
            if cycle is None or len(closing) < len(cycle):
                cycle = closing
        labels = [e.label for e in cycle]
        least = min(
            (current.relation_at(lab.variables).annotation(lab) for lab in labels),
            key=lambda v: v.payload,
        )
        parts.append((least, _reference_b_family(current.contexts, labels)))
        updated = []
        for rel in current.maximal_relations():
            rows = dict(rel.rows())
            for lab in labels:
                if lab in rows:
                    remaining = MonoidValue(least.kind, rows[lab].payload - least.payload)
                    if remaining.is_zero:
                        del rows[lab]
                    else:
                        rows[lab] = remaining
            updated.append(KRelation.from_assignments(rel.variables, rel.kind, rows))
        current = ContextualFamily(updated)
    return parts


def shortest_cycle(out, src, dst, start):
    """Edge numbers of a shortest cycle through ``start``, from it and back:
    one breadth-first search over the out-edge lists ``out``, level by
    level, each list in order, the first discovery winning, stopped at the
    first edge back into ``start``.  None when no edge leads back."""
    via = {}  # the edge each vertex was reached by; start never enters
    queue = [start]
    for node in queue:  # the queue grows while it is read, level by level
        for k in out[node]:
            nxt = dst[k]
            if nxt == start:
                path = [k]
                while node != start:
                    k = via[node]
                    path.append(k)
                    node = src[k]
                path.reverse()
                return path
            if nxt not in via:
                via[nxt] = k
                queue.append(nxt)
    return None


def reference_peel(family):
    """decompose_cycles with its own search, :func:`shortest_cycle`, in
    place of the breadth-first tree it shares with realise: the same peel
    order over the same residuals and live out-lists."""
    graph = build_opg(family)
    relations = graph.relations
    src, dst, keys, starts = graph.src, graph.dst, graph.keys, graph.starts
    residual = [w for rel in relations for w in rel._rows.values()]
    succ = [list(out) for out in graph.out]
    live, start, parts = len(residual), 0, []
    while live:
        while not succ[start]:
            start += 1
        best = shortest_cycle(succ, src, dst, start)
        least = min(residual[k] for k in best)
        rows = [[] for _ in relations]
        for k in sorted(best):
            rows[bisect_right(starts, k) - 1].append(keys[k])
        supports = [rel._sub(part) for rel, part in zip(relations, rows)]
        parts.append((MonoidValue(family.kind, least),
                      ContextualFamily._unchecked(family.contexts, MonoidKind.B, supports)))
        for k in best:
            residual[k] -= least
            if not residual[k]:
                succ[src[k]].remove(k)
                live -= 1
    return parts


def walk_family(rng, kind, weights, contexts_count=None, components=None,
                walks=(1, 3), domain=(2, 3), digits=False):
    """A locally consistent family over a chordless cycle of binary and
    ternary contexts: the sum of closed walks around the cycle, each
    carrying one weight, in value-disjoint components.

    Context i binds x_i and x_{i+1} (and a private m_i when ternary).  A
    walk of winding w picks n*w values a_s and at step s adds a row
    x_i = a_s, x_{i+1} = a_{s+1} to context i = s mod n, so every
    boundary value is entered and left equally often.

    Values are strings ``c<component>v<value>``, or with ``digits`` the
    digits of ``100 * component + 9 + value``: they start at "9", so row order
    ("10" before "9") differs from numeric order."""
    n = contexts_count or rng.randint(3, 6)
    contexts = []
    for i in range(n):
        pair = [f"x{i}", f"x{(i + 1) % n}"]
        contexts.append(tuple(pair + [f"m{i}"]) if rng.random() < 0.5 else tuple(pair))
    total = [{} for _ in range(n)]
    for comp in range(components or rng.randint(1, 3)):
        size = rng.randint(*domain)
        for _ in range(rng.randint(*walks)):
            length = n * rng.randint(1, 2)
            values = [
                str(100 * comp + 9 + v) if digits else f"c{comp}v{v}"
                for v in (rng.randrange(size) for _ in range(length))
            ]
            w = rng.choice(weights)
            for step in range(length):
                i = step % n
                key = (values[step], values[(step + 1) % length])
                if len(contexts[i]) == 3:
                    private = rng.randrange(2)
                    key += (str(private) if digits else f"p{private}",)
                total[i][key] = total[i].get(key, 0) + w
    return ContextualFamily(
        [
            KRelation.from_assignments(
                frozenset(vs),
                kind,
                {
                    Assignment(dict(zip(vs, key))): MonoidValue.of(kind, w)
                    for key, w in rel.items()
                },
            )
            for vs, rel in zip(contexts, total)
        ]
    )


def with_row(rng, family, pick):
    """The support plus one row at a random context: the values of one of
    its rows before the context's out-boundary and of another after it,
    ``pick(rows, out_var)`` choosing the two among the rows in order.  Its
    edge lies on a cycle only when a path leads back from the second
    row's end to the first row's start."""
    rels = list(family.maximal_relations())
    at = rng.randrange(len(rels))
    rows = sorted(rels[at].support, key=Assignment.items)
    contexts = classify_chordless_cycle(family.contexts)
    i = contexts.index(rels[at].variables)
    out_var = next(iter(contexts[i] & contexts[(i + 1) % len(contexts)]))
    left, right = pick(rows, out_var)
    planted = Assignment(
        {v: (right[v] if v == out_var else left[v]) for v in rels[at].variables}
    )
    rels[at] = KRelation.from_assignments(
        rels[at].variables, MonoidKind.B, dict.fromkeys(rows + [planted], MonoidValue.one(MonoidKind.B))
    )
    return ContextualFamily(rels)


def with_cross_row(rng, family):
    """The support plus one row from one component into another at a
    random context: its edge lies on no cycle."""

    def across(rows, out_var):
        left = rows[0]
        return left, next(r for r in rows if component_of(r[out_var]) != component_of(left[out_var]))

    return with_row(rng, family, across)


def component_of(value):
    """The walk_family component a value belongs to."""
    return (int(value) - 9) // 100 if value.isdigit() else value.split("v")[0]


def reference_components(graph):
    """Kosaraju's sweep over object adjacency, as the graph ran it before
    it kept one integer adjacency: each vertex's component label, numbered
    in the order the second pass reaches the components, the uncovered
    edges, and the object adjacency."""
    out, inc = object_adjacency(graph)
    finish, seen = [], set()
    for root in graph.vertices:
        if root in seen:
            continue
        stack = [(root, 0)]
        seen.add(root)
        while stack:
            node, i = stack.pop()
            if i < len(out[node]):
                stack.append((node, i + 1))
                nxt = out[node][i].target
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                finish.append(node)
    component, labels = {}, 0
    for root in reversed(finish):
        if root in component:
            continue
        stack = [root]
        component[root] = labels
        while stack:
            node = stack.pop()
            for e in inc[node]:
                if e.source not in component:
                    component[e.source] = labels
                    stack.append(e.source)
        labels += 1
    uncovered = tuple(e for e in graph.edges if component[e.source] != component[e.target])
    return [component[v] for v in graph.vertices], uncovered, out, inc


KINDS_AND_WEIGHTS = [
    (MonoidKind.N, 1),
    (MonoidKind.Q, 1),
    (MonoidKind.Q, Fraction(1, 2)),
]


class TestAgainstReference:
    @pytest.mark.parametrize("kind, base", KINDS_AND_WEIGHTS)
    def test_realise_matches_the_sum_of_lifts(self, kind, base):
        rng = random.Random(f"realise/{kind}/{base}")
        weight = MonoidValue.of(kind, base)
        sizes, several = set(), 0
        for _ in range(25):
            support = walk_family(rng, MonoidKind.B, [1])
            sizes.add(len(support.contexts))
            several += len(set(build_opg(support)._component_labels())) > 1
            assert realise(support, kind, weight) == reference_realise(
                support, kind, weight
            )
        assert sizes == {3, 4, 5, 6} and several

    @pytest.mark.parametrize("base", [Fraction(2, 3), Fraction(5, 4)])
    def test_realise_matches_the_sum_of_lifts_on_larger_q_graphs(self, base):
        """Dense supports, where many edges share each target and each count
        takes several values: one product per distinct count, and the
        witness's marginals summed in integers, still give the reference's
        family, payload for payload."""
        rng = random.Random(f"realise-large/{base}")
        weight = MonoidValue.of(MonoidKind.Q, base)
        counts = set()
        for digits in (False, True, False):
            support = walk_family(rng, MonoidKind.B, [1], components=2, walks=(12, 24), domain=(6, 12), digits=digits)
            assert len(build_opg(support).edges) > 60
            new = realise(support, MonoidKind.Q, weight)
            old = reference_realise(support, MonoidKind.Q, weight)
            assert new == old
            for rel in new.maximal_relations():
                assert list(rel._rows.items()) == list(old.relation_at(rel.variables)._rows.items())
                counts.update(p / base for p in rel._rows.values())
        assert len(counts) > 5

    def test_edges_come_in_context_then_label_order(self):
        """The graph keeps build_opg's edge order without sorting it, and
        its vertices in layer and then row order, also for digit tokens,
        whose row order is not their numeric order."""
        rng = random.Random(4)
        unlike_numeric = 0
        for digits in (False, True):
            for kind, weights in [(MonoidKind.B, [1]), (MonoidKind.N, [1, 2, 3])]:
                for _ in range(25):
                    graph = build_opg(walk_family(rng, kind, weights, digits=digits))
                    keys = [(e.context_index, e.label.items()) for e in graph.edges]
                    assert keys == sorted(keys)
                    ends = {e.source for e in graph.edges} | {e.target for e in graph.edges}
                    assert set(graph.vertices) == ends
                    assert len(graph.vertices) == len(ends)
                    order = [(v.layer, v.boundary.items()) for v in graph.vertices]
                    assert order == sorted(order)
                    if digits:
                        numeric = [(v.layer, [int(val) for _, val in v.boundary.items()]) for v in graph.vertices]
                        unlike_numeric += numeric != sorted(numeric)
        assert unlike_numeric > 10

    def test_cycle_search_matches_the_reference(self):
        """Every edge, asked for in shuffled order and each twice, so the
        graph's one kept tree is grown on, hit and replaced; an edge on no
        cycle raises as the reference does.  Then, on every graph, a root's
        tree is replaced by another's and regrown past where it stopped."""
        rng = random.Random(2)
        beyond = 0
        for digits in (False, True):
            uncovered = 0
            for i in range(40):
                if i % 2 == 0:
                    family = walk_family(rng, MonoidKind.B, [1], digits=digits)
                else:
                    family = walk_family(rng, MonoidKind.B, [1], components=2, digits=digits)
                    try:
                        family = with_cross_row(rng, family)
                    except ValueError:
                        pass  # the cross row broke local consistency
                graph = build_opg(family)
                order = list(range(len(graph.edges))) * 2
                rng.shuffle(order)
                for k in order:
                    edge = graph.edges[k]
                    try:
                        expected = reference_cycle_through(graph, edge)
                    except NotRealisableError as refused:
                        with pytest.raises(NotRealisableError) as new:
                            find_simple_cycle_through(graph, k)
                        assert str(new.value) == str(refused)
                        assert new.value.uncovered == refused.uncovered == (edge,)
                        uncovered += 1
                    else:
                        assert find_simple_cycle_through(graph, k) == expected
                beyond += self.assert_regrown_trees_match(graph)
            assert uncovered > 10
        assert beyond > 40

    @staticmethod
    def assert_regrown_trees_match(graph):
        """For each root A with two in-edges on cycles: the edge into A on
        the shortest cycle, whose tree stops early, then an edge into
        another root B, then A's edge whose source that first partial tree
        had not reached, then the first edge again.  Returns how many
        roots had such a source."""
        covered = set(graph.edges) - set(graph.uncovered_edges())
        into = {}
        for k, edge in enumerate(graph.edges):
            if edge in covered:
                into.setdefault(graph.dst[k], []).append(k)
        beyond = 0
        for root, ks in into.items():
            cycles = {k: reference_cycle_through(graph, graph.edges[k]) for k in ks}
            near = min(ks, key=lambda k: len(cycles[k]))
            assert find_simple_cycle_through(graph, near) == cycles[near]
            via = graph._tree[1]
            far = [k for k in ks if via[graph.src[k]] < 0]
            if not far:
                continue
            other = next(k for t, ts in into.items() if t != root for k in ts)
            assert find_simple_cycle_through(graph, other) == reference_cycle_through(graph, graph.edges[other])
            assert graph._tree[0] != root
            assert find_simple_cycle_through(graph, far[-1]) == cycles[far[-1]]
            assert find_simple_cycle_through(graph, near) == cycles[near]
            beyond += 1
        return beyond

    def test_components_match_object_adjacency(self):
        rng = random.Random(2)
        for digits in (False, True):
            several = uncovered = 0
            for i in range(60):
                if i % 2 == 0:
                    family = walk_family(rng, MonoidKind.B, [1], digits=digits)
                else:
                    family = walk_family(rng, MonoidKind.B, [1], components=2, digits=digits)
                    try:
                        family = with_cross_row(rng, family)
                    except ValueError:
                        pass  # the cross row broke local consistency
                graph = build_opg(family)
                labels, cut, out, inc = reference_components(graph)
                assert graph._component_labels() == labels
                assert graph.uncovered_edges() == cut
                for i, v in enumerate(graph.vertices):
                    assert [graph.edges[k] for k in graph.out[i]] == out[v]
                    assert [graph.edges[k] for k, t in enumerate(graph.dst) if t == i] == inc[v]
                assert [(graph.vertices[s], graph.vertices[t]) for s, t in zip(graph.src, graph.dst)] == [
                    (e.source, e.target) for e in graph.edges
                ]
                assert [(bisect_right(graph.starts, k) - 1, key) for k, key in enumerate(graph.keys)] == [
                    (e.context_index, e.key) for e in graph.edges
                ]
                several += len(set(labels)) > 1
                uncovered += bool(cut)
            assert several > 20 and uncovered > 10

    def test_refusals_match_the_reference(self):
        rng = random.Random(5)
        refused = 0
        for _ in range(30):
            support = walk_family(rng, MonoidKind.B, [1], components=2)
            try:
                support = with_cross_row(rng, support)
            except ValueError:
                continue  # the cross row broke local consistency
            with pytest.raises(NotRealisableError) as new:
                realise(support, MonoidKind.N)
            with pytest.raises(NotRealisableError) as old:
                reference_realise(support, MonoidKind.N)
            assert new.value.uncovered == old.value.uncovered
            assert str(new.value) == str(old.value)
            refused += 1
        assert refused >= 20

    @pytest.mark.parametrize(
        "kind, weights",
        [
            (MonoidKind.N, [1]),
            (MonoidKind.N, [1, 2, 3]),
            (MonoidKind.Q, [Fraction(1, 2)]),
            (MonoidKind.Q, [Fraction(1, 2), 1, Fraction(5, 3)]),
        ],
    )
    def test_decompose_matches_rebuild_and_peel(self, kind, weights):
        """Thirty sparse families, then five dense ones, where about half
        the peels start at a vertex with several out-edges on equally short
        cycles, so the tie-break among them is compared too."""
        rng = random.Random(f"decompose/{kind}/{weights}")
        for i in range(35):
            if i < 30:
                family = walk_family(rng, kind, weights)
            else:
                family = walk_family(rng, kind, weights, walks=(8, 20), domain=(6, 12))
            parts = decompose_cycles(family)
            assert parts == reference_decompose(family)
            total = None
            for weight, sub in parts:
                # Parts skip the pairwise check; the constructor accepts them.
                assert ContextualFamily(list(sub.maximal_relations())) == sub
                lifted = lift_uniform(sub, weight)
                total = lifted if total is None else total + lifted
            assert total == family

    @pytest.mark.parametrize(
        "kind, weights", [(MonoidKind.N, [1, 2, 3]), (MonoidKind.Q, [Fraction(1, 2), 1, Fraction(5, 3)])]
    )
    @pytest.mark.parametrize("digits", [False, True])
    def test_decompose_writes_the_reference_peel_bytes(self, kind, weights, digits):
        """250 families per case, a fifth of them dense, and some with
        several components: the parts serialise as the reference peel's."""
        rng = random.Random(f"peel/{kind}/{digits}")
        several = 0
        for i in range(250):
            if i % 5:
                family = walk_family(rng, kind, weights, digits=digits)
            else:
                family = walk_family(rng, kind, weights, walks=(8, 20), domain=(6, 12), digits=digits)
            several += len(set(build_opg(family)._component_labels())) > 1
            assert serialize_decomposition(decompose_cycles(family)) == serialize_decomposition(
                reference_peel(family)
            )
        assert several > 50

    def test_decompose_writes_the_reference_bytes_on_digit_tokens(self):
        """Digit tokens, whose row order is not numeric order: the parts
        serialise as the reference's, and each part relation, built from
        stored rows, is the checked constructor's, in the same order."""
        rng = random.Random(9)
        for kind, weights in [(MonoidKind.N, [1, 2, 3]), (MonoidKind.Q, [Fraction(1, 2), 1])]:
            for _ in range(15):
                family = walk_family(rng, kind, weights, digits=True)
                parts = decompose_cycles(family)
                assert serialize_decomposition(parts) == serialize_decomposition(
                    reference_decompose(family)
                )
                for _, sub in parts:
                    for rel in sub.maximal_relations():
                        shuffled = list(rel._rows.items())
                        rng.shuffle(shuffled)
                        checked = KRelation(rel.variables, MonoidKind.B, dict(shuffled))
                        assert checked == rel
                        assert list(checked._rows.items()) == list(rel._rows.items())

    def test_decompose_matches_on_realisations(self):
        rng = random.Random(11)
        for kind, base in KINDS_AND_WEIGHTS:
            for _ in range(10):
                support = walk_family(rng, MonoidKind.B, [1])
                family = realise(support, kind, MonoidValue.of(kind, base))
                assert decompose_cycles(family) == reference_decompose(family)


@pytest.fixture
def constructions(monkeypatch):
    """Counts ContextualFamily constructions from here on."""
    calls = []
    original = ContextualFamily.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ContextualFamily, "__init__", counting)
    return calls


class TestNoPerCycleRebuilds:
    @pytest.fixture(scope="class")
    def large(self):
        family = walk_family(
            random.Random(3), MonoidKind.N, [1, 2, 3], contexts_count=4,
            components=1, walks=(60, 60), domain=(40, 40),
        )
        assert sum(len(r) for r in family.maximal_relations()) >= 350
        return family

    @pytest.fixture(scope="class")
    def large_support(self, large):
        return large.support()

    def test_realise_validates_a_constant_number_of_families(
        self, large_support, constructions
    ):
        realise(large_support, MonoidKind.N)
        assert len(constructions) <= 3

    def test_realise_scans_fewer_out_edges_than_full_trees(self, large_support, trees):
        """Each tree grows only until the sources of the edges into its
        root have parents, so realise scans fewer out-edges than one full
        tree per vertex, which scans every edge of this one component."""
        realise(large_support, MonoidKind.N)
        graph = build_opg(large_support)
        assert len(set(graph._component_labels())) == 1
        assert len(trees) == len(graph.vertices)
        full = sum(full_tree_scans(graph, root) for root, _, _, _ in trees)
        assert full == len(graph.vertices) * len(graph.edges)
        assert scanned(graph, trees) < full // 2

    def test_decompose_validates_one_family_per_part(self, large, constructions):
        parts = decompose_cycles(large)
        assert len(constructions) <= len(parts) + 1

    def test_decompose_validates_no_part(self, large, constructions):
        parts = decompose_cycles(large)
        assert len(parts) > 10 and not constructions


@pytest.fixture
def searches(monkeypatch):
    """The breadth-first searches grown from here on: one ``(tree, goal)``
    pair per call of the shared grow function, holding the tree list it
    grew in place."""
    calls = []
    original = realisability._grow

    def recording(tree, out, dst, goal):
        calls.append((tree, goal))
        return original(tree, out, dst, goal)

    monkeypatch.setattr(realisability, "_grow", recording)
    return calls


@pytest.fixture
def trees(monkeypatch):
    """The breadth-first trees that find_simple_cycle_through grows from
    here on, each once, in the order first grown.  A tree is the graph's
    ``_tree`` list, which later calls on the same root grow in place, so
    each list holds its final state when read."""
    grown = []
    original = realisability.find_simple_cycle_through

    def recording(graph, k):
        try:
            return original(graph, k)
        finally:
            if not any(tree is graph._tree for tree in grown):
                grown.append(graph._tree)

    monkeypatch.setattr(realisability, "find_simple_cycle_through", recording)
    return grown


def scanned(graph, trees):
    """The out-edges scanned in growing ``trees``: those of every vertex
    each tree's queue has read."""
    return sum(len(graph.out[v]) for root, via, queue, read in trees for v in queue[:read])


def full_tree_scans(graph, root):
    """The out-edges a full breadth-first tree of ``root`` scans: those of
    every vertex reachable from it."""
    seen, queue = {root}, [root]
    for node in queue:
        for k in graph.out[node]:
            if graph.dst[k] not in seen:
                seen.add(graph.dst[k])
                queue.append(graph.dst[k])
    return sum(len(graph.out[v]) for v in queue)


class TestSearchesPerVertex:
    """realise grows at most one tree per vertex, not one search per edge,
    and each peel of decompose_cycles grows one fresh tree from its start
    vertex, however many out-edges that vertex has."""

    def test_realise_builds_at_most_one_tree_per_vertex(self, family, searches, trees):
        """Every search realise makes grows one of the graph's kept trees
        toward an edge's source, and no peel tree.  Each kept tree has its
        own root, and no tree reads further than a full one would: its
        queue holds distinct vertices, read at most to the end."""
        graph = build_opg(family)
        assert len(graph.edges) > len(graph.vertices)
        realise(family.support(), MonoidKind.N)
        assert searches and all(any(tree is t for t in trees) and goal != tree[0] for tree, goal in searches)
        roots = [root for root, _, _, _ in trees]
        assert 0 < len(roots) == len(set(roots)) <= len(graph.vertices)
        for root, via, queue, read in trees:
            assert queue[0] == root and len(set(queue)) == len(queue)
            assert 0 < read <= len(queue)

    def test_decompose_makes_one_search_per_part(self, family, searches, trees):
        parts = decompose_cycles(family)
        assert len(parts) > 5 and not trees
        assert len(searches) == len(parts)
        assert all(goal == tree[0] for tree, goal in searches)
        assert len({id(tree) for tree, _ in searches}) == len(parts)

    def test_unbalanced_residuals_are_refused(self, family):
        """A family that skips the pairwise check, with one row's weight
        raised: the weights no longer balance at that row's ends."""
        relations = list(family.maximal_relations())
        first = relations[0]
        rows = dict(first._rows)
        key = next(iter(rows))
        rows[key] += 1
        relations[0] = KRelation(first.variables, first.kind, rows)
        broken = ContextualFamily._unchecked(family.contexts, family.kind, relations)
        with pytest.raises(AssertionError, match="residual is not a circulation"):
            decompose_cycles(broken)


@pytest.fixture
def vertex_hashes(monkeypatch):
    """Counts OpgVertex hashes from here on."""
    calls = []
    original = OpgVertex.__hash__

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(OpgVertex, "__hash__", counting)
    return calls


@pytest.fixture(scope="module")
def family():
    """An N-family over a five-context cycle whose every edge lies on a cycle."""
    return walk_family(random.Random(1), MonoidKind.N, [1, 2, 3], contexts_count=5)


class TestNoVertexLookups:
    """Graph paths read the integer adjacency and edge ends that build_opg
    numbers, so none of them hashes a vertex."""

    def test_uncovered_edges_hash_no_vertex_per_edge(self, family, vertex_hashes):
        graph = build_opg(family)
        assert len(graph.edges) > len(graph.vertices)
        vertex_hashes.clear()
        graph.uncovered_edges()
        assert len(vertex_hashes) <= len(graph.vertices)

    def test_decompose_hashes_no_vertex_per_edge(self, family, vertex_hashes):
        vertices = len(build_opg(family).vertices)
        vertex_hashes.clear()
        decompose_cycles(family)
        assert len(vertex_hashes) <= vertices

    @pytest.mark.parametrize(
        "run",
        [
            build_opg,
            lambda family: build_opg(family).uncovered_edges(),
            lambda family: realise(family.support(), MonoidKind.N),
            decompose_cycles,
            lambda family: lift_uniform(
                decompose_cycles(family)[0][1], MonoidValue.of(MonoidKind.N, 2)
            ),
        ],
        ids=["build_opg", "uncovered_edges", "realise", "decompose_cycles", "lift_uniform"],
    )
    def test_graph_paths_hash_no_vertex(self, family, vertex_hashes, run):
        run(family)
        assert vertex_hashes == []


@pytest.fixture
def assignments_built(monkeypatch):
    """Counts Assignment constructions, checked and unchecked, from here on."""
    calls = []
    init, unchecked = Assignment.__init__, Assignment._sorted.__func__

    def counting_init(self, bindings):
        calls.append(1)
        init(self, bindings)

    def counting_sorted(cls, pairs):
        calls.append(1)
        return unchecked(cls, pairs)

    monkeypatch.setattr(Assignment, "__init__", counting_init)
    monkeypatch.setattr(Assignment, "_sorted", classmethod(counting_sorted))
    return calls


def opg_command(family, dot=False):
    """The ``opg`` command on ``family`` written as a document: its stdout,
    and with ``dot`` the DOT text it writes."""
    with tempfile.TemporaryDirectory() as work:
        path, dot_path = Path(work) / "family.fam", Path(work) / "opg.dot"
        path.write_text(serialize_family(family))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["opg", str(path)] + (["--dot", str(dot_path)] if dot else []))
        assert code == 0
        return out.getvalue(), dot_path.read_text() if dot else None


class TestNoAssignmentBuilt:
    """The graph holds value tuples, so the graph paths and the ``opg``
    writer build no row object; ``boundary`` and ``label`` build one only
    when read."""

    @pytest.mark.parametrize(
        "run",
        [
            build_opg,
            lambda family: build_opg(family).uncovered_edges(),
            lambda family: realise(family.support(), MonoidKind.N),
            decompose_cycles,
            opg_command,
            lambda family: opg_command(family, dot=True),
        ],
        ids=["build_opg", "uncovered_edges", "realise", "decompose_cycles", "opg", "opg-dot"],
    )
    def test_graph_paths_build_no_assignment(self, family, assignments_built, run):
        assert build_opg(family).uncovered_edges() == ()
        assignments_built.clear()
        run(family)
        assert assignments_built == []

    def test_each_read_builds_one(self, family, assignments_built):
        graph = build_opg(family)
        edge = graph.edges[0]
        assert edge.label == edge.label and edge.source.boundary == edge.source.boundary
        assert len(assignments_built) == 4


@pytest.fixture
def edges_built(monkeypatch):
    """Counts OpgEdge constructions from here on."""
    calls = []
    init = OpgEdge.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OpgEdge, "__init__", counting)
    return calls


class TestEdgesBuiltOnRead:
    """The graph keeps its edges as numbered rows: the graph paths and the
    ``opg`` writer build no OpgEdge, a refusal builds the edges it
    reports, and ``edges`` builds every edge once, on first read."""

    @pytest.mark.parametrize(
        "run",
        [build_opg, decompose_cycles, opg_command, lambda family: opg_command(family, dot=True)],
        ids=["build_opg", "decompose_cycles", "opg", "opg-dot"],
    )
    def test_graph_paths_build_no_edge(self, family, edges_built, run):
        run(family)
        assert edges_built == []

    def test_uncovered_edges_builds_what_it_returns(self, edges_built):
        rng = random.Random(6)
        checked = 0
        for _ in range(20):
            try:
                support = with_cross_row(rng, walk_family(rng, MonoidKind.B, [1], components=2))
            except ValueError:
                continue  # the cross row broke local consistency
            graph = build_opg(support)
            edges_built.clear()
            uncovered = graph.uncovered_edges()
            assert uncovered and len(edges_built) == len(uncovered)
            edges_built.clear()
            with pytest.raises(NotRealisableError) as refused:
                realise(support, MonoidKind.N)
            assert refused.value.uncovered == uncovered
            assert len(edges_built) == len(uncovered)
            # Once the edges are read, the kept objects are returned.
            k = build_opg(support).edges.index(uncovered[0])
            edges = graph.edges
            assert graph.uncovered_edges()[0] is edges[k]
            checked += 1
        assert checked >= 10

    def test_cycle_refusal_builds_the_one_edge(self, teaching_family, edges_built):
        (edge,) = build_opg(teaching_family).uncovered_edges()
        k = build_opg(teaching_family).edges.index(edge)
        graph = build_opg(teaching_family)
        edges_built.clear()
        with pytest.raises(NotRealisableError) as refused:
            find_simple_cycle_through(graph, k)
        assert refused.value.uncovered == (edge,)
        assert len(edges_built) == 1

    def test_edges_are_built_once_on_first_read(self, family, edges_built):
        graph = build_opg(family)
        edges_built.clear()
        first = graph.edges
        assert len(edges_built) == len(first) > 0
        assert graph.edges is first
        assert len(edges_built) == len(first)
        assert find_simple_cycle_through(graph, 3)[0] is first[3]


def reference_opg_listing(graph):
    """The ``opg`` command's stdout as it was written edge object by edge
    object: each vertex's text, then each edge's ends and label."""
    lines = [
        f"overlap projection graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges",
        "cycle order: " + " | ".join(" ".join(sorted(r.variables)) for r in graph.relations),
    ]
    lines += [f"vertex {v}" for v in graph.vertices]
    lines += [f"edge {e.source} -> {e.target}  {e.label}" for e in graph.edges]
    return "\n".join(lines) + "\n"


def reference_dot(graph):
    """The DOT text as it was written from the edge objects' labels."""
    escape = str.maketrans({"\\": "\\\\", '"': '\\"'})
    number = {v: i for i, v in enumerate(graph.vertices)}
    lines = ["digraph opg {", "  rankdir=LR;"]
    lines += [f'  {i} [label="{str(v).translate(escape)}"];' for i, v in enumerate(graph.vertices)]
    lines += [
        f'  {number[e.source]} -> {number[e.target]} [label="{str(e.label).translate(escape)}"];'
        for e in graph.edges
    ]
    return "\n".join(lines + ["}"]) + "\n"


class TestWrittenAsBefore:
    """The writers that format the numbered rows print what the edge
    objects printed: the ``opg`` listing, the DOT text and each refused
    edge's text, on letter and digit tokens, with planted cross rows."""

    @pytest.mark.parametrize("digits", [False, True], ids=["str", "digits"])
    def test_listing_dot_and_refusals(self, digits):
        rng = random.Random(f"written/{digits}")
        uncovered = 0
        for i in range(30):
            if i % 2 == 0:
                family = walk_family(rng, MonoidKind.N, [1, 2], digits=digits)
            else:
                family = walk_family(rng, MonoidKind.B, [1], components=2, digits=digits)
                try:
                    family = with_cross_row(rng, family)
                except ValueError:
                    pass  # the cross row broke local consistency
            graph = build_opg(family)
            listing = reference_opg_listing(build_opg(family)).splitlines()
            shown, edges = graph.texts()
            assert listing[2:] == [f"vertex {t}" for t in shown] + [f"edge {t}" for t in edges]
            assert graph.to_dot() == reference_dot(graph)
            assert [f"edge {e.describe()}" for e in graph.edges] == listing[2 + len(shown):]
            refused = build_opg(family).uncovered_edges()
            assert [e.describe() for e in refused] == [
                f"{e.source} -> {e.target}  {e.label}" for e in refused
            ]
            uncovered += bool(refused)
            # The document reads back with the rows in stored order.
            assert opg_command(family, dot=True) == (
                reference_opg_listing(graph), reference_dot(graph)
            )
        assert uncovered >= 5

    def test_names_with_braces(self):
        family = parse_family(
            "monoid B\ncontext x{ y}\n0 0\n1 1\ncontext y} {z}\n0 0\n1 1\n"
            "context x{ {z}\n0 0\n1 1\n"
        )
        graph = build_opg(family)
        assert graph.texts()[1][0] == "2:0 -> 0:0  x{=0,y}=0"
        assert opg_command(family, dot=True) == (reference_opg_listing(graph), reference_dot(graph))


class TestShownAsBefore:
    """What a vertex and an edge show is what the Assignments that
    build_opg stored showed: each row of the cycle's relations, in stored
    order, as the edge label, and its restrictions to the two boundaries
    as the vertices it joins."""

    @pytest.mark.parametrize("digits", [False, True], ids=["str", "digits"])
    def test_labels_boundaries_and_text(self, digits):
        rng = random.Random(f"shown/{digits}")
        for _ in range(10):
            family = walk_family(rng, MonoidKind.N, [1, 2], digits=digits)
            graph = build_opg(family)
            contexts = classify_chordless_cycle(family.contexts)
            assert [r.variables for r in graph.relations] == list(contexts)
            n = len(contexts)
            labels = [r for c in contexts for r, _ in family.relation_at(c).rows()]
            assert [e.label for e in graph.edges] == labels

            def text(layer, boundary):
                return f"{layer}:" + ",".join(str(val) for _, val in boundary.items())

            for e, label in zip(graph.edges, labels):
                i = e.context_index
                before = restrict(label, contexts[i - 1] & contexts[i])
                after = restrict(label, contexts[i] & contexts[(i + 1) % n])
                assert (e.source.layer, e.source.boundary) == ((i - 1) % n, before)
                assert (e.target.layer, e.target.boundary) == (i, after)
                assert str(e.source) == text((i - 1) % n, before)
                assert e.describe() == f"{text((i - 1) % n, before)} -> {text(i, after)}  {label}"
            for a in graph.vertices:
                for b in graph.vertices:
                    assert (a == b) == ((a.layer, a.boundary) == (b.layer, b.boundary))
            shown = [text(v.layer, v.boundary) for v in graph.vertices]
            ends = [(graph.vertices.index(e.source), graph.vertices.index(e.target)) for e in graph.edges]
            dot = ["digraph opg {", "  rankdir=LR;"]
            dot += [f'  {i} [label="{s}"];' for i, s in enumerate(shown)]
            dot += [f'  {s} -> {t} [label="{label}"];' for (s, t), label in zip(ends, labels)]
            assert graph.to_dot() == "\n".join(dot + ["}"]) + "\n"

    def test_labels_are_read_only_and_edges_pickle(self, unit_triangle):
        edge = build_opg(unit_triangle).edges[0]
        assert pickle.loads(pickle.dumps(edge)) == edge
        with pytest.raises(AttributeError):
            edge.label = edge.label
        with pytest.raises(AttributeError):
            edge.source.boundary = edge.source.boundary


def stored(family):
    """What a family shows: its serialised text and, relation by relation,
    its stored rows in order."""
    return serialize_family(family), [list(r._rows.items()) for r in family.maximal_relations()]


def answer(call, *args):
    """The result of a call, families shown by :func:`stored`, or the type,
    message and uncovered edges of the ``ValueError`` it raised."""
    try:
        result = call(*args)
    except ValueError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "uncovered", None))
    if isinstance(result, ContextualFamily):
        return ("family", stored(result))
    return ("value", result)


def digit_tokens(family):
    """The same family with each string token ``v<n>`` replaced by the
    digits of n + 9, so that row order ("10" before "9") is not numeric
    order."""
    return ContextualFamily(
        [KRelation(r.variables, r.kind, {tuple(str(int(v[1:]) + 9) for v in key): p
                                         for key, p in r._rows.items()})
         for r in family.maximal_relations()]
    )


def reweighted(rng, support, kind, weights):
    """The support annotated with random nonzero weights of ``kind``,
    without the pairwise check: a locally consistent weighted family is
    its own realisation, so an unrealisable support has no checked
    weighted family, but the entry points read only its support."""
    relations = [
        KRelation(r.variables, kind, {key: MonoidValue.of(kind, rng.choice(weights)).payload
                                      for key in r._rows})
        for r in support.maximal_relations()
    ]
    return ContextualFamily._unchecked(support.contexts, kind, relations)


WEIGHTED = [
    (MonoidKind.N, [1, 2, 3]),
    (MonoidKind.Q, [Fraction(1, 2), 1, Fraction(5, 3)]),
]

ENTRY_POINTS = {
    "realise-N": (realise, MonoidKind.N),
    "realise-Q": (realise, MonoidKind.Q),
    "realise-N-2": (realise, MonoidKind.N, MonoidValue.of(MonoidKind.N, 2)),
    "realise-Q-3/2": (realise, MonoidKind.Q, MonoidValue.of(MonoidKind.Q, Fraction(3, 2))),
    "realise-B": (realise, MonoidKind.B),
    "find_realisation-N": (find_realisation, MonoidKind.N),
    "find_realisation-Q": (find_realisation, MonoidKind.Q),
    "find_realisation-B": (find_realisation, MonoidKind.B),
    "uncovered_edges": (lambda family: build_opg(family).uncovered_edges(),),
    "realisable_lp-N": (realisable_lp, MonoidKind.N),
    "realisable_lp-Q": (realisable_lp, MonoidKind.Q),
    "lift_uniform-N-2": (lift_uniform, MonoidValue.of(MonoidKind.N, 2)),
}


class TestAnyKind:
    """Every realisability entry point reads only the support: an N or Q
    family gets the answer, refusals included, that its B support gets,
    down to the witness's serialised bytes and stored row order."""

    def assert_as_support(self, family):
        support = family.support()
        assert family.kind is not MonoidKind.B and support.kind is MonoidKind.B
        answers = {}
        for name, (call, *args) in ENTRY_POINTS.items():
            answers[name] = answer(call, family, *args)
            assert answers[name] == answer(call, support, *args), name
        return answers

    @pytest.mark.parametrize("digits", [False, True], ids=["str", "digits"])
    @pytest.mark.parametrize("kind, weights", WEIGHTED, ids=["N", "Q"])
    def test_walk_families(self, kind, weights, digits):
        """Cycles: the graph witness, the graph test and the LP, and the
        lifts of the decomposition parts lifted to N."""
        rng = random.Random(f"any-kind/{kind}/{digits}")
        witnesses = lifts = 0
        for _ in range(12):
            family = walk_family(rng, kind, weights, digits=digits)
            answers = self.assert_as_support(family)
            witnesses += sum(a[0] == "family" for a in answers.values())
            for weight, part in decompose_cycles(family):
                lifted = lift_uniform(part, MonoidValue.one(MonoidKind.N))
                for w in (weight, MonoidValue.of(MonoidKind.N, 3)):
                    assert answer(lift_uniform, lifted, w) == answer(lift_uniform, part, w)
                    lifts += 1
        assert witnesses > 60 and lifts > 50

    @pytest.mark.parametrize("digits", [False, True], ids=["str", "digits"])
    @pytest.mark.parametrize("kind", [MonoidKind.N, MonoidKind.Q], ids=["N", "Q"])
    def test_shapes(self, kind, digits):
        """Other context sets: the LP witness, and the same
        NotChordlessCycleError from the graph paths."""
        lp = 0
        for shape in sorted(SHAPES):
            for seed in range(2):
                family = marginal_family(shape, kind, 6, 3, seed)
                answers = self.assert_as_support(digit_tokens(family) if digits else family)
                lp += answers["find_realisation-N"][0] == "family"
                assert answers["realise-N"][1] is NotChordlessCycleError
        assert lp == 2 * len(SHAPES)

    @pytest.mark.parametrize("digits", [False, True], ids=["str", "digits"])
    @pytest.mark.parametrize("kind, weights", WEIGHTED, ids=["N", "Q"])
    def test_planted_uncovered_edges(self, kind, weights, digits):
        """Unrealisable supports: a cross row between two walk components,
        and the five-context family the LP refuses."""
        rng = random.Random(f"planted/{kind}/{digits}")
        refused = 0
        for _ in range(20):
            support = walk_family(rng, MonoidKind.B, [1], components=2, digits=digits)
            try:
                support = with_cross_row(rng, support)
            except ValueError:
                continue  # the cross row broke local consistency
            answers = self.assert_as_support(reweighted(rng, support, kind, weights))
            assert answers["realise-N"][1] is NotRealisableError and answers["realise-N"][3]
            refused += 1
        assert refused >= 10

    def test_lp_refusal(self, five_context_family):
        rng = random.Random(6)
        for kind, weights in WEIGHTED:
            answers = self.assert_as_support(reweighted(rng, five_context_family, kind, weights))
            assert answers["find_realisation-N"] == (
                "raised", NotRealisableError, "support is not realisable", ())


class TestWitnessStillValidated:
    """``realise`` does not compare the witness's support with the input's:
    the witness annotates the input's own rows, so a zero count is refused
    by the relation constructor and an unbalanced one by the pairwise
    check.  A wrong cycle from the search cannot get through either."""

    @pytest.mark.parametrize("digits", [False, True], ids=["str", "digits"])
    @pytest.mark.parametrize("kind, weights", WEIGHTED, ids=["N", "Q"])
    @pytest.mark.parametrize("wrong", ["unbalanced", "edge-left-out"])
    def test_a_wrong_cycle_is_refused(self, monkeypatch, kind, weights, digits, wrong):
        family = walk_family(random.Random(f"wrong/{kind}/{digits}"), kind, weights,
                             contexts_count=4, components=1, digits=digits)
        assert answer(realise, family, kind)[0] == "family"
        original = realisability.find_simple_cycle_through
        calls = []

        def search(graph, k):
            """The cycle of edge 0 without its second edge, or every cycle
            without edge 0."""
            cycle = original(graph, k)
            calls.append(k)
            if wrong == "unbalanced":
                return cycle[:1] + cycle[2:] if k == 0 else cycle
            return [e for e in cycle if e is not graph.edges[0]]

        monkeypatch.setattr(realisability, "find_simple_cycle_through", search)
        for given in (family, family.support()):
            if wrong == "unbalanced":
                with pytest.raises(LocalConsistencyError):
                    realise(given, kind)
            else:
                with pytest.raises(ValueError, match="^zero annotation stored for row "):
                    realise(given, kind)
        assert calls.count(0) == 2
