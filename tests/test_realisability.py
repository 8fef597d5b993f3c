"""Overlap projection graphs, cycle covers, realisation, decomposition."""

import random
from fractions import Fraction

import pytest

from ctxfam.family import ContextSet, ContextualFamily
from ctxfam.fdlogic import FD, random_family_satisfying
from ctxfam.monoid import MonoidKind, MonoidValue, subtract
from ctxfam.relation import Assignment, KRelation
from ctxfam.realisability import (
    NotChordlessCycleError,
    NotRealisableError,
    NotSimplyCyclicError,
    build_opg,
    classify_chordless_cycle,
    decompose_cycles,
    family_from_weights,
    find_realisation,
    find_simple_cycle_through,
    lift_uniform,
    realisable_chordless,
    realisable_lp,
    realise,
)

from conftest import CS, ST, TC, brel, cycle_contexts, row, wrel


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
        ordering = classify_chordless_cycle(teaching_family.contexts)
        names = [tuple(sorted(c)) for c in ordering.contexts]
        assert names == [
            ("Course", "Student"),
            ("Course", "Teacher"),
            ("Student", "Teacher"),
        ]
        assert ordering.boundary(0) == frozenset({"Course"})
        assert ordering.boundary(1) == frozenset({"Teacher"})
        assert ordering.boundary(2) == frozenset({"Student"})

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
        ordering = classify_chordless_cycle(cs)
        assert len(ordering.contexts) == 5
        for i, context in enumerate(ordering.contexts):
            nxt = ordering.contexts[(i + 1) % 5]
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
        components = graph.strongly_connected_components()
        assert sorted(len(c) for c in components) == [3, 3]
        assert graph.has_edge_cycle_cover

    def test_layers_advance_cyclically(self, teaching_family):
        graph = build_opg(teaching_family)
        size = 3
        for edge in graph.edges:
            assert edge.target.layer == edge.context_index
            assert edge.source.layer == (edge.context_index - 1) % size

    def test_weights_do_not_change_the_graph(self, unit_triangle):
        weighted = unit_triangle.scale(MonoidValue.of(MonoidKind.N, 2))
        assert build_opg(weighted).edges == build_opg(unit_triangle).edges


class TestCycleCover:
    def test_teaching_graph_has_one_uncovered_edge(self, teaching_family):
        graph = build_opg(teaching_family)
        uncovered = graph.uncovered_edges()
        assert len(uncovered) == 1
        assert uncovered[0].label == row(CS, ("CS", "Alice"))
        assert not graph.has_edge_cycle_cover

    def test_extension_covers_every_edge(self, extended_family):
        graph = build_opg(extended_family)
        assert graph.uncovered_edges() == ()
        assert graph.has_edge_cycle_cover

    def test_single_triangle_is_covered(self, unit_triangle):
        assert build_opg(unit_triangle).has_edge_cycle_cover


class TestRealisableChordless:
    def test_teaching_family_is_not_realisable(self, teaching_family):
        assert not realisable_chordless(teaching_family, MonoidKind.N)
        assert not realisable_chordless(teaching_family, MonoidKind.Q)

    def test_extension_is_realisable(self, extended_family):
        assert realisable_chordless(extended_family, MonoidKind.N)

    def test_triangle_is_realisable(self, unit_triangle):
        assert realisable_chordless(unit_triangle, MonoidKind.Q)

    def test_boolean_kind_rejected(self, unit_triangle):
        with pytest.raises(ValueError):
            realisable_chordless(unit_triangle, MonoidKind.B)

    def test_non_chordless_contexts_rejected(self, five_context_family):
        with pytest.raises(NotChordlessCycleError):
            realisable_chordless(five_context_family, MonoidKind.N)


class TestSimpleCycles:
    def test_short_cycle_beside_the_long_one(self, teaching_family):
        graph = build_opg(teaching_family)
        (edge,) = [
            e for e in graph.edges if e.label == row(ST, ("Bob", "David"))
        ]
        cycle = find_simple_cycle_through(graph, edge)
        vertices = {v.boundary for e in cycle for v in (e.source, e.target)}
        assert len(cycle) == 3
        assert vertices == {
            row(("Course",), ("CS",)),
            row(("Student",), ("Bob",)),
            row(("Teacher",), ("David",)),
        }

    def test_extension_edge_needs_the_full_tour(self, extended_family):
        graph = build_opg(extended_family)
        (edge,) = [
            e for e in graph.edges if e.label == row(CS, ("CS", "Alice"))
        ]
        cycle = find_simple_cycle_through(graph, edge)
        assert len(cycle) == 6
        assert {v for e in cycle for v in (e.source, e.target)} == set(graph.vertices)

    def test_uncovered_edge_has_no_cycle(self, teaching_family):
        graph = build_opg(teaching_family)
        (edge,) = [
            e for e in graph.edges if e.label == row(CS, ("CS", "Alice"))
        ]
        with pytest.raises(NotRealisableError):
            find_simple_cycle_through(graph, edge)


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

    def test_unrealisable_family_raises_with_the_edge(self, teaching_family):
        with pytest.raises(NotRealisableError) as err:
            realise(teaching_family, MonoidKind.N)
        assert len(err.value.uncovered) == 1
        assert err.value.uncovered[0].label == row(CS, ("CS", "Alice"))

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
        weighted = unit_triangle.scale(MonoidValue.of(MonoidKind.Q, 1))
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
        weights = realisable_lp(family, MonoidKind.N)
        assert find_realisation(family, MonoidKind.N) == family_from_weights(
            family.contexts, weights, MonoidKind.N
        )

    def test_lp_refusal_has_no_uncovered_edges(self, five_context_family):
        with pytest.raises(NotRealisableError) as err:
            find_realisation(five_context_family, MonoidKind.Q)
        assert err.value.uncovered == ()


class TestRealisableLp:
    def test_teaching_family_infeasible(self, teaching_family):
        assert realisable_lp(teaching_family, MonoidKind.Q) is None
        assert realisable_lp(teaching_family, MonoidKind.N) is None

    def test_extension_feasible_with_integer_witness(self, extended_family):
        weights = realisable_lp(extended_family, MonoidKind.N)
        assert weights is not None
        assert all(
            isinstance(w.payload, int) and w.payload >= 1 for w in weights.values()
        )
        witness = family_from_weights(extended_family.contexts, weights, MonoidKind.N)
        assert witness.support() == extended_family

    def test_five_context_family_infeasible(self, five_context_family):
        assert realisable_lp(five_context_family, MonoidKind.Q) is None

    def test_triangle_restrictions_feasible(self, five_context_family):
        for names in ((("a", "b"), ("b", "c"), ("c", "a")),
                      (("a", "d"), ("d", "c"), ("c", "a"))):
            restriction = ContextualFamily(
                [
                    five_context_family.relation_at(frozenset(pair))
                    for pair in names
                ]
            )
            weights = realisable_lp(restriction, MonoidKind.Q)
            covered = build_opg(restriction).has_edge_cycle_cover
            assert weights is not None
            assert covered

    def test_agrees_with_cycle_cover_on_random_cycles(self):
        rng = random.Random(17)
        checked = 0
        while checked < 40:
            contexts = cycle_contexts(rng.randint(3, 5))
            family = random_family_satisfying(
                [FD.cd(c) for c in contexts], rng, domain_size=2, max_rows=4
            )
            if family is None or not any(
                len(r) for r in family.maximal_relations()
            ):
                continue
            feasible = realisable_lp(family, MonoidKind.Q) is not None
            covered = build_opg(family).has_edge_cycle_cover
            assert feasible == covered
            checked += 1


class TestDot:
    def test_triangle_dot_is_stable(self, unit_triangle):
        expected = (
            "digraph opg {\n"
            "  rankdir=LR;\n"
            '  "0:0";\n'
            '  "1:0";\n'
            '  "2:0";\n'
            '  "2:0" -> "0:0" [label="x=0,y=0"];\n'
            '  "0:0" -> "1:0" [label="x=0,z=0"];\n'
            '  "1:0" -> "2:0" [label="y=0,z=0"];\n'
            "}\n"
        )
        assert build_opg(unit_triangle).to_dot() == expected

    def test_dot_is_deterministic(self, teaching_family):
        first = build_opg(teaching_family).to_dot()
        second = build_opg(teaching_family).to_dot()
        assert first == second


# ---------------------------------------------------------------------------
# The sum-of-lifts realisation and the rebuild-and-peel decomposition that
# realise and decompose_cycles replaced, kept as references: they rebuild
# a family per cycle, so they are only fit for small inputs.


def reference_cycle_through(graph, edge):
    start, goal = edge.target, edge.source
    if start == goal:
        return [edge]
    parent, queue, seen = {}, [start], {start}
    while queue:
        fresh = []
        for node in queue:
            for e in graph.out_edges(node):
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
    grouped = {c: [] for c in contexts}
    for label in labels:
        grouped[label.variables].append(label)
    return ContextualFamily([KRelation.boolean(c, rs) for c, rs in grouped.items()])


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
        for first in graph.out_edges(start):
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
                    remaining = subtract(rows[lab], least)
                    if remaining.is_zero:
                        del rows[lab]
                    else:
                        rows[lab] = remaining
            updated.append(KRelation(rel.variables, rel.kind, rows))
        current = ContextualFamily(updated)
    return parts


def walk_family(rng, kind, weights, contexts_count=None, components=None,
                walks=(1, 3), domain=(2, 3)):
    """A locally consistent family over a chordless cycle of binary and
    ternary contexts: the sum of closed walks around the cycle, each
    carrying one weight, in value-disjoint components.

    Context i binds x_i and x_{i+1} (and a private m_i when ternary).  A
    walk of winding w picks n*w values a_s and at step s adds a row
    x_i = a_s, x_{i+1} = a_{s+1} to context i = s mod n, so every
    boundary value is entered and left equally often."""
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
            values = [f"c{comp}v{rng.randrange(size)}" for _ in range(length)]
            w = rng.choice(weights)
            for step in range(length):
                i = step % n
                key = (values[step], values[(step + 1) % length])
                if len(contexts[i]) == 3:
                    key += (f"p{rng.randrange(2)}",)
                total[i][key] = total[i].get(key, 0) + w
    return ContextualFamily(
        [
            KRelation(
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


def with_cross_row(rng, family):
    """The support plus one row from one component into another at a
    random context: its edge lies on no cycle."""
    rels = list(family.maximal_relations())
    at = rng.randrange(len(rels))
    rows = sorted(rels[at].support, key=lambda a: a.sort_key)
    ordering = classify_chordless_cycle(family.contexts)
    i = ordering.contexts.index(rels[at].variables)
    out_var = next(iter(ordering.boundary(i)))
    left = rows[0]
    component = left[out_var].split("v")[0]
    right = next(r for r in rows if not r[out_var].startswith(component + "v"))
    cross = Assignment(
        {v: (right[v] if v == out_var else left[v]) for v in rels[at].variables}
    )
    rels[at] = KRelation.boolean(rels[at].variables, rows + [cross])
    return ContextualFamily(rels)


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
            several += len(build_opg(support).strongly_connected_components()) > 1
            assert realise(support, kind, weight) == reference_realise(
                support, kind, weight
            )
        assert sizes == {3, 4, 5, 6} and several

    def test_cycle_search_matches_the_reference(self):
        rng = random.Random(2)
        for _ in range(25):
            graph = build_opg(walk_family(rng, MonoidKind.B, [1]))
            for edge in graph.edges:
                assert find_simple_cycle_through(graph, edge) == (
                    reference_cycle_through(graph, edge)
                )

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
        rng = random.Random(f"decompose/{kind}/{weights}")
        for _ in range(30):
            family = walk_family(rng, kind, weights)
            parts = decompose_cycles(family)
            assert parts == reference_decompose(family)
            total = None
            for weight, sub in parts:
                lifted = lift_uniform(sub, weight)
                total = lifted if total is None else total + lifted
            assert total == family

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

    def test_decompose_validates_one_family_per_part(self, large, constructions):
        parts = decompose_cycles(large)
        assert len(constructions) <= len(parts) + 1
