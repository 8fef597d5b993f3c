"""Overlap projection graphs, cycle covers, realisation, decomposition."""

import random
from fractions import Fraction

import pytest

from ctxfam.family import ContextSet, ContextualFamily
from ctxfam.fdlogic import FD, random_family_satisfying
from ctxfam.formats import parse_family
from ctxfam.monoid import MonoidKind, MonoidValue, subtract
from ctxfam.relation import Assignment, KRelation
from ctxfam.realisability import (
    NotChordlessCycleError,
    NotRealisableError,
    NotSimplyCyclicError,
    OpgVertex,
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
        labels = graph._component_labels()
        assert sorted(labels.count(c) for c in set(labels)) == [3, 3]
        assert graph.has_edge_cycle_cover

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
        weights = realisable_lp(family, MonoidKind.N)
        assert find_realisation(family, MonoidKind.N) == family_from_weights(
            family.contexts, weights, MonoidKind.N
        )

    def test_lp_refusal_has_no_uncovered_edges(self, five_context_family):
        with pytest.raises(NotRealisableError) as err:
            find_realisation(five_context_family, MonoidKind.Q)
        assert err.value.uncovered == ()

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
                    remaining = subtract(rows[lab], least)
                    if remaining.is_zero:
                        del rows[lab]
                    else:
                        rows[lab] = remaining
            updated.append(KRelation.from_assignments(rel.variables, rel.kind, rows))
        current = ContextualFamily(updated)
    return parts


def walk_family(rng, kind, weights, contexts_count=None, components=None,
                walks=(1, 3), domain=(2, 3), ints=False):
    """A locally consistent family over a chordless cycle of binary and
    ternary contexts: the sum of closed walks around the cycle, each
    carrying one weight, in value-disjoint components.

    Context i binds x_i and x_{i+1} (and a private m_i when ternary).  A
    walk of winding w picks n*w values a_s and at step s adds a row
    x_i = a_s, x_{i+1} = a_{s+1} to context i = s mod n, so every
    boundary value is entered and left equally often.

    Values are strings ``c<component>v<value>``, or with ``ints`` the
    ints ``100 * component + 9 + value``: they start at 9, so row order
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
                100 * comp + 9 + v if ints else f"c{comp}v{v}"
                for v in (rng.randrange(size) for _ in range(length))
            ]
            w = rng.choice(weights)
            for step in range(length):
                i = step % n
                key = (values[step], values[(step + 1) % length])
                if len(contexts[i]) == 3:
                    private = rng.randrange(2)
                    key += (private if ints else f"p{private}",)
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
    right = next(r for r in rows if component_of(r[out_var]) != component_of(left[out_var]))
    cross = Assignment(
        {v: (right[v] if v == out_var else left[v]) for v in rels[at].variables}
    )
    rels[at] = KRelation.boolean(rels[at].variables, rows + [cross])
    return ContextualFamily(rels)


def component_of(value):
    """The walk_family component a value belongs to."""
    return (value - 9) // 100 if isinstance(value, int) else value.split("v")[0]


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

    def test_edges_come_in_context_then_label_order(self):
        """The graph keeps build_opg's edge order without sorting it, and
        its vertices in layer and then row order, also for int tokens,
        whose row order is not their numeric order."""
        rng = random.Random(4)
        unlike_numeric = 0
        for ints in (False, True):
            for kind, weights in [(MonoidKind.B, [1]), (MonoidKind.N, [1, 2, 3])]:
                for _ in range(25):
                    graph = build_opg(walk_family(rng, kind, weights, ints=ints))
                    keys = [(e.context_index, e.label.sort_key) for e in graph.edges]
                    assert keys == sorted(keys)
                    ends = {e.source for e in graph.edges} | {e.target for e in graph.edges}
                    assert set(graph.vertices) == ends
                    assert len(graph.vertices) == len(ends)
                    order = [(v.layer, v.boundary.sort_key) for v in graph.vertices]
                    assert order == sorted(order)
                    if ints:
                        numeric = [(v.layer, v.boundary.items()) for v in graph.vertices]
                        unlike_numeric += numeric != sorted(numeric)
        assert unlike_numeric > 10

    def test_cycle_search_matches_the_reference(self):
        rng = random.Random(2)
        for ints in (False, True):
            for _ in range(25):
                graph = build_opg(walk_family(rng, MonoidKind.B, [1], ints=ints))
                for k, edge in enumerate(graph.edges):
                    assert find_simple_cycle_through(graph, k) == (
                        reference_cycle_through(graph, edge)
                    )

    def test_components_match_object_adjacency(self):
        rng = random.Random(2)
        for ints in (False, True):
            several = uncovered = 0
            for i in range(60):
                if i % 2 == 0:
                    family = walk_family(rng, MonoidKind.B, [1], ints=ints)
                else:
                    family = walk_family(rng, MonoidKind.B, [1], components=2, ints=ints)
                    try:
                        family = with_cross_row(rng, family)
                    except ValueError:
                        pass  # the cross row broke local consistency
                graph = build_opg(family)
                labels, cut, out, inc = reference_components(graph)
                assert graph._component_labels() == labels
                assert graph.uncovered_edges() == cut
                for i, v in enumerate(graph.vertices):
                    assert [graph.edges[k] for k, _ in graph._succ[i]] == out[v]
                    assert [graph.edges[k] for k, (_, t) in enumerate(graph._ends)
                            if t == i] == inc[v]
                assert [(graph.vertices[s], graph.vertices[t]) for s, t in graph._ends] == [
                    (e.source, e.target) for e in graph.edges
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
        rng = random.Random(f"decompose/{kind}/{weights}")
        for _ in range(30):
            family = walk_family(rng, kind, weights)
            parts = decompose_cycles(family)
            assert parts == reference_decompose(family)
            total = None
            for weight, sub in parts:
                # Parts skip the pairwise check; the constructor accepts them.
                assert ContextualFamily(list(sub.maximal_relations())) == sub
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

    def test_decompose_validates_no_part(self, large, constructions):
        parts = decompose_cycles(large)
        assert len(parts) > 10 and not constructions


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


class TestNoVertexLookups:
    """Graph paths read the integer adjacency and edge ends that build_opg
    numbers, so none of them hashes a vertex."""

    @pytest.fixture(scope="class")
    def family(self):
        return walk_family(random.Random(1), MonoidKind.N, [1, 2, 3], contexts_count=5)

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
