"""Context sets and contextual families: validation, sums, global witnesses."""

import random
from fractions import Fraction

import pytest

from ctxfam.family import (
    ContextError,
    ContextSet,
    ContextualFamily,
    LocalConsistencyError,
    check_global_consistency,
    find_violation,
)
from ctxfam.fdlogic import FD
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import Assignment, KRelation, scalar_fill

from conftest import (
    CS,
    ST,
    ST_ROWS,
    TC,
    TC_ROWS,
    brel,
    row,
    wrel,
)


def uniform(family, value):
    """Every supported row annotated with one value, validated as a family."""
    return ContextualFamily(
        [scalar_fill(value, r.variables, r.support) for r in family.maximal_relations()]
    )


class TestContextSet:
    def test_antichain_required(self):
        with pytest.raises(ValueError):
            ContextSet([frozenset({"x", "y"}), frozenset({"x"})])

    def test_from_sets_drops_dominated(self):
        cs = ContextSet.from_sets(
            [frozenset({"x", "y"}), frozenset({"x"}), frozenset({"y", "z"})]
        )
        assert set(cs) == {frozenset({"x", "y"}), frozenset({"y", "z"})}

    def test_membership_is_downward_closed(self):
        cs = ContextSet([frozenset({"x", "y"})])
        assert frozenset({"x"}) in cs
        assert frozenset({"x", "y"}) in cs
        assert frozenset({"x", "z"}) not in cs

    def test_iteration_is_sorted(self):
        cs = ContextSet([frozenset({"b", "c"}), frozenset({"a", "d"})])
        assert [tuple(sorted(c)) for c in cs] == [("a", "d"), ("b", "c")]


class TestLocalConsistency:
    def test_teaching_family_validates(self, teaching_family):
        assert len(teaching_family.contexts) == 3

    def test_deleting_a_row_breaks_a_student_marginal(self):
        relations = [
            brel(ST, ST_ROWS),
            brel(TC, TC_ROWS),
            brel(CS, [("Math", "Alice"), ("CS", "Alice")]),
        ]
        violation = find_violation(relations)
        assert violation is not None
        pair = {
            tuple(sorted(violation.context_a)),
            tuple(sorted(violation.context_b)),
        }
        assert pair == {("Course", "Student"), ("Student", "Teacher")}
        assert violation.overlap_row == row(("Student",), ("Bob",))
        with pytest.raises(LocalConsistencyError) as err:
            ContextualFamily(relations)
        assert err.value.violation.overlap_row == row(("Student",), ("Bob",))

    def test_uniform_weights_break_the_course_marginal(self, teaching_family):
        with pytest.raises(LocalConsistencyError) as err:
            uniform(teaching_family, MonoidValue.of(MonoidKind.N, 1))
        violation = err.value.violation
        assert violation.overlap_row == row(("Course",), ("CS",))
        assert {violation.value_a.payload, violation.value_b.payload} == {2, 1}

    def test_empty_relations_are_consistent(self):
        family = ContextualFamily(
            [brel(ST, []), brel(TC, []), brel(CS, [])]
        )
        assert all(len(r) == 0 for r in family.maximal_relations())

    def test_disjoint_contexts_need_equal_mass(self):
        a = wrel(MonoidKind.N, ("x",), [(("0",), 2)])
        b = wrel(MonoidKind.N, ("y",), [(("0",), 1)])
        violation = find_violation([a, b])
        assert violation is not None
        assert violation.overlap_row == Assignment({})
        assert "<empty row>" in violation.describe()

    def test_duplicate_contexts_rejected(self):
        with pytest.raises(ValueError):
            ContextualFamily([brel(ST, ST_ROWS), brel(ST, ST_ROWS)])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContextualFamily(
                [brel(ST, ST_ROWS), wrel(MonoidKind.N, TC, [(r, 1) for r in TC_ROWS])]
            )


class TestDerivedRelations:
    def test_lower_context_relation_is_a_marginal(self, teaching_family):
        derived = teaching_family.relation_at(frozenset({"Teacher"}))
        assert derived == brel(("Teacher",), [("Charlie",), ("David",)])

    def test_every_covering_context_gives_the_same_answer(self, teaching_family):
        shared = frozenset({"Student"})
        from_st = teaching_family.relation_at(frozenset(ST)).marginalise(shared)
        from_cs = teaching_family.relation_at(frozenset(CS)).marginalise(shared)
        assert from_st == from_cs == teaching_family.relation_at(shared)

    def test_unknown_context_rejected(self, teaching_family):
        with pytest.raises(ContextError):
            teaching_family.relation_at(frozenset({"Course", "Student", "Teacher"}))


class TestGlobalConsistency:
    def test_teaching_family_has_no_global_relation(self, teaching_family):
        assert check_global_consistency(teaching_family) is None

    def test_projections_of_one_relation_are_global(self):
        vars_ = ("x", "y", "z")
        glob = brel(vars_, [("0", "0", "0"), ("1", "1", "1")])
        family = ContextualFamily(
            [glob.marginalise({"x", "y"}), glob.marginalise({"y", "z"})]
        )
        witness = check_global_consistency(family)
        assert witness is not None
        for context in family.contexts:
            assert witness.marginalise(context) == family.relation_at(context)

    def test_weighted_two_cycle_has_integer_witness(self):
        family = ContextualFamily(
            [
                wrel(MonoidKind.N, ST, [(("Alice", "Charlie"), 1), (("Bob", "David"), 1)]),
                wrel(MonoidKind.N, TC, [(("Charlie", "Math"), 1), (("David", "CS"), 1)]),
                wrel(MonoidKind.N, CS, [(("Math", "Alice"), 1), (("CS", "Bob"), 1)]),
            ]
        )
        witness = check_global_consistency(family)
        assert witness is not None
        assert witness.kind is MonoidKind.N
        for context in family.contexts:
            assert witness.marginalise(context) == family.relation_at(context)

    def test_global_witness_respects_rational_weights(self):
        vars_ = ("x", "y", "z")
        glob = wrel(
            MonoidKind.Q,
            vars_,
            [(("0", "0", "0"), Fraction(1, 2)), (("1", "1", "0"), Fraction(3, 2))],
        )
        family = ContextualFamily(
            [glob.marginalise({"x", "y"}), glob.marginalise({"y", "z"})]
        )
        witness = check_global_consistency(family)
        assert witness is not None
        for context in family.contexts:
            assert witness.marginalise(context) == family.relation_at(context)

    def test_fractional_marginals_with_no_integer_witness(self):
        # each variable pair forces disagreement that only weight 1/2 resolves
        rows = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        anti = [("0", "1"), ("1", "0")]
        same = [("0", "0"), ("1", "1")]
        family = ContextualFamily(
            [
                wrel(MonoidKind.N, ("x", "y"), [(r, 1) for r in same]),
                wrel(MonoidKind.N, ("y", "z"), [(r, 1) for r in same]),
                wrel(MonoidKind.N, ("z", "x"), [(r, 1) for r in anti]),
            ]
        )
        assert check_global_consistency(family) is None
        scaled = ContextualFamily(
            [
                wrel(MonoidKind.Q, ("x", "y"), [(r, 1) for r in same]),
                wrel(MonoidKind.Q, ("y", "z"), [(r, 1) for r in same]),
                wrel(MonoidKind.Q, ("z", "x"), [(r, 1) for r in anti]),
            ]
        )
        assert check_global_consistency(scaled) is None

    def test_empty_family_is_globally_consistent(self):
        family = ContextualFamily([brel(ST, []), brel(TC, [])])
        witness = check_global_consistency(family)
        assert witness is not None
        assert len(witness) == 0


class TestSupportAndSums:
    def test_support_of_weighted_family_is_boolean(self, extended_family):
        weighted = ContextualFamily(
            [
                wrel(
                    MonoidKind.Q,
                    CS,
                    [
                        (("CS", "Alice"), 1),
                        (("CS", "Bob"), Fraction(3, 2)),
                        (("Math", "Alice"), Fraction(3, 2)),
                        (("Math", "Bob"), 1),
                    ],
                ),
                wrel(
                    MonoidKind.Q,
                    TC,
                    [(("Charlie", "Math"), Fraction(5, 2)), (("David", "CS"), Fraction(5, 2))],
                ),
                wrel(
                    MonoidKind.Q,
                    ST,
                    [(("Alice", "Charlie"), Fraction(5, 2)), (("Bob", "David"), Fraction(5, 2))],
                ),
            ]
        )
        support = weighted.support()
        assert support.kind is MonoidKind.B
        assert support == extended_family

    def test_uniform_scaling_fails_when_row_counts_differ(self, extended_family):
        with pytest.raises(LocalConsistencyError):
            uniform(extended_family, MonoidValue.of(MonoidKind.Q, Fraction(1, 2)))

    def test_boolean_support_is_identity(self, teaching_family):
        assert teaching_family.support() == teaching_family
        assert teaching_family.support() is teaching_family

    def test_support_matches_the_validated_construction(self):
        rng = random.Random(21)
        vars_ = ("w", "x", "y", "z")
        shapes = [
            [{"x", "y"}, {"y", "z"}],
            [{"w", "x"}, {"x", "y"}, {"y", "z"}, {"w", "z"}],
            [{"w", "x", "y"}, {"y", "z"}, {"w", "z"}],
        ]
        for n in range(60):
            kind, pool = [
                (MonoidKind.B, [1]),
                (MonoidKind.N, [1, 2, 3]),
                (MonoidKind.Q, [Fraction(1, 2), 1, 2]),
            ][n % 3]
            rows = {
                row(vars_, tuple(rng.choice("012") for _ in vars_)): MonoidValue.of(
                    kind, rng.choice(pool)
                )
                for _ in range(rng.randint(0, 6))
            }
            glob = KRelation.from_assignments(frozenset(vars_), kind, rows)
            family = ContextualFamily([glob.marginalise(c) for c in shapes[n // 3 % 3]])
            validated = ContextualFamily(
                [r.support_relation() for r in family.maximal_relations()]
            )
            support = family.support()
            assert support == validated
            assert hash(support) == hash(validated)
            assert list(support.maximal_relations()) == list(validated.maximal_relations())

    def test_addition_is_contextwise(self):
        same = [("0", "0"), ("1", "1")]
        f = ContextualFamily(
            [
                wrel(MonoidKind.N, ("x", "y"), [(r, 1) for r in same]),
                wrel(MonoidKind.N, ("y", "z"), [(r, 1) for r in same]),
            ]
        )
        doubled = f + f
        for context in f.contexts:
            assert doubled.relation_at(context) == f.relation_at(context) + f.relation_at(
                context
            )

    def test_addition_with_empty_family_is_identity(self):
        same = [("0", "0"), ("1", "1")]
        f = ContextualFamily(
            [
                wrel(MonoidKind.N, ("x", "y"), [(r, 1) for r in same]),
                wrel(MonoidKind.N, ("y", "z"), [(r, 1) for r in same]),
            ]
        )
        zero = ContextualFamily(
            [
                KRelation(frozenset({"x", "y"}), MonoidKind.N, {}),
                KRelation(frozenset({"y", "z"}), MonoidKind.N, {}),
            ]
        )
        assert f + zero == f

    def test_addition_of_random_projection_families_validates(self):
        rng = random.Random(8)
        vars_ = ("x", "y", "z")
        contexts = [{"x", "y"}, {"y", "z"}]
        for _ in range(25):
            def sample():
                rows = {
                    row(vars_, tuple(rng.choice("01") for _ in vars_)): MonoidValue.of(
                        MonoidKind.N, rng.randint(1, 3)
                    )
                    for _ in range(rng.randint(1, 4))
                }
                glob = KRelation.from_assignments(frozenset(vars_), MonoidKind.N, rows)
                return ContextualFamily([glob.marginalise(c) for c in contexts])

            f, g = sample(), sample()
            total = f + g  # revalidates on construction
            for context in f.contexts:
                assert total.relation_at(context) == f.relation_at(
                    context
                ) + g.relation_at(context)

    def test_scaling_boolean_by_one_is_identity(self, teaching_family):
        assert uniform(teaching_family, MonoidValue.one(MonoidKind.B)) == teaching_family

    def test_scaling_a_single_cycle_family_validates(self):
        triangle = ContextualFamily(
            [
                brel(("x", "y"), [("0", "0")]),
                brel(("y", "z"), [("0", "0")]),
                brel(("z", "x"), [("0", "0")]),
            ]
        )
        scaled = uniform(triangle, MonoidValue.of(MonoidKind.N, 1))
        assert scaled.kind is MonoidKind.N


class TestFamilySatisfies:
    def test_functional_direction_holds(self, teaching_family):
        assert teaching_family.satisfies(FD.unary("Teacher", "Course"))

    def test_branching_direction_fails(self, teaching_family):
        assert not teaching_family.satisfies(FD.unary("Course", "Student"))

    def test_query_outside_contexts_rejected(self, teaching_family):
        with pytest.raises(ContextError):
            teaching_family.satisfies(FD(frozenset({"Course"}), frozenset({"Teacher", "Student"})))

    def test_global_witness_implies_local_consistency(self):
        vars_ = ("x", "y", "z")
        glob = brel(vars_, [("0", "1", "0"), ("1", "1", "1")])
        family = ContextualFamily(
            [glob.marginalise({"x", "y"}), glob.marginalise({"y", "z"})]
        )
        witness = check_global_consistency(family)
        projections = ContextualFamily(
            [witness.marginalise(c) for c in family.contexts]
        )
        assert projections == family
