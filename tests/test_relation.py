"""Assignments and annotated relations: marginals, sums, consistency."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxfam.family import find_violation
from ctxfam.fdlogic import FD
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import (
    Assignment,
    DomainError,
    KRelation,
)

from conftest import CS, CS_ROWS, ST, ST_ROWS, TC, TC_ROWS, brel, row, wrel
from row_reference import restrict


class TestAssignment:
    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            Assignment([("x", "0"), ("x", "1")])

    def test_duplicate_variable_with_incomparable_values(self):
        with pytest.raises(ValueError, match=r"duplicate variable in assignment: \['x', 'x'\]"):
            Assignment([("x", 1), ("x", "a")])
        with pytest.raises(ValueError, match="duplicate variable"):
            Assignment(zip(["y", "x", "y"], ["a", "0", 1]))

    def test_ordering_is_by_variable_then_value(self):
        s = Assignment({"b": "1", "a": "0"})
        assert str(s) == "a=0,b=1"

    def test_a_value_that_is_not_text_is_refused(self):
        with pytest.raises(DomainError, match=r"^row x=0 holds 0 of type int; values are str$"):
            row(("x",), (0,))
        with pytest.raises(DomainError, match=r"^row a=0,b=1 holds 1 of type int; values are str$"):
            Assignment({"b": 1, "a": "0"})

    def test_unbound_variable_is_a_key_error(self):
        with pytest.raises(KeyError):
            Assignment({"x": "0"})["y"]


class TestConstruction:
    def test_rows_must_match_declared_variables(self):
        with pytest.raises(DomainError):
            KRelation.from_assignments(
                frozenset({"x", "y"}),
                MonoidKind.B,
                {row(("x",), ("0",)): MonoidValue.one(MonoidKind.B)},
            )

    def test_zero_annotations_rejected(self):
        with pytest.raises(ValueError):
            KRelation.from_assignments(
                frozenset({"x"}),
                MonoidKind.N,
                {row(("x",), ("0",)): MonoidValue.zero(MonoidKind.N)},
            )

    def test_kind_must_be_uniform(self):
        with pytest.raises(ValueError):
            KRelation.from_assignments(
                frozenset({"x"}),
                MonoidKind.N,
                {row(("x",), ("0",)): MonoidValue.one(MonoidKind.Q)},
            )


class TestMarginalise:
    def test_collapsing_rows_sums_weights(self):
        r = wrel(MonoidKind.N, CS, [(v, 1) for v in CS_ROWS])
        marginal = r.marginalise({"Course"})
        assert marginal == wrel(
            MonoidKind.N, ("Course",), [(("Math",), 1), (("CS",), 2)]
        )

    def test_identity_restriction(self):
        r = brel(ST, ST_ROWS)
        assert r.marginalise(set(ST)) == r

    def test_empty_restriction_totals_mass(self):
        r = wrel(
            MonoidKind.N,
            ("x",),
            [(("a",), 1), (("b",), 2), (("c",), 3)],
        )
        marginal = r.marginalise(set())
        assert marginal.annotation(Assignment({})) == MonoidValue.of(
            MonoidKind.N, 6
        )
        assert r.total() == MonoidValue.of(MonoidKind.N, 6)

    def test_outside_variables_rejected(self):
        r = brel(ST, ST_ROWS)
        with pytest.raises(DomainError):
            r.marginalise({"Course"})


values = st.sampled_from(["0", "1", "2"])


def relations(kind: MonoidKind):
    weight = {
        MonoidKind.B: st.just(1),
        MonoidKind.N: st.integers(min_value=1, max_value=5),
        MonoidKind.Q: st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
    }[kind]
    return st.dictionaries(
        st.tuples(values, values, values), weight, min_size=0, max_size=6
    ).map(
        lambda d: KRelation.from_assignments(
            frozenset({"x", "y", "z"}),
            kind,
            {
                row(("x", "y", "z"), k): MonoidValue.of(kind, v)
                for k, v in d.items()
            },
        )
    )


any_relation = st.one_of(
    relations(MonoidKind.B), relations(MonoidKind.N), relations(MonoidKind.Q)
)


class TestMarginaliseProperties:
    @given(any_relation)
    def test_composition(self, r):
        assert r.marginalise({"x", "y"}).marginalise({"x"}) == r.marginalise({"x"})

    @given(any_relation)
    def test_mass_conservation(self, r):
        assert r.marginalise({"x"}).total() == r.total()

    @given(any_relation)
    def test_support_commutes_with_marginalisation(self, r):
        projected = {restrict(s, {"x", "y"}) for s in r.support}
        assert r.marginalise({"x", "y"}).support == projected

    @given(relations(MonoidKind.N), relations(MonoidKind.N))
    def test_add_commutes_with_marginalisation(self, r, s):
        assert (r + s).marginalise({"y"}) == r.marginalise({"y"}) + s.marginalise({"y"})


class TestSupport:
    def test_examples(self):
        assert brel(("x",), [("0",)]).support == {row(("x",), ("0",))}
        assert brel(("x",), []).support == frozenset()
        r = wrel(MonoidKind.N, ("x",), [(("a",), 2), (("b",), 1)])
        assert r.support == {row(("x",), ("a",)), row(("x",), ("b",))}

    def test_support_relation_is_boolean(self):
        r = wrel(MonoidKind.Q, ("x",), [(("a",), Fraction(1, 2))])
        assert r.support_relation() == brel(("x",), [("a",)])

    def test_boolean_support_relation_is_itself(self):
        r = brel(ST, ST_ROWS)
        assert r.support_relation() is r


class TestAdd:
    def test_pointwise_sum(self):
        a = wrel(MonoidKind.N, ("x",), [(("s",), 1)])
        b = wrel(MonoidKind.N, ("x",), [(("s",), 2)])
        assert a + b == wrel(MonoidKind.N, ("x",), [(("s",), 3)])

    def test_disjoint_rows_merge(self):
        a = wrel(MonoidKind.N, ("x",), [(("s",), 1)])
        b = wrel(MonoidKind.N, ("x",), [(("t",), 1)])
        assert a + b == wrel(MonoidKind.N, ("x",), [(("s",), 1), (("t",), 1)])

    def test_boolean_add_is_idempotent(self):
        a = brel(("x",), [("s",)])
        assert a + a == a

    def test_mismatches_rejected(self):
        a = brel(("x",), [("s",)])
        b = brel(("y",), [("s",)])
        with pytest.raises(DomainError):
            a + b

    def test_other_operands_rejected(self):
        a = wrel(MonoidKind.N, ("x",), [(("s",), 1)])
        with pytest.raises(TypeError):
            a + 1
        with pytest.raises(ValueError, match="^cannot add relations of different kinds$"):
            a + brel(("x",), [("s",)])

    def test_repr(self):
        assert repr(wrel(MonoidKind.N, ("y", "x"), [(("0", "0"), 1)])) == "KRelation[N]({x=0,y=0:1})"


class TestConsistent:
    """Two relations agree after marginalising to their shared variables
    exactly when ``find_violation`` finds no disagreeing cell."""

    def test_teaching_contexts_agree_on_teacher(self):
        assert find_violation([brel(ST, ST_ROWS), brel(TC, TC_ROWS)]) is None

    def test_disjoint_domains_compare_total_mass(self):
        a = wrel(MonoidKind.N, ("x",), [(("0",), 2)])
        b = wrel(MonoidKind.N, ("y",), [(("0",), 1), (("1",), 1)])
        assert find_violation([a, b]) is None
        c = wrel(MonoidKind.N, ("y",), [(("0",), 1)])
        assert find_violation([a, c]) is not None

    def test_single_row_disagreement(self):
        a = brel(("x", "y"), [("0", "0")])
        b = brel(("y", "z"), [("1", "1")])
        assert find_violation([a, b]) is not None

    @given(relations(MonoidKind.N), relations(MonoidKind.N))
    def test_symmetric(self, r, s):
        assert (find_violation([r, s]) is None) == (find_violation([s, r]) is None)


class TestSatisfies:
    def test_functional_columns(self):
        assert brel(ST, ST_ROWS).satisfies(FD.unary("Student", "Teacher"))

    def test_branching_column_fails(self):
        assert not brel(CS, CS_ROWS).satisfies(FD.unary("Course", "Student"))

    def test_reflexive_always_holds(self):
        for rows in ([], CS_ROWS):
            assert brel(CS, rows).satisfies(FD.unary("Course", "Course"))

    def test_weights_do_not_matter(self):
        r = wrel(
            MonoidKind.Q,
            ("x", "y"),
            [(("0", "0"), Fraction(1, 2)), (("0", "1"), Fraction(1, 2))],
        )
        assert not r.satisfies(FD.unary("x", "y"))
        assert r.satisfies(FD.unary("y", "x"))

    def test_variables_must_be_present(self):
        with pytest.raises(DomainError):
            brel(ST, ST_ROWS).satisfies(FD.unary("Student", "Course"))


# The row code before restriction by positions, kept as the reference:
# one Assignment per row, marginals by restrict-and-sum, rows in the order
# of their pairs.


def reference_marginal(r: KRelation, variables):
    """The marginal's rows, listed in the order the reference stores them."""
    target = frozenset(str(v) for v in variables)
    extra = target - r.variables
    if extra:
        raise DomainError(f"cannot marginalise onto unknown variables {sorted(extra)}")
    grouped = {}
    for row, value in r.rows():
        short = restrict(row, target)
        prior = grouped.get(short)
        grouped[short] = value if prior is None else prior + value
    return sorted(grouped.items(), key=lambda kv: kv[0].items())


def reference_satisfies(r: KRelation, fd: FD) -> bool:
    extra = (fd.lhs | fd.rhs) - r.variables
    if extra:
        raise DomainError(f"dependency mentions unknown variables {sorted(extra)}")
    seen = {}
    for row, _ in r.rows():
        left = restrict(row, fd.lhs)
        right = restrict(row, fd.rhs)
        if seen.setdefault(left, right) != right:
            return False
    return True


NAMES = ["b", "a", "x10", "x2", "x1"]
TOKENS = st.sampled_from(["0", "1", "10", "2"])
WEIGHTS = {
    MonoidKind.B: st.just(1),
    MonoidKind.N: st.integers(min_value=1, max_value=5),
    MonoidKind.Q: st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
}


@st.composite
def token_relations(draw):
    """A relation of any kind over 0-4 variables (declared out of sorted
    order), possibly empty, whose values include "10" before "2"."""
    kind = draw(st.sampled_from(list(MonoidKind)))
    variables = draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
    weighted = draw(
        st.dictionaries(st.tuples(*[TOKENS] * len(variables)), WEIGHTS[kind], max_size=8)
    )
    rows = {
        Assignment(zip(variables, values)): MonoidValue.of(kind, w)
        for values, w in weighted.items()
    }
    return KRelation.from_assignments(variables, kind, rows), rows


def subsets(variables, min_size=0):
    if not variables:
        return st.just(set())
    return st.sets(st.sampled_from(sorted(variables)), min_size=min_size)


class Padded(str):
    """A str token that prints with a leading zero."""

    def __str__(self):
        return "0" + str.__str__(self)


# Digits as text: "10" sorts before "9", and "01" before "1".
TOKEN_POOLS = [
    ["10", "9", "01", "1"],
    ["10", "9", "1"],
]


@st.composite
def pooled_rows(draw):
    """Variables, a kind and rows whose tokens come from one pool."""
    kind = draw(st.sampled_from(list(MonoidKind)))
    pool = draw(st.sampled_from(TOKEN_POOLS))
    variables = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    weighted = draw(
        st.dictionaries(
            st.tuples(*[st.sampled_from(pool)] * len(variables)), WEIGHTS[kind], max_size=10
        )
    )
    rows = {
        Assignment(zip(variables, values)): MonoidValue.of(kind, w)
        for values, w in weighted.items()
    }
    return variables, kind, rows


class TestRowOrder:
    @given(pooled_rows())
    def test_rows_are_stored_in_value_tuple_order(self, drawn):
        variables, kind, rows = drawn
        stored = list(KRelation.from_assignments(variables, kind, rows).rows())
        assert stored == sorted(rows.items(), key=lambda kv: kv[0].items())


class TestValuesAreText:
    """A row holds ``str`` values only; the refusal names the row."""

    @pytest.mark.parametrize("kind", list(MonoidKind))
    def test_int_value_refused(self, kind):
        with pytest.raises(DomainError, match=r"^row x=0,y=1 holds 1 of type int; values are str$"):
            KRelation(["y", "x"], kind, {("0", 1): MonoidValue.one(kind).payload})

    def test_int_and_its_text_together_refused(self):
        # Both rows print as x=0: a relation holding them would write a
        # document that the parser refuses as a duplicate row.
        for rows in ({(0,): 1, ("0",): 1}, {("0",): 1, (0,): 1}):
            with pytest.raises(DomainError, match=r"^row x=0 holds 0 of type int; values are str$"):
                KRelation(["x"], MonoidKind.B, rows)

    def test_str_subclass_refused(self):
        with pytest.raises(DomainError, match=r"^row x=09 holds '9' of type Padded; values are str$"):
            KRelation(["x"], MonoidKind.N, {("10",): 1, (Padded("9"),): 2})
        with pytest.raises(DomainError, match="of type Padded"):
            Assignment({"x": Padded("9")})

    @pytest.mark.parametrize("pool", [[10, 9, 1], ["10", "9", "01", 10, 9], ["10", "9", Padded("9"), Padded("2")]])
    def test_every_non_text_pool_is_refused(self, pool):
        """The int, mixed and str-subclass token pools the rows once took."""
        rows = {(a, b): 1 for a in pool for b in pool}
        with pytest.raises(DomainError, match="values are str"):
            KRelation(["a", "b"], MonoidKind.B, rows)
        with pytest.raises(DomainError, match="values are str"):
            Assignment({"a": pool[-1], "b": "0"})


class TestAgreesWithPerRowReference:
    @given(token_relations())
    def test_rows_are_stored_in_items_order(self, drawn):
        r, rows = drawn
        assert list(r.rows()) == sorted(rows.items(), key=lambda kv: kv[0].items())

    @given(token_relations(), st.data())
    def test_restrict(self, drawn, data):
        r, _ = drawn
        target = data.draw(subsets(r.variables))
        marginal = {row: row for row, _ in r.marginalise(target).rows()}
        for row, _ in r.rows():
            short = marginal[restrict(row, target)]
            assert short.items() == restrict(row, target).items()
            assert hash(short) == hash(restrict(row, target))

    @given(token_relations(), st.data())
    def test_marginalise(self, drawn, data):
        r, _ = drawn
        target = data.draw(subsets(r.variables))
        expected = reference_marginal(r, target)
        marginal = r.marginalise(target)
        assert list(marginal.rows()) == expected
        assert marginal == KRelation.from_assignments(target, r.kind, dict(expected))

    @given(token_relations(), st.data())
    def test_satisfies(self, drawn, data):
        r, _ = drawn
        if not r.variables:
            return
        lhs = data.draw(subsets(r.variables, 1))
        rhs = data.draw(subsets(r.variables, 1))
        fd = FD(frozenset(lhs), frozenset(rhs))
        assert r.satisfies(fd) == reference_satisfies(r, fd)

    @given(token_relations(), st.data())
    def test_unknown_variables_raise_the_same_error(self, drawn, data):
        r, _ = drawn
        target = data.draw(subsets(r.variables)) | {"zz"}
        with pytest.raises(DomainError) as new:
            r.marginalise(target)
        with pytest.raises(DomainError) as old:
            reference_marginal(r, target)
        assert str(new.value) == str(old.value)
        fd = FD(frozenset(target), frozenset({"zz"}))
        with pytest.raises(DomainError) as new:
            r.satisfies(fd)
        with pytest.raises(DomainError) as old:
            reference_satisfies(r, fd)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize(
        "bad",
        [
            {"a": "0"},
            {"a": "0", "b": "1", "c": "2"},
            {"a": "0", "c": "1"},
            {"a0": "0", "b": "1"},
            {},
        ],
    )
    def test_rows_over_other_variables_are_rejected(self, bad):
        good = Assignment({"a": "0", "b": "1"})
        one = MonoidValue.one(MonoidKind.N)
        wrong = Assignment(bad)
        for rows in ({wrong: one}, {good: one, wrong: one}):
            with pytest.raises(DomainError) as exc:
                KRelation.from_assignments(["b", "a"], MonoidKind.N, rows)
            assert str(exc.value) == f"row {wrong} does not bind exactly ['a', 'b']"
