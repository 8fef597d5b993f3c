"""The value-tuple row store against the row-object code it replaced.

Relations, their marginals and groupings, the pairwise check, the parser
and the support join are compared ``==`` with the reference in
``row_reference.py`` on ``str``, ``int``, mixed and ``str``-subclass
tokens, and a guard checks that parsing and validating builds no
:class:`Assignment`.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import row_reference as ref
from ctxfam.family import ContextSet, ContextualFamily, _support_join, find_violation
from ctxfam.fdlogic import FD
from ctxfam.formats import FormatError, parse_family, parse_relations
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import Assignment, DomainError, KRelation, _groups, _row_order

from test_formats import RESERVED_TOKENS, documents
from test_relation import NAMES, TOKEN_POOLS, WEIGHTS, subsets


def as_row(names, key):
    return Assignment._sorted(tuple(zip(names, key)))


@st.composite
def pooled(draw, variables=None):
    """Variables, a kind and Assignment rows whose tokens come from one
    pool: plain str, int, mixed, or str with a str subclass."""
    kind = draw(st.sampled_from(list(MonoidKind)))
    pool = draw(st.sampled_from(TOKEN_POOLS))
    if variables is None:
        variables = draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
    weighted = draw(
        st.dictionaries(st.tuples(*[st.sampled_from(pool)] * len(variables)), WEIGHTS[kind], max_size=12)
    )
    rows = {Assignment(zip(variables, values)): MonoidValue.of(kind, w) for values, w in weighted.items()}
    return variables, kind, rows


def both(variables, kind, rows):
    return KRelation.from_assignments(variables, kind, rows), ref.RowRelation(variables, kind, rows)


class TestRelations:
    @given(pooled())
    def test_constructor_and_row_order(self, drawn):
        variables, kind, rows = drawn
        new, old = both(variables, kind, rows)
        assert list(new.rows()) == list(old.rows())
        names = sorted(variables)
        table = {tuple(row[v] for v in names): value.payload for row, value in rows.items()}
        assert KRelation(variables, kind, table) == new
        assert [(as_row(names, key), p) for key, p in new._rows.items()] == [
            (row, value.payload) for row, value in old.rows()
        ]
        keys = list(table)
        assert _row_order(keys) == ref.row_order([as_row(names, key).items() for key in keys])

    @given(pooled(), st.data())
    def test_groups_and_marginals(self, drawn, data):
        variables, kind, rows = drawn
        new, old = both(variables, kind, rows)
        target = data.draw(subsets(variables))
        names, short_names = sorted(variables), sorted(target)
        assert [
            (as_row(short_names, short), [as_row(names, key) for key in group])
            for short, group in _groups(new, target).items()
        ] == [(Assignment._sorted(short), group) for short, group in ref.groups(old, target).items()]
        assert list(new.marginalise(target).rows()) == list(old.marginalise(target).rows())

    @given(pooled(), st.data())
    def test_satisfies(self, drawn, data):
        variables, kind, rows = drawn
        if not variables:
            return
        new, old = both(variables, kind, rows)
        lhs = data.draw(subsets(variables, 1))
        rhs = data.draw(subsets(variables, 1))
        fd = FD(frozenset(lhs), frozenset(rhs))
        assert new.satisfies(fd) == old.satisfies(fd)


CONTEXTS = [["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c"], ["c"]]


@st.composite
def relation_lists(draw):
    """Two or three relations over overlapping contexts, each drawn on its
    own (so mostly inconsistent) or all marginals of one global relation
    (so consistent)."""
    contexts = draw(st.lists(st.sampled_from(CONTEXTS), min_size=2, max_size=3, unique_by=tuple))
    if draw(st.booleans()):
        _, kind, rows = draw(pooled(["a", "b", "c"]))
        glob = KRelation.from_assignments(["a", "b", "c"], kind, rows)
        drawn = [(c, kind, dict(glob.marginalise(c).rows())) for c in contexts]
    else:
        drawn = [draw(pooled(c)) for c in contexts]
    return [both(*args) for args in drawn]


class TestPairwiseCheck:
    @given(relation_lists())
    def test_find_violation(self, pairs):
        new = find_violation([n for n, _ in pairs])
        assert new == ref.find_violation([o for _, o in pairs])
        if new is not None:
            assert new.describe() == ref.find_violation([o for _, o in pairs]).describe()


def reference_parse(text):
    try:
        return [(r.variables, r.kind, list(r.rows())) for r in ref.parse_relations(text)]
    except FormatError as exc:
        return (exc.line, exc.message)


def new_parse(text):
    try:
        return [(r.variables, r.kind, list(r.rows())) for r in parse_relations(text)]
    except FormatError as exc:
        return (exc.line, exc.message)


class TestParser:
    @given(documents())
    def test_parse_relations(self, text):
        assert new_parse(text) == reference_parse(text)

    @given(documents(RESERVED_TOKENS))
    def test_parse_relations_with_reserved_tokens(self, text):
        assert new_parse(text) == reference_parse(text)


@st.composite
def joined_families(draw):
    """The marginals of one global relation over a drawn antichain."""
    variables, kind, rows = draw(pooled(["a", "b", "c", "d"]))
    glob = KRelation.from_assignments(variables, kind, rows)
    sets = draw(st.lists(st.sets(st.sampled_from(variables), min_size=1), min_size=1, max_size=4))
    contexts = ContextSet.from_sets(sets)
    return ContextualFamily([glob.marginalise(c) for c in contexts])


class TestSupportJoin:
    @given(joined_families())
    def test_support_join(self, family):
        join, cells = _support_join(family)
        old_join, old_cells = ref.support_join(family)
        names = sorted(family.contexts.variables)
        assert [as_row(names, key) for key in join] == old_join
        assert cells == old_cells


@pytest.fixture
def constructions(monkeypatch):
    """Counts Assignment and MonoidValue constructions from here on."""
    counts = {"Assignment": 0, "MonoidValue": 0}
    init, sorted_pairs, value_init = Assignment.__init__, Assignment._sorted.__func__, MonoidValue.__init__

    def counting_init(self, *args):
        counts["Assignment"] += 1
        init(self, *args)

    def counting_sorted(cls, pairs):
        counts["Assignment"] += 1
        return sorted_pairs(cls, pairs)

    def counting_value(self, *args):
        counts["MonoidValue"] += 1
        value_init(self, *args)

    monkeypatch.setattr(Assignment, "__init__", counting_init)
    monkeypatch.setattr(Assignment, "_sorted", classmethod(counting_sorted))
    monkeypatch.setattr(MonoidValue, "__init__", counting_value)
    return counts


def test_parsing_and_validating_builds_no_row_objects(constructions):
    """3 000 rows in two contexts that agree on ``b``, with two distinct
    weights: no row becomes an Assignment or a MonoidValue."""
    lines = ["monoid N", "context a b"]
    lines += [f"a{i} b{i % 3} : {1 + i % 2}" for i in range(1500)]
    lines += ["context b c"]
    lines += [f"b{i % 3} c{i} : {1 + (i + 1) % 2}" for i in range(1500)]
    family = parse_family("\n".join(lines) + "\n")
    assert sum(len(r) for r in family.maximal_relations()) == 3000
    assert constructions["Assignment"] == 0
    assert constructions["MonoidValue"] <= 3


@pytest.mark.parametrize(
    "kind, rows, error, message",
    [
        (MonoidKind.N, {("0",): 1}, DomainError, "row ('0',) does not bind exactly ['a', 'b']"),
        (MonoidKind.N, {Assignment({"a": "0", "b": "1"}): 1}, DomainError, "row Assignment(a=0,b=1) does not bind exactly ['a', 'b']"),
        (MonoidKind.N, {("0", "1"): 1, ("1", "1"): 0}, ValueError, "zero annotation stored for row a=1,b=1"),
        (MonoidKind.N, {("0", "1"): -1}, ValueError, "annotation -1 is not of kind N"),
        (MonoidKind.N, {("0", "1"): True}, ValueError, "annotation True is not of kind N"),
        (MonoidKind.N, {("0", "1"): Fraction(1)}, ValueError, "annotation 1 is not of kind N"),
        (MonoidKind.B, {("0", "1"): 2}, ValueError, "annotation 2 is not of kind B"),
        (MonoidKind.Q, {("0", "1"): 1}, ValueError, "annotation 1 is not of kind Q"),
        (MonoidKind.Q, {("0", "1"): Fraction(0)}, ValueError, "zero annotation stored for row a=0,b=1"),
    ],
)
def test_constructor_checks_arity_and_payloads(kind, rows, error, message):
    with pytest.raises(error) as exc:
        KRelation(["b", "a"], kind, rows)
    assert str(exc.value) == message
