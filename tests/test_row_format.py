"""The value-tuple row store against the row-object code it replaced.

Relations, their marginals and groupings, the pairwise check, the parser
and the support join are compared ``==`` with the reference in
``row_reference.py`` on ``str`` tokens, digits among them, and a guard
checks that parsing and validating builds no :class:`Assignment`.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import row_reference as ref
from ctxfam import family as family_module
from ctxfam import relation as relation_module
from ctxfam.family import ContextSet, ContextualFamily, _support_join, find_violation
from ctxfam.fdlogic import FD
from ctxfam.formats import FormatError, parse_family, parse_relations
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import Assignment, DomainError, KRelation, _groups, _project, _sums

from test_formats import RESERVED_TOKENS, documents
from test_relation import NAMES, TOKEN_POOLS, WEIGHTS, subsets


def as_row(names, key):
    return Assignment._sorted(tuple(zip(names, key)))


@st.composite
def pooled(draw, variables=None):
    """Variables, a kind and Assignment rows whose tokens come from one
    of ``TOKEN_POOLS``."""
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
        assert list(new._rows) == [keys[i] for i in ref.row_order([as_row(names, key).items() for key in keys])]

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

    @given(pooled())
    def test_batch_projection_and_sums(self, drawn):
        """On every target, the empty one included, ``_project`` restricts
        the stored rows as the reference's ``projection`` does, row by row,
        and ``_sums`` holds the reference's group totals, keys in order."""
        variables, kind, rows = drawn
        new, old = both(variables, kind, rows)
        names = sorted(variables)
        for size in range(len(names) + 1):
            for target in map(frozenset, combinations(names, size)):
                short_names = sorted(target)
                project = ref.projection(variables, target)
                assert [as_row(short_names, short) for short in _project(new.names, target, new._rows)] == [
                    Assignment._sorted(project(row.items())) for row in old._rows
                ]
                assert [(as_row(short_names, short), p) for short, p in _sums(new, target).items()] == [
                    (Assignment._sorted(short), p) for short, p in ref.totals(old, ref.groups(old, target)).items()
                ]

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
        if len({n.kind for n, _ in pairs}) > 1:
            with pytest.raises(ValueError, match="all context relations must share one kind"):
                find_violation([n for n, _ in pairs])
            return
        new = find_violation([n for n, _ in pairs])
        assert new == ref.find_violation([o for _, o in pairs])
        if new is not None:
            assert new.describe() == ref.find_violation([o for _, o in pairs]).describe()


MIXED_DENOMINATORS = [Fraction(n, d) for d in (1, 2, 3, 4, 6, 7, 12) for n in (1, 5, 11)]


def q_pair(rng, pool, count):
    """A Q relation over a, b, x1, x10, x2 and its reference: ``count``
    distinct rows (at most four in five of those the pool allows) whose
    ``a`` takes two values, so each value of ``a`` holds about half of
    them, weighted with mixed denominators."""
    names = ["a", "b", "x1", "x10", "x2"]
    keys = set()
    while len(keys) < min(count, 2 * len(pool) ** 4 * 4 // 5):
        keys.add((rng.choice(pool[:2]),) + tuple(rng.choice(pool) for _ in names[1:]))
    rows = {Assignment(zip(names, key)): MonoidValue(MonoidKind.Q, rng.choice(MIXED_DENOMINATORS)) for key in keys}
    return both(names, MonoidKind.Q, rows)


class TestQSums:
    """The integer sums of ``_sums`` on Q against the reference's
    ``Fraction`` totals."""

    @pytest.mark.parametrize("pool", TOKEN_POOLS, ids=["str", "digits"])
    def test_sums_match_the_reference_with_many_rows_per_key(self, pool):
        """Every target, on relations where some key collects 30 rows or
        more: the same keys in the same order, with equal ``Fraction``s."""
        rng = random.Random(f"q-sums/{pool}")
        most = 0
        for _ in range(6):
            new, old = q_pair(rng, pool, rng.randint(60, 150))
            for size in range(len(new.names) + 1):
                for target in map(frozenset, combinations(new.names, size)):
                    grouped = ref.groups(old, target)
                    most = max(most, max(map(len, grouped.values())))
                    sums = _sums(new, target)
                    assert [(as_row(sorted(target), short), p) for short, p in sums.items()] == [
                        (Assignment._sorted(short), p) for short, p in ref.totals(old, grouped).items()
                    ]
                    assert set(map(type, sums.values())) == {Fraction}
        assert most >= 30

    def test_a_key_with_one_row_keeps_its_payload(self):
        """When no two rows restrict to the same key, each sum is the stored
        payload object itself: onto every variable, onto one variable that
        tells the rows apart, and a one-row relation onto none."""
        rng = random.Random(12)
        rows = {(f"a{i}", f"b{i % 3}"): rng.choice(MIXED_DENOMINATORS) for i in range(40)}
        relation = KRelation(["a", "b"], MonoidKind.Q, rows)
        for target in ({"a", "b"}, {"a"}):
            sums = _sums(relation, target)
            assert len(sums) == len(rows)
            for (short, p), stored in zip(sums.items(), relation._rows.values()):
                assert p is stored
        single = KRelation(["a", "b"], MonoidKind.Q, {("0", "1"): Fraction(5, 12)})
        assert _sums(single, ()) == {(): Fraction(5, 12)}
        assert _sums(single, ())[()] is single._rows[("0", "1")]

    def test_a_twelfth_off_is_described_as_before(self):
        """A consistent Q family with mixed denominators, one cell of one
        relation moved by 1/12: the first violation and its text are the
        reference's."""
        rng = random.Random(7)
        found = 0
        for _ in range(10):
            glob, _ = q_pair(rng, ["0", "1", "2", "3"], 100)
            relations = [glob.marginalise(c) for c in (["a", "b"], ["b", "x1"], ["a", "x1", "x10"])]
            assert find_violation(relations) is None
            at = rng.randrange(len(relations))
            rows = dict(relations[at]._rows)
            key = rng.choice(sorted(rows))
            rows[key] += Fraction(1, 12)
            relations[at] = KRelation(relations[at].variables, MonoidKind.Q, rows)
            olds = [ref.RowRelation(r.variables, r.kind, dict(r.rows())) for r in relations]
            new, old = find_violation(relations), ref.find_violation(olds)
            assert new is not None and new == old
            assert new.describe() == old.describe()
            found += 1
        assert found == 10


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


def test_reading_a_mixed_block_line_by_line_builds_no_row_objects(constructions):
    """3 000 rows in one context, two in three weighted: the block mixes
    widths, so it is read line by line, and still no row becomes an
    Assignment or a MonoidValue."""
    lines = ["monoid N", "context a b"]
    lines += [f"a{i} b{i % 3}" + (f" : {1 + i % 2}" if i % 3 else "") for i in range(3000)]
    family = parse_family("\n".join(lines) + "\n")
    assert sum(len(r) for r in family.maximal_relations()) == 3000
    assert constructions["Assignment"] == 0
    assert constructions["MonoidValue"] <= 3


def test_validating_and_marginalising_group_no_rows(monkeypatch):
    """The pairwise check (``find_violation``), ``marginalise`` and
    ``total`` sum each marginal in one pass: none of them groups the rows."""

    def refuse(*args):
        raise AssertionError("rows grouped")

    monkeypatch.setattr(relation_module, "_groups", refuse)
    monkeypatch.setattr(family_module, "_groups", refuse, raising=False)
    for kind, weights in [(MonoidKind.B, [1, 1]), (MonoidKind.N, [2, 1]), (MonoidKind.Q, [Fraction(1, 2), Fraction(3, 2)])]:
        left = KRelation(["a", "b"], kind, {("0", "0"): weights[0], ("1", "0"): weights[1]})
        right = KRelation(["b", "c"], kind, {("0", "0"): weights[1], ("0", "1"): weights[0]})
        family = ContextualFamily([left, right])
        assert family.kind is kind
        assert left.marginalise(["b"]) == right.marginalise(["b"])
        assert left.total() == right.total()
        assert find_violation([left, right]) is None
        assert find_violation([left, KRelation(["b"], kind, {("1",): weights[0]})]) is not None


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
