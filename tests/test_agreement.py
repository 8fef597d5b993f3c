"""The pairwise agreement walk against the marginal-based code it replaced.

``find_violation``, ``consistent`` and the equations of ``realisable_lp``
used to build two marginal relations per pair of contexts and compare
them.  The reference copies below keep that code, with each marginal
taken row by row (``test_relation.reference_marginal``), and the tests
check that the one agreement walk gives equal results on seeded families
of the test shapes in B, N and Q: as built, with one row dropped or
bumped, with one relation switched to B (mixed kinds), and with empty
relations.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ctxfam import realisability
from ctxfam.family import ConsistencyViolation, ContextualFamily, find_violation
from ctxfam.fdlogic import FD, random_family_satisfying
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.realisability import realisable_lp
from ctxfam.relation import Assignment, KRelation, consistent

from conftest import CS, CS_EXT_ROWS, CS_ROWS, ST, ST_ROWS, TC, TC_ROWS, brel, cycle_contexts
from test_feasibility import SHAPES, marginal_family, twisted_family
from test_relation import reference_marginal


def marginal(r, variables):
    return KRelation.from_assignments(variables, r.kind, dict(reference_marginal(r, variables)))


def reference_find_violation(relations):
    rels = sorted(relations, key=lambda r: tuple(sorted(r.variables)))
    for i, r in enumerate(rels):
        for s in rels[i + 1 :]:
            shared = r.variables & s.variables
            mr = marginal(r, shared)
            ms = marginal(s, shared)
            if mr == ms:
                continue
            for row in sorted(mr.support | ms.support, key=lambda a: a.sort_key):
                va = mr.annotation(row)
                vb = ms.annotation(row)
                if va != vb:
                    return ConsistencyViolation(r.variables, s.variables, row, va, vb)
    return None


def reference_consistent(r, s):
    if r.kind is not s.kind:
        raise ValueError("cannot compare relations of different kinds")
    shared = r.variables & s.variables
    return marginal(r, shared) == marginal(s, shared)


def reference_lp_equalities(family):
    """The equality list the LP built by grouping each overlap itself."""
    equalities = []
    contexts = list(family.contexts)
    by_context = {c: [row for row, _ in family.relation_at(c).rows()] for c in contexts}
    for i, ci in enumerate(contexts):
        for cj in contexts[i + 1 :]:
            shared = ci & cj
            groups = {}
            for row in by_context[ci]:
                groups.setdefault(row.restrict(shared), {})[row] = Fraction(1)
            for row in by_context[cj]:
                cell = groups.setdefault(row.restrict(shared), {})
                cell[row] = cell.get(row, Fraction(0)) - Fraction(1)
            for key in sorted(groups, key=lambda a: a.sort_key):
                equalities.append((groups[key], Fraction(0)))
    return equalities


def seeded_families():
    """Locally consistent families of every test shape in B, N and Q."""
    for shape in SHAPES:
        for seed in range(3):
            for kind in (MonoidKind.N, MonoidKind.Q):
                family = marginal_family(shape, kind, 6, 3, seed)
                yield family
                if kind is MonoidKind.N:
                    yield family.support()
            if all(len(c) == 2 for c in SHAPES[shape]):
                yield twisted_family(shape, MonoidKind.N, 3, seed)


def perturbed(relations, rng):
    """Variants of one family's relations: one row dropped, one row bumped
    (a fresh row in B), one relation switched to B, one relation emptied,
    and every relation emptied."""
    k = rng.randrange(len(relations))
    r = relations[k]
    rows = dict(r.rows())

    def swap(replacement):
        return relations[:k] + [replacement] + relations[k + 1 :]

    if rows:
        dropped = dict(rows)
        del dropped[rng.choice(list(rows))]
        yield swap(KRelation.from_assignments(r.variables, r.kind, dropped))
    if r.kind is MonoidKind.B:
        fresh = Assignment({v: "fresh" for v in r.variables})
        yield swap(KRelation.from_assignments(r.variables, r.kind, {**rows, fresh: MonoidValue.one(r.kind)}))
    elif rows:
        bumped = dict(rows)
        row = rng.choice(list(rows))
        bumped[row] = bumped[row] + MonoidValue.one(r.kind)
        yield swap(KRelation.from_assignments(r.variables, r.kind, bumped))
        yield swap(r.support_relation())
    yield swap(KRelation(r.variables, r.kind, {}))
    yield [KRelation(s.variables, s.kind, {}) for s in relations]


def inputs():
    rng = random.Random(12)
    for family in seeded_families():
        relations = list(family.maximal_relations())
        yield relations
        for variant in perturbed(relations, rng):
            yield variant
            yield list(reversed(variant))


class TestAgainstMarginalReference:
    def test_find_violation(self):
        found = mixed = 0
        for relations in inputs():
            violation = find_violation(relations)
            expected = reference_find_violation(relations)
            assert violation == expected
            if expected is not None:
                assert violation.describe() == expected.describe()
                found += 1
                mixed += expected.value_a.kind is not expected.value_b.kind
        assert found > 300
        assert mixed > 50

    def test_consistent(self):
        checked = 0
        for relations in inputs():
            for r, s in combinations(relations, 2):
                if r.kind is s.kind:
                    assert consistent(r, s) == reference_consistent(r, s)
                    checked += 1
                else:
                    with pytest.raises(ValueError):
                        consistent(r, s)
        assert checked > 5000


def lp_families():
    for family in seeded_families():
        yield family.support()
    yield ContextualFamily([brel(ST, ST_ROWS), brel(TC, TC_ROWS), brel(CS, CS_ROWS)])
    yield ContextualFamily([brel(ST, ST_ROWS), brel(TC, TC_ROWS), brel(CS, CS_EXT_ROWS)])
    yield ContextualFamily([brel(ST, []), brel(TC, [])])
    rng = random.Random(17)
    for _ in range(30):
        contexts = cycle_contexts(rng.randint(3, 5))
        family = random_family_satisfying([FD.cd(c) for c in contexts], rng)
        if family is not None:
            yield family


class TestLpEquations:
    def test_same_system_as_the_reference(self, monkeypatch):
        calls = []
        solve = realisability.find_rational_solution

        def capture(equalities, lower, variables):
            calls.append((equalities, lower, variables))
            return solve(equalities, lower, variables)

        monkeypatch.setattr(realisability, "find_rational_solution", capture)
        checked = 0
        for family in lp_families():
            calls.clear()
            for kind in (MonoidKind.N, MonoidKind.Q):
                realisable_lp(family, kind)
            if not family.labels():
                assert calls == []
                continue
            expected = reference_lp_equalities(family)
            assert len(calls) == 2
            # The unknowns are the rows' numbers, in the order of labels().
            labels = family.labels()
            for equalities, lower, variables in calls:
                named = [({labels[n]: c for n, c in cell.items()}, rhs) for cell, rhs in equalities]
                assert named == expected
                assert [list(cell.items()) for cell, _ in named] == [
                    list(cell.items()) for cell, _ in expected
                ]
                assert list(variables) == list(range(len(labels)))
                assert lower == {n: Fraction(1) for n in range(len(labels))}
            checked += 1
        assert checked > 60
