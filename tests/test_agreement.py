"""The pairwise agreement walk against the marginal-based code it replaced.

``find_violation`` and the equations of ``realisable_lp`` used to build
two marginal relations per pair of contexts and compare them.  The
reference copies below keep that code, with each marginal taken row by
row (``test_relation.reference_marginal``), and the tests
check that the one agreement walk gives equal results on seeded families
of the test shapes in B, N and Q: as built, with one row dropped or
bumped, with one relation switched to B (mixed kinds, which
``find_violation`` refuses), and with empty relations.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ctxfam import family as family_module
from ctxfam import realisability
from ctxfam.family import ConsistencyViolation, ContextualFamily, _support_join, check_global_consistency, find_violation
from ctxfam.feasibility import _check_witness, find_rational_solution
from ctxfam.fdlogic import FD, random_family_satisfying
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.realisability import realisable_lp
from ctxfam.relation import Assignment, KRelation

from conftest import CS, CS_EXT_ROWS, CS_ROWS, ST, ST_ROWS, TC, TC_ROWS, brel, cycle_contexts, lp_witness
from row_reference import restrict
from test_feasibility import (
    SHAPES,
    _ref_substitute,
    marginal_family,
    reference_eliminate_equalities,
    reference_find_rational_solution,
    standard_form,
    twisted_family,
)
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
            for row in sorted(mr.support | ms.support, key=lambda a: a.items()):
                va = mr.annotation(row)
                vb = ms.annotation(row)
                if va != vb:
                    return ConsistencyViolation(r.variables, s.variables, row, va, vb)
    return None


def reference_consistent(r, s):
    shared = r.variables & s.variables
    return marginal(r, shared) == marginal(s, shared)


def reference_lp_pairs(family):
    """The LP's agreement cells, built by grouping each overlap itself: one
    ``(i, cells)`` per pair of contexts, ``i`` the index of its first."""
    pairs = []
    contexts = list(family.contexts)
    by_context = {c: [row for row, _ in family.relation_at(c).rows()] for c in contexts}
    for i, ci in enumerate(contexts):
        for cj in contexts[i + 1 :]:
            shared = ci & cj
            groups = {}
            for row in by_context[ci]:
                groups.setdefault(restrict(row, shared), {})[row] = Fraction(1)
            for row in by_context[cj]:
                cell = groups.setdefault(restrict(row, shared), {})
                cell[row] = cell.get(row, Fraction(0)) - Fraction(1)
            pairs.append((i, [(groups[key], Fraction(0)) for key in sorted(groups, key=lambda a: a.items())]))
    return pairs


def reference_lp_split(family):
    """The reference's cells as the LP's tableau takes them and as it
    leaves them out: the last cell of every pair ``(i, j)`` with ``i >= 1``
    is left out."""
    kept, dropped = [], []
    for i, cells in reference_lp_pairs(family):
        kept.extend(cells[:-1] if i else cells)
        dropped.extend(cells[-1:] if i else [])
    return kept, dropped


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
        """Equal to the reference on one kind; relations of mixed kinds
        are refused before any cell is read."""
        found = mixed = 0
        for relations in inputs():
            if len({r.kind for r in relations}) > 1:
                with pytest.raises(ValueError, match="all context relations must share one kind"):
                    find_violation(relations)
                mixed += 1
                continue
            violation = find_violation(relations)
            expected = reference_find_violation(relations)
            assert violation == expected
            if expected is not None:
                assert violation.describe() == expected.describe()
                found += 1
        assert found > 300
        assert mixed > 50

    def test_consistent(self):
        """Every pair of relations on its own, either way round: no
        violation exactly when the reference marginals are equal, and a
        refusal across kinds."""
        checked = mixed = 0
        for relations in inputs():
            for r, s in combinations(relations, 2):
                if r.kind is not s.kind:
                    for pair in ([r, s], [s, r]):
                        with pytest.raises(ValueError, match="all context relations must share one kind"):
                            find_violation(pair)
                    mixed += 1
                    continue
                agree = reference_consistent(r, s)
                assert (find_violation([r, s]) is None) is agree
                assert (find_violation([s, r]) is None) is agree
                checked += 1
        assert checked > 5000
        assert mixed > 50


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
        # The rows are those the solver's earlier front end built from the
        # reference's cells with every row weight at least 1: _integer_row
        # over the columns y = x - 1.
        calls = []
        solve = realisability.find_rational_solution

        def capture(equalities, implied, columns):
            calls.append((equalities, implied, columns))
            return solve(equalities, implied, columns)

        monkeypatch.setattr(realisability, "find_rational_solution", capture)
        checked = 0
        for family in lp_families():
            calls.clear()
            for kind in (MonoidKind.N, MonoidKind.Q):
                lp_witness(family, kind)
            labels = row_labels(family)
            if not labels:
                assert calls == []
                continue
            # The unknowns are the rows' numbers, in the order of row_labels().
            lower = dict.fromkeys(labels, Fraction(1))
            expected, dropped = (standard_form(cells, lower, labels) for cells in reference_lp_split(family))
            assert len(calls) == 2
            for equalities, implied, columns in calls:
                assert equalities == expected and implied == dropped
                assert [list(cell.items()) for cell, _ in equalities + implied] == [
                    list(cell.items()) for cell, _ in expected + dropped
                ]
                assert columns == range(len(labels))
            checked += 1
        assert checked > 60


def row_labels(family):
    """Every row of every maximal context, context by context in stored
    order: the LP's unknowns, in column order."""
    return [row for rel in family.maximal_relations() for row, _ in rel.rows()]


def numbered(family, cells):
    """Reference cells over row labels as equalities over the rows'
    numbers, context by context in stored order."""
    number = {label: n for n, label in enumerate(row_labels(family))}
    return [({number[label]: c for label, c in cell.items()}, rhs) for cell, rhs in cells]


def global_split(family):
    """The cell equations of global consistency, one per context row over
    the join rows that restrict to it: those the tableau takes and the
    last cell of every context after the first, which it leaves out."""
    _, table = _support_join(family)
    kept, dropped = [], []
    first = 0
    for n, rel in enumerate(family.maximal_relations()):
        for k, (_, demand) in enumerate(rel.rows(), first):
            cell = ({i: 1 for i, cells in enumerate(table) if k in cells}, demand.payload)
            (dropped if n and k == first + len(rel) - 1 else kept).append(cell)
        first += len(rel)
    return kept, dropped


def weighted_families():
    """The N and Q families of ``seeded_families`` and twisted Q families."""
    for family in seeded_families():
        if family.kind is not MonoidKind.B:
            yield family
    for shape in SHAPES:
        if all(len(c) == 2 for c in SHAPES[shape]):
            for seed in range(3):
                yield twisted_family(shape, MonoidKind.Q, 3, seed)


def assert_implied(kept, dropped, lower, variables):
    """Every dropped row eliminates to an empty row on the kept ones, the
    full system and the kept one have the same witness under the
    reference, and the solver, given the dropped rows as implied ones,
    returns the witness of the full system."""
    exact = [({j: Fraction(c) for j, c in cell.items()}, Fraction(rhs)) for cell, rhs in kept]
    pivots = reference_eliminate_equalities(exact)
    if pivots is not None:
        for cell, rhs in dropped:
            assert _ref_substitute({j: Fraction(c) for j, c in cell.items()}, Fraction(rhs), pivots) == ({}, 0)
    solve = reference_find_rational_solution
    assert solve(kept + dropped, lower, variables) == solve(kept, lower, variables)
    rows, implied = standard_form(kept, lower, variables), standard_form(dropped, lower, variables)
    columns = range(len(variables))
    assert find_rational_solution(rows + implied, [], columns) == find_rational_solution(rows, implied, columns)


def captured_global_rows(monkeypatch, family):
    """The rows ``check_global_consistency(family)`` hands the solver: one
    ``(equalities, implied)`` pair per call, ``implied`` None for the N
    path's phase-1 question."""
    calls = []
    solve, tableau = family_module.find_rational_solution, family_module._Tableau

    def solved(equalities, implied, columns):
        calls.append((equalities, implied, columns))
        return solve(equalities, implied, columns)

    def built(equalities, n):
        calls.append((equalities, None, range(n)))
        return tableau(equalities, n)

    with monkeypatch.context() as patch:
        patch.setattr(family_module, "find_rational_solution", solved)
        patch.setattr(family_module, "_Tableau", built)
        check_global_consistency(family)
    return calls


def assert_global_rows(calls, family):
    """``calls`` is the one call of the global check on ``family``, whose
    rows are those the solver's earlier front end built from the
    reference's cells with every weight at least 0: ``_integer_row``, each
    cell scaled by the denominator of its value."""
    kept, dropped = global_split(family)
    unknowns = range(len(_support_join(family)[0]))
    lower = dict.fromkeys(unknowns, 0)
    ((equalities, implied, columns),) = calls
    assert equalities == standard_form(kept, lower, unknowns)
    assert implied is None if family.kind is MonoidKind.N else implied == standard_form(dropped, lower, unknowns)
    assert columns == unknowns
    return kept, dropped, lower, unknowns


class TestImpliedCells:
    """The cells left out of the tableau are implied by the ones it takes,
    and leaving them out changes no witness."""

    def test_lp_cells(self):
        checked = 0
        for family in lp_families():
            kept, dropped = (numbered(family, cells) for cells in reference_lp_split(family))
            columns = range(len(row_labels(family)))
            assert_implied(kept, dropped, dict.fromkeys(columns, 1), columns)
            checked += bool(dropped)
        assert checked > 40

    def test_global_cells(self, monkeypatch):
        checked = 0
        for family in weighted_families():
            calls = captured_global_rows(monkeypatch, family)
            if not calls:  # a cell with no join row refuses before the tableau
                continue
            kept, dropped, lower, unknowns = assert_global_rows(calls, family)
            assert_implied(kept, dropped, lower, unknowns)
            checked += bool(dropped)
        assert checked > 40

    @pytest.mark.parametrize("kind", [MonoidKind.N, MonoidKind.Q], ids=lambda k: k.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_twelve_row_grid_rows(self, seed, kind, monkeypatch):
        # The integer search runs for minutes on the N grid of seed 0, and
        # only the rows matter here.
        monkeypatch.setattr(family_module, "_integer_weights", lambda demands, cells: None)
        family = marginal_family("grid", kind, 12, 3, seed)
        assert_global_rows(captured_global_rows(monkeypatch, family), family)


class TestDroppedCellsChecked:
    """The solver checks its witness against the rows the callers leave
    out of the tableau: with one such row's right-hand side moved by one,
    the witness still meets every kept row, and the solver raises."""

    PATH = ContextualFamily([brel(c, [("0", "0"), ("1", "1")]) for c in (("a", "b"), ("b", "c"), ("c", "d"))])

    @staticmethod
    def assert_each_implied_row_checked(call, step):
        equalities, implied, columns = call
        witness = find_rational_solution(equalities, implied, columns)
        _check_witness(equalities, witness)
        assert implied
        for k, (cell, rhs) in enumerate(implied):
            moved = implied[:k] + [(cell, rhs + step)] + implied[k + 1 :]
            with pytest.raises(AssertionError, match="equality"):
                find_rational_solution(equalities, moved, columns)

    @pytest.mark.parametrize("step", [1, -1])
    def test_lp_witness(self, monkeypatch, step):
        calls = []
        solve = realisability.find_rational_solution
        monkeypatch.setattr(realisability, "find_rational_solution", lambda *call: calls.append(call) or solve(*call))
        assert realisable_lp(self.PATH, MonoidKind.Q).support() == self.PATH
        (call,) = calls
        labels = row_labels(self.PATH)
        dropped = reference_lp_split(self.PATH)[1]
        assert call[1] == standard_form(dropped, dict.fromkeys(labels, 1), labels) and dropped
        self.assert_each_implied_row_checked(call, step)

    @pytest.mark.parametrize("step", [1, -1])
    def test_global_witness(self, monkeypatch, step):
        family = marginal_family("path", MonoidKind.Q, 4, 2, 0)
        ((equalities, implied, columns),) = captured_global_rows(monkeypatch, family)
        assert len(implied) == 3
        self.assert_each_implied_row_checked((equalities, implied, columns), step)
