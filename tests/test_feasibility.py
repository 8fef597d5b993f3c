"""Exact rational feasibility: integer equalities over nonnegative columns.

Systems over named unknowns with rational coefficients and a lower bound
per unknown, as the hand-written cases and the reference solvers take
them, reach the solver through ``standard_form``: the integer rows the
solver's earlier general front end built for them.
"""

import copy
import gc
import hashlib
import math
import random
import signal
from fractions import Fraction
from itertools import count, islice, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxfam import family as family_module
from ctxfam import feasibility, realisability
from ctxfam.family import (
    ContextSet,
    ContextualFamily,
    _first_descent,
    _integer_weights,
    _support_join,
    check_global_consistency,
)
from ctxfam.fdlogic import FD, random_family_satisfying
from ctxfam.feasibility import _check_witness, find_rational_solution
from ctxfam.formats import parse_family, serialize_relation
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import Assignment, KRelation

from conftest import DESCENT_MISSES, is_acyclic, lp_witness
from row_reference import restrict


def _integer_row(coeffs, rhs, index, shift):
    """The row of ``sum c_v x_v = rhs`` over the shifted columns
    ``y_j = x_j - b_j``, scaled to integers straight from the inputs'
    numerators and denominators: ``sum c_j y_j = rhs - sum c_j b_j``.
    The solver's own front end built its rows with this before it took
    integer rows over nonnegative columns."""
    scale = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    row = {index[v]: c.numerator * (scale // c.denominator) for v, c in coeffs.items() if c}
    r = rhs.numerator * (scale // rhs.denominator)
    shifted = [(j, shift[j]) for j in row if j in shift] if shift else ()
    if shifted:
        d = lcm(*(den for _, (_, den) in shifted))
        if d > 1:
            row = {j: a * d for j, a in row.items()}
            r *= d
        r -= sum(row[j] * num // den for j, (num, den) in shifted)  # den divides row[j]
    if r:
        row[feasibility._RHS] = r
    return row


def standard_form(equalities, lower_bounds, variables):
    """``(coefficients, right-hand side)`` pairs of ``_integer_row`` for
    each equality over named unknowns, each unknown numbered by its place
    in ``variables`` and shifted by its lower bound."""
    index = {v: j for j, v in enumerate(variables)}
    shift = {index[v]: (b.numerator, b.denominator) for v, b in lower_bounds.items() if b}
    rows = []
    for coeffs, rhs in equalities:
        row = _integer_row(coeffs, rhs, index, shift)
        rows.append((row, row.pop(feasibility._RHS, 0)))
    return rows


def solve_named(equalities, lower_bounds, variables):
    """The solver's witness for the standard form of a named system,
    shifted back by the bounds and keyed by the unknowns' names."""
    witness = find_rational_solution(standard_form(equalities, lower_bounds, variables), [], range(len(variables)))
    if witness is None:
        return None
    return {v: y + lower_bounds[v] for v, y in zip(variables, witness)}


def check(equalities, lower_bounds, variables):
    solution = solve_named(equalities, lower_bounds, variables)
    if solution is None:
        return None
    for coeffs, rhs in equalities:
        assert sum(c * solution[v] for v, c in coeffs.items()) == rhs
    for v, bound in lower_bounds.items():
        assert solution[v] >= bound
    return solution


class TestSolvable:
    def test_single_equation(self):
        solution = check(
            [({"x": Fraction(2)}, Fraction(6))], {"x": Fraction(0)}, ["x"]
        )
        assert solution == {"x": Fraction(3)}

    def test_two_variables_balance(self):
        solution = check(
            [({"x": Fraction(1), "y": Fraction(-1)}, Fraction(0))],
            {"x": Fraction(1), "y": Fraction(1)},
            ["x", "y"],
        )
        assert solution is not None
        assert solution["x"] == solution["y"]

    def test_chained_equalities(self):
        equalities = [
            ({"a": Fraction(1), "b": Fraction(-1)}, Fraction(0)),
            ({"b": Fraction(1), "c": Fraction(-1)}, Fraction(0)),
            ({"a": Fraction(1), "c": Fraction(1)}, Fraction(5)),
        ]
        solution = check(equalities, {v: Fraction(0) for v in "abc"}, list("abc"))
        assert solution == {
            "a": Fraction(5, 2),
            "b": Fraction(5, 2),
            "c": Fraction(5, 2),
        }

    def test_free_variable_defaults_to_its_bound(self):
        solution = check([], {"x": Fraction(2)}, ["x"])
        assert solution == {"x": Fraction(2)}

    def test_integer_rows_leave_the_input_unchanged(self):
        # x0 - x1 = -1 leaves the Gauss-Jordan basis with a negative
        # right-hand side, so the run pivots once; the witness lists the
        # columns in order
        equalities = [({0: 1, 1: -1}, -1)]
        implied = [({0: -2, 1: 2}, 2)]
        before = copy.deepcopy((equalities, implied))
        witness = find_rational_solution(equalities, implied, range(2))
        assert witness == [Fraction(0), Fraction(1)]
        assert all(type(x) is Fraction for x in witness)
        assert (equalities, implied) == before
        assert find_rational_solution(equalities + [({1: 1}, 0)], [], range(2)) is None


class TestInfeasible:
    def test_contradictory_constants(self):
        assert (
            solve_named(
                [({"x": Fraction(1)}, Fraction(1)), ({"x": Fraction(1)}, Fraction(2))],
                {"x": Fraction(-5)},
                ["x"],
            )
            is None
        )

    def test_bound_conflicts_with_equation(self):
        assert (
            solve_named(
                [({"x": Fraction(1), "y": Fraction(1)}, Fraction(1))],
                {"x": Fraction(1), "y": Fraction(1)},
                ["x", "y"],
            )
            is None
        )

    def test_zero_equals_nonzero(self):
        assert (
            solve_named([({}, Fraction(3))], {"x": Fraction(0)}, ["x"]) is None
        )

    def test_mass_split_against_larger_lower_bounds(self):
        # three variables sum to 2 but each must be at least 1
        equalities = [
            ({"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)}, Fraction(2))
        ]
        bounds = {v: Fraction(1) for v in "abc"}
        assert solve_named(equalities, bounds, list("abc")) is None


INTEGER_SYSTEMS = st.lists(
    st.tuples(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.integers(-4, 4),
    ),
    max_size=4,
)


class TestRandomSystems:
    @given(INTEGER_SYSTEMS)
    def test_solutions_always_verify(self, raw):
        equalities = [({j: c for j, c in enumerate(coeffs) if c}, rhs) for coeffs, rhs in raw]
        witness = find_rational_solution(equalities, [], range(4))
        if witness is not None:
            assert len(witness) == 4 and all(x >= 0 for x in witness)
            for coeffs, rhs in equalities:
                assert sum(c * witness[j] for j, c in coeffs.items()) == rhs

    @given(
        st.fixed_dictionaries(
            {v: st.integers(-3, 3).map(Fraction) for v in ["x", "y", "z"]}
        )
    )
    def test_bounds_only_solved_at_bounds(self, bounds):
        assert check([], bounds, ["x", "y", "z"]) == bounds


class TestWitnessCheck:
    """The integer witness check rejects a witness with one value moved by
    ``1/D``, the least step over the witness's common denominator ``D``."""

    VARIABLES = list("abcd")
    BOUNDS = {"a": Fraction(1, 2), "b": Fraction(0), "c": Fraction(1, 4), "d": Fraction(3, 4)}
    EQUALITIES = standard_form(
        [
            ({"a": Fraction(1), "b": Fraction(-1)}, Fraction(0)),
            ({"b": Fraction(1, 3), "c": Fraction(1)}, Fraction(5, 2)),
        ],
        BOUNDS,
        VARIABLES,
    )

    def solved(self):
        witness = find_rational_solution(self.EQUALITIES, [], range(4))
        assert witness is not None
        _check_witness(self.EQUALITIES, witness)
        return witness, lcm(*(x.denominator for x in witness))

    @pytest.mark.parametrize("v", ["a", "b", "c"])
    @pytest.mark.parametrize("step", [1, -1])
    def test_moved_value_fails_an_equality(self, v, step):
        witness, d = self.solved()
        witness[self.VARIABLES.index(v)] += Fraction(step, d)
        with pytest.raises(AssertionError, match="equality"):
            _check_witness(self.EQUALITIES, witness)

    def test_value_moved_below_its_bound_fails(self):
        witness, d = self.solved()
        assert witness[3] == 0  # d at its bound
        witness[3] -= Fraction(1, d)
        with pytest.raises(AssertionError, match="negative"):
            _check_witness(self.EQUALITIES, witness)


# ---------------------------------------------------------------------------
# Reference: the solver the one integer tableau replaced.  It eliminates the
# equalities in Fraction arithmetic, expressing each pivot unknown as an
# affine form of the free ones, then rebuilds those forms as integer rows
# with slack columns for a simplex over the free unknowns, with a
# positive and a negative column for each unknown that has no lower bound.
# Test-only; kept to check that the tableau returns the same witness.


def _ref_substitute(coeffs, rhs, pivots):
    out = {}
    for j, c in coeffs.items():
        if c == 0:
            continue
        if j in pivots:
            const, expr = pivots[j]
            rhs -= c * const
            for k, e in expr.items():
                out[k] = out.get(k, Fraction(0)) + c * e
        else:
            out[j] = out.get(j, Fraction(0)) + c
    return {j: c for j, c in out.items() if c != 0}, rhs


def reference_eliminate_equalities(equalities):
    """Gaussian elimination; None when the equalities are inconsistent.
    Each pivot index maps to an affine form (const, coeffs) over free
    indices only."""
    pivots = {}
    for coeffs, rhs in equalities:
        c, r = _ref_substitute(coeffs, rhs, pivots)
        if not c:
            if r != 0:
                return None
            continue
        p = min(c)
        cp = c.pop(p)
        const = r / cp
        expr = {j: -cj / cp for j, cj in c.items()}
        for q, (qconst, qexpr) in list(pivots.items()):
            if p in qexpr:
                f = qexpr.pop(p)
                qconst += f * const
                for j, e in expr.items():
                    qexpr[j] = qexpr.get(j, Fraction(0)) + f * e
                pivots[q] = (qconst, {j: v for j, v in qexpr.items() if v != 0})
        pivots[p] = (const, expr)
    return pivots


_REF_RHS, _REF_OBJ = -1, -2


def _ref_eliminate(row, piv, col):
    p, f = piv[col], row[col]
    new = {k: p * v for k, v in row.items()}
    for k, v in piv.items():
        x = new.get(k, 0) - f * v
        if x:
            new[k] = x
        else:
            del new[k]
    g = gcd(*new.values())
    return {k: v // g for k, v in new.items()} if g > 1 else new


def _ref_minimise(rows, basis, obj):
    while True:
        e = min((k for k, v in obj.items() if k >= 0 and v > 0), default=None)
        if e is None:
            return obj
        leave, num, den = -1, 0, 1
        for i, row in enumerate(rows):
            a = row.get(e, 0)
            if a <= 0:
                continue
            rhs = row.get(_REF_RHS, 0)
            if leave < 0 or rhs * den < num * a or (
                rhs * den == num * a and basis[i] < basis[leave]
            ):
                leave, num, den = i, rhs, a
        if leave < 0:
            return None
        piv = rows[leave]
        for i, row in enumerate(rows):
            if i != leave and e in row:
                rows[i] = _ref_eliminate(row, piv, e)
        obj = _ref_eliminate(obj, piv, e)
        basis[leave] = e


def _ref_priced_out(obj):
    return [k for k, v in obj.items() if k >= 0 and v < 0]


def _ref_bar(rows, barred, columns):
    columns = list(columns)
    barred.update(columns)
    for row in rows:
        for k in columns:
            row.pop(k, None)


def _ref_lex_min(pivots, free, bounds):
    starts = []
    for p in sorted(pivots):
        if p not in bounds:
            continue
        const, expr = pivots[p]
        c0 = const - bounds[p] + sum(
            (e * bounds[j] for j, e in expr.items() if j in bounds), Fraction(0)
        )
        if not expr:
            if c0 < 0:
                return None
            continue
        starts.append((c0, expr))
    if all(j in bounds for j in free) and all(c0 >= 0 for c0, _ in starts):
        return {j: bounds[j] for j in free}

    pos, neg = {}, {}
    for j in free:
        pos[j] = len(pos) + len(neg)
        if j not in bounds:
            neg[j] = pos[j] + 1
    slack = len(pos) + len(neg)
    artificial = slack + len(starts)
    rows, basis = [], []
    for r, (c0, expr) in enumerate(starts):
        scale = lcm(c0.denominator, *(e.denominator for e in expr.values()))
        sign = 1 if c0 >= 0 else -1
        row = {slack + r: sign * scale}
        for j, e in expr.items():
            row[pos[j]] = -sign * int(e * scale)
            if j in neg:
                row[neg[j]] = sign * int(e * scale)
        if c0:
            row[_REF_RHS] = sign * int(c0 * scale)
        if sign < 0:
            row[artificial] = 1
            basis.append(artificial)
            artificial += 1
        else:
            basis.append(slack + r)
        g = gcd(*row.values())
        rows.append({k: v // g for k, v in row.items()} if g > 1 else row)

    barred = set()

    def objective(costs):
        obj = {_REF_OBJ: 1}
        obj.update((k, -c) for k, c in costs.items() if k not in barred)
        for r, b in enumerate(basis):
            if b in obj:
                obj = _ref_eliminate(obj, rows[r], b)
        return obj

    artificials = range(slack + len(starts), artificial)
    if artificials:
        obj = _ref_minimise(rows, basis, objective(dict.fromkeys(artificials, 1)))
        if obj.get(_REF_RHS, 0):
            return None
        _ref_bar(rows, barred, _ref_priced_out(obj))
        _ref_bar(rows, barred, (k for k in artificials if k not in basis))

    for j in free:
        if j in neg:
            u, v = pos[j], neg[j]
            for costs in ({u: 1, v: -1}, {u: -1, v: 1}, {u: 1, v: 1}):
                obj = _ref_minimise(rows, basis, objective(costs))
                if obj is not None:
                    _ref_bar(rows, barred, _ref_priced_out(obj))
                    break
        elif pos[j] in basis:
            obj = dict(rows[basis.index(pos[j])])
            obj[_REF_OBJ] = obj.pop(pos[j])
            _ref_bar(rows, barred, _ref_priced_out(_ref_minimise(rows, basis, obj)))
        else:
            _ref_bar(rows, barred, [pos[j]])

    level = {b: Fraction(rows[r].get(_REF_RHS, 0), rows[r][b]) for r, b in enumerate(basis)}
    values = {}
    for j in free:
        if j in neg:
            values[j] = level.get(pos[j], Fraction(0)) - level.get(neg[j], Fraction(0))
        else:
            values[j] = bounds[j] + level.get(pos[j], Fraction(0))
    return values


def reference_find_rational_solution(equalities, lower_bounds, variables):
    equalities = list(equalities)
    index = {v: i for i, v in enumerate(variables)}
    eqs = [
        ({index[v]: Fraction(c) for v, c in coeffs.items() if c != 0}, Fraction(rhs))
        for coeffs, rhs in equalities
    ]
    pivots = reference_eliminate_equalities(eqs)
    if pivots is None:
        return None
    free = sorted(set(index.values()) - set(pivots))
    bounds = {index[v]: Fraction(b) for v, b in lower_bounds.items()}
    values = _ref_lex_min(pivots, free, bounds)
    if values is None:
        return None
    for p, (const, expr) in pivots.items():
        values[p] = const + sum((c * values[j] for j, c in expr.items()), Fraction(0))
    return {v: values[index[v]] for v in variables}


# ---------------------------------------------------------------------------
# Reference: the Fourier-Motzkin solver the simplex replaced.  It projects
# the free unknowns out one at a time, from the last to the first, and
# reads the witness back in ascending order, each unknown at its least
# value, else its greatest, else 0.  Test-only; kept to check that the
# simplex returns the same witness.


def _fm_key(coeffs, rhs):
    if not coeffs:
        return ((), rhs > 0)
    scale = abs(coeffs[min(coeffs)])
    return (tuple((j, coeffs[j] / scale) for j in sorted(coeffs)), rhs / scale)


def _fm_project(inequalities, order):
    record = []
    current = inequalities
    for z in order:
        lowers, uppers, fresh = [], [], {}
        for coeffs, rhs in current:
            cz = coeffs.get(z, 0)
            if cz == 0:
                if not coeffs:
                    if rhs > 0:
                        return None
                    continue
                fresh.setdefault(_fm_key(coeffs, rhs), (coeffs, rhs))
                continue
            bound = (rhs / cz, {j: -c / cz for j, c in coeffs.items() if j != z})
            (lowers if cz > 0 else uppers).append(bound)
        for lconst, lexpr in lowers:
            for uconst, uexpr in uppers:
                coeffs = dict(uexpr)
                for j, c in lexpr.items():
                    coeffs[j] = coeffs.get(j, Fraction(0)) - c
                coeffs = {j: c for j, c in coeffs.items() if c != 0}
                rhs = lconst - uconst
                if not coeffs:
                    if rhs > 0:
                        return None
                    continue
                fresh.setdefault(_fm_key(coeffs, rhs), (coeffs, rhs))
        record.append((z, lowers, uppers))
        current = [fresh[k] for k in sorted(fresh, key=repr)]
    if any(not coeffs and rhs > 0 for coeffs, rhs in current):
        return None
    return record


def _fm_evaluate(affine, values):
    const, expr = affine
    return const + sum((c * values[j] for j, c in expr.items()), Fraction(0))


def fm_solution(equalities, lower_bounds, variables):
    index = {v: i for i, v in enumerate(variables)}
    eqs = [
        ({index[v]: Fraction(c) for v, c in coeffs.items() if c != 0}, Fraction(rhs))
        for coeffs, rhs in equalities
    ]
    pivots = reference_eliminate_equalities(eqs)
    if pivots is None:
        return None
    inequalities = []
    for v, b in sorted(lower_bounds.items(), key=lambda kv: index[kv[0]]):
        i = index[v]
        if i in pivots:
            const, expr = pivots[i]
            if not expr:
                if const < b:
                    return None
                continue
            inequalities.append((dict(expr), Fraction(b) - const))
        else:
            inequalities.append(({i: Fraction(1)}, Fraction(b)))
    free = sorted(set(index.values()) - set(pivots), reverse=True)
    record = _fm_project(inequalities, free)
    if record is None:
        return None
    values = {}
    for z, lowers, uppers in reversed(record):
        lo = max((_fm_evaluate(a, values) for a in lowers), default=None)
        hi = min((_fm_evaluate(a, values) for a in uppers), default=None)
        values[z] = lo if lo is not None else hi if hi is not None else Fraction(0)
    for p in sorted(pivots):
        values[p] = _fm_evaluate(pivots[p], values)
    return {v: values[index[v]] for v in variables}


FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def systems(draw):
    """Small systems with mixed-sign coefficients, bounds that are
    negative, zero or positive, and rows that repeat, scale, vanish or
    contradict earlier ones."""
    variables = [f"x{i}" for i in range(draw(st.integers(1, 6)))]
    equalities = []
    for _ in range(draw(st.integers(0, 5))):
        form = draw(st.sampled_from(["fresh", "fresh", "fresh", "copy", "empty"]))
        if form == "copy" and equalities:
            # a multiple of an earlier row: redundant, or shifted and infeasible
            coeffs, rhs = equalities[draw(st.integers(0, len(equalities) - 1))]
            factor = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
            coeffs = {v: c * factor for v, c in coeffs.items()}
            rhs = rhs * factor + draw(st.sampled_from([Fraction(0), Fraction(1)]))
        elif form == "empty":
            coeffs, rhs = {}, draw(st.sampled_from([Fraction(0), Fraction(1)]))
        else:
            # a zero right-hand side makes degenerate vertices
            coeffs = {v: c for v in variables if (c := draw(FRACTIONS))}
            rhs = draw(st.sampled_from([Fraction(0), draw(FRACTIONS) * 2]))
        equalities.append((coeffs, rhs))
    bounds = {v: draw(FRACTIONS) for v in variables}
    return equalities, bounds, variables


class TestSameWitnessAsFourierMotzkin:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_random_systems(self, system):
        equalities, bounds, variables = system
        assert solve_named(equalities, bounds, variables) == fm_solution(
            equalities, bounds, variables
        )


class TestSameWitnessAsParentSolver:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_random_systems(self, system):
        equalities, bounds, variables = system
        assert solve_named(
            equalities, bounds, variables
        ) == reference_find_rational_solution(equalities, bounds, variables)


# ---------------------------------------------------------------------------
# Systems from families: the marginal equations of global consistency and
# the agreement equations of realisability.

SHAPES = {
    "path": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    "star": [("h", "a"), ("h", "b"), ("h", "c"), ("h", "d")],
    "grid": [("g00", "g01"), ("g01", "g02"), ("g10", "g11"), ("g11", "g12"),
             ("g00", "g10"), ("g01", "g11"), ("g02", "g12")],
    "chorded": [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")],
    "acyclic": [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "e"), ("c", "e", "f")],
}


def marginal_family(shape, kind, rows, domain, seed):
    """The marginals, over one shape, of a seeded random global relation
    with ``rows`` weighted rows (repeats add up)."""
    rng = random.Random(f"{shape}/{kind.name}/{rows}/{domain}/{seed}")
    variables = sorted({v for c in SHAPES[shape] for v in c})
    pool = [1, 2, 3] if kind is MonoidKind.N else [Fraction(1, 2), 1, Fraction(3, 2), 2]
    weights = {}
    for _ in range(rows):
        row = Assignment({v: f"v{rng.randrange(domain)}" for v in variables})
        weights[row] = weights.get(row, 0) + rng.choice(pool)
    glob = KRelation.from_assignments(
        frozenset(variables), kind, {r: MonoidValue.of(kind, w) for r, w in weights.items()}
    )
    return ContextualFamily([glob.marginalise(frozenset(c)) for c in SHAPES[shape]])


def twisted_family(shape, kind, domain, seed):
    """Bijections on every binary context but one, which is shifted by
    one value: locally consistent, with no global relation."""
    rng = random.Random(f"twisted/{shape}/{kind.name}/{domain}/{seed}")
    contexts = SHAPES[shape]
    perm = {v: rng.sample(range(domain), domain) for c in contexts for v in c}
    shifted = rng.randrange(len(contexts))
    weight = MonoidValue.of(kind, rng.choice([1, 2]))
    relations = []
    for n, (u, v) in enumerate(contexts):
        step = 1 if n == shifted else 0
        relations.append(KRelation.from_assignments(frozenset((u, v)), kind, {
            Assignment({u: f"v{perm[u][a]}", v: f"v{perm[v][(a + step) % domain]}"}): weight
            for a in range(domain)
        }))
    return ContextualFamily(relations)


def glued_family(kind, seed):
    """A locally consistent family on the ``acyclic`` shape glued along its
    join tree, where each context's parent is the one before it, rather
    than drawn from one global relation.  The first context is random;
    each later one splits every row of its parent's marginal on their
    shared variables among values of its one new variable: any nonempty
    set of them in B, integer parts in N, equal parts in Q."""
    rng = random.Random(f"glued/{kind.name}/{seed}")
    contexts = SHAPES["acyclic"]
    domain = ["v0", "v1", "v2"]
    pool = {MonoidKind.B: [1], MonoidKind.N: [1, 2, 3, 4], MonoidKind.Q: [Fraction(1, 2), 1, Fraction(3, 2), 2]}[kind]
    first = {
        Assignment({v: rng.choice(domain[:2]) for v in contexts[0]}): MonoidValue.of(kind, rng.choice(pool))
        for _ in range(rng.randint(1, 4))
    }
    relations = [KRelation.from_assignments(frozenset(contexts[0]), kind, first)]
    for parent, context in zip(contexts, contexts[1:]):
        shared = frozenset(parent) & frozenset(context)
        (new,) = frozenset(context) - shared
        rows = {}
        for row, value in relations[-1].marginalise(shared).rows():
            w = value.payload
            if kind is MonoidKind.N:
                cuts = sorted(rng.sample(range(1, w), rng.randint(0, min(w, len(domain)) - 1)))
                parts = [b - a for a, b in zip([0] + cuts, cuts + [w])]
            else:
                m = rng.randint(1, len(domain))
                parts = [w if kind is MonoidKind.B else w / m] * m
            for ext, part in zip(rng.sample(domain, len(parts)), parts):
                rows[Assignment(dict(row.items(), **{new: ext}))] = MonoidValue.of(kind, part)
        relations.append(KRelation.from_assignments(frozenset(context), kind, rows))
    return ContextualFamily(relations)


# ---------------------------------------------------------------------------
# Reference: the global path the cell table replaced.  It restricts every
# join row to every context to find the context rows it covers, decides B
# by comparing marginals, builds the equations from those restrictions and
# searches for integer weights recursively.  Test-only; kept to check that
# the one decision over the cell table returns the same witness.


def _projects_onto(candidate, family):
    return all(
        candidate.marginalise(c) == family.relation_at(c) for c in family.contexts
    )


def reference_support_join(family):
    rows = [dict()]
    for c in family.contexts:
        supp = sorted(family.relation_at(c).support, key=lambda a: a.items())
        extended = []
        for partial in rows:
            for s in supp:
                merged = dict(partial)
                ok = True
                for var, val in s.items():
                    if var in merged and merged[var] != val:
                        ok = False
                        break
                    merged[var] = val
                if ok:
                    extended.append(merged)
        rows = extended
    return sorted((Assignment(m) for m in rows), key=lambda a: a.items())


def reference_global_boolean(family):
    join = reference_support_join(family)
    if not join and any(len(r) for r in family.maximal_relations()):
        return None
    candidate = KRelation.from_assignments(
        family.contexts.variables, MonoidKind.B, dict.fromkeys(join, MonoidValue.one(MonoidKind.B))
    )
    return candidate if _projects_onto(candidate, family) else None


def reference_marginal_constraints(family, join):
    constraints = []
    for c in family.contexts:
        rel = family.relation_at(c)
        covered = {row: [] for row, _ in rel.rows()}
        for t in join:
            covered[restrict(t, c)].append(t)
        for row, value in rel.rows():
            terms = covered[row]
            if not terms:
                return None
            coeffs = {t: Fraction(1) for t in terms}
            constraints.append((coeffs, Fraction(value.payload)))
    return constraints


def reference_global_weighted(family):
    join = reference_support_join(family)
    if not join:
        if any(len(r) for r in family.maximal_relations()):
            return None
        return KRelation(family.contexts.variables, family.kind, {})
    constraints = reference_marginal_constraints(family, join)
    if constraints is None:
        return None
    solution = solve_named(constraints, dict.fromkeys(join, 0), join)
    if solution is None:
        return None
    if family.kind is MonoidKind.N:
        integral = reference_integer_weights(family, join)
        if integral is None:
            return None
        rows = {t: MonoidValue.of(MonoidKind.N, w) for t, w in integral.items() if w}
        return KRelation.from_assignments(family.contexts.variables, MonoidKind.N, rows)
    rows = {t: MonoidValue.of(MonoidKind.Q, w) for t, w in solution.items() if w}
    return KRelation.from_assignments(family.contexts.variables, MonoidKind.Q, rows)


def reference_integer_weights(family, join):
    demands = {}
    for c in family.contexts:
        for row, value in family.relation_at(c).rows():
            demands[(c, row)] = int(value.payload)
    touched = {t: [(c, restrict(t, c)) for c in family.contexts] for t in join}
    return reference_weight_search(demands, touched, sorted(join, key=lambda a: a.items()))


def reference_weight_search(demands, touched, order):
    capacity = {k: 0 for k in demands}
    for t in order:
        b = min(demands[cell] for cell in touched[t])
        for cell in touched[t]:
            capacity[cell] += b

    def search(idx, remaining, caps, picked):
        if idx == len(order):
            if all(v == 0 for v in remaining.values()):
                return dict(picked)
            return None
        t = order[idx]
        own_cap = min(demands[cell] for cell in touched[t])
        for cell in touched[t]:
            caps[cell] -= own_cap
        top = min(remaining[cell] for cell in touched[t])
        for w in range(top, -1, -1):
            ok = True
            for cell in touched[t]:
                remaining[cell] -= w
                if remaining[cell] > caps[cell]:
                    ok = False
            if ok:
                picked[t] = w
                found = search(idx + 1, remaining, caps, picked)
                if found is not None:
                    return found
                del picked[t]
            for cell in touched[t]:
                remaining[cell] += w
        for cell in touched[t]:
            caps[cell] += own_cap
        return None

    return search(0, dict(demands), capacity, {})


def reference_global(family):
    if family.kind is MonoidKind.B:
        return reference_global_boolean(family)
    return reference_global_weighted(family)


# Join rows the reference handles in well under a second; past this its
# elimination runs for seconds to hours.
FM_REACH = 16


def small_families(shape):
    """Seeded N and Q marginal families over ``shape`` with 2-4 global
    rows, keeping those whose support join the reference can handle."""
    for seed in count():
        rows = 2 + seed % 3
        for kind in (MonoidKind.N, MonoidKind.Q):
            family = marginal_family(shape, kind, rows, 2 + seed % 2, seed)
            if len(_support_join(family)[0]) <= FM_REACH:
                yield family


def routed(monkeypatch, reference):
    """Route ``module.find_rational_solution`` through a check that the
    witness equals ``reference``'s for the same rows, every column at
    least 0; returns the list of witnesses, in N and Q alike."""

    def expected(equalities, columns):
        found = reference(equalities, dict.fromkeys(columns, 0), columns)
        return None if found is None else [found[j] for j in columns]

    def route(module):
        witnesses = []

        def both(equalities, implied, columns):
            witness = find_rational_solution(equalities, implied, columns)
            assert witness == expected(equalities, columns)
            witnesses.append(witness)
            return witness

        monkeypatch.setattr(module, "find_rational_solution", both)
        return witnesses

    return route


def first_descent(family):
    """``_first_descent`` on the cell table of ``family``."""
    _, cells = _support_join(family)
    return _first_descent([p for rel in family.maximal_relations() for p in rel._rows.values()], cells)


def descends(family):
    """Whether ``check_global_consistency`` decides ``family`` without a
    solver call: N, with a first descent that meets every cell."""
    return family.kind is MonoidKind.N and first_descent(family) is not None


def q_twin(family):
    """``family`` with every value read as a ``Fraction`` in Q.  Q always
    hands the solver its cell system, and the rows of an N family's are
    the same, so the twin of a family that descends takes its place in a
    solver differential."""
    return ContextualFamily([
        KRelation(rel.variables, MonoidKind.Q, {key: Fraction(p) for key, p in rel._rows.items()})
        for rel in family.maximal_relations()
    ])


@pytest.fixture
def against_fm(monkeypatch):
    return routed(monkeypatch, fm_solution)


@pytest.fixture
def against_parent(monkeypatch):
    return routed(monkeypatch, reference_find_rational_solution)


class TestSameWitnessOnFamilies:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_global_consistency(self, shape, against_fm):
        """Every N family's first descent meets every cell, so it asks the
        solver nothing; its Q twin's cell system goes through the
        differential."""
        witnesses = against_fm(family_module)
        twins = 0
        for family in islice(small_families(shape), 16):
            asked = len(witnesses)
            witness = check_global_consistency(family)
            assert witness is not None and _projects_onto(witness, family)
            if descends(family):
                assert len(witnesses) == asked
                assert check_global_consistency(q_twin(family)) is not None
                twins += 1
            assert len(witnesses) == asked + 1
        assert twins == 8

    def test_sums_with_a_twisted_family(self, against_fm):
        # the twisted rows can outweigh what the global rows can carry
        witnesses = against_fm(family_module)
        for seed in range(12):
            for kind in (MonoidKind.N, MonoidKind.Q):
                family = marginal_family("chorded", kind, 3, 2, seed)
                check_global_consistency(family + twisted_family("chorded", kind, 2, seed))
        assert None in witnesses
        assert any(w is not None for w in witnesses)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_realisable_lp(self, shape, against_fm):
        witnesses = against_fm(realisability)
        rng = random.Random(shape)
        premises = [FD.cd(c) for c in SHAPES[shape]]
        for seed in range(8):
            supports = [marginal_family(shape, MonoidKind.Q, 2 + seed % 3, 2, seed).support()]
            drawn = random_family_satisfying(premises, rng)
            if drawn is not None:
                supports.append(drawn)
            for support in supports:
                lp_witness(support, MonoidKind.Q)
        # on the shapes with cycles some drawn supports are not realisable
        assert (None in witnesses) == (shape in ("chorded", "grid"))
        assert len(witnesses) == 16


class TestSameWitnessAsParentOnFamilies:
    """Every system the two callers build, solved by the tableau and by
    the parent solver."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_global_consistency(self, shape, against_parent):
        """An N family whose first descent meets every cell asks the solver
        nothing; its Q twin's cell system goes through the differential."""
        witnesses = against_parent(family_module)
        twins = 0
        for seed in range(40):
            for kind in (MonoidKind.N, MonoidKind.Q):
                family = marginal_family(shape, kind, 2 + seed % 5, 2 + seed % 2, seed)
                if shape in ("chorded", "grid") and seed < 12:
                    family = family + twisted_family(shape, kind, 2, seed)
                asked = len(witnesses)
                check_global_consistency(family)
                if descends(family):
                    assert len(witnesses) == asked
                    assert check_global_consistency(q_twin(family)) is not None
                    twins += 1
        # a twisted sum is refused by the solver or, with an empty cell,
        # before it
        assert len(witnesses) > 60
        assert twins == {"chorded": 25, "grid": 31}.get(shape, 40)
        assert (None in witnesses) == (shape in ("chorded", "grid"))

    @pytest.mark.parametrize("kind", [MonoidKind.N, MonoidKind.Q], ids=lambda k: k.name)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_twelve_row_grid(self, seed, kind, against_parent):
        """The N grid of seed 1 descends; its Q twin solves in its place."""
        witnesses = against_parent(family_module)
        family = marginal_family("grid", kind, 12, 3, seed)
        assert within(20, check_global_consistency, family) is not None
        assert descends(family) == (kind is MonoidKind.N and seed == 1)
        if descends(family):
            assert within(20, check_global_consistency, q_twin(family)) is not None
        assert len(witnesses) == 1 and witnesses[0] is not None

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_realisable_lp(self, shape, against_parent):
        witnesses = against_parent(realisability)
        rng = random.Random(shape)
        premises = [FD.cd(c) for c in SHAPES[shape]]
        for seed in range(20):
            kind = (MonoidKind.N, MonoidKind.Q)[seed % 2]
            supports = [marginal_family(shape, kind, 2 + seed % 5, 2 + seed % 2, seed).support()]
            drawn = random_family_satisfying(premises, rng)
            if drawn is not None:
                supports.append(drawn)
            for support in supports:
                lp_witness(support, kind)
        assert (None in witnesses) == (shape in ("chorded", "grid"))
        assert len(witnesses) == 40


def within(seconds, call, *args):
    """``call(*args)``, failing the test when it runs past ``seconds``,
    which may be a fraction."""

    def expire(_signum, _frame):
        raise TimeoutError(f"{call.__name__} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestLargeGlobalFamilies:
    """Twelve global rows and at least 150 join rows.  Fourier-Motzkin
    elimination ran for more than 15 s on each of these."""

    @pytest.mark.parametrize(
        "shape, kind, seed",
        [
            ("path", MonoidKind.N, 176),
            ("path", MonoidKind.Q, 131),
            ("star", MonoidKind.N, 67),
            ("star", MonoidKind.Q, 8),
            ("grid", MonoidKind.N, 1),
            ("grid", MonoidKind.Q, 0),
        ],
    )
    def test_witness_projects_onto_the_family(self, shape, kind, seed):
        family = marginal_family(shape, kind, 12, 3, seed)
        assert len(_support_join(family)[0]) >= 150
        witness = within(20, check_global_consistency, family)
        assert witness is not None and _projects_onto(witness, family)
        assert witness == reference_global(family)


def at_kind(kind, build):
    """``build(kind)``; a B family is the support of ``build(N)``."""
    if kind is MonoidKind.B:
        return build(MonoidKind.N).support()
    return build(kind)


class TestAgainstParentGlobalPath:
    """The one decision over the cell table against the reference above."""

    @pytest.mark.parametrize("kind", list(MonoidKind), ids=lambda k: k.name)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_marginal_families(self, shape, kind):
        for seed in range(40):
            family = at_kind(
                kind, lambda k: marginal_family(shape, k, 2 + seed % 5, 2 + seed % 2, seed)
            )
            assert check_global_consistency(family) == reference_global(family)

    @pytest.mark.parametrize("kind", list(MonoidKind), ids=lambda k: k.name)
    @pytest.mark.parametrize("shape", ["chorded", "grid"])
    def test_sums_with_a_twisted_family(self, shape, kind):
        results = []
        for seed in range(12):
            family = at_kind(kind, lambda k: (
                marginal_family(shape, k, 3, 2, seed) + twisted_family(shape, k, 2, seed)
            ))
            witness = check_global_consistency(family)
            assert witness == reference_global(family)
            if witness is None and kind is MonoidKind.N:
                assert first_descent(family) is None
            results.append(witness)
        assert None in results
        assert any(w is not None for w in results)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_twelve_row_grid(self, seed):
        # Without its capacity prune the integer search runs past the
        # budget on seeds 2 and 3; the reference takes half a minute on 3.
        family = marginal_family("grid", MonoidKind.N, 12, 3, seed)
        witness = within(20, check_global_consistency, family)
        assert witness is not None and _projects_onto(witness, family)
        if seed < 3:
            assert witness == reference_global(family)

    def test_integer_search_on_random_cell_tables(self):
        rng = random.Random(0)
        solved = 0
        for _ in range(2000):
            widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            firsts = [sum(widths[:n]) for n in range(len(widths))]
            demands = [rng.randint(1, 3) for _ in range(sum(widths))]
            cells = [
                [first + rng.randrange(width) for first, width in zip(firsts, widths)]
                for _ in range(rng.randint(1, 7))
            ]
            found = reference_weight_search(
                dict(enumerate(demands)), dict(enumerate(cells)), range(len(cells))
            )
            expected = None if found is None else [found[i] for i in range(len(cells))]
            assert _integer_weights(demands, cells) == expected
            assert _first_descent(demands, cells) in (None, expected)
            solved += expected is not None
        assert 100 < solved < 1900

    def test_no_row_is_restricted_or_marginalised(self, monkeypatch):
        families = [
            at_kind(kind, lambda k: marginal_family("grid", k, 3, 2, 0))
            for kind in MonoidKind
        ]
        # Rows have no restriction method of their own, so only the
        # marginals are left to count.
        calls = []
        original = KRelation.marginalise

        def counted(*args):
            calls.append("marginalise")
            return original(*args)

        monkeypatch.setattr(KRelation, "marginalise", counted)
        for family in families:
            assert check_global_consistency(family) is not None
        assert calls == []

    def test_weighted_search_leaves_no_cyclic_garbage(self):
        family = ContextualFamily([
            KRelation.from_assignments(frozenset(c), MonoidKind.N, {
                Assignment(dict(zip(c, values))): MonoidValue.of(MonoidKind.N, w)
                for values, w in (("00", 1), ("11", 2))
            })
            for c in (("x", "y"), ("y", "z"))
        ])
        gc.collect()
        gc.disable()
        try:
            witness = check_global_consistency(family)
            assert witness is not None
            del witness
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLocalImpliesGlobalExactlyOnAcyclicShapes:
    """Vorob'ev's theorem (for sets Beeri, Fagin, Maier and Yannakakis;
    for bags Atserias and Kolaitis): on an acyclic context set every
    locally consistent family has a global relation, and on a cyclic one
    some locally consistent family has none.  ``path``, ``star`` and
    ``acyclic`` are acyclic; ``grid`` and ``chorded`` are not."""

    def test_the_shapes_acyclicity(self):
        assert {shape: is_acyclic(ContextSet(SHAPES[shape])) for shape in SHAPES} == {
            "path": True, "star": True, "acyclic": True, "grid": False, "chorded": False
        }

    @pytest.mark.parametrize("kind", list(MonoidKind), ids=lambda k: k.name)
    @pytest.mark.parametrize("shape", ["path", "star", "acyclic"])
    def test_acyclic_families_get_a_global_witness(self, shape, kind):
        """Marginal families and, on the binary shapes, the twisted families
        and their sums with marginal ones, which no single global relation
        built them: each witness marginalises onto every context relation."""
        checked = 0
        for seed in range(15):
            builds = [lambda k: marginal_family(shape, k, 2 + seed % 5, 2 + seed % 2, seed)]
            if shape != "acyclic":
                builds += [
                    lambda k: twisted_family(shape, k, 2 + seed % 3, seed),
                    lambda k: marginal_family(shape, k, 3, 2, seed) + twisted_family(shape, k, 2, seed),
                ]
            for build in builds:
                family = at_kind(kind, build)
                witness = check_global_consistency(family)
                assert witness is not None and witness.kind is kind
                assert _projects_onto(witness, family)
                checked += 1
        assert checked == (15 if shape == "acyclic" else 45)

    @pytest.mark.parametrize("kind", list(MonoidKind), ids=lambda k: k.name)
    def test_glued_families_get_a_global_witness(self, kind):
        """Families glued context by context along the join tree, not
        built from one global relation."""
        for seed in range(100):
            family = glued_family(kind, seed)
            witness = check_global_consistency(family)
            assert witness is not None and witness.kind is kind
            assert _projects_onto(witness, family)

    @pytest.mark.parametrize("kind", list(MonoidKind), ids=lambda k: k.name)
    @pytest.mark.parametrize("shape", ["grid", "chorded"])
    def test_twisted_families_are_globally_inconsistent(self, shape, kind):
        for seed in range(15):
            family = at_kind(kind, lambda k: twisted_family(shape, k, 2 + seed % 3, seed))
            assert check_global_consistency(family) is None


class TestFirstDescent:
    """N calls the solver exactly when the first descent misses a cell, on
    every context set."""

    @staticmethod
    def tableaux_built(monkeypatch, family):
        """Check the witness for ``family``; the number of solver calls,
        each made after a first descent that returned None."""
        calls = []
        solve, descend = family_module.find_rational_solution, family_module._first_descent

        def counted(*call):
            assert calls == [None]
            calls.append("solve")
            return solve(*call)

        with monkeypatch.context() as patch:
            patch.setattr(family_module, "find_rational_solution", counted)
            patch.setattr(family_module, "_first_descent", lambda *call: calls.append(descend(*call)) or calls[-1])
            witness = check_global_consistency(family)
        assert witness is not None and _projects_onto(witness, family)
        assert len(calls) == 1 + (calls[0] is None)
        return calls.count("solve")

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_a_tableau_only_where_the_descent_misses(self, shape, monkeypatch):
        built = [
            self.tableaux_built(monkeypatch, marginal_family(shape, MonoidKind.N, 2 + seed, 2, seed)) for seed in range(4)
        ]
        assert built == ([0, 0, 0, 1] if shape == "chorded" else [0, 0, 0, 0])

    def test_the_four_cycle(self, monkeypatch):
        """The bulk-check workload's shape: a b, b c, c d and a d."""
        rng = random.Random(0)
        built = []
        for _ in range(4):
            rows = {Assignment({v: f"v{rng.randrange(2)}" for v in "abcd"}): MonoidValue.of(MonoidKind.N, rng.randint(1, 3))
                    for _ in range(4)}
            glob = KRelation.from_assignments(frozenset("abcd"), MonoidKind.N, rows)
            family = ContextualFamily([glob.marginalise(frozenset(c)) for c in ("ab", "bc", "cd", "ad")])
            built.append(self.tableaux_built(monkeypatch, family))
        assert built == [0, 0, 0, 0]

    def test_a_three_cycle_the_search_solves(self, monkeypatch):
        """CI's hash-seed document whose first descent misses a cell: the
        solver and the search run, and the search backtracks to a witness
        that weighs the first join row 0."""
        family = parse_family(DESCENT_MISSES)
        assert first_descent(family) is None
        assert self.tableaux_built(monkeypatch, family) == 1
        assert check_global_consistency(family)._rows == {("0", "0", "1"): 2, ("0", "1", "0"): 2, ("1", "0", "0"): 1}

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "2d2d6b6b4bf5cd67a8f1d5982145396e7c0af5d097e1cab22038abae4d7d71b3"),
            (1, "7306ad24957d8c5feb2b3657bac1de529cb0d7304462df3a8e1dcd7695ed65a5"),
            (2, "e8ae3e278f53cd73eee0610281c71580feaa653ace8e993ce746113a6bd14d74"),
            (3, "ba8b99e05445235a66b3012c8b59426f6c04e9bfcf4c648b052f446b224fe56c"),
        ],
    )
    def test_forty_row_grid_keeps_its_witness(self, seed, digest):
        """The solver took 67-95 ms on these grids before the search found
        each witness (Python 3.11.7, shared 2-vCPU VM); the first descent
        takes 6-8 ms.  The digests are of the witnesses found that way."""
        family = marginal_family("grid", MonoidKind.N, 40, 3, seed)
        witness = within(0.04, check_global_consistency, family)
        assert witness is not None and _projects_onto(witness, family)
        assert hashlib.sha256(serialize_relation(witness).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "shape, rows, domain, seed, digest",
        [
            ("path", 200, 5, 0, "4e8fd33c1b57b5f757d2430810b710181a99ad3dacb649adcb4144d862b6ea91"),
            ("path", 200, 5, 1, "75c41d361ae93ad3602ab0d44069276fbb8fab15f426bd9095c334195fa980db"),
            ("acyclic", 200, 5, 0, "b1c9716077fac2cdba9a2ae4495a9d77be50af7d5ae0c1e7a6cd94c557f63a2b"),
            ("acyclic", 200, 5, 1, "a1fc9a5c6a56c2166cc89486965de5b560f9a3c1280f8ec3543d1f1ef8ea1928"),
            ("star", 400, 6, 0, "a30dbacca6cf875682ec3338621efa41ec67bef7723e75b7bd73fd21ed023e51"),
            ("star", 400, 6, 1, "ca60ba6b3c0cd7e4a8db36104f19ac7ca9a6b549373d6d11dec2da4c588579ab"),
        ],
        ids=["path-200-0", "path-200-1", "acyclic-200-0", "acyclic-200-1", "star-400-0", "star-400-1"],
    )
    def test_large_families_keep_their_witness(self, shape, rows, domain, seed, digest):
        """Phase 1 first took 10-74 s on path and acyclic and 2-3 s on star;
        the digests are of the witnesses found that way."""
        family = marginal_family(shape, MonoidKind.N, rows, domain, seed)
        witness = within(20, check_global_consistency, family)
        assert witness is not None and _projects_onto(witness, family)
        assert hashlib.sha256(serialize_relation(witness).encode()).hexdigest() == digest


def lex_greatest_point(family):
    """The support join's rows and, by brute force, the lexicographically
    greatest natural weight vector over them, in join-row order, whose sum
    over every cell is that cell's demand, or None: every vector is tried,
    each weight at most the least demand among its row's cells."""
    join, cells = _support_join(family)
    demands = [p for rel in family.maximal_relations() for p in rel._rows.values()]
    own = [min(demands[k] for k in row) for row in cells]
    for weights in product(*(range(b, -1, -1) for b in own)):  # greatest first
        sums = [0] * len(demands)
        for row, w in zip(cells, weights):
            for k in row:
                sums[k] += w
        if sums == demands:
            return join, list(weights)
    return join, None


class TestNWitnessIsTheLexGreatestIntegerPoint:
    """The N witness of check_global_consistency is the lexicographically
    greatest integer point of ``{x >= 0 : cell sums = demands}``, in
    join-row order: the definition a lex-max solver must reproduce."""

    def test_against_brute_force(self):
        """Marginal families on every shape and, on the binary shapes, their
        sums with twisted families, kept when the support join has at most
        9 rows and no demand is above 4."""
        kept = refused = 0
        for seed in range(25):
            for shape in sorted(SHAPES):
                for rows in (1, 2, 3):
                    builds = [marginal_family(shape, MonoidKind.N, rows, 2, seed)]
                    if shape != "acyclic":
                        builds.append(builds[0] + twisted_family(shape, MonoidKind.N, 2, seed))
                    for family in builds:
                        demands = [p for rel in family.maximal_relations() for p in rel._rows.values()]
                        if len(_support_join(family)[0]) > 9 or max(demands) > 4:
                            continue
                        join, best = lex_greatest_point(family)
                        witness = check_global_consistency(family)
                        if best is None:
                            assert witness is None
                            refused += 1
                        else:
                            assert set(witness._rows) <= set(join)
                            assert [witness._rows.get(row, 0) for row in join] == best
                        kept += 1
        assert kept > 400 and refused > 40


class TestNSolvesThroughTheOneDoor:
    """N global consistency, where its first descent misses a cell, makes
    the same one ``find_rational_solution`` call as Q, and its witness is
    read back and checked against every cell as Q's is; where the descent
    meets every cell it makes none."""

    def test_n_witness_checked(self, monkeypatch):
        calls = []
        solve, check, entering = family_module.find_rational_solution, feasibility._check_witness, feasibility._entering

        def counted_solve(*call):
            calls.append("solve")
            return solve(*call)

        def counted_check(equalities, witness):
            calls.append("check")
            check(equalities, witness)

        def counted_entering(*args):
            calls.append("pivot")
            return entering(*args)

        monkeypatch.setattr(family_module, "find_rational_solution", counted_solve)
        monkeypatch.setattr(feasibility, "_check_witness", counted_check)
        monkeypatch.setattr(feasibility, "_entering", counted_entering)
        seen = {}
        for kind in (MonoidKind.N, MonoidKind.Q):
            for shape in SHAPES:
                calls.clear()
                for seed in range(12):
                    check_global_consistency(marginal_family(shape, kind, 2 + seed % 5, 2 + seed % 2, seed))
                seen[kind, shape] = list(calls)
        # the first descent misses a cell on the N chorded family of seed 7
        # and the N grid of seed 3
        missed = {"chorded": 1, "grid": 1}
        for (kind, shape), made in seen.items():
            # every system is feasible, so every solve's witness is checked
            assert made.count("solve") == made.count("check") == (12 if kind is MonoidKind.Q else missed.get(shape, 0))
        assert any("pivot" in seen[MonoidKind.N, shape] for shape in ("chorded", "grid"))
        assert any("pivot" in seen[MonoidKind.Q, shape] for shape in SHAPES)


def lexicographic_costs(rows, basis, pos, weight):
    """Each entering candidate's reduced cost over its weight, built here
    as a dense vector of ``Fraction``s in cost order: 1 at its own
    position, and ``-a_qj / a_qb`` at the position of each row's basic
    column ``b``."""
    costs = {}
    for j, w in weight.items():
        cost = [Fraction(0)] * len(pos)
        cost[pos[j]] = Fraction(1, w)
        for row, b in zip(rows, basis):
            if j in row:
                cost[pos[b]] = Fraction(-row[j], row[b] * w)
        costs[j] = cost
    return costs


def spy_ratio_tests(patch):
    """Check every ratio test of the dual simplex against
    ``lexicographic_costs``: every candidate's cost is lexicographically
    positive, which is dual feasibility, the least cost is held by exactly
    one column, and that column is the one the test returns.  ``order``
    lists every row by the position of its basic column.  Returns the list
    of winners, one per pivot."""
    winners = []
    entering = feasibility._entering

    def checked(rows, basis, order, pos, weight):
        assert sorted(order) == list(range(len(rows)))
        assert [pos[basis[q]] for q in order] == sorted(pos[b] for b in basis)
        e = entering(rows, basis, order, pos, weight)
        costs = lexicographic_costs(rows, basis, pos, weight)
        assert all(next(x for x in cost if x) > 0 for cost in costs.values())
        least = min(costs.values())
        assert [j for j, cost in costs.items() if cost == least] == [e]
        winners.append(e)
        return e

    patch.setattr(feasibility, "_entering", checked)
    return winners


def without_integer_search(monkeypatch):
    """Stub out the N path's integer search, which runs for minutes on
    the 12-row grid of seed 0; the solver call still decides
    feasibility."""
    monkeypatch.setattr(family_module, "_integer_weights", lambda demands, cells: None)


class TestLexicographicRatioTest:
    """The dual simplex's ratio test has one winner, the least reduced
    cost, on every pivot."""

    def test_one_winner_and_witnesses_match_the_parent_solver(self, against_parent, monkeypatch):
        # An N family whose first descent meets every cell asks the solver
        # nothing; its Q twin's cell system is solved in its place.
        winners = spy_ratio_tests(monkeypatch)
        witnesses = against_parent(family_module)
        without_integer_search(monkeypatch)
        twins = 0
        for kind in (MonoidKind.N, MonoidKind.Q):
            families = [marginal_family(shape, kind, 2 + seed % 5, 2 + seed % 2, seed) for shape in SHAPES for seed in range(12)]
            families += [marginal_family("grid", kind, 12, 3, seed) for seed in range(4)]
            for family in families:
                within(20, check_global_consistency, family)
                if descends(family):
                    within(20, check_global_consistency, q_twin(family))
                    twins += 1
            assert winners, kind
            winners.clear()
        # all but the N chorded family of seed 7, the N grid of seed 3 and
        # the N 12-row grids of seeds 0, 2 and 3
        assert twins == 5 * 12 + 4 - 5
        assert len(witnesses) == 2 * (5 * 12 + 4)

    def test_one_winner_on_twisted_sums(self, monkeypatch):
        """Sums with twisted families, some refused by the run itself."""
        winners = spy_ratio_tests(monkeypatch)
        refused = 0
        for seed in range(12):
            for shape in ("chorded", "grid"):
                family = marginal_family(shape, MonoidKind.Q, 3, 2, seed) + twisted_family(shape, MonoidKind.Q, 2, seed)
                witness = check_global_consistency(family)
                assert witness == reference_global(family)
                refused += witness is None
        assert winners and refused

    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_one_winner_on_random_systems(self, system):
        with pytest.MonkeyPatch.context() as patch:
            spy_ratio_tests(patch)
            assert solve_named(*system) == fm_solution(*system)

    # Phase 1 and the stages, by Dantzig's rule with Bland's pivot on
    # degenerate steps, took at most 68, 40, 51 and 18 pivots on the N
    # grids of seeds 0-3, and 174, 75, 101 and 79 on the Q grids.  The N
    # run, like the Q run, goes on to the lexicographic minimum, which the
    # solver reads back and checks.
    @pytest.mark.parametrize(
        "kind, seed, most",
        [
            (MonoidKind.N, 0, 28),
            (MonoidKind.N, 1, 75),
            (MonoidKind.N, 2, 57),
            (MonoidKind.N, 3, 12),
            (MonoidKind.Q, 0, 44),
            (MonoidKind.Q, 1, 49),
            (MonoidKind.Q, 2, 27),
            (MonoidKind.Q, 3, 30),
        ],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_pivot_count_on_twelve_row_grid(self, kind, seed, most, monkeypatch):
        """The N grid of seed 1 descends: its Q twin's pivots are counted."""
        pivots = []
        entering = feasibility._entering
        monkeypatch.setattr(feasibility, "_entering", lambda *args: pivots.append(args) or entering(*args))
        without_integer_search(monkeypatch)
        family = marginal_family("grid", kind, 12, 3, seed)
        assert descends(family) == (kind is MonoidKind.N and seed == 1)
        within(20, check_global_consistency, q_twin(family) if descends(family) else family)
        assert 0 < len(pivots) <= most


class TestDenseTableau:
    """Forty global rows: the grid's join holds all 729 rows over its six
    variables, and the tableau rows fill up.  The witness is the unique
    lexicographic minimum, so no pivot rule may change it: the digests
    are those of the witnesses found with Bland's rule alone."""

    @pytest.mark.parametrize(
        "shape, digest",
        [
            ("grid", "9e6c52f28de86410a42c3681147d8313766f9d81c7f82b42767904e7b412ca4a"),
            ("acyclic", "42e3ad32998dc8b68ed8a72fd80a125a1646051167a1b7c0a9722dac19e33324"),
        ],
        ids=["grid", "acyclic"],
    )
    def test_witness_projects_onto_the_family(self, shape, digest):
        family = marginal_family(shape, MonoidKind.Q, 40, 3, 0)
        witness = within(20, check_global_consistency, family)
        assert witness is not None and _projects_onto(witness, family)
        assert hashlib.sha256(serialize_relation(witness).encode()).hexdigest() == digest


def four_cycle_document(rows):
    """The bulk-check workload's 4-cycle, ``a b``, ``b c``, ``c d`` and
    ``a d``, as a Q document: the marginals of random global rows over
    ``a b c d``, each value one of ceil(sqrt(2.5 * rows)), each weight 1 to
    3, drawn with ``random.Random(0)`` until every context holds ``rows``
    rows, listed in sorted order."""
    rng = random.Random(0)
    contexts = ["ab", "bc", "cd", "ad"]
    domain = math.ceil(math.sqrt(2.5 * rows))
    rels = [{} for _ in contexts]
    while min(map(len, rels)) < rows:
        row = dict(zip("abcd", [f"v{rng.randrange(domain)}" for _ in range(4)]))
        weight = rng.randint(1, 3)
        for rel, context in zip(rels, contexts):
            key = tuple(row[v] for v in context)
            rel[key] = rel.get(key, 0) + weight
    lines = ["monoid Q"]
    for context, rel in zip(contexts, rels):
        lines.append("context " + " ".join(context))
        lines += [" ".join(values) + f" : {rel[values]}" for values in sorted(rel)]
    return "\n".join(lines) + "\n"


class TestScaling:
    """The Q families on which phase 1 and one primal stage per free column
    took 1-57 s.  The digests are of the witnesses that solver found, with
    no time limit; each limit here is one that solver missed."""

    @pytest.mark.parametrize(
        "build, seconds, digest",
        [
            (lambda: marginal_family("grid", MonoidKind.Q, 40, 3, 0), 0.5,
             "9e6c52f28de86410a42c3681147d8313766f9d81c7f82b42767904e7b412ca4a"),
            (lambda: marginal_family("grid", MonoidKind.Q, 40, 3, 1), 0.5,
             "a75a1b58557e83c45be411e297dc8682ef069af50ed5b9674c86351b8b96e20a"),
            (lambda: marginal_family("grid", MonoidKind.Q, 40, 3, 2), 0.5,
             "3e147485d2802895c1b0c71a0f4ef57284830b2f3573ea700cefbb79826579a9"),
            (lambda: marginal_family("grid", MonoidKind.Q, 40, 3, 3), 0.5,
             "66786af84c107361c644e1b87e25d82dc8366c27b6fe0cdc448c4af8130ecfc0"),
            (lambda: marginal_family("path", MonoidKind.Q, 100, 4, 0), 1,
             "3ba36ac4a4e3ba6db47cf97d5063898538dfdb7d226bf87e95fe2c1dc913b8bf"),
            (lambda: marginal_family("acyclic", MonoidKind.Q, 100, 4, 0), 1,
             "2234f7b22a4628f545939fe77c4174762275c7f021dba124595fe8371831be90"),
            (lambda: marginal_family("path", MonoidKind.Q, 200, 5, 0), 5,
             "ac3b1eb7f9fe4fb8bb8fb7f8d61c4ed3e60cab36984680a6d157f7d7e79d8836"),
            (lambda: marginal_family("acyclic", MonoidKind.Q, 200, 5, 0), 5,
             "b87315b412d99607beb43cb745401f9195edc60ecb1dff248fbce55861016405"),
            (lambda: marginal_family("star", MonoidKind.Q, 400, 6, 0), 3,
             "37eb37d7d22fb008080bd43ded2c5e51c59a511a2d689348117909a3fdf2bd19"),
            (lambda: parse_family(four_cycle_document(30)), 0.15,
             "2c8407fa4aab5bddf1ce42ba77e2ebd943f66744e56897e870bb53f520bea14e"),
            (lambda: parse_family(four_cycle_document(50)), 2,
             "29029005dd23965aed5c577cc56c87ea018f67e48c48d35907b37799b17ca48e"),
        ],
        ids=[
            "grid-40-0", "grid-40-1", "grid-40-2", "grid-40-3", "path-100", "acyclic-100",
            "path-200", "acyclic-200", "star-400", "four-cycle-30", "four-cycle-50",
        ],
    )
    def test_witness_pinned_within_the_limit(self, build, seconds, digest):
        family = build()
        witness = within(seconds, check_global_consistency, family)
        assert witness is not None and _projects_onto(witness, family)
        assert hashlib.sha256(serialize_relation(witness).encode()).hexdigest() == digest
