"""Exact feasibility of linear equality systems with variable lower bounds.

This is the arithmetic core behind weighted global-consistency checking
and general realisability: given equalities ``sum c_i x_i = r`` and bounds
``x_i >= b_i`` over rational unknowns, decide feasibility and produce a
witness.  Feasibility is decided exactly, never numerically.

Gaussian elimination removes the equalities and expresses each pivot
unknown as an affine form of the free ones.  The lower bounds then cut a
polyhedron out of the space of free unknowns, and the witness is its
lexicographic minimum in ascending variable order: each free unknown in
turn takes its least value given the earlier ones, or its greatest when
it is unbounded below, or 0 when it is unbounded both ways.  That point
is unique, so the witness does not depend on how it is found.

It is found by the simplex method on a fraction-free integer tableau,
with Bland's rule (Bland 1977) choosing the pivots, which is
deterministic and never cycles.  Phase 1 reaches a feasible basis.  Then
each free unknown is optimised in turn, and after each stage every column
with a positive reduced cost is barred from the tableau, which keeps the
later stages on the optimal face of the earlier ones.  When every free
unknown has a lower bound and the point of all lower bounds is already
feasible, that point is the answer and no pivot is made.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Affine = Tuple[Fraction, Dict[int, Fraction]]  # const + sum coeffs[j] * x_j


def _substitute(
    coeffs: Dict[int, Fraction],
    rhs: Fraction,
    pivots: Dict[int, Affine],
) -> Tuple[Dict[int, Fraction], Fraction]:
    """Replace pivot variables inside an equality by their affine forms."""
    out: Dict[int, Fraction] = {}
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


def _eliminate_equalities(
    equalities: Sequence[Tuple[Dict[int, Fraction], Fraction]],
) -> Optional[Dict[int, Affine]]:
    """Gaussian elimination; None when the equalities are inconsistent.

    The returned map sends each pivot index to an affine form over free
    indices only.
    """
    pivots: Dict[int, Affine] = {}
    for coeffs, rhs in equalities:
        c, r = _substitute(coeffs, rhs, pivots)
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


Row = Dict[int, int]  # column -> nonzero integer coefficient, with _RHS and _OBJ

_RHS = -1  # key of a row's right-hand side
_OBJ = -2  # key of the objective's own coefficient in an objective row


def _eliminate(row: Row, piv: Row, col: int) -> Row:
    """``p*row - f*piv`` divided by its gcd, where ``p = piv[col] > 0`` and
    ``f = row[col]``: column ``col`` drops out of ``row``, and a column
    ``piv`` lacks, such as the row's own basic column, keeps its sign."""
    p = piv[col]
    f = row[col]
    new = {k: p * v for k, v in row.items()} if p != 1 else dict(row)
    for k, v in piv.items():
        x = new.get(k, 0) - f * v
        if x:
            new[k] = x
        else:
            del new[k]
    g = gcd(*new.values())
    return {k: v // g for k, v in new.items()} if g > 1 else new


def _minimise(rows: List[Row], basis: List[int], obj: Row) -> Optional[Row]:
    """Pivot the objective row ``obj`` down to its minimum from a feasible
    basis and return its final form, or None when it is unbounded below.

    A row ``sum a_k z_k = rhs`` holds its basic column at a positive
    coefficient, so feasibility is ``rhs >= 0``.  The objective row reads
    ``S*w + sum a_k z_k = rhs`` with ``S > 0``, so raising column ``k``
    lowers ``w`` exactly when ``a_k > 0``.  Bland's rule: the least such
    column enters, and among the rows of least ratio ``rhs / a`` (compared
    by cross-multiplication) the one whose basic column is least leaves.
    """
    while True:
        e = min((k for k, v in obj.items() if k >= 0 and v > 0), default=None)
        if e is None:
            return obj
        leave, num, den = -1, 0, 1
        for i, row in enumerate(rows):
            a = row.get(e, 0)
            if a <= 0:
                continue
            rhs = row.get(_RHS, 0)
            if leave < 0 or rhs * den < num * a or (
                rhs * den == num * a and basis[i] < basis[leave]
            ):
                leave, num, den = i, rhs, a
        if leave < 0:
            return None
        piv = rows[leave]
        for i, row in enumerate(rows):
            if i != leave and e in row:
                rows[i] = _eliminate(row, piv, e)
        obj = _eliminate(obj, piv, e)
        basis[leave] = e


def _priced_out(obj: Row) -> List[int]:
    """The columns of positive reduced cost in an optimal ``obj``: every
    point of the optimal face has them at zero."""
    return [k for k, v in obj.items() if k >= 0 and v < 0]


def _bar(rows: List[Row], barred: Set[int], columns: Iterable[int]) -> None:
    """Fix nonbasic columns at zero for good by taking them out of the
    tableau."""
    columns = list(columns)
    barred.update(columns)
    for row in rows:
        for k in columns:
            row.pop(k, None)


def _lex_min(
    pivots: Dict[int, Affine],
    free: Sequence[int],
    bounds: Dict[int, Fraction],
) -> Optional[Dict[int, Fraction]]:
    """The lexicographic minimum of the free unknowns in ascending order,
    or None when the bounds cannot all hold.

    A free unknown ``x`` with a lower bound ``l`` becomes the column
    ``x - l``; one without becomes two columns, its positive and negative
    parts.  Each bounded pivot unknown gives a row whose slack column is
    ``x_p - b_p``.  A row that is negative where every column is zero is
    flipped and gets an artificial column for phase 1.
    """
    starts: List[Tuple[Fraction, Dict[int, Fraction]]] = []
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

    pos: Dict[int, int] = {}
    neg: Dict[int, int] = {}
    for j in free:
        pos[j] = len(pos) + len(neg)
        if j not in bounds:
            neg[j] = pos[j] + 1
    slack = len(pos) + len(neg)
    artificial = slack + len(starts)
    rows: List[Row] = []
    basis: List[int] = []
    for r, (c0, expr) in enumerate(starts):
        scale = lcm(c0.denominator, *(e.denominator for e in expr.values()))
        sign = 1 if c0 >= 0 else -1
        row: Row = {slack + r: sign * scale}
        for j, e in expr.items():
            row[pos[j]] = -sign * int(e * scale)
            if j in neg:
                row[neg[j]] = sign * int(e * scale)
        if c0:
            row[_RHS] = sign * int(c0 * scale)
        if sign < 0:
            row[artificial] = 1
            basis.append(artificial)
            artificial += 1
        else:
            basis.append(slack + r)
        g = gcd(*row.values())
        rows.append({k: v // g for k, v in row.items()} if g > 1 else row)

    barred: Set[int] = set()

    def objective(costs: Row) -> Row:
        obj: Row = {_OBJ: 1}
        obj.update((k, -c) for k, c in costs.items() if k not in barred)
        for r, b in enumerate(basis):
            if b in obj:
                obj = _eliminate(obj, rows[r], b)
        return obj

    artificials = range(slack + len(starts), artificial)
    if artificials:
        obj = _minimise(rows, basis, objective(dict.fromkeys(artificials, 1)))
        if obj.get(_RHS, 0):
            return None
        _bar(rows, barred, _priced_out(obj))
        _bar(rows, barred, (k for k in artificials if k not in basis))

    for j in free:
        if j in neg:
            u, v = pos[j], neg[j]
            for costs in ({u: 1, v: -1}, {u: -1, v: 1}, {u: 1, v: 1}):
                obj = _minimise(rows, basis, objective(costs))
                if obj is not None:
                    _bar(rows, barred, _priced_out(obj))
                    break
        elif pos[j] in basis:
            # the basic row, with the unknown renamed to the objective
            obj = dict(rows[basis.index(pos[j])])
            obj[_OBJ] = obj.pop(pos[j])
            _bar(rows, barred, _priced_out(_minimise(rows, basis, obj)))
        else:
            _bar(rows, barred, [pos[j]])

    level = {b: Fraction(rows[r].get(_RHS, 0), rows[r][b]) for r, b in enumerate(basis)}
    values: Dict[int, Fraction] = {}
    for j in free:
        if j in neg:
            values[j] = level.get(pos[j], Fraction(0)) - level.get(neg[j], Fraction(0))
        else:
            values[j] = bounds[j] + level.get(pos[j], Fraction(0))
    return values


def find_rational_solution(
    equalities: Iterable[Tuple[Mapping[Hashable, Fraction], Fraction]],
    lower_bounds: Mapping[Hashable, Fraction],
    variables: Sequence[Hashable],
) -> Optional[Dict[Hashable, Fraction]]:
    """A rational witness for the system, or None when infeasible.

    ``equalities`` are pairs (coefficient map, right-hand side) read as
    ``sum c_i x_i = r``; ``lower_bounds`` gives per-variable constraints
    ``x >= b`` (variables absent from it are unbounded below).  Naming a
    variable that is not in ``variables`` raises :class:`ValueError`.

    The witness is the lexicographic minimum, in the order of
    ``variables``, of the unknowns left free by Gaussian elimination (the
    elimination pivots on the least index of each equality): each takes
    its least feasible value given the earlier ones, its greatest when it
    has no least, and 0 when it has neither.  The pivot unknowns follow
    from the free ones.  A simplex on an integer tableau finds this point
    (see the module docstring), and the witness is checked against every
    equality and bound before it is returned.
    """
    equalities = list(equalities)
    index = {v: i for i, v in enumerate(variables)}
    for v in [v for coeffs, _ in equalities for v in coeffs] + list(lower_bounds):
        if v not in index:
            raise ValueError(f"unknown {v!r} is not among the variables")
    eqs = [
        ({index[v]: Fraction(c) for v, c in coeffs.items() if c != 0}, Fraction(rhs))
        for coeffs, rhs in equalities
    ]
    pivots = _eliminate_equalities(eqs)
    if pivots is None:
        return None
    free = sorted(set(index.values()) - set(pivots))
    bounds = {index[v]: Fraction(b) for v, b in lower_bounds.items()}
    values = _lex_min(pivots, free, bounds)
    if values is None:
        return None
    for p, (const, expr) in pivots.items():
        values[p] = const + sum((c * values[j] for j, c in expr.items()), Fraction(0))

    witness = {v: values[index[v]] for v in variables}
    for coeffs, rhs in equalities:
        total = sum((Fraction(c) * witness[v] for v, c in coeffs.items()), Fraction(0))
        if total != Fraction(rhs):
            raise AssertionError("witness fails an equality; solver bug")
    for v, b in lower_bounds.items():
        if witness[v] < Fraction(b):
            raise AssertionError("witness fails a lower bound; solver bug")
    return witness
