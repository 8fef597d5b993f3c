"""Exact feasibility of linear equality systems with variable lower bounds.

This is the arithmetic core behind weighted global-consistency checking
and general realisability: given equalities ``sum c_i x_i = r`` and a
lower bound ``x_i >= b_i`` on every rational unknown, decide feasibility
and produce a witness.  Feasibility is decided exactly, never numerically.

Everything happens in one fraction-free integer tableau with one column
per unknown, ``y_j = x_j - b_j >= 0``, and one row per equality, scaled
to integers.  Gauss-Jordan elimination pivots each row on its least
remaining column, so afterwards every row holds one pivot column and
otherwise only free columns.  The witness is the lexicographic minimum of
the free unknowns in ascending variable order: each takes its least value
given the earlier ones, and the pivot unknowns follow.  That point is
unique, so the witness does not depend on how it is found.

The pivot rows are already a basis of the simplex method.  A row whose
right-hand side is negative gets an artificial column, and phase 1 drives
those to zero; when there is none, the free unknowns at their bounds are
the answer and no simplex pivot is made.  Bland's rule (Bland 1977)
chooses the pivots, which is deterministic and never cycles.  Each free
unknown is then minimised in turn, and after each stage every column with
a positive reduced cost is barred from the tableau, which keeps the later
stages on the optimal face of the earlier ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

Row = Dict[int, int]  # column -> nonzero integer coefficient, with _RHS and _OBJ

_RHS = -1  # key of a row's right-hand side
_OBJ = -2  # key of the objective's own coefficient in an objective row
_ZERO = Fraction(0)


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


def _minimise(rows: List[Row], basis: List[int], obj: Row) -> Row:
    """Pivot the objective row ``obj`` down to its minimum from a feasible
    basis and return its final form.

    A row ``sum a_k z_k = rhs`` holds its basic column at a positive
    coefficient, so feasibility is ``rhs >= 0``.  The objective row reads
    ``S*w + sum a_k z_k = rhs`` with ``S > 0``, so raising column ``k``
    lowers ``w`` exactly when ``a_k > 0``.  Bland's rule: the least such
    column enters, and among the rows of least ratio ``rhs / a`` (compared
    by cross-multiplication) the one whose basic column is least leaves.
    Every objective is a sum of columns, which are all at least 0, so it
    is never unbounded below.
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
            raise AssertionError("objective unbounded below; solver bug")
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


def _bar(rows: List[Row], columns: Iterable[int]) -> None:
    """Fix nonbasic columns at zero for good by taking them out of the
    tableau."""
    columns = list(columns)
    for row in rows:
        for k in columns:
            row.pop(k, None)


def find_rational_solution(
    equalities: Iterable[Tuple[Mapping[Hashable, Fraction], Fraction]],
    lower_bounds: Mapping[Hashable, Fraction],
    variables: Sequence[Hashable],
) -> Optional[Dict[Hashable, Fraction]]:
    """A rational witness for the system, or None when infeasible.

    ``equalities`` are pairs (coefficient map, right-hand side) read as
    ``sum c_i x_i = r``; ``lower_bounds`` gives every variable its
    constraint ``x >= b``.  Naming a variable that is not in ``variables``,
    or leaving one without a lower bound, raises :class:`ValueError`.

    The witness is the lexicographic minimum, in the order of
    ``variables``, of the unknowns left free by Gauss-Jordan elimination
    (which pivots each equality on its least remaining unknown): each
    takes its least feasible value given the earlier ones, and the pivot
    unknowns follow from them.  One integer tableau finds this point (see
    the module docstring), and the witness is checked against every
    equality and bound before it is returned.
    """
    equalities = list(equalities)
    index = {v: i for i, v in enumerate(variables)}
    for v in [v for coeffs, _ in equalities for v in coeffs] + list(lower_bounds):
        if v not in index:
            raise ValueError(f"unknown {v!r} is not among the variables")
    for v in variables:
        if v not in lower_bounds:
            raise ValueError(f"unknown {v!r} has no lower bound")
    shift = {index[v]: Fraction(b) for v, b in lower_bounds.items() if b}

    rows: List[Row] = []
    basis: List[int] = []
    for coeffs, rhs in equalities:
        terms = {index[v]: Fraction(c) for v, c in coeffs.items() if c}
        r = Fraction(rhs)
        if shift:
            r -= sum((c * shift[j] for j, c in terms.items() if j in shift), _ZERO)
        scale = lcm(r.denominator, *(c.denominator for c in terms.values()))
        row = {j: c.numerator * (scale // c.denominator) for j, c in terms.items()}
        if r:
            row[_RHS] = r.numerator * (scale // r.denominator)
        for i, b in enumerate(basis):
            if b in row:
                row = _eliminate(row, rows[i], b)
        columns = [k for k in row if k >= 0]
        if not columns:
            if row:  # 0 = rhs with rhs nonzero
                return None
            continue
        p = min(columns)
        if row[p] < 0:
            row = {k: -v for k, v in row.items()}
        for i, other in enumerate(rows):
            if p in other:
                rows[i] = _eliminate(other, row, p)
        rows.append(row)
        basis.append(p)

    free = sorted(set(index.values()).difference(basis))
    artificials = []
    for i, row in enumerate(rows):
        if row.get(_RHS, 0) < 0:
            basis[i] = len(variables) + len(artificials)
            artificials.append(basis[i])
            rows[i] = {k: -v for k, v in row.items()}
            rows[i][basis[i]] = 1
    if artificials:
        obj: Row = dict.fromkeys(artificials, -1)
        obj[_OBJ] = 1
        for i, b in enumerate(basis):
            if b in obj:
                obj = _eliminate(obj, rows[i], b)
        obj = _minimise(rows, basis, obj)
        if obj.get(_RHS, 0):
            return None
        _bar(rows, _priced_out(obj))
        _bar(rows, (k for k in artificials if k not in basis))
        for j in free:
            if j in basis:
                # the basic row, with the unknown renamed to the objective
                obj = dict(rows[basis.index(j)])
                obj[_OBJ] = obj.pop(j)
                _bar(rows, _priced_out(_minimise(rows, basis, obj)))
            else:
                _bar(rows, [j])

    level = {b: Fraction(row.get(_RHS, 0), row[b]) for row, b in zip(rows, basis)}
    witness = {}
    for v in variables:
        x = level.get(index[v], _ZERO)
        witness[v] = x + shift[index[v]] if index[v] in shift else x
    _check_witness(equalities, lower_bounds, witness)
    return witness


def _check_witness(
    equalities: Sequence[Tuple[Mapping[Hashable, Fraction], Fraction]],
    lower_bounds: Mapping[Hashable, Fraction],
    witness: Mapping[Hashable, Fraction],
) -> None:
    """Raise :class:`AssertionError` unless ``witness`` meets every given
    equality and lower bound, checked in integer arithmetic.

    Each value is ``n_v / d`` over the witness's common denominator ``d``.
    An equality whose coefficients and right-hand side have the common
    denominator ``e`` holds when ``sum (e * c_v) * n_v == (e * r) * d``, and
    a bound ``b`` holds when ``n_v * den(b) >= num(b) * d``.  These are the
    caller's own equalities, not the tableau's rows, so a fault in building
    or pivoting the tableau shows here.
    """
    d = lcm(*(x.denominator for x in witness.values()))
    n = {v: x.numerator * (d // x.denominator) for v, x in witness.items()}
    for coeffs, rhs in equalities:
        e = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
        total = sum(c.numerator * (e // c.denominator) * n[v] for v, c in coeffs.items())
        if total != rhs.numerator * (e // rhs.denominator) * d:
            raise AssertionError("witness fails an equality; solver bug")
    for v, b in lower_bounds.items():
        if n[v] * b.denominator < b.numerator * d:
            raise AssertionError("witness fails a lower bound; solver bug")
