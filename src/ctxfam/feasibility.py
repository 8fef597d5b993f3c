"""Exact feasibility of integer equality systems over nonnegative columns.

This is the arithmetic core behind weighted global-consistency checking
and general realisability: given integer rows ``sum c_j y_j = r`` over
the columns ``y_0, ..., y_{n-1}``, all at least 0, decide feasibility and
produce a witness.  Feasibility is decided exactly, never numerically.
Each caller brings its own system to this form (see
:func:`find_rational_solution`).

Everything happens in one fraction-free integer tableau, ``_Tableau``,
with one column per unknown and one row per equality.  It has four parts:

* build and Gauss-Jordan elimination, which pivots each row on its least
  remaining column, so afterwards every row holds one pivot column and
  otherwise only free columns;
* phase 1, which answers feasibility;
* the lexicographic stages: the witness is the lexicographic minimum of
  the free columns in ascending order, each at its least value given the
  earlier ones, and the pivot columns follow;
* read-back, the one place a ``Fraction`` is built.

The lexicographic minimum is unique, so the witness does not depend on
how it is found.

The pivot rows are already a basis of the simplex method.  A row whose
right-hand side is negative gets an artificial column, and phase 1 drives
those to zero; when there is none, the free columns at 0 are the answer
and no simplex pivot is made.  Dantzig's rule (the largest reduced cost
enters) chooses the pivots, except that a step that would be degenerate
takes Bland's pivot (Bland 1977): this is deterministic, never cycles
(see :func:`_minimise`) and mostly takes far fewer pivots than Bland's
rule alone.  Each free column is then minimised in turn, and after each
stage every column with a positive reduced cost is barred from the
tableau, which keeps the later stages on the optimal face of the earlier
ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = Dict[int, int]  # column -> nonzero integer coefficient, with _RHS and _OBJ
Equality = Tuple[Dict[int, int], int]  # (column -> nonzero coefficient, right-hand side)

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


def _leaving(rows: List[Row], basis: List[int], e: int) -> int:
    """The ratio test for entering column ``e``: among the rows with a
    positive coefficient ``a`` in ``e``, the one of least ratio
    ``rhs / a`` (compared by cross-multiplication), and among those the
    one whose basic column is least."""
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
    return leave


def _minimise(rows: List[Row], basis: List[int], obj: Row) -> Row:
    """Pivot the objective row ``obj`` down to its minimum from a feasible
    basis and return its final form.

    A row ``sum a_k z_k = rhs`` holds its basic column at a positive
    coefficient, so feasibility is ``rhs >= 0``.  The objective row reads
    ``S*w + sum a_k z_k = rhs`` with ``S > 0``, so raising column ``k``
    lowers ``w`` exactly when ``a_k > 0``.  Dantzig's rule picks the
    entering column: the one of largest ``a_k``, the least such column on
    a tie.  :func:`_leaving` picks the row that leaves.  When that row's
    right-hand side is 0 the step would be degenerate, and Bland's pivot
    (Bland 1977) is taken instead: the least column with ``a_k > 0``
    enters, and :func:`_leaving` picks its row.  Every objective is a sum
    of columns, which are all at least 0, so it is never unbounded below.

    This terminates.  A pivot whose leaving row has a positive right-hand
    side lowers ``w``, so a cycle of bases, along which ``w`` cannot
    change, is made of degenerate pivots alone.  Each degenerate pivot is
    Bland's (when Dantzig's column is also the least, the two coincide),
    and Bland's theorem rules out a cycle of Bland pivots.
    """
    while True:
        e, top, least = -1, 0, -1
        for k, v in obj.items():
            if k >= 0 and v > 0:
                if v > top or (v == top and k < e):
                    e, top = k, v
                if least < 0 or k < least:
                    least = k
        if e < 0:
            return obj
        leave = _leaving(rows, basis, e)
        if not rows[leave].get(_RHS, 0) and least != e:
            e = least
            leave = _leaving(rows, basis, e)
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


class _Tableau:
    """The integer tableau of one system, in four parts: the constructor
    builds the rows and runs Gauss-Jordan elimination, :meth:`phase1`
    answers feasibility, :meth:`lex_min` runs the lexicographic stages,
    each one :meth:`stage`, and :meth:`witness` reads the values back.

    ``rows[i]`` holds ``basis[i]`` at a positive coefficient.  ``free``
    lists, in ascending order, the columns Gauss-Jordan leaves without a
    pivot, and ``contradiction`` is set when some equality reduced to
    ``0 = r`` with ``r`` nonzero.  No :class:`Fraction` is built before
    :meth:`witness`.
    """

    __slots__ = ("n", "rows", "basis", "free", "contradiction", "artificials")

    def __init__(self, equalities: Iterable[Equality], n: int):
        self.n = n
        self.contradiction = False
        self.artificials: List[int] = []

        rows: List[Row] = []
        basis: List[int] = []
        for coeffs, rhs in equalities:
            row = dict(coeffs)
            if rhs:
                row[_RHS] = rhs
            for i, b in enumerate(basis):
                if b in row:
                    row = _eliminate(row, rows[i], b)
            columns = [k for k in row if k >= 0]
            if not columns:
                if row:  # 0 = rhs with rhs nonzero
                    self.contradiction = True
                    break
                continue
            p = min(columns)
            if row[p] < 0:
                row = {k: -v for k, v in row.items()}
            for i, other in enumerate(rows):
                if p in other:
                    rows[i] = _eliminate(other, row, p)
            rows.append(row)
            basis.append(p)
        self.rows, self.basis = rows, basis
        self.free = sorted(set(range(n)).difference(basis))

    def phase1(self) -> bool:
        """Whether the system is feasible.  Each row with a negative
        right-hand side gets an artificial column, and phase 1 of the
        simplex drives their sum to zero.  On success the basis is
        feasible, with every column priced out by phase 1 and every
        nonbasic artificial barred."""
        if self.contradiction:
            return False
        rows, basis = self.rows, self.basis
        artificials = self.artificials
        for i, row in enumerate(rows):
            if row.get(_RHS, 0) < 0:
                basis[i] = self.n + len(artificials)
                artificials.append(basis[i])
                rows[i] = {k: -v for k, v in row.items()}
                rows[i][basis[i]] = 1
        if not artificials:
            return True
        obj: Row = dict.fromkeys(artificials, -1)
        obj[_OBJ] = 1
        for i, b in enumerate(basis):
            if b in obj:
                obj = _eliminate(obj, rows[i], b)
        if self.stage(obj).get(_RHS, 0):
            return False
        _bar(rows, (k for k in artificials if k not in basis))
        return True

    def stage(self, obj: Row) -> Row:
        """Minimise the objective row ``obj`` from the current feasible
        basis, bar every column it priced out and return its final form."""
        obj = _minimise(self.rows, self.basis, obj)
        _bar(self.rows, _priced_out(obj))
        return obj

    def lex_min(self) -> None:
        """After a successful :meth:`phase1`, minimise each free column in
        ascending order, barring after each stage the columns it priced
        out.  Without artificials the free columns already sit at 0, which
        is the minimum, and no stage runs."""
        if not self.artificials:
            return
        rows, basis = self.rows, self.basis
        for j in self.free:
            if j in basis:
                # the basic row, with the column renamed to the objective
                obj = dict(rows[basis.index(j)])
                obj[_OBJ] = obj.pop(j)
                self.stage(obj)
            else:
                _bar(rows, [j])

    def witness(self) -> List[Fraction]:
        """Every column's value, in column order: a basic column's
        right-hand side over its coefficient, a nonbasic one 0."""
        level = {b: Fraction(row.get(_RHS, 0), row[b]) for row, b in zip(self.rows, self.basis)}
        return [level.get(j, _ZERO) for j in range(self.n)]


def find_rational_solution(
    equalities: Sequence[Equality], implied: Sequence[Equality], columns: range
) -> Optional[List[Fraction]]:
    """A rational witness for the system, or None when infeasible.

    ``equalities`` and ``implied`` are pairs (coefficient map, right-hand
    side) read as ``sum c_j y_j = r``, every coefficient a nonzero
    ``int`` and every column ``j`` in ``columns``, which is ``range(n)``;
    every column is at least 0.  The rows of ``implied`` are the ones the
    caller left out because the others imply them: they stay out of the
    tableau, and the witness is checked against them together with
    ``equalities``.

    The witness is the lexicographic minimum, in column order, of the
    columns left free by Gauss-Jordan elimination (which pivots each
    equality on its least remaining column): each takes its least feasible
    value given the earlier ones, and the pivot columns follow from them.
    One integer tableau finds this point (see the module docstring): it is
    built and eliminated, phase 1 decides feasibility, the lexicographic
    stages run and the values are read back as ``Fraction``s, one per
    column.
    """
    tableau = _Tableau(equalities, len(columns))
    if not tableau.phase1():
        return None
    tableau.lex_min()
    witness = tableau.witness()
    _check_witness([*equalities, *implied], witness)
    return witness


def _check_witness(equalities: Iterable[Equality], witness: Sequence[Fraction]) -> None:
    """Raise :class:`AssertionError` unless ``witness`` meets every given
    equality and is at least 0, checked in integer arithmetic.

    Each value is ``n_j / d`` over the witness's common denominator ``d``,
    and an equality holds when ``sum c_j * n_j == r * d``.  These are the
    caller's own rows, not the tableau's, so a fault in building or
    pivoting the tableau shows here.
    """
    d = lcm(*(x.denominator for x in witness))
    n = [x.numerator * (d // x.denominator) for x in witness]
    for coeffs, rhs in equalities:
        if sum(c * n[j] for j, c in coeffs.items()) != rhs * d:
            raise AssertionError("witness fails an equality; solver bug")
    if any(v < 0 for v in n):
        raise AssertionError("witness has a negative column; solver bug")
