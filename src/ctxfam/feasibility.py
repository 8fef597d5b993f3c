"""Exact feasibility of integer equality systems over nonnegative columns.

This is the arithmetic core behind weighted global-consistency checking
and general realisability: given integer rows ``sum c_j y_j = r`` over
the columns ``y_0, ..., y_{n-1}``, all at least 0, decide feasibility and
produce a witness.  Feasibility is decided exactly, never numerically.
Each caller brings its own system to this form, and
:func:`find_rational_solution` is the one way in: the global check in
both weighted kinds and the realisability LP call it.

Everything happens in one fraction-free integer tableau, a list of rows
and the list of their basic columns, with one column per unknown and one
row per equality.  It passes three steps:

* :func:`_gauss_jordan` builds the rows and pivots each on its least
  remaining column, so afterwards every row holds one pivot column and
  otherwise only free columns;
* :func:`_dual_simplex`, the lexicographic dual simplex (Lemke 1954;
  Gomory 1958), answers feasibility and finds the witness in one run;
* :func:`find_rational_solution` reads the values back as ``Fraction``s
  and checks them against the caller's rows.

The witness is the lexicographic minimum of the free columns in
ascending order, each at its least value given the earlier ones, and the
pivot columns follow from them.  It is the point that minimises
``sum eps**p y_p`` for an infinitesimal ``eps``, where position ``p``
runs over the free columns in ascending order and then the pivot columns
in ascending order.  The Gauss-Jordan rows are a basis of the simplex
method whose reduced costs are all lexicographically positive: a free
column's reduced cost is its own ``eps`` term plus later terms of the
pivot columns.  So the basis is dual feasible, and the dual simplex runs
from it with no artificial column, no objective row and no stage.  A row
whose right-hand side is negative leaves; when it has no negative
coefficient the system is infeasible.  The lexicographic ratio test
always has one winner, so every pivot raises the dual objective, no
basis repeats, and the run ends at the unique minimum, whichever pivots
it takes.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = Dict[int, int]  # column -> nonzero integer coefficient, with _RHS
Equality = Tuple[Dict[int, int], int]  # (column -> nonzero coefficient, right-hand side)

_RHS = -1  # key of a row's right-hand side
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


def _entering(rows: List[Row], basis: List[int], order: List[int], pos: List[int], weight: Dict[int, int]) -> int:
    """The lexicographic ratio test of the dual simplex: the column ``j``
    of ``weight``, which maps each nonbasic column of negative
    coefficient ``-w`` in the leaving row to ``w``, whose reduced cost
    over ``w`` is lexicographically least.  ``order`` lists the rows by
    the position of their basic column.

    Column ``j``'s reduced cost has entry 1 at ``pos[j]`` and entry
    ``-a_qj / a_qb`` at ``pos[b]`` for each row ``q`` with basic column
    ``b``; every other entry is 0.  The walk reads the positions in
    ascending order and keeps, at each, the columns of least entry over
    ``w``, until one is left; where some columns have a positive entry
    and the rest 0, it keeps the rest without dividing.  Each reduced
    cost is lexicographically positive, so the column whose first
    nonzero entry comes last wins, and an entry after that is compared
    only on a tie.  A tie never lasts: at ``pos[j]`` only ``j`` is
    nonzero.
    """
    if len(weight) == 1:
        return next(iter(weight))
    alive = set(weight)
    own = sorted(weight, key=pos.__getitem__)
    k = 0
    for q in order:
        p = pos[basis[q]]
        while k < len(own) and pos[own[k]] < p:
            j = own[k]
            k += 1
            if j in alive:
                alive.remove(j)
                if len(alive) == 1:
                    return alive.pop()
        row = rows[q]
        hit = alive & row.keys()
        if not hit:
            continue
        if len(hit) < len(alive) and all(row[j] < 0 for j in hit):
            alive -= hit  # positive entries, where the rest have 0
        else:
            ratio = {j: Fraction(-row[j], weight[j]) for j in hit}
            least = min(ratio.values())
            alive = {j for j in hit if ratio[j] == least}
        if len(alive) == 1:
            return alive.pop()
    return max(alive, key=pos.__getitem__)


def _gauss_jordan(equalities: Iterable[Equality]) -> Optional[Tuple[List[Row], List[int]]]:
    """The Gauss-Jordan rows of the system, each pivoted on its least
    remaining column, and their basic columns: ``rows[i]`` holds
    ``basis[i]`` at a positive coefficient and no other row holds it.
    None when some equality reduces to ``0 = r`` with ``r`` nonzero."""
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
    return rows, basis


def _dual_simplex(rows: List[Row], basis: List[int], n: int) -> bool:
    """Whether the system of the Gauss-Jordan ``rows`` over ``n`` columns
    is feasible; when it is, ``rows`` and ``basis`` end at the witness.

    The run starts from the Gauss-Jordan basis, with the free columns
    first in the cost order and the basic columns after them.  While some
    row's right-hand side is negative, the one of least basic column
    leaves.  If it has no negative coefficient, no point meets it;
    otherwise :func:`_entering` picks the column that enters, the row is
    negated, and that column is eliminated from the other rows.
    """
    pos = [0] * n
    for p, j in enumerate([*sorted(set(range(n)).difference(basis)), *sorted(basis)]):
        pos[j] = p
    order = sorted(range(len(rows)), key=lambda q: pos[basis[q]])
    while True:
        r, least = -1, n
        for i, row in enumerate(rows):
            if row.get(_RHS, 0) < 0 and basis[i] < least:
                r, least = i, basis[i]
        if r < 0:
            return True
        weight = {j: -a for j, a in rows[r].items() if a < 0 and j >= 0}
        if not weight:
            return False
        e = _entering(rows, basis, order, pos, weight)
        g = gcd(*rows[r].values())
        piv = {k: -v // g for k, v in rows[r].items()}
        rows[r], basis[r] = piv, e
        order.remove(r)
        insort(order, r, key=lambda q: pos[basis[q]])
        for i, row in enumerate(rows):
            if i != r and e in row:
                rows[i] = _eliminate(row, piv, e)


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
    :func:`_gauss_jordan` and one run of :func:`_dual_simplex` find it
    (see the module docstring), and each value is read back as its basic
    row's right-hand side over its coefficient, or 0 for a nonbasic
    column.
    """
    tableau = _gauss_jordan(equalities)
    if tableau is None or not _dual_simplex(*tableau, len(columns)):
        return None
    level = {b: Fraction(row.get(_RHS, 0), row[b]) for row, b in zip(*tableau)}
    witness = [level.get(j, _ZERO) for j in columns]
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
