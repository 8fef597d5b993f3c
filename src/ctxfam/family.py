"""Contextual families: one relation per maximal context, pairwise consistent.

A context set fixes a family of maximal variable sets, none containing
another.  A contextual family assigns each maximal context a relation and
requires every pair of them to agree on shared marginals (including the
empty overlap, which forces equal total mass).  Relations at non-maximal
contexts are derived by marginalisation and are well defined exactly
because of that pairwise agreement.

Local consistency is a pairwise, checkable property.  Global consistency
is stronger: it asks for a single relation over all variables whose
marginals reproduce every context relation.  The gap between the two is
the subject of the realisability machinery in :mod:`ctxfam.realisability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .feasibility import _Tableau, find_rational_solution
from .monoid import MonoidKind, MonoidValue
from .relation import Assignment, Key, KRelation, _agreement, _cells, _project, _sums

if TYPE_CHECKING:
    from .fdlogic import FD


class ContextError(ValueError):
    """Raised when an operation refers to a context the family lacks."""


@dataclass(frozen=True)
class ConsistencyViolation:
    """A witness that two context relations disagree on their overlap."""

    context_a: FrozenSet[str]
    context_b: FrozenSet[str]
    overlap_row: Assignment
    value_a: MonoidValue
    value_b: MonoidValue

    def describe(self) -> str:
        ca = " ".join(sorted(self.context_a))
        cb = " ".join(sorted(self.context_b))
        row = str(self.overlap_row) if len(self.overlap_row) else "<empty row>"
        return (
            f"contexts ({ca}) and ({cb}) disagree at {row}: "
            f"{self.value_a} vs {self.value_b}"
        )


class LocalConsistencyError(ValueError):
    """Raised when relations fail the pairwise marginal agreement check."""

    def __init__(self, violation: ConsistencyViolation):
        super().__init__(violation.describe())
        self.violation = violation


class ContextSet:
    """An antichain of nonempty maximal contexts, kept in sorted order."""

    __slots__ = ("maximal",)

    def __init__(self, contexts: Iterable[Iterable[str]]):
        sets = [frozenset(str(v) for v in c) for c in contexts]
        for c in sets:
            if not c:
                raise ValueError("maximal contexts must be nonempty")
        if len(set(sets)) != len(sets):
            raise ValueError("duplicate maximal context")
        for c in sets:
            for d in sets:
                if c != d and c <= d:
                    raise ValueError(
                        f"context {sorted(c)} is contained in {sorted(d)}; "
                        "maximal contexts must form an antichain"
                    )
        self.maximal = tuple(sorted(sets, key=lambda c: tuple(sorted(c))))

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[str]]) -> "ContextSet":
        """Normalise arbitrary variable sets: dedupe and drop non-maximal ones."""
        candidates = {frozenset(str(v) for v in s) for s in sets}
        candidates.discard(frozenset())
        keep = [c for c in candidates if not any(c < d for d in candidates)]
        return cls(keep)

    @property
    def variables(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for c in self.maximal:
            out |= c
        return out

    def __contains__(self, variables: Iterable[str]) -> bool:
        """Downward-closed membership: any subset of a maximal context."""
        wanted = frozenset(str(v) for v in variables)
        return any(wanted <= c for c in self.maximal)

    def covering(self, variables: Iterable[str]) -> FrozenSet[str]:
        """The first maximal context containing the given variables."""
        wanted = frozenset(str(v) for v in variables)
        for c in self.maximal:
            if wanted <= c:
                return c
        raise ContextError(f"no context contains {sorted(wanted)}")

    def __iter__(self) -> Iterator[FrozenSet[str]]:
        return iter(self.maximal)

    def __len__(self) -> int:
        return len(self.maximal)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ContextSet) and self.maximal == other.maximal

    def __hash__(self) -> int:
        return hash(self.maximal)

    def __repr__(self) -> str:
        return "ContextSet(" + ", ".join("{" + ",".join(sorted(c)) + "}" for c in self.maximal) + ")"


def find_violation(relations: Iterable[KRelation]) -> Optional[ConsistencyViolation]:
    """The first pairwise marginal disagreement: pairs in sorted order, then
    the first agreement cell whose two annotation sums differ.  Only that
    cell becomes an ``Assignment`` and values.  Relations of different
    kinds raise :class:`ValueError` before any cell is read."""
    rels = sorted(relations, key=lambda r: tuple(sorted(r.variables)))
    if len({r.kind for r in rels}) > 1:
        raise ValueError("all context relations must share one kind")
    for i, j, sums_r, sums_s in _agreement(rels, _sums):
        if sums_r == sums_s:
            continue
        r, s = rels[i], rels[j]
        for short, a, b in _cells(sums_r, sums_s):
            if a != b:
                va = MonoidValue.zero(r.kind) if a is None else MonoidValue(r.kind, a)
                vb = MonoidValue.zero(s.kind) if b is None else MonoidValue(s.kind, b)
                row = Assignment._sorted(tuple(zip(sorted(r.variables & s.variables), short)))
                return ConsistencyViolation(r.variables, s.variables, row, va, vb)
    return None


class ContextualFamily:
    """A locally consistent assignment of relations to maximal contexts.

    Construction refuses, in this order: no relation at all; contexts
    that do not form a :class:`ContextSet`; relations of different kinds
    (:func:`find_violation`); and a pairwise disagreement, raised as
    :class:`LocalConsistencyError` with the first violating pair.  So an
    instance in hand is always a genuine family.
    """

    __slots__ = ("contexts", "kind", "_relations")

    def __init__(self, relations: Iterable[KRelation]):
        rels = list(relations)
        if not rels:
            raise ValueError("a family needs at least one context relation")
        contexts = ContextSet(r.variables for r in rels)
        violation = find_violation(rels)
        if violation is not None:
            raise LocalConsistencyError(violation)
        self.contexts = contexts
        self.kind = rels[0].kind
        self._relations = {r.variables: r for r in rels}

    @classmethod
    def _unchecked(
        cls, contexts: ContextSet, kind: MonoidKind, relations: Iterable[KRelation]
    ) -> "ContextualFamily":
        """A family the caller knows to be consistent: no pairwise check."""
        family = object.__new__(cls)
        family.contexts = contexts
        family.kind = kind
        family._relations = {r.variables: r for r in relations}
        return family

    def relation_at(self, context: Iterable[str]) -> KRelation:
        """The relation at any context, maximal or derived.

        For a maximal context this is the stored relation; for a subset of
        one it is the marginal, which local consistency makes independent
        of the covering context chosen.
        """
        wanted = frozenset(str(v) for v in context)
        if wanted in self._relations:
            return self._relations[wanted]
        cover = self.contexts.covering(wanted)
        return self._relations[cover].marginalise(wanted)

    def maximal_relations(self) -> Iterator[KRelation]:
        for c in self.contexts:
            yield self._relations[c]

    def support(self) -> "ContextualFamily":
        """The same supports annotated in B: the family itself when it is
        already a B-family, since families are immutable.  Always valid:
        marginals of equal relations have equal supports, so the pairwise
        check is not run again."""
        if self.kind is MonoidKind.B:
            return self
        supports = (r.support_relation() for r in self.maximal_relations())
        return ContextualFamily._unchecked(self.contexts, MonoidKind.B, supports)

    def satisfies(self, fd: "FD") -> bool:
        """Whether the dependency holds at the context of its variables.

        The variables must lie inside some maximal context; otherwise the
        question is not about this family and a :class:`ContextError` is
        raised.
        """
        needed = frozenset(fd.lhs) | frozenset(fd.rhs)
        if needed not in self.contexts:
            raise ContextError(
                f"dependency over {sorted(needed)} has no context in this family"
            )
        return self.relation_at(needed).satisfies(fd)

    def __add__(self, other: "ContextualFamily") -> "ContextualFamily":
        if not isinstance(other, ContextualFamily):
            return NotImplemented
        if self.contexts != other.contexts:
            raise ContextError("cannot add families over different context sets")
        if self.kind is not other.kind:
            raise ValueError("cannot add families of different kinds")
        return ContextualFamily(
            [self._relations[c] + other._relations[c] for c in self.contexts]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContextualFamily)
            and self.contexts == other.contexts
            and self.kind is other.kind
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash((self.contexts, self.kind, tuple(sorted(self._relations.items(), key=lambda kv: tuple(sorted(kv[0]))))))

    def __repr__(self) -> str:
        return f"ContextualFamily[{self.kind}]({len(self.contexts)} contexts)"


def _support_join(family: ContextualFamily) -> Tuple[List[Key], List[List[int]]]:
    """All rows over the sorted union of variables whose restriction to
    every maximal context lies in that context's support, in row order,
    with the cell table of those rows.

    A cell is one context row; cells are numbered context by context, in
    stored row order.  ``cells[i]`` lists, one per context, the cells the
    i-th row restricts to.  Each partial row is extended by the context
    rows that agree with it on the variables already bound, looked up by
    their values there, so no row repeats."""
    slot = {var: i for i, var in enumerate(sorted(family.contexts.variables))}
    rows: List[Tuple[List[str], List[int]]] = [([""] * len(slot), [])]
    bound: Set[str] = set()
    first = 0
    for rel in family.maximal_relations():
        read = [slot[var] for var in rel.names if var in bound]
        write = [slot[var] for var in rel.names]
        matches: Dict[Key, List[Tuple[int, Key]]] = {}
        for (n, key), short in zip(enumerate(rel._rows, first), _project(rel.names, bound, rel._rows)):
            matches.setdefault(short, []).append((n, key))
        extended: List[Tuple[List[str], List[int]]] = []
        for partial, cells in rows:
            for n, values in matches.get(tuple([partial[p] for p in read]), ()):
                merged = partial.copy()
                for p, val in zip(write, values):
                    merged[p] = val
                extended.append((merged, cells + [n]))
        rows = extended
        bound |= rel.variables
        first += len(rel)
    joined = [tuple(merged) for merged, _ in rows]
    order = sorted(range(len(joined)), key=joined.__getitem__)
    return [joined[i] for i in order], [rows[i][1] for i in order]


def _integer_weights(demands: List[int], cells: List[List[int]]) -> Optional[List[int]]:
    """Complete search for natural weights of the rows of a cell table,
    one per row, whose sums over every cell meet that cell's demand.

    A rational solution does not guarantee an integral one, so after the
    rational feasibility check this walks the (small) space directly,
    depth first on an explicit stack: rows in table order, each weight
    from the largest down, first solution wins.  Each weight is bounded
    by the least demand its row still leaves open, which keeps the search
    finite and the method complete.  A node is dropped when some cell
    needs more than the rows after it can carry, each row at most the
    least demand among its cells.
    """
    own = [min(demands[k] for k in row) for row in cells]
    caps = [0] * len(demands)
    for row, b in zip(cells, own):
        for k in row:
            caps[k] += b
    remaining = list(demands)
    weights: List[int] = []
    opening = True
    while True:
        i = len(weights)
        if opening:
            opening = False
            if i == len(cells):
                if not any(remaining):
                    return weights
                w = -1
            else:
                for k in cells[i]:
                    caps[k] -= own[i]
                w = min(remaining[k] for k in cells[i])
        if w < 0:
            if i < len(cells):
                for k in cells[i]:
                    caps[k] += own[i]
            if not weights:
                return None
            w = weights.pop()
            for k in cells[i - 1]:
                remaining[k] += w
            w -= 1
            continue
        for k in cells[i]:
            remaining[k] -= w
        if all(remaining[k] <= caps[k] for k in cells[i]):
            weights.append(w)
            opening = True
        else:
            for k in cells[i]:
                remaining[k] += w
            w -= 1


def check_global_consistency(family: ContextualFamily) -> Optional[KRelation]:
    """A single relation over all variables marginalising to every context
    relation, or None when no such relation exists.

    The support join gives the candidate rows and the cell table: the
    context row (cell) each candidate restricts to in every context.  No
    relation exists when some cell has no candidate over it.  Otherwise,
    for B, the join itself is the witness.  For Q and N the unknowns are
    the weights of the join rows, at least 0 each, with one equation per
    cell, in cell order: the weights over the cell sum to its value.

    The last cell of every context after the first is left out of the
    tableau.  Every join row lies in one cell of each context, so each
    context's equations sum to the total weight, and local consistency
    gives every context the same total: that equation is the sum of
    context 0's minus the context's other cells, and Gauss-Jordan
    elimination would only reduce it to an empty row.  The solver still
    checks the Q witness against those cells.

    Each cell is an integer row for :mod:`ctxfam.feasibility`: the weights
    over it, each scaled by the denominator of its value, sum to the
    value's numerator.  For Q the witness is the exact solution of
    :func:`~ctxfam.feasibility.find_rational_solution` on its one integer
    tableau: the lexicographically least weights, in join-row order,
    among those the Gauss-Jordan elimination leaves free.  For N phase 1
    of the same tableau must find the system feasible, and then a
    complete bounded search over the cell table finds integer weights,
    which meet every cell by construction.
    """
    join, cells = _support_join(family)
    relations = list(family.maximal_relations())
    demands = [p for rel in relations for p in rel._rows.values()]
    over: List[List[int]] = [[] for _ in demands]
    for i, row in enumerate(cells):
        for k in row:
            over[k].append(i)
    if not all(over):
        return None
    variables = family.contexts.variables
    if family.kind is MonoidKind.B:
        return KRelation(variables, MonoidKind.B, dict.fromkeys(join, 1))
    ends = list(accumulate(map(len, relations)))
    left_out = {end - 1 for end, rel in zip(ends[1:], relations[1:]) if rel}
    equalities: List[Tuple[Dict[int, int], int]] = []
    implied: List[Tuple[Dict[int, int], int]] = []
    for k, (ts, d) in enumerate(zip(over, demands)):
        (implied if k in left_out else equalities).append((dict.fromkeys(ts, d.denominator), d.numerator))
    unknowns = range(len(join))
    if family.kind is MonoidKind.N:
        if not _Tableau(equalities, len(unknowns)).phase1():
            return None
        weights = _integer_weights(demands, cells)
        if weights is None:
            return None
    else:
        weights = find_rational_solution(equalities, implied, unknowns)
        if weights is None:
            return None
    return KRelation(variables, family.kind, {t: w for t, w in zip(join, weights) if w})
