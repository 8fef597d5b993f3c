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
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .feasibility import find_rational_solution
from .monoid import MonoidKind, MonoidValue
from .relation import Assignment, KRelation, scalar_fill

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
        object.__setattr__(self, "maximal", tuple(sorted(sets, key=lambda c: tuple(sorted(c)))))

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
    """The first pairwise marginal disagreement, scanning in sorted order."""
    rels = sorted(relations, key=lambda r: tuple(sorted(r.variables)))
    for i, r in enumerate(rels):
        for s in rels[i + 1 :]:
            shared = r.variables & s.variables
            mr = r.marginalise(shared)
            ms = s.marginalise(shared)
            if mr == ms:
                continue
            for row in sorted(mr.support | ms.support, key=lambda a: a.sort_key):
                va = mr.annotation(row)
                vb = ms.annotation(row)
                if va != vb:
                    return ConsistencyViolation(r.variables, s.variables, row, va, vb)
    return None


class ContextualFamily:
    """A locally consistent assignment of relations to maximal contexts.

    Construction validates pairwise consistency and raises
    :class:`LocalConsistencyError` with the first violating pair
    otherwise, so an instance in hand is always a genuine family.
    """

    __slots__ = ("contexts", "kind", "_relations")

    def __init__(self, relations: Iterable[KRelation], contexts: Optional[ContextSet] = None):
        rels = list(relations)
        if not rels:
            raise ValueError("a family needs at least one context relation")
        kind = rels[0].kind
        for r in rels:
            if r.kind is not kind:
                raise ValueError("all context relations must share one kind")
        declared = ContextSet(r.variables for r in rels)
        if contexts is not None and contexts != declared:
            raise ContextError(
                f"relations cover {declared!r} but the family declares {contexts!r}"
            )
        violation = find_violation(rels)
        if violation is not None:
            raise LocalConsistencyError(violation)
        object.__setattr__(self, "contexts", declared)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "_relations", {r.variables: r for r in rels}
        )

    @classmethod
    def _unchecked(
        cls, contexts: ContextSet, kind: MonoidKind, relations: Iterable[KRelation]
    ) -> "ContextualFamily":
        """A family the caller knows to be consistent: no pairwise check."""
        family = object.__new__(cls)
        object.__setattr__(family, "contexts", contexts)
        object.__setattr__(family, "kind", kind)
        object.__setattr__(family, "_relations", {r.variables: r for r in relations})
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

    def assignments(self) -> Iterator[Tuple[FrozenSet[str], Assignment, MonoidValue]]:
        """Every annotated row of every maximal context, in sorted order."""
        for c in self.contexts:
            for row, value in self._relations[c].rows():
                yield c, row, value

    def labels(self) -> List[Assignment]:
        """All supported rows across maximal contexts (domains differ, so
        rows from different contexts never collide)."""
        return [row for _, row, _ in self.assignments()]

    def support(self) -> "ContextualFamily":
        """The same supports annotated in B.  Always valid: marginals of
        equal relations have equal supports, so the pairwise check is not
        run again."""
        supports = (r.support_relation() for r in self.maximal_relations())
        return ContextualFamily._unchecked(self.contexts, MonoidKind.B, supports)

    def scale(self, value: MonoidValue) -> "ContextualFamily":
        """Annotate every supported row with one constant value.

        The result can fail local consistency even though this family is
        consistent (overlap masses scale with differing support counts);
        in that case the constructor raises with the violating pair.
        """
        if value.is_zero:
            raise ValueError("scaling needs a nonzero annotation")
        scaled = [
            scalar_fill(value, r.variables, r.support) for r in self.maximal_relations()
        ]
        return ContextualFamily(scaled)

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


def check_local_consistency(relations: Iterable[KRelation]) -> ContextualFamily:
    """Validate pairwise consistency, returning the family or raising
    :class:`LocalConsistencyError` with the first disagreeing marginal row."""
    return ContextualFamily(relations)


def _support_join(family: ContextualFamily) -> List[Assignment]:
    """All assignments over the union of variables whose restriction to
    every maximal context lies in that context's support.  Distinct pairs
    of a partial row and a context row merge into distinct rows, so no
    row repeats."""
    rows: List[Dict[str, object]] = [dict()]
    for c in family.contexts:
        supp = sorted(family.relation_at(c).support, key=lambda a: a.sort_key)
        extended: List[Dict[str, object]] = []
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
    return sorted((Assignment(m) for m in rows), key=lambda a: a.sort_key)


def _projects_onto(candidate: KRelation, family: ContextualFamily) -> bool:
    return all(
        candidate.marginalise(c) == family.relation_at(c) for c in family.contexts
    )


def _global_boolean(family: ContextualFamily) -> Optional[KRelation]:
    join = _support_join(family)
    if not join and any(len(r) for r in family.maximal_relations()):
        return None
    candidate = KRelation.boolean(family.contexts.variables, join)
    return candidate if _projects_onto(candidate, family) else None


def _marginal_constraints(
    family: ContextualFamily, join: List[Assignment]
) -> Optional[List[Tuple[Dict[Assignment, Fraction], Fraction]]]:
    """Equalities stating that the join-row weights reproduce every
    context relation.  None when some context row is not covered at all."""
    constraints: List[Tuple[Dict[Assignment, Fraction], Fraction]] = []
    for c in family.contexts:
        rel = family.relation_at(c)
        covered: Dict[Assignment, List[Assignment]] = {row: [] for row, _ in rel.rows()}
        for t in join:
            covered[t.restrict(c)].append(t)
        for row, value in rel.rows():
            terms = covered[row]
            if not terms:
                return None
            coeffs = {t: Fraction(1) for t in terms}
            constraints.append((coeffs, Fraction(value.payload)))
    return constraints


def _global_weighted(family: ContextualFamily) -> Optional[KRelation]:
    join = _support_join(family)
    if not join:
        if any(len(r) for r in family.maximal_relations()):
            return None
        return KRelation(family.contexts.variables, family.kind, {})
    constraints = _marginal_constraints(family, join)
    if constraints is None:
        return None
    lower = {t: Fraction(0) for t in join}
    solution = find_rational_solution(constraints, lower, join)
    if solution is None:
        return None
    if family.kind is MonoidKind.N:
        integral = _integer_weights(family, join)
        if integral is None:
            return None
        rows = {
            t: MonoidValue.of(MonoidKind.N, w) for t, w in integral.items() if w
        }
        return KRelation(family.contexts.variables, MonoidKind.N, rows)
    rows = {
        t: MonoidValue.of(MonoidKind.Q, w) for t, w in solution.items() if w
    }
    return KRelation(family.contexts.variables, MonoidKind.Q, rows)


def _integer_weights(
    family: ContextualFamily, join: List[Assignment]
) -> Optional[Dict[Assignment, int]]:
    """Complete search for natural join-row weights meeting every marginal.

    A rational solution does not guarantee an integral one, so after the
    rational feasibility check this walks the (small) space directly.
    Each weight is bounded by the least marginal mass its row contributes
    to, which keeps the search finite and the method complete.
    """
    demands: Dict[Tuple[FrozenSet[str], Assignment], int] = {}
    for c in family.contexts:
        for row, value in family.relation_at(c).rows():
            demands[(c, row)] = int(value.payload)
    touched: Dict[Assignment, List[Tuple[FrozenSet[str], Assignment]]] = {}
    for t in join:
        touched[t] = [(c, t.restrict(c)) for c in family.contexts]
    # Remaining capacity per demand cell: how much the still-unassigned
    # rows could contribute.  Used to prune unmeetable demands early.
    capacity: Dict[Tuple[FrozenSet[str], Assignment], int] = {k: 0 for k in demands}

    def bound(t: Assignment, remaining: Dict[Tuple[FrozenSet[str], Assignment], int]) -> int:
        return min(remaining[cell] for cell in touched[t])

    order = sorted(join, key=lambda a: a.sort_key)
    for t in order:
        b = min(demands[cell] for cell in touched[t])
        for cell in touched[t]:
            capacity[cell] += b

    def search(
        idx: int,
        remaining: Dict[Tuple[FrozenSet[str], Assignment], int],
        caps: Dict[Tuple[FrozenSet[str], Assignment], int],
        picked: Dict[Assignment, int],
    ) -> Optional[Dict[Assignment, int]]:
        if idx == len(order):
            if all(v == 0 for v in remaining.values()):
                return dict(picked)
            return None
        t = order[idx]
        own_cap = min(demands[cell] for cell in touched[t])
        for cell in touched[t]:
            caps[cell] -= own_cap
        top = bound(t, remaining)
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


def check_global_consistency(family: ContextualFamily) -> Optional[KRelation]:
    """A single relation over all variables marginalising to every context
    relation, or None when no such relation exists.

    For B this is decided by the natural join of the supports.  For Q and
    N the unknowns are the weights of the join rows, at least 0 each, and
    the equations say that they marginalise to every context relation.
    For Q the witness is the exact simplex solution of
    :func:`~ctxfam.feasibility.find_rational_solution`: the
    lexicographically least weights, in join-row order, among those the
    Gaussian elimination leaves free.  For N a rational solution must
    exist first, and then a complete bounded search finds integer weights.
    """
    if family.kind is MonoidKind.B:
        return _global_boolean(family)
    return _global_weighted(family)
