"""Monoid-annotated relations over named variables.

A relation here is a finite map from assignments (rows) to nonzero
annotations in one of the monoids of :mod:`ctxfam.monoid`.  Zero rows are
never stored, so the support of a relation is exactly its key set.  The
central operation is marginalisation: restricting to a subset of the
variables and summing the annotations of rows that collapse together.

Variables are strings.  Values are opaque tokens compared literally
(``"0"`` and ``0`` are distinct values); library-built relations use
string tokens throughout so that serialised output round-trips.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union

from .monoid import MonoidKind, MonoidValue, msum

if TYPE_CHECKING:
    from .fdlogic import FD

Value = Union[str, int]


class DomainError(ValueError):
    """Raised when an operation refers to variables outside a relation."""


def value_key(value: Value) -> Tuple[str, str]:
    """Deterministic sort key for values of mixed token types."""
    return (str(value), type(value).__name__)


class Assignment:
    """An immutable row: a finite map from variables to values."""

    __slots__ = ("_pairs", "_hash")

    def __init__(self, bindings: Union[Mapping[str, Value], Iterable[Tuple[str, Value]]]):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        pairs = tuple(sorted(((str(var), val) for var, val in items)))
        seen = [var for var, _ in pairs]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate variable in assignment: {seen}")
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_hash", hash(pairs))

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset(var for var, _ in self._pairs)

    def items(self) -> Tuple[Tuple[str, Value], ...]:
        return self._pairs

    def __getitem__(self, var: str) -> Value:
        for v, val in self._pairs:
            if v == var:
                return val
        raise KeyError(var)

    def restrict(self, variables: Iterable[str]) -> "Assignment":
        """The restriction of this row to the given variables.

        Every requested variable must be bound; restriction never invents
        values.
        """
        wanted = frozenset(variables)
        missing = wanted - self.variables
        if missing:
            raise DomainError(f"assignment does not bind {sorted(missing)}")
        return Assignment((v, val) for v, val in self._pairs if v in wanted)

    @property
    def sort_key(self) -> Tuple:
        return tuple((var, value_key(val)) for var, val in self._pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Assignment) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        return f"Assignment({str(self)})"

    def __str__(self) -> str:
        return ",".join(f"{var}={val}" for var, val in self._pairs)


class KRelation:
    """A support-sparse annotated relation: rows mapped to nonzero values.

    Instances are immutable.  All rows must bind exactly the declared
    variables and all annotations must share the declared kind; zero
    annotations are rejected rather than silently dropped, so that a
    stored row always witnesses membership in the support.
    """

    __slots__ = ("variables", "kind", "_rows")

    def __init__(
        self,
        variables: Iterable[str],
        kind: MonoidKind,
        rows: Mapping[Assignment, MonoidValue],
    ):
        vars_ = frozenset(str(v) for v in variables)
        for row, value in rows.items():
            if row.variables != vars_:
                raise DomainError(
                    f"row {row} does not bind exactly {sorted(vars_)}"
                )
            if value.kind is not kind:
                raise ValueError(f"annotation {value} is not of kind {kind}")
            if value.is_zero:
                raise ValueError(f"zero annotation stored for row {row}")
        object.__setattr__(self, "variables", vars_)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self,
            "_rows",
            dict(sorted(rows.items(), key=lambda kv: kv[0].sort_key)),
        )

    @classmethod
    def boolean(cls, variables: Iterable[str], support: Iterable[Assignment]) -> "KRelation":
        """A B-relation holding exactly the given rows."""
        one = MonoidValue.one(MonoidKind.B)
        return cls(variables, MonoidKind.B, {row: one for row in support})

    def rows(self) -> Iterator[Tuple[Assignment, MonoidValue]]:
        """Rows in deterministic (sorted) order."""
        return iter(self._rows.items())

    def annotation(self, row: Assignment) -> MonoidValue:
        """The annotation of a row; zero when the row is absent."""
        return self._rows.get(row, MonoidValue.zero(self.kind))

    @property
    def support(self) -> FrozenSet[Assignment]:
        return frozenset(self._rows)

    def support_relation(self) -> "KRelation":
        """The same rows annotated 1 in B."""
        return KRelation.boolean(self.variables, self._rows)

    def total(self) -> MonoidValue:
        """Sum of all annotations (the marginal onto no variables)."""
        return msum(self._rows.values(), self.kind)

    def marginalise(self, variables: Iterable[str]) -> "KRelation":
        """Restrict to a variable subset, summing collapsing rows.

        The target set must be a subset of this relation's variables; the
        empty set is allowed and yields a single-row relation carrying the
        total mass (or the empty relation when this one is empty).
        """
        target = frozenset(str(v) for v in variables)
        extra = target - self.variables
        if extra:
            raise DomainError(f"cannot marginalise onto unknown variables {sorted(extra)}")
        grouped: Dict[Assignment, MonoidValue] = {}
        for row, value in self._rows.items():
            short = row.restrict(target)
            prior = grouped.get(short)
            grouped[short] = value if prior is None else prior + value
        return KRelation(target, self.kind, grouped)

    def satisfies(self, fd: "FD") -> bool:
        """Whether the support satisfies a functional dependency.

        Annotations are ignored: a dependency X -> Y holds when any two
        rows of the support agreeing on X also agree on Y.  All variables
        of the dependency must belong to this relation.
        """
        needed = frozenset(fd.lhs) | frozenset(fd.rhs)
        extra = needed - self.variables
        if extra:
            raise DomainError(f"dependency mentions unknown variables {sorted(extra)}")
        seen: Dict[Assignment, Assignment] = {}
        for row in self._rows:
            left = row.restrict(fd.lhs)
            right = row.restrict(fd.rhs)
            prior = seen.get(left)
            if prior is None:
                seen[left] = right
            elif prior != right:
                return False
        return True

    def __add__(self, other: "KRelation") -> "KRelation":
        """Pointwise sum of two relations over the same variables."""
        if not isinstance(other, KRelation):
            return NotImplemented
        if self.variables != other.variables:
            raise DomainError("cannot add relations over different variables")
        if self.kind is not other.kind:
            raise ValueError("cannot add relations of different kinds")
        merged: Dict[Assignment, MonoidValue] = dict(self._rows)
        for row, value in other._rows.items():
            prior = merged.get(row)
            merged[row] = value if prior is None else prior + value
        return KRelation(self.variables, self.kind, merged)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KRelation)
            and self.variables == other.variables
            and self.kind is other.kind
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.kind, tuple(self._rows.items())))

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(f"{row}:{val}" for row, val in self.rows())
        return f"KRelation[{self.kind}]({{{body}}})"


def scalar_fill(value: MonoidValue, variables: Iterable[str], support: Iterable[Assignment]) -> KRelation:
    """The relation annotating every given row with the same nonzero value."""
    if value.is_zero:
        raise ValueError("scalar fill needs a nonzero annotation")
    return KRelation(variables, value.kind, {row: value for row in support})


def consistent(r: KRelation, s: KRelation) -> bool:
    """Whether two relations agree after marginalising to shared variables.

    When the variable sets are disjoint the shared marginal is the total
    mass, so two nonempty relations of equal total are consistent and an
    empty relation is consistent only with another empty one.
    """
    if r.kind is not s.kind:
        raise ValueError("cannot compare relations of different kinds")
    shared = r.variables & s.variables
    return r.marginalise(shared) == s.marginalise(shared)
