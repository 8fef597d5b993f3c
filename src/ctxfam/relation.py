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

from collections import defaultdict
from collections.abc import Mapping
from functools import partial, reduce
from itertools import chain
from operator import add, itemgetter, or_
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple, Union

from .monoid import MonoidKind, MonoidValue, msum

if TYPE_CHECKING:
    from .fdlogic import FD

Value = Union[str, int]
Pairs = Tuple[Tuple[str, Value], ...]
Groups = Dict[Pairs, List["Assignment"]]
_first = itemgetter(0)


class DomainError(ValueError):
    """Raised when an operation refers to variables outside a relation."""


def value_key(value: Value) -> Tuple[str, str]:
    """Deterministic sort key for values of mixed token types."""
    return (str(value), type(value).__name__)


def values_key(pairs: Pairs) -> Tuple[Tuple[str, str], ...]:
    """The ``value_key`` of each value, in variable order.  Among rows over
    the same variables this orders exactly as ``Assignment.sort_key``; it
    is the row order of :func:`_row_order`, which uses it only for rows
    holding a token that is not a plain ``str``."""
    return tuple([value_key(val) for _, val in pairs])


def _row_order(rows: Sequence[Pairs]) -> List[int]:
    """The positions of ``rows``, the pairs of distinct rows over one
    variable set, in row order: the ``values_key`` order, which is the
    ``Assignment.sort_key`` order of such rows.

    When every variable and value is a plain ``str``, that is the order of
    the pairs themselves, which the sort compares in C.  ``int``, mixed and
    ``str``-subclass tokens are ordered by ``values_key``, the only key
    that orders them correctly.  The sort is stable and takes linear time
    on rows already in order.
    """
    if set(map(type, chain.from_iterable(chain.from_iterable(rows)))) <= {str}:
        keys = rows
    else:
        keys = [values_key(pairs) for pairs in rows]
    return sorted(range(len(rows)), key=keys.__getitem__)


def _projection(variables: AbstractSet[str], target: AbstractSet[str]) -> Callable[[Pairs], Pairs]:
    """Restriction by positions: the function taking the pairs of a row
    over ``variables`` to the pairs of its restriction to ``target``.

    The positions are worked out once, and the result is again sorted by
    variable, so :meth:`Assignment._sorted` takes it as it is.
    """
    positions = [i for i, var in enumerate(sorted(variables)) if var in target]
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda pairs: (pairs[i],)
    return lambda pairs: ()


class Assignment:
    """An immutable row: a finite map from variables to values."""

    __slots__ = ("_pairs", "_hash")

    def __init__(self, bindings: Union[Mapping[str, Value], Iterable[Tuple[str, Value]]]):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        listed = [(str(var), val) for var, val in items]
        try:
            pairs = tuple(sorted(listed))
        except TypeError:
            # Values are compared only between pairs with equal variables.
            seen = sorted(var for var, _ in listed)
            raise ValueError(f"duplicate variable in assignment: {seen}") from None
        seen = [var for var, _ in pairs]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate variable in assignment: {seen}")
        self._pairs = pairs
        self._hash = hash(pairs)

    @classmethod
    def _sorted(cls, pairs: Pairs) -> "Assignment":
        """A row from pairs already sorted by variable, with no variable
        repeated; nothing is checked."""
        row = object.__new__(cls)
        row._pairs = pairs
        row._hash = hash(pairs)
        return row

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
        return Assignment._sorted(tuple([pair for pair in self._pairs if pair[0] in wanted]))

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
        """Validate every row and store the rows in row order.

        Every row must bind exactly ``variables`` and carry a nonzero
        annotation of ``kind``.  The rows are stored in ``values_key``
        order (see :func:`_row_order`): when every token is a plain
        ``str`` the sort compares the rows' pairs directly, and rows
        handed over already in that order cost one linear pass.
        """
        vars_ = frozenset(str(v) for v in variables)
        names = tuple(sorted(vars_))
        items = list(rows.items())
        for row, value in items:
            if tuple(map(_first, row._pairs)) != names:
                raise DomainError(
                    f"row {row} does not bind exactly {sorted(vars_)}"
                )
            if value.kind is not kind:
                raise ValueError(f"annotation {value} is not of kind {kind}")
            if value.is_zero:
                raise ValueError(f"zero annotation stored for row {row}")
        object.__setattr__(self, "variables", vars_)
        object.__setattr__(self, "kind", kind)
        order = _row_order([row._pairs for row, _ in items])
        object.__setattr__(self, "_rows", dict(map(items.__getitem__, order)))

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
        """The same rows annotated 1 in B: the relation itself when it is
        already a B-relation, since relations are immutable."""
        if self.kind is MonoidKind.B:
            return self
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
        sums = _totals(self, _groups(self, target))
        return KRelation(target, self.kind, {Assignment._sorted(k): MonoidValue(self.kind, t) for k, t in sums.items()})

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
        right = _projection(self.variables, fd.rhs)
        return all(len({right(row._pairs) for row in g}) == 1 for g in _groups(self, fd.lhs).values())

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
    return _totals(r, _groups(r, shared)) == _totals(s, _groups(s, shared))


def _groups(relation: KRelation, target: AbstractSet[str]) -> Groups:
    """The stored rows grouped by their restriction to ``target``, in stored order."""
    project = _projection(relation.variables, target)
    groups: Groups = defaultdict(list)
    for row in relation._rows:
        groups[project(row._pairs)].append(row)
    return groups


def _totals(relation: KRelation, groups: Groups) -> Dict[Pairs, Any]:
    """Each group's annotation sum, a raw payload added in stored order; never zero."""
    fold = partial(reduce, or_ if relation.kind is MonoidKind.B else add)
    rows = relation._rows
    return {short: fold([rows[row].payload for row in group]) for short, group in groups.items()}


def _agreement(relations: Sequence[KRelation]) -> Iterator[Tuple[KRelation, KRelation, Groups, Groups]]:
    """The agreement system of pairwise consistency: every pair of the
    given relations, in the given order, with both sides grouped on their
    shared variables.  Each key of either grouping is one cell; the empty
    overlap is the one cell holding every row."""
    for i, r in enumerate(relations):
        for s in relations[i + 1 :]:
            shared = r.variables & s.variables
            yield r, s, _groups(r, shared), _groups(s, shared)


def _cells(left: Mapping[Pairs, Any], right: Mapping[Pairs, Any]) -> Iterator[Tuple[Pairs, Any, Any]]:
    """The cells of one pair in row order, with each side's entry (or None)."""
    shorts = list(left.keys() | right.keys())
    for i in _row_order(shorts):
        short = shorts[i]
        yield short, left.get(short), right.get(short)
