"""Monoid-annotated relations over named variables.

A relation here is a finite map from rows to nonzero annotations in one
of the monoids of :mod:`ctxfam.monoid`.  It holds its sorted variable
names once; a row is the tuple of its values in that order, and an
annotation is a raw payload (``int`` for B and N, ``Fraction`` for Q).
Zero rows are never stored, so the support of a relation is exactly its
key set.  The central operation is marginalisation: restricting to a
subset of the variables and summing the annotations of rows that
collapse together.

Rows become :class:`Assignment` and annotations ``MonoidValue`` objects
only at the API edge: ``rows``, ``support``, ``annotation`` and ``repr``
build them, and :meth:`KRelation.from_assignments` takes them in.

Variables are strings.  Values are opaque tokens compared literally
(``"0"`` and ``0`` are distinct values); library-built relations use
string tokens throughout so that serialised output round-trips.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import partial, reduce
from itertools import chain
from math import inf
from operator import add, itemgetter, or_
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple, Union

from .monoid import MonoidKind, MonoidValue

if TYPE_CHECKING:
    from .fdlogic import FD

Value = Union[str, int]
Key = Tuple[Value, ...]  # a row's values, in the order of its relation's names
Payload = Union[int, Fraction]
Pairs = Tuple[Tuple[str, Value], ...]
Groups = Dict[Key, List[Key]]


class DomainError(ValueError):
    """Raised when an operation refers to variables outside a relation."""


def value_key(value: Value) -> Tuple[str, str]:
    """Deterministic sort key for values of mixed token types."""
    return (str(value), type(value).__name__)


def values_key(pairs: Pairs) -> Tuple[Tuple[str, str], ...]:
    """The ``value_key`` of each value of a row given as pairs: the row
    order of :func:`_row_order` and of ``Assignment.sort_key``."""
    return tuple([value_key(val) for _, val in pairs])


def _row_order(keys: Sequence[Key]) -> List[int]:
    """The positions of ``keys``, the value tuples of distinct rows over one
    variable set, in row order: by each value's ``value_key``, which is the
    ``Assignment.sort_key`` order.  When every value is a plain ``str``,
    that is the order of the tuples themselves, which the sort compares in
    C.  The sort takes linear time on rows already in order.
    """
    if set(map(type, chain.from_iterable(keys))) <= {str}:
        order = keys
    else:
        order = [tuple([value_key(val) for val in key]) for key in keys]
    return sorted(range(len(keys)), key=order.__getitem__)


def _projection(names: Sequence[str], target: AbstractSet[str]) -> Callable[[Key], Key]:
    """Restriction by positions: the function taking a row over ``names``
    to its row over the names in ``target``, again in sorted order."""
    positions = [i for i, var in enumerate(names) if var in target]
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda key: (key[i],)
    return lambda key: ()


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

    ``names`` holds the sorted variable names, ``variables`` the same as a
    set.  The store maps value tuples, in the order of ``names``, to raw
    nonzero payloads, in row order.  Instances are immutable.
    """

    __slots__ = ("variables", "names", "kind", "_rows")

    def __init__(self, variables: Iterable[str], kind: MonoidKind, rows: Mapping[Key, Payload]):
        """Store the rows in :func:`_row_order`.  Each key is a tuple of one
        value per variable, in sorted order, and each payload is nonzero of
        ``kind``: the ``int`` 1 in B, an ``int`` in N, a ``Fraction`` in Q.
        A zero is rejected, not dropped, so every stored row is in the support."""
        vars_ = frozenset(str(v) for v in variables)
        names = tuple(sorted(vars_))
        keys = list(rows)
        payloads = list(rows.values())
        if set(map(len, keys)) - {len(names)} or set(map(type, keys)) - {tuple}:
            bad = next(key for key in keys if type(key) is not tuple or len(key) != len(names))
            raise DomainError(f"row {bad!r} does not bind exactly {list(names)}")
        wanted, top = (Fraction, inf) if kind is MonoidKind.Q else (int, 1 if kind is MonoidKind.B else inf)
        if not set(map(type, payloads)) <= {wanted} or not 0 < min(payloads, default=1) <= max(payloads, default=1) <= top:
            p = next(p for p in payloads if type(p) is not wanted or not 0 < p <= top)
            if type(p) is wanted and p == 0:
                row = Assignment._sorted(tuple(zip(names, keys[payloads.index(p)])))
                raise ValueError(f"zero annotation stored for row {row}")
            raise ValueError(f"annotation {p} is not of kind {kind}")
        order = _row_order(keys)
        object.__setattr__(self, "variables", vars_)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_rows", dict(zip(map(keys.__getitem__, order), map(payloads.__getitem__, order))))

    @classmethod
    def from_assignments(cls, variables: Iterable[str], kind: MonoidKind, rows: Mapping[Assignment, MonoidValue]) -> "KRelation":
        """The relation of ``{Assignment: MonoidValue}`` rows, each of which
        must bind exactly ``variables`` and carry an annotation of ``kind``."""
        vars_ = frozenset(str(v) for v in variables)
        names = tuple(sorted(vars_))
        table: Dict[Key, Payload] = {}
        for row, value in rows.items():
            if tuple(var for var, _ in row.items()) != names:
                raise DomainError(f"row {row} does not bind exactly {list(names)}")
            if value.kind is not kind:
                raise ValueError(f"annotation {value} is not of kind {kind}")
            table[tuple(val for _, val in row.items())] = value.payload
        return cls(vars_, kind, table)

    @classmethod
    def boolean(cls, variables: Iterable[str], support: Iterable[Assignment]) -> "KRelation":
        """A B-relation holding exactly the given rows."""
        return cls.from_assignments(variables, MonoidKind.B, dict.fromkeys(support, MonoidValue.one(MonoidKind.B)))

    def rows(self) -> Iterator[Tuple[Assignment, MonoidValue]]:
        """Rows in deterministic (sorted) order."""
        names, kind = self.names, self.kind
        return ((Assignment._sorted(tuple(zip(names, key))), MonoidValue(kind, p)) for key, p in self._rows.items())

    def annotation(self, row: Assignment) -> MonoidValue:
        """The annotation of a row; zero when the row is absent."""
        payload = None
        if tuple(var for var, _ in row.items()) == self.names:
            payload = self._rows.get(tuple(val for _, val in row.items()))
        return MonoidValue.zero(self.kind) if payload is None else MonoidValue(self.kind, payload)

    @property
    def support(self) -> FrozenSet[Assignment]:
        return frozenset(row for row, _ in self.rows())

    def support_relation(self) -> "KRelation":
        """The same rows annotated 1 in B: the relation itself when it is
        already a B-relation, since relations are immutable."""
        if self.kind is MonoidKind.B:
            return self
        return KRelation(self.variables, MonoidKind.B, dict.fromkeys(self._rows, 1))

    def total(self) -> MonoidValue:
        """Sum of all annotations (the marginal onto no variables)."""
        return MonoidValue.of(self.kind, _totals(self, _groups(self, ())).get((), 0))

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
        return KRelation(target, self.kind, _totals(self, _groups(self, target)))

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
        right = _projection(self.names, fd.rhs)
        return all(len(set(map(right, g))) == 1 for g in _groups(self, fd.lhs).values())

    def __add__(self, other: "KRelation") -> "KRelation":
        """Pointwise sum of two relations over the same variables."""
        if not isinstance(other, KRelation):
            return NotImplemented
        if self.variables != other.variables:
            raise DomainError("cannot add relations over different variables")
        if self.kind is not other.kind:
            raise ValueError("cannot add relations of different kinds")
        plus = or_ if self.kind is MonoidKind.B else add
        merged = dict(self._rows)
        for key, p in other._rows.items():
            merged[key] = plus(merged[key], p) if key in merged else p
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
    return KRelation.from_assignments(variables, value.kind, dict.fromkeys(support, value))


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
    project = _projection(relation.names, target)
    groups: Groups = defaultdict(list)
    for key in relation._rows:
        groups[project(key)].append(key)
    return groups


def _totals(relation: KRelation, groups: Groups) -> Dict[Key, Payload]:
    """Each group's annotation sum, a payload added in stored order; never zero."""
    fold = partial(reduce, or_ if relation.kind is MonoidKind.B else add)
    rows = relation._rows
    return {short: fold([rows[key] for key in group]) for short, group in groups.items()}


def _agreement(relations: Sequence[KRelation]) -> Iterator[Tuple[KRelation, KRelation, Groups, Groups]]:
    """The agreement system of pairwise consistency: every pair of the
    given relations, in the given order, with both sides grouped on their
    shared variables.  Each key of either grouping is one cell; the empty
    overlap is the one cell holding every row."""
    for i, r in enumerate(relations):
        for s in relations[i + 1 :]:
            shared = r.variables & s.variables
            yield r, s, _groups(r, shared), _groups(s, shared)


def _cells(left: Mapping[Key, Any], right: Mapping[Key, Any]) -> Iterator[Tuple[Key, Any, Any]]:
    """The cells of one pair in row order, with each side's entry (or None)."""
    shorts = list(left.keys() | right.keys())
    for i in _row_order(shorts):
        short = shorts[i]
        yield short, left.get(short), right.get(short)
