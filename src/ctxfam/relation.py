"""Monoid-annotated relations over named variables.

A relation here is a finite map from rows to nonzero annotations in one
of the monoids of :mod:`ctxfam.monoid`.  It holds its sorted variable
names once; a row is the tuple of its values in that order, and an
annotation is a raw payload (``int`` for B and N, ``Fraction`` for Q).
Zero rows are never stored, so the support of a relation is exactly its
key set.  The central operation is marginalisation: restricting to a
subset of the variables and summing the annotations of rows that
collapse together.  Restriction works on whole batches of rows:
:func:`_restrict` restricts every key by positions at once (as tuples
through :func:`_project`), and :func:`_sums` sums each marginal in one
pass over the stored rows, for ``marginalise``, ``total`` and the
pairwise check, ``Q`` in integers.  Only
``satisfies`` and the agreement cells of the realisability LP group the
rows themselves (:func:`_groups`).

Rows become :class:`Assignment` and annotations ``MonoidValue`` objects
only at the API edge: ``rows``, ``support``, ``annotation`` and ``repr``
build them, and :meth:`KRelation.from_assignments` is the one way to
take them in.

Variables and values are strings, as the family format reads and
writes them, and rows are in the order of their value tuples.  Any
other value, an ``int`` or a ``str`` subclass among them, is refused.
The constructor checks every row it is given but those of the family
reader, :func:`ctxfam.formats.parse_relations`, which passes
``checked=True``: that reader has checked each row where it read it and
refused a bad one with a positioned ``FormatError``, so only the row
order is tested here.  Text the format cannot write, such as a value
holding a space, is kept here and refused by the writers of
:mod:`ctxfam.formats`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, islice, repeat
from math import inf, lcm
from operator import add, attrgetter, itemgetter, lt, or_
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple, Union

from .monoid import MonoidKind, MonoidValue

if TYPE_CHECKING:
    from .fdlogic import FD

Key = Tuple[str, ...]  # a row's values, in the order of its relation's names
Payload = Union[int, Fraction]
Pairs = Tuple[Tuple[str, str], ...]
Groups = Dict[Key, List[Key]]


class DomainError(ValueError):
    """Raised on a row or operation outside a relation's variables, or a value not a ``str``."""


def _restrict(names: Sequence[str], target: AbstractSet[str], keys: Collection[Key]) -> Tuple[Iterator[Any], bool]:
    """Restriction by positions: each of ``keys``, rows over ``names``,
    restricted to the names in ``target``, again in sorted order, with no
    Python call per row; and whether ``target`` holds exactly one of
    ``names``, in which case each restriction is that value itself rather
    than a 1-tuple."""
    positions = [i for i, var in enumerate(names) if var in target]
    if len(positions) == 1:
        return map(itemgetter(positions[0]), keys), True
    if positions:
        return map(itemgetter(*positions), keys), False
    return repeat((), len(keys)), False


def _project(names: Sequence[str], target: AbstractSet[str], keys: Collection[Key]) -> Iterator[Key]:
    """Each of ``keys``, rows over ``names``, restricted to the names in
    ``target`` as a tuple (:func:`_restrict`)."""
    shorts, single = _restrict(names, target, keys)
    return zip(shorts) if single else shorts


def _not_text(pairs: Pairs) -> DomainError:
    """The refusal of a row, as pairs sorted by variable, holding a value not a ``str``."""
    val = next(val for _, val in pairs if type(val) is not str)
    return DomainError(f"row {Assignment._sorted(pairs)} holds {val!r} of type {type(val).__name__}; values are str")


class Assignment:
    """An immutable row: a finite map from variables to ``str`` values."""

    __slots__ = ("_pairs", "_hash")

    def __init__(self, bindings: Union[Mapping[str, str], Iterable[Tuple[str, str]]]):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        listed = [(str(var), val) for var, val in items]
        seen = sorted(var for var, _ in listed)
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate variable in assignment: {seen}")
        # No variable repeats, so the sort never compares two values.
        pairs = tuple(sorted(listed))
        if any(type(val) is not str for _, val in pairs):
            raise _not_text(pairs)
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

    def items(self) -> Pairs:
        return self._pairs

    def __getitem__(self, var: str) -> str:
        for v, val in self._pairs:
            if v == var:
                return val
        raise KeyError(var)

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

    def __init__(self, variables: Iterable[str], kind: MonoidKind, rows: Mapping[Key, Payload], *,
                 checked: bool = False):
        """Store the rows in the order of their keys, with no sort when they
        come in that order.  Each key is a tuple of one ``str`` per variable,
        in sorted order; any other value, a ``str`` subclass too, is refused
        with a :class:`DomainError` naming its row.  Each payload is nonzero
        of ``kind``: the ``int`` 1 in B, an ``int`` in N, a ``Fraction`` in
        Q; a zero is rejected, not dropped, so every row is in the support.

        ``checked`` says that the family reader of :mod:`ctxfam.formats`
        built ``rows`` and has already refused, with a positioned
        ``FormatError``, every row these tests would refuse; they are then
        skipped, and only the row order is tested here.  Every other caller
        leaves it false."""
        vars_ = frozenset(str(v) for v in variables)
        names = tuple(sorted(vars_))
        keys = list(rows)
        if not checked:
            self._check(names, kind, rows, keys)
        if all(map(lt, keys, islice(keys, 1, None))):
            store = dict(rows)  # already in row order
        else:
            store = dict(sorted(rows.items(), key=itemgetter(0)))
        self.variables = vars_
        self.names = names
        self.kind = kind
        self._rows = store

    @staticmethod
    def _check(names: Key, kind: MonoidKind, rows: Mapping[Key, Payload], keys: List[Key]) -> None:
        """Refuse a key that is not a tuple of one ``str`` per name, or a
        payload that is not nonzero of ``kind``: whole columns at a time,
        looking for the offending row only to name it."""
        payloads = list(rows.values())
        if set(map(len, keys)) - {len(names)} or set(map(type, keys)) - {tuple}:
            bad = next(key for key in keys if type(key) is not tuple or len(key) != len(names))
            raise DomainError(f"row {bad!r} does not bind exactly {list(names)}")
        if set(map(type, chain.from_iterable(keys))) - {str}:
            bad = next(key for key in keys if set(map(type, key)) - {str})
            raise _not_text(tuple(zip(names, bad)))
        wanted, top = (Fraction, inf) if kind is MonoidKind.Q else (int, 1 if kind is MonoidKind.B else inf)
        typed = set(map(type, payloads)) <= {wanted}
        # A Fraction has the sign of its numerator, which compares in C.
        signs = list(map(attrgetter("numerator"), payloads)) if typed and wanted is Fraction else payloads
        if not typed or not 0 < min(signs, default=1) <= max(signs, default=1) <= top:
            p = next(p for p in payloads if type(p) is not wanted or not 0 < p <= top)
            if type(p) is wanted and p == 0:
                row = Assignment._sorted(tuple(zip(names, keys[payloads.index(p)])))
                raise ValueError(f"zero annotation stored for row {row}")
            raise ValueError(f"annotation {p} is not of kind {kind}")

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

    def _sub(self, keys: Iterable[Key]) -> "KRelation":
        """The B-relation of some of the stored rows, each annotated 1.
        ``keys`` must be stored here and come in stored order, so the rows
        stay in row order; nothing is checked."""
        sub = object.__new__(KRelation)
        sub.variables = self.variables
        sub.names = self.names
        sub.kind = MonoidKind.B
        sub._rows = dict.fromkeys(keys, 1)
        return sub

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
        return MonoidValue.of(self.kind, _sums(self, ()).get((), 0))

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
        return KRelation(target, self.kind, _sums(self, target))

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
        return all(len(set(_project(self.names, fd.rhs, g))) == 1 for g in _groups(self, fd.lhs).values())

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


def _groups(relation: KRelation, target: AbstractSet[str]) -> Groups:
    """The stored rows grouped by their restriction to ``target``, in stored order."""
    keys = relation._rows
    groups: Groups = defaultdict(list)
    for short, key in zip(_project(relation.names, target, keys), keys):
        groups[short].append(key)
    return groups


def _sums(relation: KRelation, target: AbstractSet[str]) -> Dict[Key, Payload]:
    """The marginal store onto ``target``: each restriction of a stored row,
    first seen first, with the sum of its rows' payloads, added in stored
    order (1 in B); never zero.  One pass over the rows, building no groups.

    On a single variable the rows are summed on their values themselves,
    and one 1-tuple is built per distinct value at the end.  Q is summed
    in integers: each key's numerators over the relation's common
    denominator, then one ``Fraction`` per key; when no two rows share a
    key, the stored payloads themselves are returned and no ``Fraction``
    is built."""
    rows = relation._rows
    shorts, single = _restrict(relation.names, target, rows)
    payloads = rows.values()
    if relation.kind is MonoidKind.B:
        sums: Dict[Any, Payload] = dict.fromkeys(shorts, 1)
    elif relation.kind is MonoidKind.N:
        sums = {}
        get = sums.get
        for short, p in zip(shorts, payloads):
            q = get(short)
            sums[short] = p if q is None else q + p
    else:
        shorts = list(shorts)
        sums = dict(zip(shorts, payloads))
        if len(sums) < len(shorts):
            numerators, denominators = zip(*map(Fraction.as_integer_ratio, payloads))
            common = lcm(*set(denominators))
            scaled = dict.fromkeys(sums, 0)
            for short, n, d in zip(shorts, numerators, denominators):
                scaled[short] += n * (common // d)
            sums = {short: Fraction(n, common) for short, n in scaled.items()}
    return {(short,): p for short, p in sums.items()} if single else sums


def _agreement(
    relations: Sequence[KRelation],
    side: Callable[[KRelation, FrozenSet[str]], Any] = _groups,
) -> Iterator[Tuple[int, int, Any, Any]]:
    """The agreement system of pairwise consistency: every pair ``i < j``
    of the given relations, in the given order, with ``side(relation,
    shared)`` of both sides on their shared variables, by default the
    grouping (the pairwise check passes :func:`_sums`).  ``side`` runs once
    per relation and overlap, however many partners share it.  Each key of
    either side is one cell; the empty overlap is the one cell holding
    every row."""
    memo: Dict[Tuple[int, FrozenSet[str]], Any] = {}

    def of(n: int, shared: FrozenSet[str]) -> Any:
        if (n, shared) not in memo:
            memo[n, shared] = side(relations[n], shared)
        return memo[n, shared]

    for i, r in enumerate(relations):
        for j in range(i + 1, len(relations)):
            shared = r.variables & relations[j].variables
            yield i, j, of(i, shared), of(j, shared)


def _cells(left: Mapping[Key, Any], right: Mapping[Key, Any]) -> Iterator[Tuple[Key, Any, Any]]:
    """The cells of one pair in row order, with each side's entry (or None)."""
    for short in sorted(left.keys() | right.keys()):
        yield short, left.get(short), right.get(short)
