"""The row-object relation code that the value-tuple store replaced, kept
as a test-only reference, with the helpers that only tests need.

A reference relation maps :class:`Assignment` rows to
:class:`MonoidValue` annotations; it is validated row by row, sorted by
the rows' pairs, and restricted, grouped, joined and parsed through
those pairs.  The tests compare its results ``==`` with the new code.
:func:`classical_closure` is the context-blind attribute closure that
CLASSICAL and NRA derivations and contextual counterexamples are
checked against.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial, reduce
from itertools import chain
from operator import add, itemgetter, or_
from typing import Dict, List, Optional, Tuple

from ctxfam.family import ConsistencyViolation, ContextualFamily
from ctxfam.formats import _RESERVED_VALUES, FormatError
from ctxfam.monoid import MonoidKind, MonoidValue, parse_value
from ctxfam.relation import Assignment, DomainError, value_key

_first = itemgetter(0)


def values_key(pairs):
    """The ``value_key`` of each value of a row given as pairs: the row
    order of ``Assignment.sort_key``."""
    return tuple([value_key(val) for _, val in pairs])


def row_order(rows):
    """The positions of the pairs of distinct rows over one variable set, in
    row order."""
    if set(map(type, chain.from_iterable(chain.from_iterable(rows)))) <= {str}:
        keys = rows
    else:
        keys = [values_key(pairs) for pairs in rows]
    return sorted(range(len(rows)), key=keys.__getitem__)


def significant_lines(text: str) -> List[Tuple[int, str]]:
    """The parsers' line reader before it yielded tokens: each line with
    its comment cut and its ends stripped, numbered from 1, unless empty."""
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def restrict(row: Assignment, names) -> Assignment:
    """The restriction of a row to the given names, every one of which it
    must bind."""
    wanted = frozenset(names)
    missing = wanted - row.variables
    if missing:
        raise DomainError(f"assignment does not bind {sorted(missing)}")
    return Assignment((v, val) for v, val in row.items() if v in wanted)


def classical_closure(sigma, attributes) -> frozenset:
    """Attribute closure under all premises, context-blind."""
    closure = set(attributes)
    changed = True
    while changed:
        changed = False
        for fd in sigma:
            if fd.lhs <= closure and not fd.rhs <= closure:
                closure |= fd.rhs
                changed = True
    return frozenset(closure)


def projection(variables, target):
    positions = [i for i, var in enumerate(sorted(variables)) if var in target]
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda pairs: (pairs[i],)
    return lambda pairs: ()


class RowRelation:
    """A relation storing one Assignment and one MonoidValue per row."""

    def __init__(self, variables, kind, rows):
        vars_ = frozenset(str(v) for v in variables)
        names = tuple(sorted(vars_))
        items = list(rows.items())
        for row, value in items:
            if tuple(map(_first, row.items())) != names:
                raise DomainError(f"row {row} does not bind exactly {sorted(vars_)}")
            if value.kind is not kind:
                raise ValueError(f"annotation {value} is not of kind {kind}")
            if value.is_zero:
                raise ValueError(f"zero annotation stored for row {row}")
        self.variables = vars_
        self.kind = kind
        order = row_order([row.items() for row, _ in items])
        self._rows = dict(map(items.__getitem__, order))

    def rows(self):
        return iter(self._rows.items())

    def __len__(self):
        return len(self._rows)

    def marginalise(self, variables):
        target = frozenset(str(v) for v in variables)
        extra = target - self.variables
        if extra:
            raise DomainError(f"cannot marginalise onto unknown variables {sorted(extra)}")
        sums = totals(self, groups(self, target))
        return RowRelation(
            target, self.kind, {Assignment._sorted(k): MonoidValue(self.kind, t) for k, t in sums.items()}
        )

    def satisfies(self, fd):
        needed = frozenset(fd.lhs) | frozenset(fd.rhs)
        extra = needed - self.variables
        if extra:
            raise DomainError(f"dependency mentions unknown variables {sorted(extra)}")
        right = projection(self.variables, fd.rhs)
        return all(len({right(row.items()) for row in g}) == 1 for g in groups(self, fd.lhs).values())


def groups(relation, target):
    project = projection(relation.variables, target)
    out = defaultdict(list)
    for row in relation._rows:
        out[project(row.items())].append(row)
    return out


def totals(relation, grouped):
    fold = partial(reduce, or_ if relation.kind is MonoidKind.B else add)
    rows = relation._rows
    return {short: fold([rows[row].payload for row in group]) for short, group in grouped.items()}


def find_violation(relations) -> Optional[ConsistencyViolation]:
    rels = sorted(relations, key=lambda r: tuple(sorted(r.variables)))
    for i, r in enumerate(rels):
        for s in rels[i + 1 :]:
            shared = r.variables & s.variables
            sums_r, sums_s = totals(r, groups(r, shared)), totals(s, groups(s, shared))
            if r.kind is s.kind and sums_r == sums_s:
                continue
            shorts = list(sums_r.keys() | sums_s.keys())
            for j in row_order(shorts):
                short = shorts[j]
                a, b = sums_r.get(short), sums_s.get(short)
                if r.kind is not s.kind or a != b:
                    va = MonoidValue.zero(r.kind) if a is None else MonoidValue(r.kind, a)
                    vb = MonoidValue.zero(s.kind) if b is None else MonoidValue(s.kind, b)
                    return ConsistencyViolation(r.variables, s.variables, Assignment._sorted(short), va, vb)
    return None


def parse_relations(text: str) -> List[RowRelation]:
    lines = significant_lines(text)
    if not lines:
        raise FormatError(1, "empty document; expected a monoid line")
    number, first = lines[0]
    parts = first.split()
    if parts[0] != "monoid" or len(parts) != 2:
        raise FormatError(number, "expected 'monoid B|N|Q' on the first line")
    try:
        kind = MonoidKind(parts[1])
    except ValueError:
        raise FormatError(number, f"unknown monoid {parts[1]!r}") from None
    blocks: List[Tuple[int, Tuple[str, ...]]] = []
    rows: List[Dict[Tuple[str, ...], MonoidValue]] = []
    one = MonoidValue.one(kind)
    for number, line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "monoid":
            raise FormatError(number, "duplicate monoid line")
        if tokens[0] == "context":
            variables = tuple(tokens[1:])
            if not variables:
                raise FormatError(number, "context needs at least one variable")
            if len(set(variables)) != len(variables):
                raise FormatError(number, "context repeats a variable")
            if any(frozenset(variables) == frozenset(b) for _, b in blocks):
                raise FormatError(number, "duplicate context")
            blocks.append((number, variables))
            order = sorted(range(len(variables)), key=variables.__getitem__)
            pick = tuple if order == list(range(len(order))) else itemgetter(*order)
            block = {}
            rows.append(block)
            continue
        if not blocks:
            raise FormatError(number, "row appears before any context line")
        if ":" in tokens:
            cut = tokens.index(":")
            values, weight_tokens = tokens[:cut], tokens[cut + 1 :]
            if len(weight_tokens) != 1:
                raise FormatError(number, "expected a single annotation after ':'")
            try:
                weight = parse_value(kind, weight_tokens[0])
            except ValueError as exc:
                raise FormatError(number, str(exc)) from None
        else:
            values = tokens
            weight = one
        if len(values) != len(order):
            raise FormatError(number, f"row has {len(values)} values for context of arity {len(order)}")
        if weight.is_zero:
            raise FormatError(number, "zero annotation: omit the row instead")
        key = pick(values)
        if key in block:
            names = sorted(blocks[-1][1])
            raise FormatError(number, f"duplicate row {Assignment._sorted(tuple(zip(names, key)))}")
        block[key] = weight
    if not blocks:
        raise FormatError(lines[-1][0], "document declares no context")
    relations = []
    for (start, variables), block_rows in zip(blocks, rows):
        if not _RESERVED_VALUES.isdisjoint(chain.from_iterable(block_rows)):
            number, word = next((n, w) for n, line in lines if n > start
                                for w in line.split() if w in _RESERVED_VALUES)
            raise FormatError(number, f"row value {word!r} is a reserved word")
        names = sorted(variables)
        relations.append(
            RowRelation(
                variables,
                kind,
                {Assignment._sorted(tuple(zip(names, key))): block_rows[key] for key in sorted(block_rows)},
            )
        )
    return relations


def support_join(family: ContextualFamily) -> Tuple[List[Assignment], List[List[int]]]:
    """The support join of a family and its cell table, from the family's
    rows as Assignments, merged as dicts."""
    rows: List[Tuple[Dict[str, object], List[int]]] = [({}, [])]
    first = 0
    for rel in family.maximal_relations():
        supp = [row.items() for row, _ in rel.rows()]
        extended = []
        for partial_row, cells in rows:
            for n, s in enumerate(supp):
                merged = dict(partial_row)
                ok = True
                for var, val in s:
                    if var in merged and merged[var] != val:
                        ok = False
                        break
                    merged[var] = val
                if ok:
                    extended.append((merged, cells + [first + n]))
        rows = extended
        first += len(supp)
    joined = [Assignment(m) for m, _ in rows]
    order = row_order([t.items() for t in joined])
    return [joined[i] for i in order], [rows[i][1] for i in order]
