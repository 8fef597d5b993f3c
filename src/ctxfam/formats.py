"""Textual formats for families and dependency lists.

Family documents::

    # comments run to end of line
    monoid N
    context Student Teacher
    Alice Charlie : 1
    Bob David : 1
    context Teacher Course
    ...

The ``monoid`` line comes first (B, N, or Q).  Each ``context`` line
names the variables of one maximal context; the rows that follow list
one value per variable, in the order the context declared them, with an
optional `` : weight`` suffix (weights default to 1 and parse in the
declared kind; Q accepts ``p/q``).  Tokens are whitespace-separated and
may not contain ``:`` or ``#``.  No row value may be ``context`` or
``monoid``: written back in sorted variable order, it could open a line.

Dependency documents hold one dependency per line: ``x -> y`` (several
variables allowed on each side) or ``cd x y ...`` for constraint
dependencies.  ``->`` names no variable on a ``cd`` line, and ``cd`` may
not be the least variable left of ``->``: either would be written back
as another dependency.

Parsing reports errors with line numbers; serialisation is canonical
(sorted contexts, sorted rows) and round-trips.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Dict, List, Tuple

from .family import ContextualFamily
from .fdlogic import FD
from .monoid import MonoidKind, MonoidValue, format_value, parse_value
from .relation import Assignment, KRelation


_RESERVED_VALUES = frozenset(("context", "monoid"))


class FormatError(ValueError):
    """A parse failure with its 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _significant_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def parse_relations(text: str) -> List[KRelation]:
    """The context relations of a family document, unvalidated as a
    family: consistency checking is the caller's decision."""
    lines = _significant_lines(text)
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

    # Each context's rows are kept as value tuples in sorted variable order
    # (``order`` picks them from a line), which is the order of an
    # Assignment's pairs; the duplicate test runs on those tuples.
    blocks: List[Tuple[int, Tuple[str, ...]]] = []
    rows: List[Dict[Tuple[str, ...], MonoidValue]] = []
    one = MonoidValue.one(kind)
    weights: Dict[str, MonoidValue] = {}  # parsed annotations by token
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
            weight = weights.get(weight_tokens[0])
            if weight is None:
                try:
                    weight = parse_value(kind, weight_tokens[0])
                except ValueError as exc:
                    raise FormatError(number, str(exc)) from None
                weights[weight_tokens[0]] = weight
        else:
            values = tokens
            weight = one
        if len(values) != len(order):
            raise FormatError(
                number,
                f"row has {len(values)} values for context of arity {len(order)}",
            )
        if weight.is_zero:
            raise FormatError(number, "zero annotation: omit the row instead")
        key = pick(values)
        if key in block:
            names = sorted(blocks[-1][1])
            raise FormatError(number, f"duplicate row {Assignment._sorted(tuple(zip(names, key)))}")
        block[key] = weight

    if not blocks:
        raise FormatError(lines[-1][0], "document declares no context")
    # Sorted value tuples are the constructor's row order for str tokens,
    # so its own sort is one linear pass.
    relations = []
    for (start, variables), block_rows in zip(blocks, rows):
        if not _RESERVED_VALUES.isdisjoint(chain.from_iterable(block_rows)):
            number, word = next((n, w) for n, line in lines if n > start
                                for w in line.split() if w in _RESERVED_VALUES)
            raise FormatError(number, f"row value {word!r} is a reserved word")
        names = sorted(variables)
        relations.append(
            KRelation(
                variables,
                kind,
                {
                    Assignment._sorted(tuple(zip(names, key))): block_rows[key]
                    for key in sorted(block_rows)
                },
            )
        )
    return relations


def parse_family(text: str) -> ContextualFamily:
    """Parse and validate a family document.  Raises :class:`FormatError`
    for syntax problems and :class:`~ctxfam.family.LocalConsistencyError`
    when the relations parse but disagree on a shared marginal."""
    return ContextualFamily(parse_relations(text))


def serialize_relation_rows(relation: KRelation, with_weights: bool) -> List[str]:
    lines = [f"context {' '.join(sorted(relation.variables))}"]
    for row, value in relation.rows():
        cells = " ".join(str(cell) for _, cell in row.items())
        if with_weights:
            lines.append(f"{cells} : {format_value(value)}")
        else:
            lines.append(cells)
    return lines


def serialize_family(family: ContextualFamily) -> str:
    """Canonical text for a family: contexts and rows in sorted order,
    with explicit weights except in B."""
    with_weights = family.kind is not MonoidKind.B
    lines = [f"monoid {family.kind}"]
    for relation in family.maximal_relations():
        lines.extend(serialize_relation_rows(relation, with_weights))
    return "\n".join(lines) + "\n"


def serialize_relation(relation: KRelation) -> str:
    """A single relation, framed as a one-context family document."""
    with_weights = relation.kind is not MonoidKind.B
    lines = [f"monoid {relation.kind}"]
    lines.extend(serialize_relation_rows(relation, with_weights))
    return "\n".join(lines) + "\n"


def serialize_decomposition(parts) -> str:
    """Cycle decomposition as numbered support blocks.

    Each ``(weight, support family)`` pair becomes a ``cycle i weight w``
    header followed by the rows of the cycle, context by context.
    """
    lines: List[str] = []
    for index, (weight, support) in enumerate(parts, start=1):
        lines.append(f"cycle {index} weight {format_value(weight)}")
        for relation in support.maximal_relations():
            lines.extend(serialize_relation_rows(relation, False))
    return "\n".join(lines) + "\n" if lines else ""


def parse_fd(text: str, line: int = 1) -> FD:
    """One dependency: ``x [y ...] -> z [w ...]`` or ``cd x y [z ...]``."""
    tokens = text.split()
    if not tokens:
        raise FormatError(line, "empty dependency")
    if tokens[0] == "cd":
        if len(tokens) < 2:
            raise FormatError(line, "cd needs at least one variable")
        if "->" in tokens:
            raise FormatError(line, "'->' is reserved and names no variable on a cd line")
        return FD.cd(tokens[1:])
    if tokens.count("->") != 1:
        raise FormatError(line, "expected exactly one '->'")
    cut = tokens.index("->")
    lhs, rhs = tokens[:cut], tokens[cut + 1 :]
    if not lhs or not rhs:
        raise FormatError(line, "a dependency needs variables on both sides")
    if min(lhs) == "cd":
        raise FormatError(line, "'cd' is reserved and may not lead the sorted left side of '->'")
    return FD(frozenset(lhs), frozenset(rhs))


def parse_fds(text: str) -> List[FD]:
    """All dependencies in a document, one per line."""
    out = []
    for number, line in _significant_lines(text):
        out.append(parse_fd(line, number))
    if not out:
        raise FormatError(1, "empty document; expected dependencies")
    return out
