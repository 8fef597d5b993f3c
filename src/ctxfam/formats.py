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
may not contain ``#``.  A ``:`` token on its own starts the weight, so a
value may contain ``:`` but may not be ``:`` itself.  No row value may be
``context`` or ``monoid``: written back in sorted variable order, it
could open a line.

Dependency documents hold one dependency per line: ``x -> y`` (several
variables allowed on each side) or ``cd x y ...`` for constraint
dependencies.  ``->`` names no variable on a ``cd`` line, and ``cd`` may
not be the least variable left of ``->``: either would be written back
as another dependency.  A single dependency (a query) may not contain
``#``: a family written for it would cut its variable at the ``#``.

Both parsers read their text through one line reader,
:func:`_token_lines`, which cuts comments, skips lines left without
tokens and numbers the rest as lines of the whole text, blank and
comment lines included.  Parsing reports errors with those line numbers;
serialisation is canonical (sorted contexts, sorted rows) and
round-trips.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Dict, Iterator, List, Tuple

from .family import ContextualFamily
from .fdlogic import FD
from .monoid import MonoidKind, MonoidValue, format_value, parse_value
from .relation import Assignment, KRelation, Payload


_RESERVED_VALUES = frozenset(("context", "monoid"))


class FormatError(ValueError):
    """A parse failure with its 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _token_lines(text: str) -> Iterator[Tuple[int, List[str]]]:
    """``(line number, tokens)`` for each line of ``text`` that has tokens
    once its comment is cut, numbered from 1.  Built from ``splitlines``,
    ``map``, ``enumerate`` and ``filter``: no Python call per line."""
    lines = text.splitlines()
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    return filter(itemgetter(1), enumerate(map(str.split, lines), 1))


def parse_relations(text: str) -> List[KRelation]:
    """The context relations of a family document, unvalidated as a
    family: consistency checking is the caller's decision."""
    lines = _token_lines(text)
    first = next(lines, None)
    if first is None:
        raise FormatError(1, "empty document; expected a monoid line")
    number, parts = first
    if parts[0] != "monoid" or len(parts) != 2:
        raise FormatError(number, "expected 'monoid B|N|Q' on the first line")
    try:
        kind = MonoidKind(parts[1])
    except ValueError:
        raise FormatError(number, f"unknown monoid {parts[1]!r}") from None

    # Each context's rows are kept as KRelation keys, value tuples in sorted
    # variable order (``pick`` takes them from a line).
    blocks: List[Tuple[int, Tuple[str, ...]]] = []
    rows: List[Dict[Tuple[str, ...], Payload]] = []
    one = MonoidValue.one(kind).payload
    weights: Dict[str, Payload] = {}  # parsed payloads by token
    for number, tokens in lines:
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
                    weight = parse_value(kind, weight_tokens[0]).payload
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
        if not weight:
            raise FormatError(number, "zero annotation: omit the row instead")
        key = pick(values)
        if key in block:
            names = sorted(blocks[-1][1])
            raise FormatError(number, f"duplicate row {Assignment._sorted(tuple(zip(names, key)))}")
        block[key] = weight

    if not blocks:
        raise FormatError(number, "document declares no context")  # the last line's number
    for (start, _), block in zip(blocks, rows):
        if not _RESERVED_VALUES.isdisjoint(chain.from_iterable(block)):
            number, word = next((n, w) for n, tokens in _token_lines(text) if n > start
                                for w in tokens if w in _RESERVED_VALUES)
            raise FormatError(number, f"row value {word!r} is a reserved word")
    return [KRelation(variables, kind, block) for (_, variables), block in zip(blocks, rows)]


def parse_family(text: str) -> ContextualFamily:
    """Parse and validate a family document.  Raises :class:`FormatError`
    for syntax problems and :class:`~ctxfam.family.LocalConsistencyError`
    when the relations parse but disagree on a shared marginal."""
    return ContextualFamily(parse_relations(text))


def serialize_relation_rows(relation: KRelation, with_weights: bool) -> List[str]:
    lines = [f"context {' '.join(relation.names)}"]
    for key, payload in relation._rows.items():
        cells = " ".join(map(str, key))
        lines.append(f"{cells} : {payload}" if with_weights else cells)
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
    lines = [f"monoid {relation.kind}"] + serialize_relation_rows(relation, relation.kind is not MonoidKind.B)
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


def _dependency(tokens: List[str], line: int) -> FD:
    """The dependency of one line's tokens; errors carry ``line``."""
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


def parse_fd(text: str, line: int = 1) -> FD:
    """One dependency: ``x [y ...] -> z [w ...]`` or ``cd x y [z ...]``."""
    if "#" in text:
        raise FormatError(line, "'#' starts a comment and may not appear in a dependency")
    return _dependency(text.split(), line)


def parse_fds(text: str) -> List[FD]:
    """All dependencies in a document, one per line."""
    out = [_dependency(tokens, number) for number, tokens in _token_lines(text)]
    if not out:
        raise FormatError(1, "empty document; expected dependencies")
    return out
