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

Both parsers read their text through one line reader, :func:`_lines`,
which cuts comments and strips each line, keeping blank and comment
lines so that line n of the text is item n - 1.  The family parser then
reads a context block at a time.  A block whose rows all have one width
is read as columns (:func:`_read_block`): its rows are split as one
text, each value, ``:`` and weight column is a slice of those tokens,
and whole columns are tested at once, so no Python object is built per
row beyond the row's key.  Any other block, and any block that fails a
column test, is read line by line (:func:`_read_lines`) into the same
store, or to the error of its first malformed row.  Parsing reports
errors with line numbers of the whole text; serialisation is canonical
(sorted contexts, sorted rows) and round-trips, refusing any name or
value it could not read back (:func:`_refuse_unreadable`).
"""

from __future__ import annotations

import re
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import Collection, Dict, Iterator, List, Optional, Tuple

from .family import ContextualFamily
from .fdlogic import FD
from .monoid import MonoidKind, MonoidValue, parse_value
from .relation import Assignment, Key, KRelation, Payload


_RESERVED_VALUES = frozenset(("context", "monoid"))
_UNWRITABLE_VALUES = _RESERVED_VALUES | {":"}
_SPLITS_A_TOKEN = re.compile(r"[\s#]")  # the line reader's separators and comment mark


class FormatError(ValueError):
    """A parse failure with its 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _lines(text: str) -> List[str]:
    """Every line of ``text``, its comment cut and its ends stripped of
    whitespace; line n is item n - 1, so blank and comment lines stay and
    keep the numbering.  Built from ``splitlines`` and ``map``: no Python
    call per line."""
    lines = text.splitlines()
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    return list(map(str.strip, lines))


def parse_relations(text: str) -> List[KRelation]:
    """The context relations of a family document, unvalidated as a
    family: consistency checking is the caller's decision."""
    lines = _lines(text)
    start = next(compress(count(), lines), None)
    if start is None:
        raise FormatError(1, "empty document; expected a monoid line")
    parts = lines[start].split()
    if parts[0] != "monoid" or len(parts) != 2:
        raise FormatError(start + 1, "expected 'monoid B|N|Q' on the first line")
    try:
        kind = MonoidKind(parts[1])
    except ValueError:
        raise FormatError(start + 1, f"unknown monoid {parts[1]!r}") from None

    heads = [i for i in compress(count(), map(str.startswith, lines, repeat("context")))
             if lines[i].split(None, 1)[0] == "context"]
    one = MonoidValue.one(kind).payload
    weights: Dict[str, Payload] = {}  # the nonzero payload of each weight token read
    _read_lines(kind, (), lines, start + 1, heads[0] if heads else len(lines), one, weights)
    if not heads:
        raise FormatError(start + 1, "document declares no context")  # the last line with tokens
    blocks: List[Tuple[Tuple[str, ...], int, int]] = []  # variables, first and end row line index
    stores: List[Dict[Key, Payload]] = []
    for head, end in zip(heads, heads[1:] + [len(lines)]):
        variables = tuple(lines[head].split()[1:])
        if not variables:
            raise FormatError(head + 1, "context needs at least one variable")
        if len(set(variables)) != len(variables):
            raise FormatError(head + 1, "context repeats a variable")
        if any(frozenset(variables) == frozenset(b) for b, _, _ in blocks):
            raise FormatError(head + 1, "duplicate context")
        store = _read_block(kind, variables, list(filter(None, lines[head + 1 : end])), one, weights)
        if store is None:
            store = _read_lines(kind, variables, lines, head + 1, end, one, weights)
        blocks.append((variables, head + 1, end))
        stores.append(store)

    # Each context line holds "context" and the first line "monoid": a row
    # can hold a reserved word only where the text holds one more.
    reserved = text.count("context") > len(heads) or text.count("monoid") > 1
    for (_, begin, end), store in zip(blocks, stores):
        if reserved and not _RESERVED_VALUES.isdisjoint(chain.from_iterable(store)):
            number, word = next((i + 1, w) for i in range(begin, end)
                                for w in lines[i].split() if w in _RESERVED_VALUES)
            raise FormatError(number, f"row value {word!r} is a reserved word")
    return [KRelation(variables, kind, store) for (variables, _, _), store in zip(blocks, stores)]


def _read_block(kind: MonoidKind, variables: Tuple[str, ...], rows: List[str],
                one: Payload, weights: Dict[str, Payload]) -> Optional[Dict[Key, Payload]]:
    """The store of one context block read as columns: its rows' value
    tuples in sorted variable order mapped to their payloads (``one``
    where a row has no weight).  ``rows`` are the block's lines that hold
    tokens.  Returns None, for :func:`_read_lines` to read, unless every
    row has one width, none is led by ``monoid`` and none is malformed.

    The rows are split as one text, each followed by a ``#`` token, which
    no line holds once its comment is cut: when every ``#`` falls one
    width apart, every row has that width, and each value, ``:`` and
    weight is a column, a slice of the tokens.  Every test reads whole
    columns: the width, the first values, the count and place of ``:``,
    each weight token not yet in ``weights`` parsed once and kept there
    when nonzero, and duplicate rows by the size of the store.  Reserved
    words are the caller's test."""
    if not rows:
        return {}
    flat = " # ".join(rows).split()
    stride, rest = divmod(len(flat) + 1, len(rows))
    if rest or not flat[stride - 1 :: stride].count("#") == len(rows) - 1 == flat.count("#") \
            or "monoid" in flat[::stride]:
        return None
    arity = len(variables)
    if stride == arity + 1:
        if ":" in flat:
            return None
        payloads: Iterator[Payload] = repeat(one)
    elif stride == arity + 3:
        if flat[arity::stride].count(":") != len(rows) or flat.count(":") != len(rows):
            return None
        tokens = flat[arity + 1 :: stride]
        for token in set(tokens).difference(weights):
            try:
                payload = parse_value(kind, token).payload
            except ValueError:
                return None
            if not payload:
                return None
            weights[token] = payload
        payloads = map(weights.__getitem__, tokens)
    else:
        return None
    order = sorted(range(arity), key=variables.__getitem__)
    store = dict(zip(zip(*[flat[i::stride] for i in order]), payloads))
    return store if len(store) == len(rows) else None


def _read_lines(kind: MonoidKind, variables: Tuple[str, ...], lines: List[str], begin: int, end: int,
                one: Payload, weights: Dict[str, Payload]) -> Dict[Key, Payload]:
    """The store of the rows among ``lines[begin:end]``, a block of
    ``variables``, read line by line and keyed as by :func:`_read_block`;
    or the positioned error of the first malformed row.  With no
    variables, every row is out of place: the lines before the first
    context.  Weights go through ``weights`` as in the column reader, and
    a row becomes an :class:`Assignment` only to name a duplicate."""
    order = sorted(range(len(variables)), key=variables.__getitem__)
    store: Dict[Key, Payload] = {}
    for number, line in enumerate(lines[begin:end], begin + 1):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "monoid":
            raise FormatError(number, "duplicate monoid line")
        if not variables:
            raise FormatError(number, "row appears before any context line")
        values, weight = tokens, one
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
                if weight:
                    weights[weight_tokens[0]] = weight
        if len(values) != len(variables):
            raise FormatError(
                number,
                f"row has {len(values)} values for context of arity {len(variables)}",
            )
        if not weight:
            raise FormatError(number, "zero annotation: omit the row instead")
        key = tuple(map(values.__getitem__, order))
        if key in store:
            raise FormatError(number, f"duplicate row {Assignment(zip(variables, values))}")
        store[key] = weight
    return store


def parse_family(text: str) -> ContextualFamily:
    """Parse and validate a family document.  Raises :class:`FormatError`
    for syntax problems and :class:`~ctxfam.family.LocalConsistencyError`
    when the relations parse but disagree on a shared marginal."""
    return ContextualFamily(parse_relations(text))


def _unreadable(texts: Collection[str]) -> bool:
    """Whether some text would not read back as itself, one token: it is
    empty or holds whitespace or ``#``.  One search over them all."""
    return "" in texts or _SPLITS_A_TOKEN.search("".join(texts)) is not None


def _refuse_unreadable(relations: List[KRelation]) -> None:
    """Raise :class:`ValueError` for text of a document's relations that
    the parser would not read back: a variable or value that is empty or
    holds whitespace or ``#``, and a value that is ``:`` or a reserved
    word.  Each distinct value is tested once per document; only a refusal
    looks for the relation and row that hold it."""
    names = set(chain.from_iterable(r.names for r in relations))
    values = set(chain.from_iterable(chain.from_iterable(r._rows for r in relations)))
    if not (_unreadable(names) or _unreadable(values)) and _UNWRITABLE_VALUES.isdisjoint(values):
        return
    for relation in relations:
        for var in relation.names:
            if _unreadable((var,)):
                raise ValueError(f"variable {var!r} cannot be written in a family document")
        for key in relation._rows:
            for value in key:
                if _unreadable((value,)) or value in _UNWRITABLE_VALUES:
                    row = Assignment._sorted(tuple(zip(relation.names, key)))
                    raise ValueError(f"row {row} holds value {value!r}, which cannot be written in a family document")


def serialize_relation_rows(relation: KRelation, with_weights: bool) -> List[str]:
    """The ``context`` line and row lines of one relation, whose text the
    document writers have checked with :func:`_refuse_unreadable`."""
    lines = [f"context {' '.join(relation.names)}"]
    for key, payload in relation._rows.items():
        cells = " ".join(key)
        lines.append(f"{cells} : {payload}" if with_weights else cells)
    return lines


def serialize_family(family: ContextualFamily) -> str:
    """Canonical text for a family: contexts and rows in sorted order,
    with explicit weights except in B."""
    relations = list(family.maximal_relations())
    _refuse_unreadable(relations)
    with_weights = family.kind is not MonoidKind.B
    lines = [f"monoid {family.kind}"]
    for relation in relations:
        lines.extend(serialize_relation_rows(relation, with_weights))
    return "\n".join(lines) + "\n"


def serialize_relation(relation: KRelation) -> str:
    """A single relation, framed as a one-context family document."""
    _refuse_unreadable([relation])
    lines = [f"monoid {relation.kind}"] + serialize_relation_rows(relation, relation.kind is not MonoidKind.B)
    return "\n".join(lines) + "\n"


def serialize_decomposition(parts) -> str:
    """Cycle decomposition as numbered support blocks.

    Each ``(weight, support family)`` pair becomes a ``cycle i weight w``
    header followed by the rows of the cycle, context by context.
    """
    parts = [(weight, list(support.maximal_relations())) for weight, support in parts]
    _refuse_unreadable([relation for _, relations in parts for relation in relations])
    lines: List[str] = []
    for index, (weight, relations) in enumerate(parts, start=1):
        lines.append(f"cycle {index} weight {weight}")
        for relation in relations:
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
        variables = frozenset(tokens[1:])
        return FD(variables, variables)
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
    lines = _lines(text)
    out = list(map(_dependency, map(str.split, filter(None, lines)), compress(count(1), lines)))
    if not out:
        raise FormatError(1, "empty document; expected dependencies")
    return out
