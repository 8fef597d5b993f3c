"""Independent witness checker.

Reads ctxfam's family and dependency documents with its own parser and
checks witnesses by its own marginalisation over plain dicts with
``Fraction`` weights.  It never imports ctxfam, so a bug in ctxfam's
parser, relations or consistency check cannot hide a wrong witness.

A family is ``(kind, contexts)`` where ``contexts`` maps a sorted tuple
of variables to ``{row: weight}``, and a row is a tuple of
``(variable, value)`` pairs sorted by variable.  B weights are 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

Row = Tuple[Tuple[str, str], ...]
Relation = Dict[Row, Fraction]
Contexts = Dict[Tuple[str, ...], Relation]
Dependency = Tuple[FrozenSet[str], FrozenSet[str]]


class CheckError(Exception):
    """A verdict or witness that fails an independent check."""


def _lines(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _weight(kind: str, token: str) -> Fraction:
    value = Fraction(token)
    if value <= 0:
        raise CheckError(f"non-positive weight {token}")
    if kind == "B" and value != 1:
        raise CheckError(f"B weight {token} is not 1")
    if kind == "N" and value.denominator != 1:
        raise CheckError(f"N weight {token} is not a natural number")
    return value


def _add_row(rel: Relation, variables: Sequence[str], tokens: List[str],
             kind: str, weighted: bool) -> None:
    weight = Fraction(1)
    if ":" in tokens:
        cut = tokens.index(":")
        if not weighted or cut != len(tokens) - 2:
            raise CheckError(f"malformed row {' '.join(tokens)}")
        weight = _weight(kind, tokens[-1])
        tokens = tokens[:cut]
    elif weighted and kind != "B":
        raise CheckError(f"row without weight: {' '.join(tokens)}")
    if len(tokens) != len(variables):
        raise CheckError(f"row {' '.join(tokens)} has the wrong arity")
    row = tuple(sorted(zip(variables, tokens)))
    if row in rel:
        raise CheckError(f"duplicate row {' '.join(tokens)}")
    rel[row] = weight


def parse_family(text: str) -> Tuple[str, Contexts]:
    """A family document: ``monoid K``, then ``context`` blocks of rows."""
    lines = _lines(text)
    if not lines or not lines[0].startswith("monoid "):
        raise CheckError("family document does not start with a monoid line")
    kind = lines[0].split()[1]
    if kind not in ("B", "N", "Q"):
        raise CheckError(f"unknown monoid {kind}")
    contexts: Contexts = {}
    variables: List[str] = []
    rel: Relation = {}
    for line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "context":
            variables = tokens[1:]
            key = tuple(sorted(variables))
            if not variables or key in contexts:
                raise CheckError(f"bad or repeated context {line}")
            rel = contexts[key] = {}
            continue
        if not variables:
            raise CheckError("row before any context")
        _add_row(rel, variables, tokens, kind, True)
    if not contexts:
        raise CheckError("family document declares no context")
    return kind, contexts


def parse_decomposition(text: str) -> List[Tuple[Fraction, Contexts]]:
    """``cycle i weight w`` blocks of unweighted context rows."""
    parts: List[Tuple[Fraction, Contexts]] = []
    variables: List[str] = []
    rel: Relation = {}
    for line in _lines(text):
        tokens = line.split()
        if tokens[0] == "cycle":
            if len(tokens) != 4 or tokens[2] != "weight":
                raise CheckError(f"bad cycle header {line}")
            parts.append((_weight("Q", tokens[3]), {}))
            variables = []
            continue
        if not parts:
            raise CheckError("decomposition row before any cycle header")
        if tokens[0] == "context":
            variables = tokens[1:]
            rel = parts[-1][1].setdefault(tuple(sorted(variables)), {})
            continue
        if not variables:
            raise CheckError("row before any context")
        _add_row(rel, variables, tokens, "B", False)
    return parts


def parse_dependencies(text: str) -> List[Dependency]:
    """``x -> y`` and ``cd x y ...`` lines, as (lhs, rhs) variable sets."""
    out: List[Dependency] = []
    for line in _lines(text):
        out.append(parse_dependency(line))
    return out


def parse_dependency(line: str) -> Dependency:
    tokens = line.split()
    if tokens[0] == "cd":
        return frozenset(tokens[1:]), frozenset(tokens[1:])
    cut = tokens.index("->")
    return frozenset(tokens[:cut]), frozenset(tokens[cut + 1:])


def marginal(rel: Relation, onto: Iterable[str]) -> Relation:
    """Sum the weights of rows that agree on the given variables."""
    keep = frozenset(onto)
    out: Relation = {}
    for row, weight in rel.items():
        short = tuple(pair for pair in row if pair[0] in keep)
        out[short] = out.get(short, Fraction(0)) + weight
    return out


def _same(kind: str, a: Relation, b: Relation) -> bool:
    if kind == "B":
        return a.keys() == b.keys()
    return a == b


def check_locally_consistent(kind: str, contexts: Contexts) -> None:
    keys = sorted(contexts)
    for i, c in enumerate(keys):
        for d in keys[i + 1:]:
            shared = set(c) & set(d)
            if not _same(kind, marginal(contexts[c], shared), marginal(contexts[d], shared)):
                raise CheckError(f"contexts {c} and {d} disagree on {sorted(shared)}")


def support(contexts: Contexts) -> Dict[Tuple[str, ...], frozenset]:
    return {c: frozenset(rel) for c, rel in contexts.items()}


def check_realisation(text: str, given: Contexts, kind: str) -> None:
    """A weighted family in ``kind``, locally consistent, with exactly
    the given support and positive weights."""
    got_kind, witness = parse_family(text)
    if got_kind != kind:
        raise CheckError(f"witness is in {got_kind}, expected {kind}")
    if support(witness) != support(given):
        raise CheckError("witness support differs from the input support")
    check_locally_consistent(kind, witness)


def check_global_witness(text: str, kind: str, given: Contexts) -> None:
    """One relation over all variables marginalising to every context."""
    got_kind, witness = parse_family(text)
    if got_kind != kind or len(witness) != 1:
        raise CheckError("global witness is not a single relation of the input kind")
    ((variables, rel),) = witness.items()
    needed = set()
    for c in given:
        needed |= set(c)
    if set(variables) != needed:
        raise CheckError("global witness does not range over every variable")
    for c, want in given.items():
        if not _same(kind, marginal(rel, c), want):
            raise CheckError(f"global witness does not marginalise to context {c}")


def check_decomposition(parts: List[Tuple[Fraction, Contexts]], given: Contexts) -> None:
    """The weighted cycle parts add up to the input exactly."""
    total: Contexts = {c: {} for c in given}
    for weight, cycle in parts:
        for c, rel in cycle.items():
            if c not in total:
                raise CheckError(f"cycle uses unknown context {c}")
            for row in rel:
                total[c][row] = total[c].get(row, Fraction(0)) + weight
    if total != given:
        raise CheckError("cycle parts do not rebuild the input family")


def satisfies(contexts: Contexts, fd: Dependency) -> bool:
    """Whether some context covers the dependency and its support is
    functional from the left side to the right side there."""
    lhs, rhs = fd
    needed = lhs | rhs
    cover = next((c for c in sorted(contexts) if needed <= set(c)), None)
    if cover is None:
        return False
    seen: Dict[Row, Row] = {}
    for row in marginal(contexts[cover], needed):
        left = tuple(p for p in row if p[0] in lhs)
        right = tuple(p for p in row if p[0] in rhs)
        if seen.setdefault(left, right) != right:
            return False
    return True


def check_model(text: str, premises: List[Dependency], kind: str) -> Contexts:
    """A locally consistent family in ``kind`` satisfying every premise."""
    got_kind, family = parse_family(text)
    if got_kind != kind:
        raise CheckError(f"family is in {got_kind}, expected {kind}")
    check_locally_consistent(kind, family)
    for fd in premises:
        if not satisfies(family, fd):
            raise CheckError(f"family violates premise {sorted(fd[0])} -> {sorted(fd[1])}")
    return family


def check_counterexample(text: str, premises: List[Dependency], goal: Dependency,
                         kind: str) -> None:
    family = check_model(text, premises, kind)
    lhs, rhs = goal
    if not any(lhs | rhs <= set(c) for c in family):
        raise CheckError("counterexample has no context for the goal")
    if satisfies(family, goal):
        raise CheckError("counterexample satisfies the goal")
