"""Shared fixtures: the teaching family and builders used across tests."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

import pytest

from ctxfam.family import ContextualFamily
from ctxfam.fdlogic import FD
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.relation import Assignment, KRelation


def row(variables: Sequence[str], values: Sequence) -> Assignment:
    return Assignment(dict(zip(variables, values)))


def brel(variables: Sequence[str], rows: Iterable[Sequence]) -> KRelation:
    """Boolean relation from value tuples in the given variable order."""
    return KRelation.boolean(
        frozenset(variables), [row(variables, r) for r in rows]
    )


def wrel(kind: MonoidKind, variables: Sequence[str], weighted_rows) -> KRelation:
    """Weighted relation from (value tuple, weight) pairs."""
    return KRelation.from_assignments(
        frozenset(variables),
        kind,
        {
            row(variables, values): MonoidValue.of(kind, weight)
            for values, weight in weighted_rows
        },
    )


ST = ("Student", "Teacher")
TC = ("Teacher", "Course")
CS = ("Course", "Student")

ST_ROWS = [("Alice", "Charlie"), ("Bob", "David")]
TC_ROWS = [("Charlie", "Math"), ("David", "CS")]
CS_ROWS = [("Math", "Alice"), ("CS", "Alice"), ("CS", "Bob")]
CS_EXT_ROWS = CS_ROWS + [("Math", "Bob")]


@pytest.fixture
def teaching_family() -> ContextualFamily:
    """Three binary contexts over Student/Teacher/Course; locally but not
    globally consistent, and its support graph has one uncovered edge."""
    return ContextualFamily(
        [brel(ST, ST_ROWS), brel(TC, TC_ROWS), brel(CS, CS_ROWS)]
    )


@pytest.fixture
def extended_family() -> ContextualFamily:
    """The teaching family with the extra row (Math, Bob): realisable."""
    return ContextualFamily(
        [brel(ST, ST_ROWS), brel(TC, TC_ROWS), brel(CS, CS_EXT_ROWS)]
    )


@pytest.fixture
def five_context_family() -> ContextualFamily:
    """Five binary contexts whose triangle restrictions are each
    realisable while the whole family is not."""
    return ContextualFamily(
        [
            brel(("a", "b"), [("0", "0"), ("1", "1")]),
            brel(("b", "c"), [("0", "0"), ("0", "1"), ("1", "1")]),
            brel(("c", "a"), [("0", "1"), ("1", "0")]),
            brel(("a", "d"), [("0", "0"), ("1", "1")]),
            brel(("d", "c"), [("0", "0"), ("1", "1")]),
        ]
    )


def chain_premises(n: int):
    """The length-n chain-rule premise set of acceptance criterion 09 and
    its conclusion."""
    u, cd = FD.unary, FD.cd
    xs = [f"x{i}" for i in range(1, n + 1)]
    cs = [f"c{i}" for i in range(1, n)]
    sigma = [u(xs[i], xs[i + 1]) for i in range(n - 1)]
    sigma += [u(c, xs[-1]) for c in cs]
    sigma.append(cd([xs[0], cs[0], xs[-1]]))
    for i in range(n - 2):
        sigma.append(cd([xs[i], cs[i], xs[i + 1]]))
        sigma.append(cd([cs[i], xs[i + 1], cs[i + 1]]))
    sigma.append(cd([xs[n - 2], cs[n - 2], xs[-1]]))
    for i in range(n - 2):
        sigma.append(cd([cs[i], cs[i + 1], xs[-1]]))
    return sigma, u(xs[0], xs[-1])


def cycle_contexts(length: int) -> List[frozenset]:
    """Binary contexts x0x1, x1x2, ..., wrapping around: a chordless cycle."""
    vs = [f"x{i}" for i in range(length)]
    return [frozenset({vs[i], vs[(i + 1) % length]}) for i in range(length)]


def chain_brute_force(
    sigma: Sequence[FD], x: str, y: str, max_length: int = 5
) -> bool:
    """Direct enumeration of chain instantiations up to the given length.

    Tries every tuple of intermediate variables and certificate
    variables, checking the stated dependencies and the availability of
    every required three-variable set, with no graph shortcuts.
    """
    import itertools

    edges, contexts, variables = set(), [], set()
    for fd in sigma:
        if fd.is_unary:
            (u,) = fd.lhs
            (v,) = fd.rhs
            edges.add((u, v))
        contexts.append(fd.variables)
        variables |= fd.variables
    if x not in variables or y not in variables:
        return False
    vs = sorted(variables)

    def available(group) -> bool:
        needed = frozenset(group)
        return any(needed <= c for c in contexts)

    for n in range(2, max_length + 1):
        for mids in itertools.product(vs, repeat=n - 2):
            xs = [x, *mids, y]
            if any((xs[i], xs[i + 1]) not in edges for i in range(n - 1)):
                continue
            for cs in itertools.product(vs, repeat=n - 1):
                if any((c, y) not in edges for c in cs):
                    continue
                if not available({x, cs[0], y}):
                    continue
                if not available({xs[n - 2], cs[n - 2], y}):
                    continue
                if all(
                    available({xs[i], cs[i], xs[i + 1]})
                    and available({cs[i], xs[i + 1], cs[i + 1]})
                    and available({cs[i], cs[i + 1], y})
                    for i in range(n - 2)
                ):
                    return True
    return False


def random_weighted_family(
    sigma: Sequence[FD],
    goal_vars: frozenset,
    kind: MonoidKind,
    rng: random.Random,
    domain: Sequence[str] = ("0", "1"),
    rows: int = 4,
) -> Optional[ContextualFamily]:
    """A weighted family satisfying every premise, built by projecting a
    random global relation whose rows are kept only when they conflict
    with no earlier row on a premise."""
    variables = sorted(set().union(*[f.variables for f in sigma], goal_vars))
    candidate_sets = {f.variables for f in sigma} | {frozenset(goal_vars)}
    contexts = {
        c for c in candidate_sets if not any(c < d for d in candidate_sets)
    }
    unary = [f for f in sigma if f.is_unary and not f.is_cd]
    kept: List[dict] = []
    for _ in range(rows):
        candidate = {v: rng.choice(domain) for v in variables}
        ok = True
        for f in unary:
            (x,) = f.lhs
            (y,) = f.rhs
            if any(
                other[x] == candidate[x] and other[y] != candidate[y]
                for other in kept
            ):
                ok = False
                break
        if ok:
            kept.append(candidate)
    if not kept:
        return None
    pool = (
        [1, 1, 2, 3]
        if kind is MonoidKind.N
        else [Fraction(1, 2), 1, Fraction(3, 2), 2]
    )
    global_relation = KRelation.from_assignments(
        frozenset(variables),
        kind,
        {
            Assignment(r): MonoidValue.of(kind, rng.choice(pool))
            for r in kept
        },
    )
    return ContextualFamily(
        [global_relation.marginalise(c) for c in sorted(contexts, key=sorted)]
    )
