"""Shared fixtures: the teaching family and builders used across tests,
and the library helpers that only tests call."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, repeat
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

import pytest

from ctxfam.family import ContextSet, ContextualFamily
from ctxfam.fdlogic import (
    FD,
    RuleSet,
    _atom_table,
    _chain_instance,
    _chain_states,
    _ClosureEngine,
    _intern,
    _reach,
)
from ctxfam.monoid import MonoidKind, MonoidValue
from ctxfam.realisability import NotRealisableError, _reweighted, build_opg, realisable_lp
from ctxfam.relation import Assignment, KRelation


def row(variables: Sequence[str], values: Sequence) -> Assignment:
    return Assignment(dict(zip(variables, values)))


def brel(variables: Sequence[str], rows: Iterable[Sequence]) -> KRelation:
    """Boolean relation from value tuples in the given variable order."""
    return KRelation.from_assignments(
        frozenset(variables),
        MonoidKind.B,
        dict.fromkeys((row(variables, r) for r in rows), MonoidValue.one(MonoidKind.B)),
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


def lp_witness(family: ContextualFamily, kind: MonoidKind) -> Optional[ContextualFamily]:
    """``realisable_lp``'s witness, or None where it refuses; a refusal
    names no uncovered edge."""
    try:
        return realisable_lp(family, kind)
    except NotRealisableError as exc:
        assert exc.uncovered == ()
        return None


# Single-rule checks, the unary closure and the uniform lift: no command
# needs them, so they live here, over the library's private pieces.


def cycle_rule_derives(sigma: Iterable[FD], x: str, y: str) -> bool:
    """One cycle-rule application from the premises as given: a directed
    path x to y among the stated unary dependencies, closed by the stated
    edge y -> x."""
    _, index, _, out_mask, _, _ = _intern(sigma)
    i, j = index.get(x), index.get(y)
    if i is None or j is None or not out_mask[j] >> i & 1:
        return False
    return j in _reach(out_mask, i)


def chain_rule_derives(sigma: Iterable[FD], x: str, y: str) -> bool:
    """One chain-rule application from the premises as given.

    True when some chain x = x1 -> ... -> xn = y exists among the stated
    unary dependencies together with certificates c_i -> y, such that all
    the required three-variable contexts (drawn from the premises'
    variable sets) are available.
    """
    _, index, _, _, in_mask, sets = _intern(sigma)
    i, j = index.get(x), index.get(y)
    if i is None or j is None:
        return False
    atoms = _atom_table(index, sets)
    states = _chain_states(atoms, in_mask, j)
    return _chain_instance(atoms, states, i, j) is not None


def derivation_closure(sigma: Iterable[FD], rules: RuleSet = RuleSet.CR) -> FrozenSet[FD]:
    """All unary dependencies derivable from the premises.

    The contexts are the premises' variable sets; a CD premise declares
    one without constraining anything.  Only CR and FULL are closure
    systems here; CLASSICAL and NRA answer via attribute closure in
    :func:`derives`.
    """
    if rules not in (RuleSet.CR, RuleSet.FULL):
        raise ValueError("closure is defined for the CR and FULL rule sets")
    engine = _ClosureEngine(list(sigma), rules, ())
    return frozenset(FD.unary(engine.variables[a], engine.variables[b]) for a, b in engine.edges)


class NotSimplyCyclicError(ValueError):
    """Raised when a family is not a single simple cycle of assignments."""


def lift_uniform(sub: ContextualFamily, weight: MonoidValue) -> ContextualFamily:
    """Annotate a simply cyclic support uniformly with one nonzero weight.

    The support of ``sub``, a family of any kind, must have an overlap
    projection graph that is a single simple cycle through every
    supported row.  Such a cycle meets every layer the same number of
    times, which is exactly why the uniform annotation is consistent for
    any annotation monoid.
    """
    if weight.is_zero:
        raise ValueError("lift weight must be nonzero")
    graph = build_opg(sub)
    if not graph.vertices:
        raise NotSimplyCyclicError("the empty family is not a cycle")
    into = Counter(graph.dst)
    for i, (v, out) in enumerate(zip(graph.vertices, graph.out)):
        if len(out) != 1 or into[i] != 1:
            raise NotSimplyCyclicError(
                f"vertex {v} has degree other than one in each direction"
            )
    if len(set(graph._component_labels())) != 1:
        raise NotSimplyCyclicError("the support splits into several cycles")
    return ContextualFamily(_reweighted(graph.relations, repeat(weight.payload), weight.kind))


def is_acyclic(contexts: ContextSet) -> bool:
    """Whether the contexts form an acyclic hypergraph, by the GYO
    reduction (Graham 1979; Yu and Özsoyoğlu 1979): drop every variable
    that lies in one context only and every context contained in
    another, until nothing changes.  The set is acyclic exactly when at
    most one context is left."""
    edges = [set(c) for c in contexts]
    while len(edges) > 1:
        counts = Counter(chain.from_iterable(edges))
        trimmed = [{v for v in e if counts[v] > 1} for e in edges]
        kept: List[Set[str]] = []
        for i, e in enumerate(trimmed):
            if not any(e <= f for f in chain(kept, trimmed[i + 1 :])):
                kept.append(e)
        if kept == edges:
            return False
        edges = kept
    return True


# A grid of six variables over v0-v2 in seven binary contexts, each row
# ``ab=w`` the row ``va vb : w``: locally consistent and every context row
# under some row of the support join, yet with no global witness.
GRID_CONTEXTS = (
    "g00 g01: 00=5 01=2 10=3 12=5 20=2 21=3; g01 g02: 00=4 02=6 10=5 20=2 21=3; "
    "g10 g11: 00=4 02=5 10=3 12=3 20=2 21=3; g11 g12: 01=7 02=2 12=3 20=5 21=3; "
    "g00 g10: 01=5 02=2 10=4 11=1 12=3 20=5; g01 g11: 00=5 02=5 10=2 12=3 20=2 21=3; "
    "g02 g12: 00=2 01=4 02=5 11=3 20=3 21=3"
)


# An N 3-cycle whose first descent in the global check misses a cell, so
# the rational solver and the integer search run, and the search finds a
# witness: join rows 000, 001, 010 and 100 weigh 0, 2, 2 and 1.
DESCENT_MISSES = (
    "monoid N\ncontext x y\n0 0 : 2\n0 1 : 2\n1 0 : 1\ncontext x z\n0 0 : 2\n0 1 : 2\n1 0 : 1\n"
    "context y z\n0 0 : 1\n0 1 : 2\n1 0 : 2\n"
)


def grid_document(kind: str) -> str:
    """The grid family as a document of ``kind``, contexts in the order above."""
    lines = [f"monoid {kind}"]
    for block in GRID_CONTEXTS.split("; "):
        names, rows = block.split(": ")
        lines.append(f"context {names}")
        lines += [f"v{ab[0]} v{ab[1]} : {w}" for ab, w in (r.split("=") for r in rows.split())]
    return "\n".join(lines) + "\n"


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
