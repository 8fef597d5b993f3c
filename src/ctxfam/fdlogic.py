"""Functional dependencies over contextual families.

Satisfaction is support-based: a dependency X -> Y holds in a family when
the relation at the context of its variables is functional from X to Y.
Entailment quantifies over all locally consistent families whose context
sets contain the variables of every stated dependency.  That quantifier
is weaker than the classical one: transitivity fails, because premises
living in different contexts need not be reconcilable in a single
relation.

What survives is decidedly structural.  Reflexivity always holds.  A
cycle of dependencies x1 -> x2 -> ... -> xk -> x1 can be inverted
(x1 -> xk), with no context conditions at all.  And a chain
x1 -> ... -> xn can be composed when enough three-variable contexts are
available to carry intermediate "certificates" c_i -> xn alongside it;
which contexts exist is part of the input, via the constraint
dependencies (CDs, dependencies with equal sides) whose variable sets
declare them.  Derivations may only mention variable sets contained in
some stated dependency's variables; the engine enforces that throughout.

Four rule systems are offered: ``CR`` (reflexivity + cycle rule), which
is complete for unary dependencies with at most binary CDs; ``FULL``
(CR + the chain rule); and ``CLASSICAL``/``NRA``, the Armstrong-style
systems that apply when a single CD covers all variables, the latter
replacing transitivity with its context-guarded form.

CR and FULL share one closure engine (``_ClosureEngine``) and one copy
of each search in it: ``_reach`` for the cycle rule and the
counterexamples, ``_chain_states`` and ``_chain_instance`` for the chain
rule, and ``_chain_requirements`` for writing and replaying chain steps.
The engine and the counterexample construction read one premise table
(``_intern``): variables as indices in sorted name order, stated edges
as bitmasks, and the stated sets, from which the chain rule builds its
context atoms (bit k of entry [i][j] when {v_i, v_j, v_k} is an atom).
Index order is name order, so every pass and trace is that of a search
over names; names come back only where a trace or a family is written.
A query runs the engine only until its goal is decided;
``build_counterexample`` decides its query once.
The semantic side has one search too: ``_backtrack_family`` finds the
first locally consistent B-family, in a fixed candidate order, that
meets the premises (and violates the goal); the bounded oracle calls it
as it is, and the random sampler with shuffled candidates.  Contexts of
one class (equal arity, with the premises and goal inside them at the same
positions of their sorted variables) share one candidate list and its
projection tables within a call.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .family import ContextSet, ContextualFamily
from .monoid import MonoidKind, MonoidValue
from .relation import KRelation


class UnsupportedDependencyError(ValueError):
    """Raised when a rule system is given dependencies outside its scope."""


class MissingCoveringContextError(ValueError):
    """Raised when CLASSICAL or NRA lack a CD covering all variables."""


@dataclass(frozen=True)
class FD:
    """A functional dependency between nonempty variable sets.

    A dependency with equal sides is a constraint dependency (CD): it is
    satisfied by every relation and serves purely to declare that its
    variables share a context.
    """

    lhs: FrozenSet[str]
    rhs: FrozenSet[str]

    def __post_init__(self) -> None:
        if not self.lhs or not self.rhs:
            raise ValueError("dependency sides must be nonempty")

    @staticmethod
    def unary(x: str, y: str) -> "FD":
        return FD(frozenset({str(x)}), frozenset({str(y)}))._readable()

    @staticmethod
    def cd(variables: Iterable[str]) -> "FD":
        vs = frozenset(str(v) for v in variables)
        return FD(vs, vs)._readable()

    def _readable(self) -> "FD":
        """This dependency, or :class:`ValueError` unless its text reads
        back as itself: each name one token without ``#`` and not ``->``,
        and no ``cd`` leading the sorted left side.  The constructor skips
        this check, so the parser, which checks its own tokens, pays
        nothing for it."""
        for name in self.variables:
            if name.split() != [name] or "#" in name or name == "->":
                raise ValueError(f"variable {name!r} cannot be written in a dependency")
        if not self.is_cd and min(self.lhs) == "cd":
            raise ValueError("'cd' may not lead the sorted left side of '->'")
        return self

    @property
    def is_cd(self) -> bool:
        return self.lhs == self.rhs

    @property
    def is_unary(self) -> bool:
        return len(self.lhs) == 1 and len(self.rhs) == 1

    @property
    def variables(self) -> FrozenSet[str]:
        return self.lhs | self.rhs

    def __str__(self) -> str:
        if self.is_cd:
            return "cd " + " ".join(sorted(self.lhs))
        return " ".join(sorted(self.lhs)) + " -> " + " ".join(sorted(self.rhs))

    @property
    def sort_key(self) -> Tuple:
        return (tuple(sorted(self.lhs)), tuple(sorted(self.rhs)))


class RuleSet(enum.Enum):
    """Which derivation rules are in force."""

    CR = "cr"
    FULL = "full"
    CLASSICAL = "classical"
    NRA = "nra"

    @staticmethod
    def from_string(text: str) -> "RuleSet":
        try:
            return RuleSet(text.lower())
        except ValueError:
            raise ValueError(f"unknown rule set {text!r}") from None


@dataclass(frozen=True)
class TraceStep:
    """One derivation step: a dependency, its rule, and its antecedents
    (indices of earlier steps).  ``detail`` carries the instantiation
    needed to replay chain and augmentation steps."""

    fd: FD
    rule: str
    antecedents: Tuple[int, ...] = ()
    detail: Tuple = ()


@dataclass(frozen=True)
class DerivationTrace:
    steps: Tuple[TraceStep, ...]


def format_trace(trace: DerivationTrace) -> str:
    """Numbered steps, one per line, antecedents as 1-based indices."""
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        if step.antecedents:
            refs = ",".join(str(j + 1) for j in step.antecedents)
            rule = f"{step.rule}({refs})"
        else:
            rule = step.rule
        lines.append(f"{i}. {step.fd}  [{rule}]")
    return "\n".join(lines)


def _available(variables: FrozenSet[str], context_sets: Sequence[FrozenSet[str]]) -> bool:
    return any(variables <= c for c in context_sets)


def verify_trace(trace: DerivationTrace, sigma: Iterable[FD], goal: FD) -> bool:
    """Replay a trace: every step must be a premise, a reflexivity
    instance, or a correct single application of a rule to earlier steps,
    and must mention only variable sets inside some stated dependency's
    variables (the goal's included).  A malformed step, one whose detail
    is not of its rule's shape or one of whose antecedents is not the
    ``int`` index of an earlier step, answers False as well."""
    premises = set(sigma)
    context_sets = [fd.variables for fd in premises] + [goal.variables]
    steps = trace.steps
    if not steps or steps[-1].fd != goal:
        return False
    for i, step in enumerate(steps):
        if any(type(j) is not int or not 0 <= j < i for j in step.antecedents):
            return False
        if not _available(step.fd.variables, context_sets):
            return False
        ants = [steps[j].fd for j in step.antecedents]
        try:
            if not _check_step(step, ants, premises, context_sets):
                return False
        except (TypeError, ValueError):
            # A detail not of its rule's shape: the wrong number of parts,
            # a number where variable names belong, or an empty side.
            return False
    return True


def _check_step(
    step: TraceStep, ants: List[FD], premises: Set[FD], context_sets: Sequence[FrozenSet[str]]
) -> bool:
    """Whether one step is its rule applied to its antecedents ``ants``."""
    if step.rule == "premise":
        return step.fd in premises and not ants
    if step.rule == "reflexivity":
        return step.fd.rhs <= step.fd.lhs and not ants
    if step.rule == "cycle":
        return _check_cycle_step(step.fd, ants)
    if step.rule == "chain":
        return _check_chain_step(step.fd, ants, step.detail, context_sets)
    if step.rule == "augmentation":
        if len(ants) != 1 or not step.detail:
            return False
        (base,) = ants
        added = frozenset(step.detail[0])
        return step.fd == FD(base.lhs | added, base.rhs | added)
    if step.rule == "transitivity":
        if len(ants) != 2:
            return False
        first, second = ants
        return first.rhs == second.lhs and step.fd == FD(first.lhs, second.rhs)
    return False


def _check_cycle_step(conclusion: FD, ants: List[FD]) -> bool:
    if not conclusion.is_unary or len(ants) < 2:
        return False
    path, closing = ants[:-1], ants[-1]
    if any(not f.is_unary for f in ants):
        return False
    (x,) = conclusion.lhs
    (y,) = conclusion.rhs
    walk = x
    for f in path:
        if f.lhs != frozenset({walk}):
            return False
        (walk,) = f.rhs
    return walk == y and closing == FD.unary(y, x)


def _check_chain_step(
    conclusion: FD,
    ants: List[FD],
    detail: Tuple,
    context_sets: Sequence[FrozenSet[str]],
) -> bool:
    have = set(ants)
    if detail and detail[0] == "sets":
        # Context-guarded transitivity on variable sets: X -> Y, Y -> Z
        # together with a CD over all variables involved.
        _, left, mid, right = detail
        left, mid, right = frozenset(left), frozenset(mid), frozenset(right)
        needed = [FD(left, mid), FD(mid, right), FD.cd(left | mid | right)]
        return (
            conclusion == FD(left, right)
            and all(f in have for f in needed)
            and _available(left | mid | right, context_sets)
        )
    if not detail or detail[0] != "unary":
        return False
    _, xs, cs = detail
    n = len(xs)
    if n < 2 or len(cs) != n - 1:
        return False
    if conclusion != FD.unary(xs[0], xs[-1]):
        return False
    needed_edges, needed_sets = _chain_requirements(xs, cs)
    if any(FD.unary(*e) not in have for e in needed_edges):
        return False
    for s in needed_sets:
        if FD(s, s) not in have or not _available(s, context_sets):
            return False
    return True


def _chain_requirements(xs: Sequence, cs: Sequence) -> Tuple[List[Tuple], List[FrozenSet]]:
    """What the chain-rule instance x1 -> ... -> xn with certificates
    c1 .. c(n-1) needs: the unary edges (the chain, then each c_i -> xn)
    and the three-variable context sets, in trace antecedent order.  The
    variables are names or interned indices."""
    n = len(xs)
    target = xs[-1]
    edges = [(xs[i], xs[i + 1]) for i in range(n - 1)]
    edges += [(c, target) for c in cs]
    sets = [frozenset({xs[0], cs[0], target})]
    sets += [frozenset({xs[i], cs[i], xs[i + 1]}) for i in range(n - 1)]
    sets += [frozenset({cs[i], xs[i + 1], cs[i + 1]}) for i in range(n - 2)]
    sets += [frozenset({cs[i], cs[i + 1], target}) for i in range(n - 2)]
    return edges, sets


# ---------------------------------------------------------------------------
# The unary closure engine (CR and FULL)


_Premises = Tuple[
    Tuple[str, ...], Dict[str, int], List[Tuple[int, int]], List[int], List[int], List[FrozenSet[str]]
]


def _intern(sigma: Iterable[FD], extra_sets: Iterable[FrozenSet[str]] = ()) -> _Premises:
    """The premise table of the unary machinery, on interned variables:
    the variables, sorted, and their index; the stated unary edges as
    sorted index pairs and as bitmasks, ``out_mask`` and ``in_mask`` (bit
    b of ``out_mask[a]`` and bit a of ``in_mask[b]`` for a -> b); and the
    stated sets, each premise's, then the extra sets.  Rejects
    dependencies outside the unary + CD fragment."""
    pairs: List[Tuple[str, str]] = []
    sets: List[FrozenSet[str]] = []
    for fd in sigma:
        lhs, rhs = fd.lhs, fd.rhs
        # Unary first: x -> x is a CD too, and adds its self-edge.
        if len(lhs) == 1 and len(rhs) == 1:
            (u,) = lhs
            (v,) = rhs
            pairs.append((u, v))
            sets.append(lhs | rhs)
        elif lhs == rhs:
            sets.append(lhs)
        else:
            raise UnsupportedDependencyError(
                f"{fd} is neither unary nor a CD; "
                "only CLASSICAL and NRA accept general dependencies"
            )
    sets += [frozenset(s) for s in extra_sets]
    variables = tuple(sorted(frozenset().union(*sets)))
    index = {v: i for i, v in enumerate(variables)}
    edges = sorted({(index[u], index[v]) for u, v in pairs})
    out_mask, in_mask = [0] * len(variables), [0] * len(variables)
    for a, b in edges:
        out_mask[a] |= 1 << b
        in_mask[b] |= 1 << a
    return variables, index, edges, out_mask, in_mask, sets


def _atom_table(index: Dict[str, int], context_sets: Iterable[FrozenSet[str]]) -> List[List[int]]:
    """The context atoms, the variable sets of size one to three inside
    some stated set, as bitmasks over interned variables: bit k of
    ``table[i][j]`` is set when the collapsed set {v_i, v_j, v_k} lies
    inside some stated set.  Chain-rule side conditions only ever ask
    about such sets."""
    n = len(index)
    table = [[0] * n for _ in range(n)]
    for c in set(context_sets):
        members = [index[v] for v in c]
        mask = 0
        for i in members:
            mask |= 1 << i
        for i in members:
            row = table[i]
            for j in members:
                row[j] |= mask
    return table


def _bits(mask: int) -> Iterable[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_ChainStates = Tuple[Dict[Tuple[int, int], Optional[Tuple[int, int]]], List[int], int]


def _chain_states(table: List[List[int]], in_mask: List[int], target: int) -> _ChainStates:
    """Backward reachability in the chain-rule state graph for one target,
    on interned variables: ``table`` is the ``_atom_table`` and bit a of
    ``in_mask[b]`` marks the edge a -> b.

    A state (a, c) stands for "the chain currently ends at a with
    certificate c -> target in force".  Returns the map sending each state
    that can reach acceptance to its successor state (None marks a state
    that accepts immediately because a -> target is an edge), the reached
    states as masks (bit a of ``reached[c]`` for state (a, c)), and the
    mask of witnesses: the certificates c with c -> target an edge and
    {c, target} an atom.  States are expanded level by level in sorted
    order, so the first state to reach another is its recorded successor.
    """
    witnesses = in_mask[target] & table[target][target]
    # The certificates c1 that may follow c2: witnesses with {c2, c1,
    # target} an atom.
    limits = [row[target] & witnesses for row in table]
    succ: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
    reached = [0] * len(table)
    frontier: List[Tuple[int, int]] = []
    for a in _bits(in_mask[target]):
        for c in _bits(table[a][target] & witnesses):
            succ[(a, c)] = None
            reached[c] |= 1 << a
            frontier.append((a, c))
    frontier.sort()
    while frontier:
        fresh: List[Tuple[int, int]] = []
        last_b = -1
        for b, c2 in frontier:
            if b != last_b:
                # Once c1 has been tried from b, every state (a, c1) with
                # a -> b is reached, so later states (b, c2) skip c1.
                last_b, row_b, into_b, tried = b, table[b], in_mask[b], 0
            candidates = row_b[c2] & limits[c2] & ~tried
            tried |= candidates
            # The bits are walked inline, lowest first: a ``_bits``
            # generator here makes a FULL derivation a third slower.
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                c1 = low.bit_length() - 1
                new = row_b[c1] & into_b & ~reached[c1]
                if new:
                    reached[c1] |= new
                    state = (b, c2)
                    while new:
                        low = new & -new
                        new ^= low
                        a = low.bit_length() - 1
                        succ[(a, c1)] = state
                        fresh.append((a, c1))
        fresh.sort()
        frontier = fresh
    return succ, reached, witnesses


def _reach(out_mask: List[int], x: int) -> Dict[int, int]:
    """The vertices reachable from x along at least one edge, each mapped
    to its predecessor in the breadth-first tree: each level is walked in
    ascending order, so a vertex's predecessor is the first vertex of the
    previous level with an edge to it."""
    seen = out_mask[x]
    parent = dict.fromkeys(_bits(seen), x)
    frontier = list(parent)
    while frontier:
        before = seen
        for a in frontier:
            new = out_mask[a] & ~seen
            seen |= new
            for b in _bits(new):
                parent[b] = a
        frontier = list(_bits(seen & ~before))
    return parent


def _chain_instance(
    table: List[List[int]], states: _ChainStates, x: int, y: int
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The chain x = x1 -> ... -> xn = y and its certificates c1 ..
    c(n-1), read off the chain-rule states of target y from the first
    witness that starts one; None when no instance concludes x -> y."""
    succ, reached, witnesses = states
    for c1 in _bits(witnesses & table[x][y]):
        if not reached[c1] >> x & 1:
            continue
        xs = [x]
        cs = [c1]
        state = succ[(x, c1)]
        while state is not None:
            xs.append(state[0])
            cs.append(state[1])
            state = succ[state]
        xs.append(y)
        return tuple(xs), tuple(cs)
    return None


class _ClosureEngine:
    """Fixpoint of the unary rules, with justifications for tracing.

    Each pass scans every variable pair in sorted order, testing one
    cycle-rule application (and, under FULL, one chain-rule application)
    against the current derived set; newly derived dependencies take
    effect on the next pass, and the loop stops on an unchanged pass.
    The extra variable sets (a goal's, in particular) count as contexts
    without adding premises.

    With a ``goal`` (x, y) the engine stops once the goal is decided.  An
    instance concluding a -> b runs along a path a to b, so the closure
    never leaves premise reachability: an unreachable y ends the run at
    once.  Otherwise each pass boundary first tests the goal's own cycle,
    then chain, instance as the full pass would, and stops when one
    fires.  Justifications are never overwritten and antecedents come
    from earlier, complete passes, so the goal's trace is the full
    closure's.  Only goals reachable but not derivable reach the fixpoint.

    The engine runs on the premise table of :func:`_intern`: ``edges``
    maps index pairs to justifications (cycle paths and chain instances
    in indices too), ``out_mask`` and ``in_mask`` hold the derived edges,
    and the chain rule's context atoms are one ``_atom_table``, built
    when the first chain half runs.
    """

    def __init__(
        self,
        sigma: Sequence[FD],
        rules: RuleSet,
        extra_context_sets: Iterable[FrozenSet[str]],
        goal: Optional[Tuple[str, str]] = None,
    ):
        self.variables, index, edges, self.out_mask, self.in_mask, sets = _intern(sigma, extra_context_sets)
        self.use_chain = rules is RuleSet.FULL
        self.atom_table: Optional[List[List[int]]] = None
        self.atoms_over = (index, sets)
        self.edges: Dict[Tuple[int, int], Tuple] = dict.fromkeys(edges, ("premise",))
        for v in range(len(self.variables)):
            if not self.out_mask[v] >> v & 1:
                self._add((v, v), ("reflexivity",))
        self.goal = None if goal is None else (index[goal[0]], index[goal[1]])
        self._run()

    def _add(self, edge: Tuple[int, int], justification: Tuple) -> None:
        a, b = edge
        self.edges[edge] = justification
        self.out_mask[a] |= 1 << b
        self.in_mask[b] |= 1 << a

    def _path_edges(self, x: int, y: int, parent: Dict[int, int]) -> Tuple[Tuple[int, int], ...]:
        path = []
        walk = y
        while walk != x:
            path.append((parent[walk], walk))
            walk = parent[walk]
        path.reverse()
        return tuple(path)

    def _run(self) -> None:
        goal = self.goal
        if goal is not None and goal[1] not in _reach(self.out_mask, goal[0]):
            return
        # A goal's own pass comes first; the run ends once it is derived.
        while goal not in self.edges:
            additions = goal is not None and self._pass(goal) or self._pass(None)
            if not additions:
                return
            for edge in sorted(additions):
                self._add(edge, additions[edge])

    def _pass(self, goal: Optional[Tuple[int, int]]) -> Dict[Tuple[int, int], Tuple]:
        """What the next pass derives, with justifications; given a goal
        (x, y) with y reachable from x, only what it derives for that pair."""
        out_mask, in_mask = self.out_mask, self.in_mask
        additions: Dict[Tuple[int, int], Tuple] = {}
        for x in range(len(out_mask)) if goal is None else goal[:1]:
            parent = _reach(out_mask, x)
            # Every x -> x is an edge, so y = x is skipped here.
            for y in parent if goal is None else goal[1:]:
                if in_mask[x] >> y & 1 and not out_mask[x] >> y & 1:
                    additions[(x, y)] = ("cycle", self._path_edges(x, y, parent), (y, x))
        # A goal the cycle half derived needs no chain instance.
        if self.use_chain and (goal is None or goal not in additions):
            if self.atom_table is None:
                self.atom_table = _atom_table(*self.atoms_over)
            for y in range(len(out_mask)) if goal is None else goal[1:]:
                states = _chain_states(self.atom_table, in_mask, y)
                # Only a variable that starts a reached state can start
                # an instance; an edge x -> y (x = y included) needs none.
                starts = 0
                for mask in states[1]:
                    starts |= mask
                if goal is not None:
                    starts &= 1 << goal[0]
                for x in _bits(starts & ~in_mask[y]):
                    if (x, y) in additions:
                        continue
                    instance = _chain_instance(self.atom_table, states, x, y)
                    if instance is not None:
                        additions[(x, y)] = ("chain",) + instance
        return additions


def _trace_node(
    engine: _ClosureEngine, premise_cds: Set[FrozenSet[str]], node: Tuple
) -> Tuple[List[Tuple], FD, str, Tuple]:
    """A trace node, ("fd", edge) or ("cd", set): its antecedent nodes in
    trace order (a cycle's path and closing edge, or a chain's required
    edges and then its context sets), its dependency, rule and detail."""
    kind, item = node
    if kind == "cd":
        return [], FD(item, item), "premise" if item in premise_cds else "reflexivity", ()
    names = engine.variables
    fd = FD.unary(names[item[0]], names[item[1]])
    just = engine.edges[item]
    if just[0] == "cycle":
        _, path, closing = just
        return [("fd", e) for e in path + (closing,)], fd, "cycle", ()
    if just[0] == "chain":
        _, xs, cs = just
        needed_edges, needed_sets = _chain_requirements(xs, cs)
        needed = [("fd", e) for e in needed_edges]
        needed += [("cd", frozenset(names[i] for i in s)) for s in needed_sets]
        return needed, fd, "chain", ("unary", tuple(names[i] for i in xs), tuple(names[i] for i in cs))
    return [], fd, just[0], ()


def _trace_from_engine(engine: _ClosureEngine, sigma: Sequence[FD]) -> DerivationTrace:
    """The derivation of the engine's goal from its justifications: each
    node after its antecedents, depth first, and each node once.  The walk
    keeps its own stack, so it leaves no cyclic garbage."""
    premise_cds = {fd.lhs for fd in sigma if fd.is_cd}
    steps: List[TraceStep] = []
    index: Dict[Tuple, int] = {}
    # Each frame: a node, what ``_trace_node`` says of it, and the step
    # indices of the antecedents emitted so far.
    root = ("fd", engine.goal)
    stack = [(root, _trace_node(engine, premise_cds, root), [])]
    while stack:
        node, (needed, fd, rule, detail), ants = stack[-1]
        if len(ants) < len(needed):
            child = needed[len(ants)]
            if child in index:
                ants.append(index[child])
            else:
                stack.append((child, _trace_node(engine, premise_cds, child), []))
            continue
        stack.pop()
        # A chain instance may need one dependency twice (a certificate on
        # the chain, say); a cycle's antecedents are distinct anyway.
        steps.append(TraceStep(fd, rule, tuple(dict.fromkeys(ants)), detail))
        index[node] = len(steps) - 1
        if stack:
            stack[-1][2].append(index[node])
    return DerivationTrace(tuple(steps))


def _decide_unary(
    sigma: Sequence[FD], phi: FD, rules: RuleSet
) -> Tuple[bool, Optional[_ClosureEngine]]:
    """Whether the rules derive phi, and the engine that decided it, after
    refusing premises outside the fragment.  A reflexive goal is derivable
    and any other non-unary one is not, both without an engine (None)."""
    if phi.rhs <= phi.lhs or not phi.is_unary:
        _intern(sigma)
        return phi.rhs <= phi.lhs, None
    engine = _ClosureEngine(sigma, rules, [phi.variables], (*phi.lhs, *phi.rhs))
    return engine.goal in engine.edges, engine


def _derives_covering(
    sigma: Sequence[FD], phi: FD, rules: RuleSet
) -> Tuple[bool, Optional[DerivationTrace]]:
    allvars = phi.variables
    for fd in sigma:
        allvars = allvars | fd.variables
    if not any(fd.is_cd and allvars <= fd.lhs for fd in sigma):
        raise MissingCoveringContextError(
            "CLASSICAL and NRA need a premise CD containing every variable "
            f"({' '.join(sorted(allvars))})"
        )
    stated = set(sigma)
    steps: List[TraceStep] = []

    def push(step: TraceStep) -> int:
        steps.append(step)
        return len(steps) - 1

    def compose(i: int, j: int) -> int:
        """From steps i: X -> S and j: S -> T conclude X -> T, via plain
        transitivity or its context-guarded replacement."""
        left, mid = steps[i].fd.lhs, steps[i].fd.rhs
        right = steps[j].fd.rhs
        if rules is RuleSet.CLASSICAL:
            return push(TraceStep(FD(left, right), "transitivity", (i, j)))
        union = left | mid | right
        cd = FD.cd(union)
        rule = "premise" if cd in stated else "reflexivity"
        k = push(TraceStep(cd, rule))
        return push(
            TraceStep(
                FD(left, right),
                "chain",
                (i, j, k),
                ("sets", tuple(sorted(left)), tuple(sorted(mid)), tuple(sorted(right))),
            )
        )

    if phi.rhs <= phi.lhs:
        push(TraceStep(phi, "reflexivity"))
        return True, DerivationTrace(tuple(steps))

    known = set(phi.lhs)
    current = push(TraceStep(FD(phi.lhs, phi.lhs), "reflexivity"))
    ordered = sorted((fd for fd in sigma if not fd.is_cd), key=lambda f: f.sort_key)
    progress = True
    while progress and not phi.rhs <= known:
        progress = False
        for fd in ordered:
            if fd.lhs <= known and not fd.rhs <= known:
                i = push(TraceStep(fd, "premise"))
                grown = known | fd.rhs
                j = push(
                    TraceStep(
                        FD(frozenset(known), frozenset(grown)),
                        "augmentation",
                        (i,),
                        (tuple(sorted(known)),),
                    )
                )
                current = compose(current, j)
                known = grown
                progress = True
    if not phi.rhs <= known:
        return False, None
    if steps[current].fd.rhs != phi.rhs:
        j = push(TraceStep(FD(frozenset(known), phi.rhs), "reflexivity"))
        current = compose(current, j)
    assert steps[current].fd == phi
    return True, DerivationTrace(tuple(steps))


def derives(
    sigma: Iterable[FD], phi: FD, rules: RuleSet = RuleSet.CR
) -> Tuple[bool, Optional[DerivationTrace]]:
    """Decide derivability and, when derivable, produce a replayable trace.

    CR and FULL work in the unary + CD fragment and respect contexts: a
    derivation may only mention variable sets inside the variables of
    some premise or of the goal.  They run the closure engine only until
    the goal is decided.  CLASSICAL and NRA require a premise CD covering
    every variable and then answer by attribute closure.
    """
    premises = list(sigma)
    if rules in (RuleSet.CLASSICAL, RuleSet.NRA):
        return _derives_covering(premises, phi, rules)
    derivable, engine = _decide_unary(premises, phi, rules)
    if engine is not None:
        return derivable, _trace_from_engine(engine, premises) if derivable else None
    if not derivable:
        raise UnsupportedDependencyError(
            f"goal {phi} is neither unary nor a CD; use CLASSICAL or NRA"
        )
    return True, DerivationTrace((TraceStep(phi, "reflexivity"),))


# ---------------------------------------------------------------------------
# Counterexamples and the bounded semantic oracle


def _outside_fragment(sigma: Iterable[FD]) -> Optional[FD]:
    """The first premise that is neither unary nor a CD of at most two
    variables: the fragment in which CR is complete and the bounded
    oracle's default bounds suffice."""
    return next((fd for fd in sigma if not fd.is_unary and not (fd.is_cd and len(fd.lhs) <= 2)), None)


def build_counterexample(
    sigma: Iterable[FD], phi: FD, kind: MonoidKind = MonoidKind.B
) -> Optional[ContextualFamily]:
    """A locally consistent family satisfying the premises and violating
    the goal, or None when the goal is derivable.

    The query is decided here alone, by one FULL engine, in this order:
    premises outside the unary + CD fragment are refused; None is
    returned when the engine derives the goal, reflexive goals included;
    a CD wider than two variables is refused; then a goal that is not
    unary is refused.  Every FULL rule is sound, so a goal FULL derives
    has no counterexample; in the fragment FULL derives what CR derives,
    since CR is complete there, so the construction reads the same
    engine.

    The construction works in the fragment behind the completeness
    argument: unary premises with at most binary CDs and a unary goal.
    Two shapes cover everything.  With no premise path from x to y, two
    global rows (all zeroes, and the indicator of the non-reachable part)
    project to a globally consistent counterexample.  With such a path,
    the goal's context gets all four rows over {x, y} while every other
    context gets the two diagonal rows; weighted kinds annotate the four
    rows a = 1 and the diagonals b = 2, using a + a = b to balance the
    marginals.
    """
    premises = list(sigma)
    derivable, engine = _decide_unary(premises, phi, RuleSet.FULL)
    if derivable:
        return None
    wide = _outside_fragment(premises)
    if wide is not None:
        raise UnsupportedDependencyError(
            f"counterexample construction covers unary premises and "
            f"binary CDs; got {wide}"
        )
    if not phi.is_unary:
        raise UnsupportedDependencyError("the goal must be a unary dependency")

    contexts = ContextSet.from_sets(
        [fd.variables for fd in premises] + [phi.variables]
    )
    variables = engine.variables
    x, y = engine.goal
    # Derived edges only join vertices that already reach each other, so
    # this is reachability along premise edges, plus x by reflexivity,
    # however far the goal-directed engine ran.
    reached = _reach(engine.out_mask, x)
    one = MonoidValue.one(kind)
    if y not in reached:
        row_zero = ("0",) * len(variables)
        row_split = tuple("0" if i in reached else "1" for i in range(len(variables)))
        total = KRelation(variables, kind, {row_zero: one.payload, row_split: one.payload})
        family = ContextualFamily([total.marginalise(c) for c in contexts])
    else:
        relations = []
        for c in contexts:
            if c == phi.variables:
                rows = dict.fromkeys(itertools.product("01", repeat=2), one.payload)
            else:
                rows = dict.fromkeys([("0",) * len(c), ("1",) * len(c)], (one + one).payload)
            relations.append(KRelation(c, kind, rows))
        family = ContextualFamily(relations)

    for fd in premises:
        if not family.satisfies(fd):
            raise AssertionError(f"construction violates premise {fd}")
    if family.satisfies(phi):
        raise AssertionError("construction fails to violate the goal")
    return family


@dataclass(frozen=True)
class EntailmentVerdict:
    """Outcome of the bounded semantic search.  ``conclusive`` is True
    when the bounds are known sufficient (the unary/binary fragment with
    domain size >= 2 and at least four rows per context) or when a
    concrete counterexample was found."""

    holds: bool
    counterexample: Optional[ContextualFamily]
    conclusive: bool


def _pair_breaks(rows: Sequence[Tuple[str, ...]], positions: Dict[str, int], fd: FD) -> List[int]:
    """Per row, the mask of the rows that break ``fd`` together with it:
    equal on its left side and different on its right."""
    sides = [[positions[v] for v in fd.lhs], [positions[v] for v in fd.rhs]]
    keys = [tuple(tuple(row[i] for i in side) for side in sides) for row in rows]
    left: Dict[Tuple, int] = {}
    both: Dict[Tuple, int] = {}
    for i, key in enumerate(keys):
        left[key[0]] = left.get(key[0], 0) | 1 << i
        both[key] = both.get(key, 0) | 1 << i
    return [left[key[0]] & ~both[key] for key in keys]


def _context_candidates(
    context: FrozenSet[str],
    sigma: Sequence[FD],
    phi: Optional[FD],
    domain: Sequence[str],
    max_rows: int,
) -> Tuple[Tuple[str, ...], List[Tuple[str, ...]], List[int]]:
    """All admissible supports for one context: nonempty, within the row
    budget, satisfying the premises that fit the context, and violating
    the goal when the goal fits.  Returns the sorted variables, every row
    over the domain (values in variable order, rows sorted), and each
    support as a mask over those rows, by size, then in lexicographic order.

    A support satisfies X -> Y exactly when every pair of its rows does,
    so the supports are cliques of one compatibility mask per row, built
    level by level: each support is extended by every later row compatible
    with all its members, in the order of ``itertools.combinations``.
    Violating the goal is a pair property too, carried as a flag.
    """
    vs = tuple(sorted(context))
    positions = {v: i for i, v in enumerate(vs)}
    rows = sorted(itertools.product(domain, repeat=len(vs)))
    compatible = [(1 << len(rows)) - 1] * len(rows)
    for fd in sigma:
        if fd.variables <= context:
            compatible = [c & ~b for c, b in zip(compatible, _pair_breaks(rows, positions, fd))]
    goal = phi is not None and phi.variables <= context
    violates = _pair_breaks(rows, positions, phi) if goal else [0] * len(rows)
    # Each support: the mask of its rows, the mask of the later rows it
    # may take next, and whether it violates the goal.
    level = [(1 << i, compatible[i] >> i + 1 << i + 1, False) for i in range(len(rows))]
    out: List[int] = []
    for size in range(1, max_rows + 1):
        out += [mask for mask, _, bad in level if bad or not goal]
        if size < max_rows:
            level = [
                (mask | 1 << j, later >> j + 1 << j + 1 & compatible[j], bad or violates[j] & mask != 0)
                for mask, later, bad in level
                for j in _bits(later)
            ]
    return vs, rows, out


def _class_form(fd: FD, positions: Dict[str, int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A dependency inside a context, as its sides' sorted positions in
    the context's sorted variable order."""
    return tuple(sorted(positions[v] for v in fd.lhs)), tuple(sorted(positions[v] for v in fd.rhs))


def _projection_table(
    rows: Sequence[Tuple[str, ...]], supports: Sequence[Tuple[int, ...]], idx: Tuple[int, ...]
) -> List[int]:
    """Each support's projection onto positions idx: the mask of its
    rows' restrictions, each ranked among all restrictions of ``rows`` in
    sorted order, so equal projections are equal ints in any context.  A
    support is given as its row indices."""
    restricted = [tuple(row[p] for p in idx) for row in rows]
    rank = {t: 1 << i for i, t in enumerate(sorted(set(restricted)))}
    bits = [rank[t] for t in restricted]
    table = []
    for support in supports:
        out = 0
        for j in support:
            out |= bits[j]
        table.append(out)
    return table


def _backtrack_family(
    context_set: ContextSet,
    sigma: Sequence[FD],
    phi: Optional[FD],
    domain: Sequence[str],
    max_rows: int,
    rng=None,
) -> Optional[ContextualFamily]:
    """The first locally consistent B-family whose supports satisfy the
    premises and, when ``phi`` is given, violate it wherever its
    variables fit; None when the bounds admit none.

    The search is depth-first over one support per context: contexts in
    order, each context's candidates in :func:`_context_candidates` order,
    or shuffled by the supplied random generator, which turns the search
    into a sampler.  Contexts of one class (equal arity, and equal
    premises and goal inside them, written in positions of the sorted
    variables) have equal rows and candidates, so each class builds its
    candidate list once; a context shuffles a permutation of its class
    list, which draws what shuffling the list itself would.  Two devices
    make the search fast without changing which family comes first.  Each
    context's candidates are bucketed by their projections onto its
    overlaps with earlier contexts, so a depth walks only the bucket that
    agrees with the choices above it.  And a depth whose view (the earlier
    choices' projections onto their overlaps with this and later
    contexts) failed before is skipped (nogood recording).  A projection
    is a mask over all restrictions to the overlap, ranked in sorted
    order, so equal projections are equal ints in any context; each
    class lists its candidates' projections onto one overlap once.  The
    walk keeps an explicit stack.  Overlapping supports agree and none is
    empty, so the family is assembled unchecked.
    """
    contexts = context_set.maximal
    vs_list: List[Tuple[str, ...]] = []
    # Each class's rows and candidates, each as its row indices; each
    # context's class and its order of the class's candidate indices.
    class_index: Dict[Tuple, int] = {}
    classes: List[Tuple[List[Tuple[str, ...]], List[Tuple[int, ...]]]] = []
    class_of: List[int] = []
    orders: List[Sequence[int]] = []
    for c in contexts:
        vs = tuple(sorted(c))
        positions = {v: i for i, v in enumerate(vs)}
        key = (
            len(vs),
            frozenset(_class_form(fd, positions) for fd in sigma if fd.variables <= c),
            _class_form(phi, positions) if phi is not None and phi.variables <= c else None,
        )
        k = class_index.get(key)
        if k is None:
            k = class_index[key] = len(classes)
            _, rows, cands = _context_candidates(c, sigma, phi, domain, max_rows)
            classes.append((rows, [tuple(_bits(cand)) for cand in cands]))
        size = len(classes[k][1])
        if not size:
            return None
        order: Sequence[int] = range(size)
        if rng is not None:
            order = list(order)
            rng.shuffle(order)
        vs_list.append(vs)
        class_of.append(k)
        orders.append(order)

    n = len(contexts)
    # later[d] lists the later depths whose contexts overlap depth d's;
    # out_ids[d][i] holds class candidate i's projections onto those
    # overlaps, and buckets[d] groups class candidate indices, in depth
    # d's order, by their projections onto earlier ones.
    later: List[List[int]] = [[] for _ in range(n)]
    buckets: List[Dict[Tuple[int, ...], List[int]]] = []
    out_ids: List[List[Tuple[int, ...]]] = []
    projections: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    for d, c in enumerate(contexts):
        k = class_of[d]
        tables = []
        for j in range(n):
            shared = sorted(c & contexts[j])
            if j != d and shared:
                idx = tuple(vs_list[d].index(v) for v in shared)
                if (k, idx) not in projections:
                    projections[(k, idx)] = _projection_table(*classes[k], idx)
                tables.append(projections[(k, idx)])
                if j > d:
                    later[d].append(j)
        split = len(tables) - len(later[d])
        size = len(classes[k][1])
        keys = list(zip(*tables[:split])) if split else [()] * size
        bucket: Dict[Tuple[int, ...], List[int]] = {}
        for i in orders[d]:
            bucket.setdefault(keys[i], []).append(i)
        buckets.append(bucket)
        out_ids.append(list(zip(*tables[split:])) if later[d] else [()] * size)
    # Depth t reads its bucket key from entry incoming[t] of the chosen
    # candidates' out_ids, and its view from entry pending[t] onward.
    incoming = [[(j, later[j].index(t)) for j in range(t) if t in later[j]] for t in range(n)]
    pending = [
        [(j, bisect_left(later[j], t)) for j in range(t) if later[j] and later[j][-1] >= t]
        for t in range(n)
    ]

    chosen: List[int] = []
    stack = [iter(buckets[0].get((), ()))]
    views: List[Tuple] = [()]
    failed: List[Set[Tuple]] = [set() for _ in range(n)]
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            failed[len(stack)].add(views.pop())
            if chosen:
                chosen.pop()
            continue
        chosen.append(i)
        t = len(chosen)
        if t == n:
            break
        view = tuple(out_ids[j][chosen[j]][s:] for j, s in pending[t])
        if view in failed[t]:
            chosen.pop()
            continue
        key = tuple(out_ids[j][chosen[j]][p] for j, p in incoming[t])
        stack.append(iter(buckets[t].get(key, ())))
        views.append(view)
    else:
        return None

    relations = []
    for context, k, i in zip(contexts, class_of, chosen):
        rows, supports = classes[k]
        relations.append(KRelation(context, MonoidKind.B, {rows[j]: 1 for j in supports[i]}))
    return ContextualFamily._unchecked(context_set, MonoidKind.B, relations)


def semantic_entails_oracle(
    sigma: Iterable[FD],
    phi: FD,
    domain_size: int = 2,
    max_rows: int = 4,
) -> EntailmentVerdict:
    """Bounded exhaustive search for a counterexample family.

    Enumerates locally consistent B-families over the contexts named by
    the premises and the goal, with the given domain size and per-context
    row budget, through the one search of :func:`_backtrack_family`; the
    counterexample is the first family it finds.  In the unary/binary
    fragment the default bounds are sufficient, so "no counterexample" is
    conclusive there; elsewhere the verdict is flagged bounded-only.
    """
    if domain_size < 1 or max_rows < 1:
        raise ValueError("domain size and row budget must be positive")
    premises = sorted(set(sigma), key=lambda f: f.sort_key)
    fragment = phi.is_unary and _outside_fragment(premises) is None
    conclusive = fragment and domain_size >= 2 and max_rows >= 4
    if phi.rhs <= phi.lhs:
        return EntailmentVerdict(True, None, True)
    contexts = ContextSet.from_sets([fd.variables for fd in premises] + [phi.variables])
    domain = [str(i) for i in range(domain_size)]
    counterexample = _backtrack_family(contexts, premises, phi, domain, max_rows)
    if counterexample is not None:
        return EntailmentVerdict(False, counterexample, True)
    return EntailmentVerdict(True, None, conclusive)


def random_family_satisfying(sigma: Iterable[FD], rng) -> Optional[ContextualFamily]:
    """A pseudo-random locally consistent B-family over the premises'
    contexts satisfying every premise, or None when there are no contexts
    to build one over or the oracle's default bounds (domain 2, four rows
    per context) admit no such family.  A CD premise declares a context
    without constraining it."""
    premises = sorted(set(sigma), key=lambda f: f.sort_key)
    contexts = ContextSet.from_sets([fd.variables for fd in premises])
    if not contexts:
        return None
    return _backtrack_family(contexts, premises, None, ["0", "1"], 4, rng=rng)
