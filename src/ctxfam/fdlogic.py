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
The chain-rule search runs on interned variables (indices in sorted
name order) and integer bitmasks: one table holds the context atoms
(bit k of entry [i][j] when {v_i, v_j, v_k} is an atom) and one mask
per variable its in-neighbours, so it visits states in the same order
as a search over names and derives the same edges with the same
justifications.  A query runs the engine only until its goal is decided.
The semantic side has one search too: ``_backtrack_family`` finds the
first locally consistent B-family, in a fixed candidate order, that
meets the premises (and violates the goal); the bounded oracle calls it
as it is, and the random sampler with shuffled candidates.
"""

from __future__ import annotations

import enum
import functools
import itertools
from bisect import bisect_left, insort
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
        return FD(frozenset({str(x)}), frozenset({str(y)}))

    @staticmethod
    def cd(variables: Iterable[str]) -> "FD":
        vs = frozenset(str(v) for v in variables)
        return FD(vs, vs)

    @property
    def is_cd(self) -> bool:
        return self.lhs == self.rhs

    @property
    def is_unary(self) -> bool:
        return len(self.lhs) == 1 and len(self.rhs) == 1

    @property
    def variables(self) -> FrozenSet[str]:
        return self.lhs | self.rhs

    def display(self) -> str:
        if self.is_cd:
            return "cd " + " ".join(sorted(self.lhs))
        return " ".join(sorted(self.lhs)) + " -> " + " ".join(sorted(self.rhs))

    def __str__(self) -> str:
        return self.display()

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

    @property
    def goal(self) -> FD:
        return self.steps[-1].fd

    def __str__(self) -> str:
        return format_trace(self)


def format_trace(trace: DerivationTrace) -> str:
    """Numbered steps, one per line, antecedents as 1-based indices."""
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        if step.antecedents:
            refs = ",".join(str(j + 1) for j in step.antecedents)
            rule = f"{step.rule}({refs})"
        else:
            rule = step.rule
        lines.append(f"{i}. {step.fd.display()}  [{rule}]")
    return "\n".join(lines)


def _available(variables: FrozenSet[str], context_sets: Sequence[FrozenSet[str]]) -> bool:
    return any(variables <= c for c in context_sets)


def verify_trace(trace: DerivationTrace, sigma: Iterable[FD], goal: FD) -> bool:
    """Replay a trace: every step must be a premise, a reflexivity
    instance, or a correct single application of a rule to earlier steps,
    and must mention only variable sets inside some stated dependency's
    variables (the goal's included)."""
    premises = set(sigma)
    context_sets = [fd.variables for fd in premises] + [goal.variables]
    steps = trace.steps
    if not steps or steps[-1].fd != goal:
        return False
    for i, step in enumerate(steps):
        if any(j >= i or j < 0 for j in step.antecedents):
            return False
        if not _available(step.fd.variables, context_sets):
            return False
        ants = [steps[j].fd for j in step.antecedents]
        if step.rule == "premise":
            if step.fd not in premises or ants:
                return False
        elif step.rule == "reflexivity":
            if not step.fd.rhs <= step.fd.lhs or ants:
                return False
        elif step.rule == "cycle":
            if not _check_cycle_step(step.fd, ants):
                return False
        elif step.rule == "chain":
            if not _check_chain_step(step.fd, ants, step.detail, context_sets):
                return False
        elif step.rule == "augmentation":
            if len(ants) != 1 or not step.detail:
                return False
            (base,) = ants
            added = frozenset(step.detail[0])
            if step.fd != FD(base.lhs | added, base.rhs | added):
                return False
        elif step.rule == "transitivity":
            if len(ants) != 2:
                return False
            first, second = ants
            if first.rhs != second.lhs or step.fd != FD(first.lhs, second.rhs):
                return False
        else:
            return False
    return True


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


def _chain_requirements(
    xs: Sequence[str], cs: Sequence[str]
) -> Tuple[List[Tuple[str, str]], List[FrozenSet[str]]]:
    """What the chain-rule instance x1 -> ... -> xn with certificates
    c1 .. c(n-1) needs: the unary edges (the chain, then each c_i -> xn)
    and the three-variable context sets, in trace antecedent order."""
    n = len(xs)
    target = xs[-1]
    edges = [(xs[i], xs[i + 1]) for i in range(n - 1)]
    edges += [(c, target) for c in cs]
    sets = [frozenset({xs[0], cs[0], target})]
    sets += [frozenset({xs[i], cs[i], xs[i + 1]}) for i in range(n - 1)]
    sets += [frozenset({cs[i], xs[i + 1], cs[i + 1]}) for i in range(n - 2)]
    sets += [frozenset({cs[i], cs[i + 1], target}) for i in range(n - 2)]
    return edges, sets


def classical_closure(sigma: Iterable[FD], attributes: Iterable[str]) -> FrozenSet[str]:
    """Attribute closure under all premises, context-blind."""
    closure = set(str(a) for a in attributes)
    fds = sorted(sigma, key=lambda f: f.sort_key)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.lhs <= closure and not fd.rhs <= closure:
                closure |= fd.rhs
                changed = True
    return frozenset(closure)


# ---------------------------------------------------------------------------
# The unary closure engine (CR and FULL)


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


def _reach(out_adj: Dict[str, List[str]], x: str) -> Tuple[Dict[str, str], List[str]]:
    """Vertices reachable from x along at least one edge, in breadth-first
    order (each level sorted), with the predecessor map of the tree."""
    parent: Dict[str, str] = {}
    frontier = []
    for b in out_adj[x]:
        if b not in parent:
            parent[b] = x
            frontier.append(b)
    order = list(frontier)
    while frontier:
        fresh = []
        for a in frontier:
            for b in out_adj[a]:
                if b not in parent:
                    parent[b] = a
                    fresh.append(b)
        fresh.sort()
        order.extend(fresh)
        frontier = fresh
    return parent, order


def _chain_instance(
    variables: Sequence[str],
    table: List[List[int]],
    states: _ChainStates,
    x: int,
    y: int,
) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """The chain x = x1 -> ... -> xn = y and its certificates c1 ..
    c(n-1), named by ``variables``, read off the chain-rule states of
    target y from the first witness that starts one; None when no
    instance concludes x -> y."""
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
        return tuple(variables[i] for i in xs), tuple(variables[i] for i in cs)
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

    The chain rule works on interned variables (indices into the sorted
    ``variables``): the context atoms are one ``_atom_table`` of bitmasks,
    built once, and ``in_mask[b]`` has bit a set for each edge a -> b.
    The cycle rule, the justifications and the ``edges`` map stay keyed
    by variable names.
    """

    def __init__(
        self,
        sigma: Sequence[FD],
        rules: RuleSet,
        extra_context_sets: Iterable[FrozenSet[str]],
        goal: Optional[Tuple[str, str]] = None,
    ):
        premise_edges, contexts, variables = _split_premises(sigma)
        extra = [frozenset(s) for s in extra_context_sets]
        self.variables: Tuple[str, ...] = tuple(sorted(set(variables).union(*extra)))
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.use_chain = rules is RuleSet.FULL
        if self.use_chain:
            self.atom_table = _atom_table(self.index, contexts + extra)
        self.edges: Dict[Tuple[str, str], Tuple] = {}
        self.out_adj: Dict[str, List[str]] = {v: [] for v in self.variables}
        self.in_mask = [0] * len(self.variables)
        for u, v in sorted(set(premise_edges)):
            self._add((u, v), ("premise",))
        for v in self.variables:
            if (v, v) not in self.edges:
                self._add((v, v), ("reflexivity",))
        self.goal = goal
        self._run()

    def _add(self, edge: Tuple[str, str], justification: Tuple) -> None:
        if edge in self.edges:
            return
        self.edges[edge] = justification
        insort(self.out_adj[edge[0]], edge[1])
        self.in_mask[self.index[edge[1]]] |= 1 << self.index[edge[0]]

    def _path_edges(
        self, x: str, y: str, parent: Dict[str, str]
    ) -> Tuple[Tuple[str, str], ...]:
        path = []
        walk = y
        while walk != x:
            path.append((parent[walk], walk))
            walk = parent[walk]
        path.reverse()
        return tuple(path)

    def _run(self) -> None:
        goal = self.goal
        if goal is not None and goal[1] not in _reach(self.out_adj, goal[0])[0]:
            return
        # A goal's own pass comes first; the run ends once it is derived.
        while goal not in self.edges:
            additions = goal is not None and self._pass(goal) or self._pass(None)
            if not additions:
                return
            for edge in sorted(additions):
                self._add(edge, additions[edge])

    def _pass(self, goal: Optional[Tuple[str, str]]) -> Dict[Tuple[str, str], Tuple]:
        """What the next pass derives, with justifications; given a goal
        (x, y) with y reachable from x, only what it derives for that pair."""
        names = self.variables
        additions: Dict[Tuple[str, str], Tuple] = {}
        for x in names if goal is None else goal[:1]:
            parent, order = _reach(self.out_adj, x)
            for y in order if goal is None else goal[1:]:
                if y == x or (x, y) in self.edges or (x, y) in additions:
                    continue
                if (y, x) in self.edges:
                    path = self._path_edges(x, y, parent)
                    additions[(x, y)] = ("cycle", path, (y, x))
        if self.use_chain:
            for y in range(len(names)) if goal is None else [self.index[goal[1]]]:
                states = _chain_states(self.atom_table, self.in_mask, y)
                # Only a variable that starts a reached state can start
                # an instance; an edge x -> y (x = y included) needs none.
                starts = 0
                for mask in states[1]:
                    starts |= mask
                if goal is not None:
                    starts &= 1 << self.index[goal[0]]
                for x in _bits(starts & ~self.in_mask[y]):
                    if (names[x], names[y]) in additions:
                        continue
                    instance = _chain_instance(names, self.atom_table, states, x, y)
                    if instance is not None:
                        additions[(names[x], names[y])] = ("chain",) + instance
        return additions


def _split_premises(sigma: Sequence[FD]) -> Tuple[List[Tuple[str, str]], List[FrozenSet[str]], List[str]]:
    """Unary edges, context sets, and variables of a premise list;
    rejects dependencies outside the unary + CD fragment."""
    edges: List[Tuple[str, str]] = []
    contexts: List[FrozenSet[str]] = []
    variables: Set[str] = set()
    for fd in sigma:
        if fd.is_unary:
            (u,) = fd.lhs
            (v,) = fd.rhs
            edges.append((u, v))
        elif not fd.is_cd:
            raise UnsupportedDependencyError(
                f"{fd.display()} is neither unary nor a CD; "
                "only CLASSICAL and NRA accept general dependencies"
            )
        contexts.append(fd.variables)
        variables |= fd.variables
    return edges, contexts, sorted(variables)


def cycle_rule_derives(sigma: Iterable[FD], x: str, y: str) -> bool:
    """One cycle-rule application from the premises as given: a directed
    path x to y among the stated unary dependencies, closed by the stated
    edge y -> x."""
    edges, _, variables = _split_premises(list(sigma))
    if (y, x) not in set(edges):
        return False
    out_adj: Dict[str, List[str]] = {v: [] for v in variables}
    for u, v in sorted(set(edges)):
        out_adj[u].append(v)
    parent, _ = _reach(out_adj, x)
    return y in parent


def chain_rule_derives(sigma: Iterable[FD], x: str, y: str) -> bool:
    """One chain-rule application from the premises as given.

    True when some chain x = x1 -> ... -> xn = y exists among the stated
    unary dependencies together with certificates c_i -> y, such that all
    the required three-variable contexts (drawn from the premises'
    variable sets) are available.
    """
    edges, contexts, variables = _split_premises(list(sigma))
    index = {v: i for i, v in enumerate(variables)}
    if x not in index or y not in index:
        return False
    table = _atom_table(index, contexts)
    in_mask = [0] * len(variables)
    for a, b in edges:
        in_mask[index[b]] |= 1 << index[a]
    states = _chain_states(table, in_mask, index[y])
    return _chain_instance(variables, table, states, index[x], index[y]) is not None


def derivation_closure(
    sigma: Iterable[FD],
    rules: RuleSet = RuleSet.CR,
    extra_context_sets: Iterable[FrozenSet[str]] = (),
) -> FrozenSet[FD]:
    """All unary dependencies derivable from the premises.

    ``extra_context_sets`` admits additional variable sets (a goal's, in
    particular) without adding premises.  Only CR and FULL are closure
    systems here; CLASSICAL and NRA answer via attribute closure in
    :func:`derives`.
    """
    if rules not in (RuleSet.CR, RuleSet.FULL):
        raise ValueError("closure is defined for the CR and FULL rule sets")
    engine = _ClosureEngine(list(sigma), rules, extra_context_sets)
    return frozenset(FD.unary(u, v) for (u, v) in engine.edges)


def _trace_node(
    engine: _ClosureEngine, premise_cds: Set[FrozenSet[str]], node: Tuple
) -> Tuple[List[Tuple], FD, str, Tuple]:
    """A trace node, ("fd", edge) or ("cd", set): its antecedent nodes in
    trace order (a cycle's path and closing edge, or a chain's required
    edges and then its context sets), its dependency, rule and detail."""
    kind, item = node
    if kind == "cd":
        return [], FD(item, item), "premise" if item in premise_cds else "reflexivity", ()
    just = engine.edges[item]
    if just[0] == "cycle":
        _, path, closing = just
        return [("fd", e) for e in path + (closing,)], FD.unary(*item), "cycle", ()
    if just[0] == "chain":
        _, xs, cs = just
        needed_edges, needed_sets = _chain_requirements(xs, cs)
        needed = [("fd", e) for e in needed_edges] + [("cd", s) for s in needed_sets]
        return needed, FD.unary(*item), "chain", ("unary", xs, cs)
    return [], FD.unary(*item), just[0], ()


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
        _split_premises(sigma)
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
        rule = "premise" if cd in set(sigma) else "reflexivity"
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
            f"goal {phi.display()} is neither unary nor a CD; use CLASSICAL or NRA"
        )
    return True, DerivationTrace((TraceStep(phi, "reflexivity"),))


# ---------------------------------------------------------------------------
# Counterexamples and the bounded semantic oracle


def build_counterexample(
    sigma: Iterable[FD], phi: FD, kind: MonoidKind = MonoidKind.B
) -> ContextualFamily:
    """A locally consistent family satisfying the premises and violating
    the goal, for goals the cycle rule cannot derive.

    Works in the fragment behind the completeness argument: unary
    premises with at most binary CDs and a unary goal.  Two shapes cover
    everything.  With no premise path from x to y, two global rows
    (all zeroes, and the indicator of the non-reachable part) project to
    a globally consistent counterexample.  With such a path, the goal's
    context gets all four rows over {x, y} while every other context gets
    the two diagonal rows; weighted kinds annotate the four rows a = 1
    and the diagonals b = 2, using a + a = b to balance the marginals.
    """
    premises = list(sigma)
    for fd in premises:
        if not fd.is_unary and not (fd.is_cd and len(fd.lhs) <= 2):
            raise UnsupportedDependencyError(
                f"counterexample construction covers unary premises and "
                f"binary CDs; got {fd.display()}"
            )
    if not phi.is_unary:
        raise UnsupportedDependencyError("the goal must be a unary dependency")
    (x,) = phi.lhs
    (y,) = phi.rhs
    if x == y:
        raise ValueError(f"{phi.display()} is reflexive, hence always derivable")
    derivable, engine = _decide_unary(premises, phi, RuleSet.CR)
    if derivable:
        raise ValueError(f"{phi.display()} is derivable; no counterexample exists")

    contexts = ContextSet.from_sets(
        [fd.variables for fd in premises] + [phi.variables]
    )
    variables = sorted(contexts.variables)
    # Derived edges only join vertices that already reach each other, so
    # this is reachability along premise edges, plus x by reflexivity,
    # however far the goal-directed engine ran.
    reached, _ = _reach(engine.out_adj, x)
    one = MonoidValue.one(kind)
    if y not in reached:
        row_zero = ("0",) * len(variables)
        row_split = tuple("0" if v in reached else "1" for v in variables)
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
            raise AssertionError(f"construction violates premise {fd.display()}")
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
    into a sampler.  Two devices make it fast without changing which
    family comes first.  Each context's candidates are bucketed by their
    projections onto its overlaps with earlier contexts, so a depth walks
    only the bucket that agrees with the choices above it.  And a depth
    whose view (the earlier choices' projections onto their overlaps with
    this and later contexts) failed before is skipped (nogood recording).
    A projection is a mask over all restrictions to the overlap, ranked
    in sorted order, so equal projections are equal ints in any context;
    each is computed once per search.  The walk keeps an explicit stack.
    Overlapping supports agree and none is empty, so the family is
    assembled unchecked.
    """
    contexts = context_set.maximal
    vs_list: List[Tuple[str, ...]] = []
    candidate_lists: List[List[int]] = []
    # Contexts of one arity share their rows, and often their candidates.
    rows_of: Dict[int, List[Tuple[str, ...]]] = {}
    for c in contexts:
        vs, rows, cands = _context_candidates(c, sigma, phi, domain, max_rows)
        if not cands:
            return None
        rows_of[len(vs)] = rows
        if rng is not None:
            rng.shuffle(cands)
        vs_list.append(vs)
        candidate_lists.append(cands)

    n = len(contexts)
    # later[d] lists the later depths whose contexts overlap depth d's;
    # out_ids[d][i] holds candidate i's projections onto those overlaps,
    # and buckets[d] groups candidate indices by their projections onto
    # earlier ones.
    later: List[List[int]] = [[] for _ in range(n)]
    buckets: List[Dict[Tuple[int, ...], List[int]]] = []
    out_ids: List[List[Tuple[int, ...]]] = []

    @functools.lru_cache(maxsize=None)
    def restriction_bits(arity: int, idx: Tuple[int, ...]) -> List[int]:
        """Per row, the bit of its restriction to positions idx, ranked
        among all those restrictions in sorted order."""
        restricted = [tuple(row[p] for p in idx) for row in rows_of[arity]]
        rank = {t: 1 << i for i, t in enumerate(sorted(set(restricted)))}
        return [rank[t] for t in restricted]

    @functools.lru_cache(maxsize=None)
    def project(arity: int, idx: Tuple[int, ...], cand: int) -> int:
        bits = restriction_bits(arity, idx)
        out = 0
        for j in _bits(cand):
            out |= bits[j]
        return out

    for d, c in enumerate(contexts):
        positions = []
        for k in range(n):
            shared = sorted(c & contexts[k])
            if k != d and shared:
                positions.append(tuple(vs_list[d].index(v) for v in shared))
                if k > d:
                    later[d].append(k)
        split = len(positions) - len(later[d])
        bucket: Dict[Tuple[int, ...], List[int]] = {}
        outs = []
        for i, cand in enumerate(candidate_lists[d]):
            proj = [project(len(c), idx, cand) for idx in positions]
            bucket.setdefault(tuple(proj[:split]), []).append(i)
            outs.append(tuple(proj[split:]))
        buckets.append(bucket)
        out_ids.append(outs)
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
    for context, vs, cands, i in zip(contexts, vs_list, candidate_lists, chosen):
        rows = rows_of[len(vs)]
        relations.append(KRelation(context, MonoidKind.B, {rows[j]: 1 for j in _bits(cands[i])}))
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
    fragment = phi.is_unary and all(
        fd.is_unary or (fd.is_cd and len(fd.lhs) <= 2) for fd in premises
    )
    conclusive = fragment and domain_size >= 2 and max_rows >= 4
    if phi.rhs <= phi.lhs:
        return EntailmentVerdict(True, None, True)
    contexts = ContextSet.from_sets([fd.variables for fd in premises] + [phi.variables])
    domain = [str(i) for i in range(domain_size)]
    counterexample = _backtrack_family(contexts, premises, phi, domain, max_rows)
    if counterexample is not None:
        return EntailmentVerdict(False, counterexample, True)
    return EntailmentVerdict(True, None, conclusive)


def random_family_satisfying(
    sigma: Iterable[FD],
    rng,
    domain_size: int = 2,
    max_rows: int = 4,
    extra_context_sets: Iterable[FrozenSet[str]] = (),
) -> Optional[ContextualFamily]:
    """A pseudo-random locally consistent B-family over the premises'
    contexts (plus any extra sets) satisfying every premise, or None when
    even the bounded search space holds no such family, or there are no
    contexts to build one over."""
    premises = sorted(set(sigma), key=lambda f: f.sort_key)
    sets = [fd.variables for fd in premises] + [frozenset(s) for s in extra_context_sets]
    contexts = ContextSet.from_sets(sets)
    if not contexts:
        return None
    domain = [str(i) for i in range(domain_size)]
    return _backtrack_family(contexts, premises, None, domain, max_rows, rng=rng)
