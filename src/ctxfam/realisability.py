"""Realisability of supports: which B-families carry weighted annotations.

A locally consistent B-family fixes a support; whether some N- or
Q-family exists with exactly that support is the realisability question.
Over *chordless-cycle* context sets (n >= 3 maximal contexts whose
intersection graph is a single cycle) the question has a purely
graph-theoretic answer: build the overlap projection graph, whose
vertices are boundary values and whose edges are the supported rows, and
ask whether every edge lies on a cycle.  Sufficiency is witnessed
constructively by summing uniform lifts of simple cycles; necessity needs
positivity and cancellativity of the annotation monoid.

For arbitrary context sets the package falls back to exact rational
feasibility over one unknown weight per supported row (see
:mod:`ctxfam.feasibility`); a natural-valued witness follows from a
rational one by clearing denominators, because the marginal-agreement
constraints are homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .family import ContextSet, ContextualFamily
from .feasibility import find_rational_solution
from .monoid import MonoidKind, MonoidValue
from .relation import Assignment, KRelation, scalar_fill


class NotChordlessCycleError(ValueError):
    """Raised when a context set is not a chordless cycle of contexts."""


class NotSimplyCyclicError(ValueError):
    """Raised when a family is not a single simple cycle of assignments."""


class NotRealisableError(ValueError):
    """Raised when a requested realisation does not exist."""

    def __init__(self, message: str, uncovered: Tuple["OpgEdge", ...] = ()):
        super().__init__(message)
        self.uncovered = uncovered


@dataclass(frozen=True)
class CycleOrdering:
    """Maximal contexts arranged so neighbours, and only neighbours,
    intersect.  Index arithmetic is cyclic."""

    contexts: Tuple[FrozenSet[str], ...]

    def __len__(self) -> int:
        return len(self.contexts)

    def boundary(self, i: int) -> FrozenSet[str]:
        """Shared variables of context i and context i+1 (cyclically)."""
        n = len(self.contexts)
        return self.contexts[i % n] & self.contexts[(i + 1) % n]


def classify_chordless_cycle(contexts: ContextSet) -> CycleOrdering:
    """Arrange a context set as a chordless cycle, or explain why not.

    Requirements: at least three maximal contexts, every context
    intersecting exactly two others, and the intersection graph connected
    (a single cycle).  The returned ordering starts at the least context
    and proceeds toward its lesser neighbour, so it is deterministic.
    """
    sets = list(contexts)
    m = len(sets)
    if m < 3:
        raise NotChordlessCycleError(
            f"a chordless cycle needs at least 3 contexts, got {m}"
        )
    neighbours: List[List[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j and sets[i] & sets[j]:
                neighbours[i].append(j)
    for i in range(m):
        if len(neighbours[i]) != 2:
            raise NotChordlessCycleError(
                f"context {{{','.join(sorted(sets[i]))}}} intersects "
                f"{len(neighbours[i])} other contexts, expected exactly 2"
            )
    start = 0  # sets come sorted from ContextSet
    order = [start]
    current = min(neighbours[start])
    previous = start
    while current != start:
        order.append(current)
        nxt = [j for j in neighbours[current] if j != previous]
        previous, current = current, nxt[0]
    if len(order) != m:
        raise NotChordlessCycleError(
            "the intersection graph of the contexts is not connected"
        )
    return CycleOrdering(tuple(sets[i] for i in order))


@dataclass(frozen=True)
class OpgVertex:
    """A boundary value: (layer index, assignment on that boundary)."""

    layer: int
    boundary: Assignment

    @property
    def sort_key(self) -> Tuple:
        return (self.layer, self.boundary.sort_key)

    def __str__(self) -> str:
        values = ",".join(str(val) for _, val in self.boundary.items())
        return f"{self.layer}:{values}"


@dataclass(frozen=True)
class OpgEdge:
    """One supported row, drawn from its incoming boundary value to its
    outgoing one.  ``context_index`` names the layer whose relation holds
    the generating assignment."""

    source: OpgVertex
    target: OpgVertex
    label: Assignment
    context_index: int

    @property
    def sort_key(self) -> Tuple:
        return (self.context_index, self.label.sort_key)

    def describe(self) -> str:
        return f"{self.source} -> {self.target}  {self.label}"


class OverlapProjectionGraph:
    """The boundary-value graph of a family over a chordless cycle.

    Layer i holds the values of the boundary shared by contexts i and
    i+1; each row of context i contributes one edge from its value on
    boundary i-1 to its value on boundary i.  The graph is cyclically
    n-partite: every edge advances the layer by one, modulo n.
    """

    __slots__ = ("ordering", "vertices", "edges", "_out", "_in", "_index", "_succ")

    def __init__(self, ordering: CycleOrdering, edges: Iterable[OpgEdge]):
        self.ordering = ordering
        self.edges = tuple(sorted(edges, key=lambda e: e.sort_key))
        verts = {e.source for e in self.edges} | {e.target for e in self.edges}
        self.vertices = tuple(sorted(verts, key=lambda v: v.sort_key))
        out: Dict[OpgVertex, List[OpgEdge]] = {v: [] for v in self.vertices}
        inc: Dict[OpgVertex, List[OpgEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.source].append(e)
            inc[e.target].append(e)
        self._out = out
        self._in = inc
        # The same out-adjacency on integers: vertex i is vertices[i], and
        # _succ[i] lists (edge index, target index) in sorted edge order.
        index = {v: i for i, v in enumerate(self.vertices)}
        succ: List[List[Tuple[int, int]]] = [[] for _ in self.vertices]
        for k, e in enumerate(self.edges):
            succ[index[e.source]].append((k, index[e.target]))
        self._index = index
        self._succ = succ

    def out_edges(self, v: OpgVertex) -> List[OpgEdge]:
        return self._out[v]

    def in_edges(self, v: OpgVertex) -> List[OpgEdge]:
        return self._in[v]

    def strongly_connected_components(self) -> List[FrozenSet[OpgVertex]]:
        """Kosaraju's two-pass sweep, in deterministic vertex order."""
        finish: List[OpgVertex] = []
        seen = set()
        for root in self.vertices:
            if root in seen:
                continue
            stack: List[Tuple[OpgVertex, int]] = [(root, 0)]
            seen.add(root)
            while stack:
                node, i = stack.pop()
                succs = self._out[node]
                if i < len(succs):
                    stack.append((node, i + 1))
                    nxt = succs[i].target
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    finish.append(node)
        component: Dict[OpgVertex, int] = {}
        labels = 0
        for root in reversed(finish):
            if root in component:
                continue
            stack2 = [root]
            component[root] = labels
            while stack2:
                node = stack2.pop()
                for e in self._in[node]:
                    if e.source not in component:
                        component[e.source] = labels
                        stack2.append(e.source)
            labels += 1
        groups: Dict[int, List[OpgVertex]] = {}
        for v, c in component.items():
            groups.setdefault(c, []).append(v)
        comps = [frozenset(g) for g in groups.values()]
        return sorted(comps, key=lambda c: min(v.sort_key for v in c))

    def uncovered_edges(self) -> Tuple[OpgEdge, ...]:
        """Edges lying on no cycle: endpoints in different components."""
        component: Dict[OpgVertex, int] = {}
        for i, comp in enumerate(self.strongly_connected_components()):
            for v in comp:
                component[v] = i
        return tuple(
            e for e in self.edges if component[e.source] != component[e.target]
        )

    @property
    def has_edge_cycle_cover(self) -> bool:
        return not self.uncovered_edges()

    def to_dot(self) -> str:
        """Deterministic DOT text: sorted vertices, then sorted edges."""
        lines = ["digraph opg {", "  rankdir=LR;"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for e in self.edges:
            lines.append(f'  "{e.source}" -> "{e.target}" [label="{e.label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_opg(
    family: ContextualFamily, ordering: Optional[CycleOrdering] = None
) -> OverlapProjectionGraph:
    """The overlap projection graph of a family's support.

    The family's context set must classify as a chordless cycle.  Only
    the support matters, so any kind is accepted.
    """
    if ordering is None:
        ordering = classify_chordless_cycle(family.contexts)
    n = len(ordering)
    edges: List[OpgEdge] = []
    for i in range(n):
        context = ordering.contexts[i]
        before = ordering.boundary(i - 1)
        after = ordering.boundary(i)
        rel = family.relation_at(context)
        for row, _ in rel.rows():
            source = OpgVertex((i - 1) % n, row.restrict(before))
            target = OpgVertex(i, row.restrict(after))
            edges.append(OpgEdge(source, target, row, i))
    return OverlapProjectionGraph(ordering, edges)


def _shortest_path(
    succ: List[List[Tuple[int, int]]], start: int, goal: int
) -> Optional[List[int]]:
    """Edge indices of a shortest path from ``start`` to ``goal``.

    Breadth-first search over integer out-adjacency lists, expanding each
    vertex's successors in list order and stopping at the first edge that
    reaches the goal, so equal-length paths are broken deterministically.
    None when the goal is unreachable.
    """
    if start == goal:
        return []
    parent: Dict[int, Tuple[int, int]] = {}
    queue = [start]
    seen = {start}
    while queue:
        fresh: List[int] = []
        for node in queue:
            for k, nxt in succ[node]:
                if nxt == goal:
                    path = [k]
                    walk = node
                    while walk != start:
                        k, walk = parent[walk]
                        path.append(k)
                    path.reverse()
                    return path
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (k, node)
                    fresh.append(nxt)
        queue = fresh
    return None


def find_simple_cycle_through(
    graph: OverlapProjectionGraph, edge: OpgEdge
) -> List[OpgEdge]:
    """A shortest simple cycle whose first edge is the given one.

    Breadth-first search from the edge's target back to its source, with
    neighbours expanded in sorted order, so the result is deterministic.
    Raises :class:`NotRealisableError` when the edge lies on no cycle.
    """
    path = _shortest_path(
        graph._succ, graph._index[edge.target], graph._index[edge.source]
    )
    if path is None:
        raise NotRealisableError(
            f"edge {edge.describe()} lies on no cycle", uncovered=(edge,)
        )
    return [edge] + [graph.edges[k] for k in path]


def lift_uniform(sub: ContextualFamily, weight: MonoidValue) -> ContextualFamily:
    """Annotate a simply cyclic B-family uniformly with one nonzero weight.

    The input must be a B-family whose overlap projection graph is a
    single simple cycle through every supported row.  Such a cycle meets
    every layer the same number of times, which is exactly why the
    uniform annotation is consistent for any annotation monoid.
    """
    if sub.kind is not MonoidKind.B:
        raise ValueError("lift_uniform expects a B-family")
    if weight.is_zero:
        raise ValueError("lift weight must be nonzero")
    graph = build_opg(sub)
    if not graph.vertices:
        raise NotSimplyCyclicError("the empty family is not a cycle")
    for v in graph.vertices:
        if len(graph.out_edges(v)) != 1 or len(graph.in_edges(v)) != 1:
            raise NotSimplyCyclicError(
                f"vertex {v} has degree other than one in each direction"
            )
    comps = graph.strongly_connected_components()
    if len(comps) != 1:
        raise NotSimplyCyclicError("the support splits into several cycles")
    lifted = [
        scalar_fill(weight, rel.variables, rel.support)
        for rel in sub.maximal_relations()
    ]
    return ContextualFamily(lifted)


def realisable_chordless(family: ContextualFamily, kind: MonoidKind) -> bool:
    """Whether the support admits any family in a cancellative kind.

    Decided structurally: realisable exactly when every edge of the
    overlap projection graph lies on a cycle.  The argument needs
    positivity and cancellativity, so B is rejected (where the question
    is trivial anyway: the B-family is its own realisation).
    """
    if not kind.is_cancellative:
        raise ValueError("the cycle-cover criterion needs a cancellative kind")
    if family.kind is not MonoidKind.B:
        raise ValueError("realisability is a property of a B-family support")
    return build_opg(family).has_edge_cycle_cover


def realise(
    family: ContextualFamily,
    kind: MonoidKind,
    weight: Optional[MonoidValue] = None,
) -> ContextualFamily:
    """A family of the requested kind with exactly the given support.

    The witness is the sum of one uniform lift of ``weight`` per supported
    row, along the cycle :func:`find_simple_cycle_through` picks for that
    row; only how many of those cycles cross each row matters.  So this
    builds the overlap projection graph and its components once, runs one
    breadth-first search per edge, counts the chosen cycles through every
    row, and annotates each row ``count x weight`` (just ``weight`` in B).
    The witness is built and validated once, then its support is checked
    against the input.  Raises
    :class:`NotRealisableError`, carrying the uncovered edges, when no
    realisation exists.
    """
    if family.kind is not MonoidKind.B:
        raise ValueError("realise expects a B-family support")
    if weight is None:
        weight = MonoidValue.one(kind)
    if weight.kind is not kind:
        raise ValueError(f"weight {weight} is not of kind {kind}")
    if weight.is_zero:
        raise ValueError("realisation weight must be nonzero")
    graph = build_opg(family)
    uncovered = graph.uncovered_edges()
    if uncovered:
        listing = "; ".join(e.describe() for e in uncovered)
        raise NotRealisableError(f"support is not realisable: {listing}", uncovered)
    counts: Dict[Assignment, int] = {}
    for edge in graph.edges:
        for e in find_simple_cycle_through(graph, edge):
            counts[e.label] = counts.get(e.label, 0) + 1
    weights = {
        label: weight if kind is MonoidKind.B else MonoidValue(kind, weight.payload * count)
        for label, count in counts.items()
    }
    total = family_from_weights(family.contexts, weights, kind)
    if total.support() != family.support():
        raise AssertionError("realisation changed the support; internal bug")
    return total


def decompose_cycles(
    family: ContextualFamily,
) -> List[Tuple[MonoidValue, ContextualFamily]]:
    """Peel a weighted family into uniform simple cycles.

    Repeatedly takes the least vertex of the overlap projection graph
    that still has a live edge, picks the shortest cycle over its
    out-edges (the first in sorted edge order among equals), and
    subtracts the least annotation along it; an edge dies when its
    residual reaches zero.  The graph is built once: residual weights
    and live out-adjacency are kept on integer indices, and each peel
    costs one breadth-first search over live edges per out-edge of its
    start vertex.  Local consistency makes the weights a circulation on
    the graph, and subtracting a cycle keeps it one, so a vertex with a
    live in-edge still has a live out-edge and the start vertex only
    moves forward.  The parts reconstruct the input exactly:
    sum of ``lift_uniform(part, weight)`` equals the family.
    """
    if not family.kind.is_cancellative:
        raise ValueError("decomposition needs a cancellative kind")
    graph = build_opg(family)
    edges = graph.edges
    relations = [family.relation_at(c) for c in graph.ordering.contexts]
    residual = [relations[e.context_index].annotation(e.label).payload for e in edges]
    succ = [list(out) for out in graph._succ]
    ends = [(graph._index[e.source], graph._index[e.target]) for e in edges]
    live = len(edges)
    start = 0
    one = MonoidValue.one(MonoidKind.B)
    parts: List[Tuple[MonoidValue, ContextualFamily]] = []
    while live:
        while not succ[start]:
            start += 1
        cycles = []
        for k, nxt in succ[start]:
            path = _shortest_path(succ, nxt, start)
            if path is None:
                raise AssertionError("residual is not a circulation; internal bug")
            cycles.append([k] + path)
        best = min(cycles, key=len)
        least = min(residual[k] for k in best)
        sub = family_from_weights(
            family.contexts, {edges[k].label: one for k in best}, MonoidKind.B
        )
        parts.append((MonoidValue(family.kind, least), sub))
        for k in best:
            residual[k] -= least
            if not residual[k]:
                source, target = ends[k]
                succ[source].remove((k, target))
                live -= 1
    return parts


def realisable_lp(
    family: ContextualFamily, kind: MonoidKind
) -> Optional[Dict[Assignment, MonoidValue]]:
    """Realisability of an arbitrary support by exact rational feasibility.

    One unknown per supported row, each at least one, with the pairwise
    marginal-agreement equations (the empty overlap contributes equality
    of total masses).  The constraints are homogeneous, so scaling a
    rational witness by the least common denominator yields a natural
    witness: feasibility does not depend on the cancellative kind chosen.
    Returns the witness weights, or None when the support is not
    realisable.
    """
    if family.kind is not MonoidKind.B:
        raise ValueError("realisable_lp expects a B-family support")
    if not kind.is_cancellative:
        raise ValueError("realisability concerns the kinds N and Q")
    labels = family.labels()
    if not labels:
        return {}
    equalities: List[Tuple[Dict[Assignment, Fraction], Fraction]] = []
    contexts = list(family.contexts)
    by_context: Dict[FrozenSet[str], List[Assignment]] = {
        c: [row for row, _ in family.relation_at(c).rows()] for c in contexts
    }
    for i, ci in enumerate(contexts):
        for cj in contexts[i + 1 :]:
            shared = ci & cj
            groups: Dict[Assignment, Dict[Assignment, Fraction]] = {}
            for row in by_context[ci]:
                groups.setdefault(row.restrict(shared), {})[row] = Fraction(1)
            for row in by_context[cj]:
                cell = groups.setdefault(row.restrict(shared), {})
                cell[row] = cell.get(row, Fraction(0)) - Fraction(1)
            for key in sorted(groups, key=lambda a: a.sort_key):
                equalities.append((groups[key], Fraction(0)))
    lower = {row: Fraction(1) for row in labels}
    solution = find_rational_solution(equalities, lower, labels)
    if solution is None:
        return None
    if kind is MonoidKind.Q:
        return {row: MonoidValue.of(MonoidKind.Q, w) for row, w in solution.items()}
    scale = 1
    for w in solution.values():
        scale = scale * w.denominator // _gcd(scale, w.denominator)
    return {
        row: MonoidValue.of(MonoidKind.N, int(w * scale))
        for row, w in solution.items()
    }


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def family_from_weights(
    contexts: ContextSet,
    weights: Dict[Assignment, MonoidValue],
    kind: Optional[MonoidKind] = None,
) -> ContextualFamily:
    """Assemble a family from per-row weights (as produced by
    :func:`realisable_lp`); rows group by their variable sets.  The kind
    argument is only needed when the weight map is empty."""
    kinds = {w.kind for w in weights.values()}
    if kind is not None:
        kinds.add(kind)
    if len(kinds) != 1:
        raise ValueError("weights must share one kind" if kinds else "empty weights need an explicit kind")
    kind = kinds.pop()
    grouped: Dict[FrozenSet[str], Dict[Assignment, MonoidValue]] = {
        c: {} for c in contexts
    }
    for row, value in weights.items():
        grouped[row.variables][row] = value
    return ContextualFamily(
        [KRelation(c, kind, rows) for c, rows in grouped.items()]
    )


def find_realisation(family: ContextualFamily, kind: MonoidKind) -> ContextualFamily:
    """A family of kind N or Q with exactly the given support, over any
    context set.

    Chordless cycles are decided by the graph test and realised by
    :func:`realise`, which builds the overlap projection graph once; other
    context sets go to :func:`realisable_lp`.  Raises
    :class:`NotRealisableError` when the support is not realisable; its
    ``uncovered`` edges are those of the graph test, and empty when the
    LP refused.
    """
    try:
        return realise(family, kind)
    except NotChordlessCycleError:
        weights = realisable_lp(family, kind)
        if weights is None:
            raise NotRealisableError("support is not realisable") from None
        return family_from_weights(family.contexts, weights, kind)
