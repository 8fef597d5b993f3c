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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .family import ContextSet, ContextualFamily
from .feasibility import find_rational_solution
from .monoid import MonoidKind, MonoidValue
from .relation import Assignment, Key, KRelation, Payload, _agreement, _cells, _projection, _row_order


_DOT_QUOTED = str.maketrans({"\\": "\\\\", '"': '\\"'})  # escapes inside a quoted DOT string


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

    def describe(self) -> str:
        return f"{self.source} -> {self.target}  {self.label}"


class OverlapProjectionGraph:
    """The boundary-value graph of a family over a chordless cycle.

    Layer i holds the values of the boundary shared by contexts i and
    i+1; each row of context i contributes one edge from its value on
    boundary i-1 to its value on boundary i.  The graph is cyclically
    n-partite: every edge advances the layer by one, modulo n.

    Vertex i is ``vertices[i]`` and edge k is ``edges[k]``, drawn from
    vertex ``_ends[k][0]`` to vertex ``_ends[k][1]``; ``_succ[i]`` lists
    ``(edge number, target number)`` for the edges leaving vertex i, in
    edge order.  Every graph path reads these integer lists, so no vertex
    is looked up by hash.
    """

    __slots__ = ("ordering", "vertices", "edges", "_ends", "_succ")

    def __init__(
        self,
        ordering: CycleOrdering,
        vertices: Iterable[OpgVertex],
        edges: Iterable[OpgEdge],
        ends: Iterable[Tuple[int, int]],
    ):
        """Takes the vertices and edges in the order :func:`build_opg`
        numbers them, and each edge's source and target numbers; it only
        fills the adjacency lists."""
        self.ordering = ordering
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._ends = tuple(ends)
        self._succ: List[List[Tuple[int, int]]] = [[] for _ in self.vertices]
        for k, (source, target) in enumerate(self._ends):
            self._succ[source].append((k, target))

    def _component_labels(self) -> List[int]:
        """Kosaraju's two-pass sweep: the component of every vertex number.
        The second pass walks edges backwards, from lists built here."""
        finish: List[int] = []
        seen = [False] * len(self.vertices)
        for root in range(len(self.vertices)):
            if seen[root]:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            seen[root] = True
            while stack:
                node, i = stack.pop()
                succs = self._succ[node]
                if i < len(succs):
                    stack.append((node, i + 1))
                    nxt = succs[i][1]
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append((nxt, 0))
                else:
                    finish.append(node)
        pred: List[List[int]] = [[] for _ in self.vertices]
        for source, target in self._ends:
            pred[target].append(source)
        component = [-1] * len(self.vertices)
        labels = 0
        for root in reversed(finish):
            if component[root] >= 0:
                continue
            stack2 = [root]
            component[root] = labels
            while stack2:
                node = stack2.pop()
                for prev in pred[node]:
                    if component[prev] < 0:
                        component[prev] = labels
                        stack2.append(prev)
            labels += 1
        return component

    def uncovered_edges(self) -> Tuple[OpgEdge, ...]:
        """Edges lying on no cycle: endpoints in different components."""
        component = self._component_labels()
        return tuple(e for e, (source, target) in zip(self.edges, self._ends)
                     if component[source] != component[target])

    @property
    def has_edge_cycle_cover(self) -> bool:
        return not self.uncovered_edges()

    def to_dot(self) -> str:
        """Deterministic DOT text: the vertices, each named by its number
        and labelled with its text, then the edges, in numbered order."""
        lines = ["digraph opg {", "  rankdir=LR;"]
        for i, v in enumerate(self.vertices):
            lines.append(f'  {i} [label="{str(v).translate(_DOT_QUOTED)}"];')
        for e, (source, target) in zip(self.edges, self._ends):
            lines.append(f'  {source} -> {target} [label="{str(e.label).translate(_DOT_QUOTED)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_opg(family: ContextualFamily) -> OverlapProjectionGraph:
    """The overlap projection graph of a family's support.

    The family's context set must classify as a chordless cycle.  Only
    the support matters, so any kind is accepted.  The vertices are
    numbered here, once: by layer, and within a layer in the row order
    (:func:`_row_order`) of their boundary values.  The edges come by
    context and then in stored row order, each with the numbers of its
    ends.
    """
    ordering = classify_chordless_cycle(family.contexts)
    relations = [family.relation_at(c) for c in ordering.contexts]
    sides = [
        (r, _projection(r.names, ordering.boundary(i - 1)), _projection(r.names, ordering.boundary(i)))
        for i, r in enumerate(relations)
    ]
    numbers: List[Dict[Key, int]] = [{} for _ in sides]
    for i, (relation, before, after) in enumerate(sides):
        numbers[i - 1].update(dict.fromkeys(map(before, relation._rows)))
        numbers[i].update(dict.fromkeys(map(after, relation._rows)))
    vertices: List[OpgVertex] = []
    for layer, number in enumerate(numbers):
        names = sorted(ordering.boundary(layer))
        values = list(number)
        for j in _row_order(values):
            number[values[j]] = len(vertices)
            vertices.append(OpgVertex(layer, Assignment._sorted(tuple(zip(names, values[j])))))
    edges: List[OpgEdge] = []
    ends: List[Tuple[int, int]] = []
    for i, (relation, before, after) in enumerate(sides):
        for key in relation._rows:
            source, target = numbers[i - 1][before(key)], numbers[i][after(key)]
            label = Assignment._sorted(tuple(zip(relation.names, key)))
            edges.append(OpgEdge(vertices[source], vertices[target], label, i))
            ends.append((source, target))
    return OverlapProjectionGraph(ordering, vertices, edges, ends)


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


def find_simple_cycle_through(graph: OverlapProjectionGraph, k: int) -> List[OpgEdge]:
    """A shortest simple cycle whose first edge is ``graph.edges[k]``.

    Breadth-first search from the edge's target back to its source, with
    neighbours expanded in edge order, so the result is deterministic.
    Raises :class:`NotRealisableError` when the edge lies on no cycle.
    """
    source, target = graph._ends[k]
    path = _shortest_path(graph._succ, target, source)
    if path is None:
        edge = graph.edges[k]
        raise NotRealisableError(f"edge {edge.describe()} lies on no cycle", uncovered=(edge,))
    return [graph.edges[j] for j in [k] + path]


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
    into = Counter(target for _, target in graph._ends)
    for i, (v, out) in enumerate(zip(graph.vertices, graph._succ)):
        if len(out) != 1 or into[i] != 1:
            raise NotSimplyCyclicError(
                f"vertex {v} has degree other than one in each direction"
            )
    if len(set(graph._component_labels())) != 1:
        raise NotSimplyCyclicError("the support splits into several cycles")
    lifted = [
        KRelation(rel.variables, weight.kind, dict.fromkeys(rel._rows, weight.payload))
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

    The witness is the sum of one uniform lift of ``weight`` along the
    cycle :func:`find_simple_cycle_through` picks for each edge of the
    overlap projection graph, so each row, edge k, is annotated ``count x
    weight`` (just ``weight`` in B), where count is the number of those
    cycles through edge k.  The witness is validated once, then its
    support is checked against the input.  A context set that is no
    chordless cycle raises :class:`NotChordlessCycleError` whatever the
    weight.  Raises :class:`NotRealisableError`, carrying the uncovered
    edges, when no realisation exists.
    """
    if family.kind is not MonoidKind.B:
        raise ValueError("realise expects a B-family support")
    graph = build_opg(family)
    if weight is None:
        weight = MonoidValue.one(kind)
    if weight.kind is not kind:
        raise ValueError(f"weight {weight} is not of kind {kind}")
    if weight.is_zero:
        raise ValueError("realisation weight must be nonzero")
    uncovered = graph.uncovered_edges()
    if uncovered:
        listing = "; ".join(e.describe() for e in uncovered)
        raise NotRealisableError(f"support is not realisable: {listing}", uncovered)
    # A cycle lists the graph's own edge objects, so identity names an edge.
    crossings = Counter(id(e) for k in range(len(graph.edges))
                        for e in find_simple_cycle_through(graph, k))
    base = weight.payload
    payloads = [base if kind is MonoidKind.B else base * crossings[id(e)] for e in graph.edges]
    relations = [family.relation_at(c) for c in graph.ordering.contexts]
    total = ContextualFamily(_reweighted(relations, payloads, kind))
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
    residual reaches zero.  Residual weights, rows and live out-adjacency
    are kept by edge and vertex number, so each peel costs one
    breadth-first search per out-edge of its start vertex.  Local consistency makes
    the weights a circulation on the graph, and subtracting a cycle keeps
    it one, so a vertex with a live in-edge still has a live out-edge and
    the start vertex only moves forward.  A part is a simple cycle,
    consistent by construction, so it is assembled without the pairwise
    check.  The parts reconstruct the input exactly: the sum of
    ``lift_uniform(part, weight)`` equals the family.
    """
    if not family.kind.is_cancellative:
        raise ValueError("decomposition needs a cancellative kind")
    graph = build_opg(family)
    relations = [family.relation_at(c) for c in graph.ordering.contexts]
    # Edge k is the k-th row of these relations, counted in stored order.
    rows = [(i, key) for i, rel in enumerate(relations) for key in rel._rows]
    residual = [p for rel in relations for p in rel._rows.values()]
    succ = [list(out) for out in graph._succ]
    live = len(rows)
    start = 0
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
        on_cycle: List[Dict[Key, Payload]] = [{} for _ in relations]
        for k in best:
            i, key = rows[k]
            on_cycle[i][key] = 1
        supports = [KRelation(rel.variables, MonoidKind.B, r) for rel, r in zip(relations, on_cycle)]
        sub = ContextualFamily._unchecked(family.contexts, MonoidKind.B, supports)
        parts.append((MonoidValue(family.kind, least), sub))
        for k in best:
            residual[k] -= least
            if not residual[k]:
                source, target = graph._ends[k]
                succ[source].remove((k, target))
                live -= 1
    return parts


def realisable_lp(
    family: ContextualFamily, kind: MonoidKind
) -> Optional[Dict[Assignment, MonoidValue]]:
    """Realisability of an arbitrary support by exact rational feasibility.

    One unknown per supported row, at least one each, and one equation per
    agreement cell (the empty overlap is one cell): the cell's rows of one
    context at +1 and of the other at -1 sum to 0, solved on the tableau of
    :func:`~ctxfam.feasibility.find_rational_solution`, where each row
    weight is a column, numbered context by context in stored row order.
    The constraints are homogeneous, so scaling a rational witness by the
    least common denominator yields a natural witness: feasibility does
    not depend on the cancellative kind chosen.  Returns the witness
    weights, or None when the support is not realisable.
    """
    weights = _lp_weights(family, kind)
    if weights is None:
        return None
    return {row: MonoidValue(kind, w) for row, w in zip(family.labels(), weights)}


def _lp_weights(family: ContextualFamily, kind: MonoidKind) -> Optional[List[Payload]]:
    """The witness of :func:`realisable_lp` as payloads of ``kind``, one per
    row, context by context in stored order; None when there is none."""
    if family.kind is not MonoidKind.B:
        raise ValueError("realisable_lp expects a B-family support")
    if not kind.is_cancellative:
        raise ValueError("realisability concerns the kinds N and Q")
    relations = list(family.maximal_relations())
    numbers = count()  # zip reads rel._rows first, so no number is skipped
    number = {rel.variables: dict(zip(rel._rows, numbers)) for rel in relations}
    unknowns = sum(map(len, relations))
    if not unknowns:
        return []
    equalities: List[Tuple[Dict[int, int], Fraction]] = []
    for r, s, left, right in _agreement(relations):
        ours, theirs = number[r.variables], number[s.variables]
        for _, a, b in _cells(left, right):
            cell = {ours[key]: 1 for key in a or ()}
            cell.update((theirs[key], -1) for key in b or ())
            equalities.append((cell, Fraction(0)))
    columns = range(unknowns)
    solution = find_rational_solution(equalities, dict.fromkeys(columns, Fraction(1)), columns)
    if solution is None:
        return None
    weights = [solution[n] for n in columns]
    if kind is MonoidKind.Q:
        return weights
    scale = lcm(*(w.denominator for w in weights))
    return [int(w * scale) for w in weights]


def _reweighted(relations: List[KRelation], payloads: List[Payload], kind: MonoidKind) -> List[KRelation]:
    """The rows of ``relations`` in ``kind``, numbered relation by relation
    in stored order, the n-th annotated ``payloads[n]``."""
    rest = iter(payloads)  # zip reads rel._rows first, so it stops at the end of each relation
    return [KRelation(rel.variables, kind, dict(zip(rel._rows, rest))) for rel in relations]


def family_from_weights(
    contexts: ContextSet,
    weights: Dict[Assignment, MonoidValue],
    kind: Optional[MonoidKind] = None,
) -> ContextualFamily:
    """Assemble a family from per-row weights (as produced by
    :func:`realisable_lp`); each row goes to the context of its variables.
    The kind argument is only needed when the weight map is empty."""
    kinds = {w.kind for w in weights.values()}
    if kind is not None:
        kinds.add(kind)
    if len(kinds) != 1:
        raise ValueError("weights must share one kind" if kinds else "empty weights need an explicit kind")
    kind = kinds.pop()
    grouped: Dict[Tuple[str, ...], Dict[Assignment, MonoidValue]] = {tuple(sorted(c)): {} for c in contexts}
    for row, value in weights.items():
        grouped[tuple(var for var, _ in row.items())][row] = value
    return ContextualFamily([KRelation.from_assignments(names, kind, rows) for names, rows in grouped.items()])


def find_realisation(family: ContextualFamily, kind: MonoidKind) -> ContextualFamily:
    """A family of kind N or Q with exactly the given support, over any
    context set.

    Chordless cycles are decided by the graph test and realised by
    :func:`realise`, which builds the overlap projection graph once; other
    context sets go to the LP of :func:`realisable_lp`, whose weights meet
    every agreement equation (the solver checks its witness against each),
    so they are assembled without the pairwise check.  Raises
    :class:`NotRealisableError` when the support is not realisable; its
    ``uncovered`` edges are those of the graph test, and empty when the
    LP refused.
    """
    try:
        return realise(family, kind)
    except NotChordlessCycleError:
        weights = _lp_weights(family, kind)
        if weights is None:
            raise NotRealisableError("support is not realisable") from None
        relations = _reweighted(list(family.maximal_relations()), weights, kind)
        return ContextualFamily._unchecked(family.contexts, kind, relations)
