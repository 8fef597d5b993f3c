"""Realisability of supports: which supports carry weighted annotations.

A locally consistent family fixes a support; whether some N- or Q-family
exists with exactly that support is the realisability question.  Every
annotation monoid here is positive, so a family of any kind has one
support, and every entry point reads only that.
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

Graph vertices hold value tuples, as relations do, and edges are
numbers into integer columns of ends and rows; edge objects, and the
``boundary`` and ``label`` assignments, are built only when read, and an
edge's text is written straight from its columns by one formatter.  One
breadth-first search, :func:`_grow`, grows every tree on the graph: the
shortest cycle through each edge that :func:`realise` sums, and each
peel of :func:`decompose_cycles`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count
from math import lcm
from operator import ne
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .family import ContextSet, ContextualFamily
from .feasibility import find_rational_solution
from .monoid import MonoidKind, MonoidValue
from .relation import Assignment, Key, KRelation, Payload, _agreement, _cells, _project


_DOT_QUOTED = str.maketrans({"\\": "\\\\", '"': '\\"'})  # escapes inside a quoted DOT string


class NotChordlessCycleError(ValueError):
    """Raised when a context set is not a chordless cycle of contexts."""


class NotRealisableError(ValueError):
    """Raised when a requested realisation does not exist."""

    def __init__(self, message: str, uncovered: Tuple["OpgEdge", ...] = ()):
        super().__init__(message)
        self.uncovered = uncovered


def classify_chordless_cycle(contexts: ContextSet) -> Tuple[FrozenSet[str], ...]:
    """The contexts of a chordless cycle in cycle order, or an error
    saying why the context set is not one.

    Requirements: at least three maximal contexts, every context
    intersecting exactly two others, and the intersection graph connected
    (a single cycle).  Neighbours in the returned tuple, and only they,
    intersect, the last and the first included.  It starts at the least
    context and proceeds toward its lesser neighbour, so it is
    deterministic.
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
    return tuple(sets[i] for i in order)


@dataclass(frozen=True)
class OpgVertex:
    """A boundary value: its layer, that layer's sorted boundary variables
    and the value tuple in their order."""

    layer: int
    names: Tuple[str, ...]
    key: Key

    @property
    def boundary(self) -> Assignment:
        """The value as an assignment on the boundary, built on each read."""
        return Assignment._sorted(tuple(zip(self.names, self.key)))

    def __str__(self) -> str:
        return f"{self.layer}:{','.join(self.key)}"


def _row_format(names: Tuple[str, ...]) -> str:
    """The format string of a row over ``names``: ``.format(*key)`` writes
    the row's ``name=value`` pairs as its ``Assignment`` shows them,
    without building one."""
    return ",".join(name.replace("{", "{{").replace("}", "}}") + "={}" for name in names)


def _edge_format(names: Tuple[str, ...]) -> str:
    """The one definition of an edge's text, for a row over ``names``:
    ``.format(source, target, *key)`` writes its ends' texts, then the
    row."""
    return "{} -> {}  " + _row_format(names)


@dataclass(frozen=True)
class OpgEdge:
    """One supported row, drawn from its incoming boundary value to its
    outgoing one.  ``context_index`` names the layer whose relation holds
    the row, ``names`` that relation's sorted variables and ``key`` the
    row's value tuple in their order.  The graph keeps its edges as
    numbered rows and builds these objects only when they are read."""

    source: OpgVertex
    target: OpgVertex
    context_index: int
    names: Tuple[str, ...]
    key: Key

    @property
    def label(self) -> Assignment:
        """The row as an assignment, built on each read."""
        return Assignment._sorted(tuple(zip(self.names, self.key)))

    def describe(self) -> str:
        return _edge_format(self.names).format(self.source, self.target, *self.key)


class OverlapProjectionGraph:
    """The boundary-value graph of a family over a chordless cycle.

    Layer i holds the values of the boundary shared by contexts i and
    i+1; each row of context i contributes one edge from its value on
    boundary i-1 to its value on boundary i.  The graph is cyclically
    n-partite: every edge advances the layer by one, modulo n.

    Vertex i is ``vertices[i]``, and ``relations[i]`` is the family's
    relation at context i, the contexts taken in cycle order (see
    :func:`classify_chordless_cycle`).  Edges are numbered and kept as
    integer columns: edge k runs from vertex ``src[k]`` to vertex
    ``dst[k]`` and is the row ``keys[k]``.  The edges of context i are
    numbered from ``starts[i]`` up to ``starts[i + 1]``, in the stored row
    order of ``relations[i]``.  ``out[v]`` lists the numbers of the edges
    leaving vertex v, in edge order.  Every graph path reads these
    columns, so no vertex is looked up by hash and no tuple is built per
    edge.  ``edges`` builds the :class:`OpgEdge` objects on first read
    and keeps them, so edge k is always the same object; of the graph
    paths only :func:`find_simple_cycle_through`, which returns edge
    objects, reads it.  ``_tree`` holds the breadth-first tree (see
    :func:`_grow`) that :func:`find_simple_cycle_through` grew last, as
    far as it has grown, or None.
    """

    __slots__ = ("vertices", "relations", "keys", "starts", "src", "dst", "out", "_tree", "_edges")

    def __init__(
        self,
        vertices: Iterable[OpgVertex],
        relations: Iterable[KRelation],
        keys: List[Key],
        starts: List[int],
        src: List[int],
        dst: List[int],
    ):
        """Takes the vertices, the relations in cycle order, and the edge
        columns in the order :func:`build_opg` numbers them; it only fills
        the out-edge lists."""
        self.vertices = tuple(vertices)
        self.relations = tuple(relations)
        self.keys = keys
        self.starts = starts
        self.src = src
        self.dst = dst
        out: List[List[int]] = [[] for _ in self.vertices]
        for k, source in enumerate(src):
            out[source].append(k)
        self.out = out
        self._tree: Optional[list] = None
        self._edges: Optional[Tuple[OpgEdge, ...]] = None

    @property
    def edges(self) -> Tuple[OpgEdge, ...]:
        """Every edge as an :class:`OpgEdge`, in numbered order, built on
        first read and kept."""
        if self._edges is None:
            self._edges = tuple(map(self._edge, range(len(self.keys))))
        return self._edges

    def _edge(self, k: int) -> OpgEdge:
        """Edge k as an object: the kept one once ``edges`` was read, else
        a new one."""
        if self._edges is not None:
            return self._edges[k]
        i = bisect_right(self.starts, k) - 1
        return OpgEdge(self.vertices[self.src[k]], self.vertices[self.dst[k]], i, self.relations[i].names, self.keys[k])

    def _contexts(self) -> Iterator[Tuple[int, range]]:
        """Each context index with the range of its edge numbers."""
        return enumerate(map(range, self.starts, self.starts[1:]))

    def _component_labels(self) -> List[int]:
        """Kosaraju's two-pass sweep: the component of every vertex number.
        The first pass walks each vertex's out-edges through an iterator;
        the second walks edges backwards, from lists built here."""
        out, dst = self.out, self.dst
        finish: List[int] = []
        seen = [False] * len(self.vertices)
        for root in range(len(self.vertices)):
            if seen[root]:
                continue
            seen[root] = True
            path = [root]
            walks = [iter(out[root])]
            while walks:
                for k in walks[-1]:
                    nxt = dst[k]
                    if not seen[nxt]:
                        seen[nxt] = True
                        path.append(nxt)
                        walks.append(iter(out[nxt]))
                        break
                else:
                    walks.pop()
                    finish.append(path.pop())
        pred: List[List[int]] = [[] for _ in self.vertices]
        for source, target in zip(self.src, dst):
            pred[target].append(source)
        component = [-1] * len(self.vertices)
        labels = 0
        for root in reversed(finish):
            if component[root] >= 0:
                continue
            stack = [root]
            component[root] = labels
            while stack:
                node = stack.pop()
                for prev in pred[node]:
                    if component[prev] < 0:
                        component[prev] = labels
                        stack.append(prev)
            labels += 1
        return component

    def uncovered_edges(self) -> Tuple[OpgEdge, ...]:
        """Edges lying on no cycle: endpoints in different components.
        Only the edges returned are built."""
        label = self._component_labels().__getitem__
        across = map(ne, map(label, self.src), map(label, self.dst))
        return tuple(map(self._edge, compress(count(), across)))

    def texts(self) -> Tuple[List[str], List[str]]:
        """Each vertex's text and each edge's ``describe()`` text, in
        numbered order, written from the columns: each vertex's text and
        each context's format once, and no edge object or ``Assignment``
        built."""
        shown = [str(v) for v in self.vertices]
        src, dst, keys = self.src, self.dst, self.keys
        lines: List[str] = []
        for i, edges in self._contexts():
            text = _edge_format(self.relations[i].names).format
            lines += [text(shown[src[k]], shown[dst[k]], *keys[k]) for k in edges]
        return shown, lines

    def to_dot(self) -> str:
        """Deterministic DOT text: the vertices, each named by its number
        and labelled with its text, then the edges, in numbered order,
        each labelled with its row; written from the columns."""
        src, dst, keys = self.src, self.dst, self.keys
        lines = ["digraph opg {", "  rankdir=LR;"]
        lines += [f'  {i} [label="{str(v).translate(_DOT_QUOTED)}"];'
                  for i, v in enumerate(self.vertices)]
        for i, edges in self._contexts():
            row = _row_format(self.relations[i].names).format
            lines += [f'  {src[k]} -> {dst[k]} [label="{row(*keys[k]).translate(_DOT_QUOTED)}"];'
                      for k in edges]
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_opg(family: ContextualFamily) -> OverlapProjectionGraph:
    """The overlap projection graph of a family's support.

    The family's context set must classify as a chordless cycle, whose
    order (:func:`classify_chordless_cycle`) orders the relations.
    Boundary i, the variables context i shares with context i+1
    (cyclically), is intersected once here.  Only the support matters,
    so any kind is accepted.  The vertices are numbered here, once: by
    layer, and within a layer in the order of their boundary value
    tuples.  The edges are numbered by context and then in
    stored row order, and their columns are filled straight from the
    relations' keys and from the projections of those keys onto the two
    boundaries (:func:`_project`), mapped to vertex numbers, so no
    ``Assignment``, no :class:`OpgEdge` and no tuple per edge is built.
    """
    contexts = classify_chordless_cycle(family.contexts)
    boundaries = [c & d for c, d in zip(contexts, contexts[1:] + contexts[:1])]
    relations = [family.relation_at(c) for c in contexts]
    sides = []
    for i, relation in enumerate(relations):
        keys = relation._rows
        before = list(_project(relation.names, boundaries[i - 1], keys))
        after = list(_project(relation.names, boundaries[i], keys))
        sides.append((before, after))
    numbers: List[Dict[Key, int]] = [{} for _ in sides]
    for i, (before, after) in enumerate(sides):
        numbers[i - 1].update(dict.fromkeys(before))
        numbers[i].update(dict.fromkeys(after))
    vertices: List[OpgVertex] = []
    for layer, number in enumerate(numbers):
        names = tuple(sorted(boundaries[layer]))
        for value in sorted(number):
            number[value] = len(vertices)
            vertices.append(OpgVertex(layer, names, value))
    keys: List[Key] = []
    starts = [0]
    src: List[int] = []
    dst: List[int] = []
    for i, (relation, (before, after)) in enumerate(zip(relations, sides)):
        keys += relation._rows
        starts.append(len(keys))
        src += map(numbers[i - 1].__getitem__, before)
        dst += map(numbers[i].__getitem__, after)
    return OverlapProjectionGraph(vertices, relations, keys, starts, src, dst)


def _grow(tree: list, out: List[List[int]], dst: List[int], goal: int) -> bool:
    """Grow a breadth-first tree until ``goal`` has a parent; whether it has.

    ``tree`` is ``[root, via, queue, read]``: the root, the edge each
    vertex was first reached by (-1 while unreached), the vertices in
    discovery order, and how many have had their out-lists read.  It reads
    the queue on, a whole list of ``out`` at a time, each in edge order,
    the first edge to reach a vertex (its end in ``dst``) being its
    parent, until the goal has one or the queue runs out.  The root may
    take a parent, the edge closing a cycle through it, but is never
    queued again.  Parents are fixed when first found, so a tree grown in
    steps is a prefix of the full one and gives the same paths.
    """
    root, via, queue, read = tree
    while via[goal] < 0 and read < len(queue):  # the queue grows while it is read, level by level
        for k in out[queue[read]]:
            nxt = dst[k]
            if via[nxt] < 0:
                via[nxt] = k
                if nxt != root:
                    queue.append(nxt)
        read += 1
    tree[3] = read
    return via[goal] >= 0


def find_simple_cycle_through(graph: OverlapProjectionGraph, k: int) -> List[OpgEdge]:
    """A shortest simple cycle whose first edge is ``graph.edges[k]``.

    The path back from the edge's target to its source is read from the
    breadth-first tree :func:`_grow` grows at the target, so the result is
    deterministic.  The tree is grown only until the source has a parent:
    the graph keeps the last root's tree (``graph._tree``), and a call for
    another edge into that root grows it on from where it stopped.
    Raises :class:`NotRealisableError` when the queue runs out first: the
    edge lies on no cycle.
    """
    source, target = graph.src[k], graph.dst[k]
    tree = graph._tree
    if tree is None or tree[0] != target:
        tree = graph._tree = [target, [-1] * len(graph.out), [target], 0]
    via = tree[1]
    if via[source] < 0 and not _grow(tree, graph.out, graph.dst, source):
        edge = graph._edge(k)
        raise NotRealisableError(f"edge {edge.describe()} lies on no cycle", uncovered=(edge,))
    edges, src = graph.edges, graph.src  # read once per call, not once per cycle edge
    back = []
    walk = source
    while walk != target:
        j = via[walk]
        back.append(edges[j])
        walk = src[j]
    back.append(edges[k])
    back.reverse()
    return back


def realise(
    family: ContextualFamily,
    kind: MonoidKind,
    weight: Optional[MonoidValue] = None,
) -> ContextualFamily:
    """A family of the requested kind with exactly the support of
    ``family``, which may be of any kind.

    The witness is the sum of one uniform lift of ``weight`` along the
    cycle :func:`find_simple_cycle_through` picks for each edge of the
    overlap projection graph, so each row, edge k, is annotated ``count x
    weight``, where count is the number of those cycles through edge k;
    each distinct count is multiplied by ``weight`` once.  The edges are
    visited grouped by target, so at most one breadth-first tree is grown
    per vertex, not one search per edge, and each only as far as the
    edges into its root need; the counts do not depend on the order.
    The witness annotates exactly the input's stored rows,
    each nonzero, so its support is the input's by construction; it is
    validated once.  A context set that is no chordless cycle raises
    :class:`NotChordlessCycleError` whatever the kind and weight;
    on a chordless cycle, a kind other than N or Q raises
    :class:`ValueError` (a B support is its own realisation).  Raises
    :class:`NotRealisableError`, carrying the uncovered edges, when no
    realisation exists.
    """
    graph = build_opg(family)
    if not kind.is_cancellative:
        raise ValueError("realisability concerns the kinds N and Q")
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
    into = sorted(range(len(graph.dst)), key=graph.dst.__getitem__)
    cycles = map(partial(find_simple_cycle_through, graph), into)
    crossings = Counter(map(id, chain.from_iterable(cycles)))
    counts = list(map(crossings.__getitem__, map(id, graph.edges)))
    base = weight.payload
    payload = {c: base * c for c in set(counts)}
    return ContextualFamily(_reweighted(graph.relations, map(payload.__getitem__, counts), kind))


def decompose_cycles(
    family: ContextualFamily,
) -> List[Tuple[MonoidValue, ContextualFamily]]:
    """Peel a weighted family into uniform simple cycles.

    Repeatedly takes the least vertex of the overlap projection graph
    that still has a live edge, finds a shortest cycle through it, and
    subtracts the least annotation along it; an edge dies when its
    residual reaches zero.  Residual weights and live out-edge lists are
    kept by edge and vertex number, and each edge names its row by the
    graph's key column and its context by the graph's start offsets.

    Each peel grows one fresh tree with :func:`_grow` at the start vertex
    over the live out-lists, with the start as its goal: the start's
    parent is the first edge back into it, and the tree path to that
    edge's source closes the cycle.  It runs through the first out-edge,
    in edge order, whose target is least distant from the start vertex,
    and on along the path a search from that target finds: the search lays
    out each level in the order of its first-discovering edges, so at
    every depth the subtrees of earlier out-edges come first.  No vertex
    on that target's shortest paths back is reached first from an earlier
    out-edge's target at the same depth, since that target would then be
    as close and come first; so the tree parents along the path are the
    ones the search from the target finds.

    Local consistency makes the weights a circulation on the graph: they
    balance at every vertex, which is checked once, and subtracting a
    cycle keeps them balanced, so every live edge lies on a live cycle and
    the start vertex only moves forward.  A part is a simple cycle,
    consistent by construction, so it is assembled from the relations'
    own stored rows without any check.  The parts reconstruct the input
    exactly: annotate each part's rows with its weight, and the parts sum
    to the family.
    """
    if not family.kind.is_cancellative:
        raise ValueError("decomposition needs an N or Q family")
    graph = build_opg(family)
    relations = graph.relations
    src, dst, keys, starts = graph.src, graph.dst, graph.keys, graph.starts
    residual = list(chain.from_iterable(rel._rows.values() for rel in relations))
    balance = [0] * len(graph.vertices)
    for source, target, weight in zip(src, dst, residual):
        balance[source] += weight
        balance[target] -= weight
    if any(balance):
        raise AssertionError("residual is not a circulation; internal bug")
    succ = [list(out) for out in graph.out]
    live = len(residual)
    start = 0
    parts: List[Tuple[MonoidValue, ContextualFamily]] = []
    while live:
        while not succ[start]:
            start += 1
        via = [-1] * len(succ)
        if not _grow([start, via, [start], 0], succ, dst, start):
            raise AssertionError("residual is not a circulation; internal bug")
        k = via[start]
        best = [k]
        while src[k] != start:
            k = via[src[k]]
            best.append(k)
        least = min(residual[k] for k in best)
        # build_opg numbers edges by context and then in stored row order,
        # so ascending edge numbers give each relation's keys in its order.
        rows: List[List[Key]] = [[] for _ in relations]
        for k in sorted(best):
            rows[bisect_right(starts, k) - 1].append(keys[k])
        supports = [rel._sub(part) for rel, part in zip(relations, rows)]
        sub = ContextualFamily._unchecked(family.contexts, MonoidKind.B, supports)
        parts.append((MonoidValue(family.kind, least), sub))
        for k in best:
            residual[k] -= least
            if not residual[k]:
                succ[src[k]].remove(k)
                live -= 1
    return parts


def realisable_lp(family: ContextualFamily, kind: MonoidKind) -> ContextualFamily:
    """A family of kind N or Q with exactly the support of ``family``, a
    family of any kind, over any context set, by exact rational
    feasibility.

    One unknown per supported row, at least one each, and one equation per
    agreement cell (the empty overlap is one cell): the cell's rows of one
    context at +1 and of the other at -1 sum to 0, solved on the tableau of
    :func:`~ctxfam.feasibility.find_rational_solution`, where each row
    weight is a column, numbered context by context in stored row order.
    The solver's columns are at least 0, so each holds ``y = x - 1`` for
    its weight ``x``: a cell's right-hand side is minus the sum of its
    coefficients, and the weights are the witness plus 1.
    The last cell of every pair ``(i, j)`` with ``i >= 1`` is left out of
    the tableau: the cells of a pair sum to the weight of one context less
    that of the other, so that cell equals the cells of ``(0, j)`` less
    those of ``(0, i)`` and the pair's other cells, which all come before
    it, and Gauss-Jordan elimination would only reduce it to an empty row.
    The solver still checks the witness against every one of those cells,
    so the witness is assembled without the pairwise check.
    The constraints are homogeneous, so scaling a rational witness by the
    least common denominator yields a natural witness: feasibility does
    not depend on the cancellative kind chosen.  Any other kind raises
    :class:`ValueError`; an infeasible support raises
    :class:`NotRealisableError` with no uncovered edges.
    """
    if not kind.is_cancellative:
        raise ValueError("realisability concerns the kinds N and Q")
    relations = list(family.maximal_relations())
    numbers = count()  # zip reads rel._rows first, so no number is skipped
    number = [dict(zip(rel._rows, numbers)) for rel in relations]
    equalities: List[Tuple[Dict[int, int], int]] = []
    implied: List[Tuple[Dict[int, int], int]] = []
    for i, j, left, right in _agreement(relations):
        ours, theirs = number[i], number[j]
        pair = []
        for _, a, b in _cells(left, right):
            cell = {ours[key]: 1 for key in a or ()}
            cell.update((theirs[key], -1) for key in b or ())
            pair.append((cell, -sum(cell.values())))
        if i:
            implied.append(pair.pop())
        equalities.extend(pair)
    columns = range(sum(map(len, relations)))
    solution = find_rational_solution(equalities, implied, columns) if columns else []  # no row, nothing to solve
    if solution is None:
        raise NotRealisableError("support is not realisable")
    weights = [w + 1 for w in solution]
    if kind is MonoidKind.N:
        scale = lcm(*(w.denominator for w in weights))
        weights = [int(w * scale) for w in weights]
    return ContextualFamily._unchecked(family.contexts, kind, _reweighted(relations, weights, kind))


def _reweighted(relations: Iterable[KRelation], payloads: Iterable[Payload], kind: MonoidKind) -> List[KRelation]:
    """The rows of ``relations`` in ``kind``, numbered relation by relation
    in stored order, the n-th annotated with the n-th of ``payloads``."""
    rest = iter(payloads)  # zip reads rel._rows first, so it stops at the end of each relation
    return [KRelation(rel.variables, kind, dict(zip(rel._rows, rest))) for rel in relations]


def find_realisation(family: ContextualFamily, kind: MonoidKind) -> ContextualFamily:
    """A family of kind N or Q with exactly the support of ``family``, a
    family of any kind, over any context set.

    Chordless cycles are decided by the graph test and realised by
    :func:`realise`, which builds the overlap projection graph once; other
    context sets go to :func:`realisable_lp`.  Raises
    :class:`NotRealisableError` when the support is not realisable; its
    ``uncovered`` edges are those of the graph test, and empty when the
    LP refused.  Both paths refuse any other kind with one
    :class:`ValueError`.
    """
    try:
        return realise(family, kind)
    except NotChordlessCycleError:
        pass
    return realisable_lp(family, kind)
