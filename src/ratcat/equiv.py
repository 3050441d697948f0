"""Equivalence of invariant subsets via acceptable shifts of skeleton parts.

The skeleton of an (N, M)-invariant subset splits into d parts by
residue mod d.  Sliding the parts against each other without collisions
("acceptable shifts") generates an equivalence relation; the pairwise
collision distances form a difference-constraint system whose
componentwise-least integral solution is the minimal shift.  The shifted
parts, divided by d, label an acyclic digraph -- the gluing data -- and
equality of canonical forms of these digraphs decides equivalence.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from .errors import (
    Infeasible,
    InvalidGraph,
    InvalidSkeleton,
    InvariantViolation,
    NotNormalized,
)
from .invset import InvariantSet, Skeleton, gap, invset_from_skeleton, skeleton
from .lattice import GridParams


@dataclass(frozen=True)
class ShiftBounds:
    """Pairwise shift bounds between skeleton parts; None encodes infinity.

    btilde[i][j] is the least positive difference y - x over x in S_i,
    y in S_j (the collision distance when part i slides up against part
    j); b = btilde - 1 bounds the integral shifts: a_i - a_j <= b[i][j].
    """

    d: int
    btilde: tuple[tuple[int | None, ...], ...]
    b: tuple[tuple[int | None, ...], ...]


def shift_bounds(skel: Skeleton) -> ShiftBounds:
    """Collision-distance matrix of the skeleton parts S_i = S mod d."""
    parts = skel.parts_mod_d()
    d = skel.params.d
    btilde = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            best = None
            for x in parts[i]:
                k = bisect_right(parts[j], x)
                if k < len(parts[j]):
                    diff = parts[j][k] - x
                    if best is None or diff < best:
                        best = diff
            btilde[i][j] = best
    b = tuple(tuple(None if v is None else v - 1 for v in row) for row in btilde)
    return ShiftBounds(d, tuple(tuple(row) for row in btilde), b)


def minimal_shifting(bounds: ShiftBounds) -> tuple[int, ...]:
    """Componentwise-least integral acceptable shifting (m[0] = 0).

    m_i is the largest total weight of a walk from i to 0 in the graph
    with arc weights -b[next][current]; computed by d-1 rounds of
    longest-path relaxation plus one verification round.  A change in
    the verification round means the bounds admit a positive cycle,
    which cannot happen for bounds derived from an actual skeleton.
    """
    d, b = bounds.d, bounds.b
    v: list[int | None] = [None] * d
    v[0] = 0
    for _ in range(max(d - 1, 1)):
        for i in range(1, d):
            for j in range(d):
                if j == i or b[j][i] is None or v[j] is None:
                    continue
                cand = v[j] - b[j][i]
                if v[i] is None or cand > v[i]:
                    v[i] = cand
    for i in range(1, d):
        if v[i] is None:
            raise Infeasible(f"no finite bound chain from {i} to 0")
        for j in range(d):
            if j != i and b[j][i] is not None and v[j] is not None:
                if v[j] - b[j][i] > v[i]:
                    raise Infeasible("relaxation failed to stabilize")
    result = tuple(v)
    if any(x > 0 for x in result):
        raise InvariantViolation(f"minimal shifting {result} has a positive entry")
    for i in range(d):
        for j in range(d):
            if i != j and b[i][j] is not None and result[i] - result[j] > b[i][j]:
                raise InvariantViolation(
                    f"minimal shifting {result} breaks the bound b[{i}][{j}]")
    return result


@dataclass(frozen=True)
class LabeledDigraph:
    """Gluing data: an acyclic digraph with coprime-skeleton labels.

    Vertices carry skeletons of (n, m)-invariant subsets; two labels
    intersect as value sets exactly when the vertices are joined by an
    edge, the unique in-degree-0 vertex is the source, its label is
    0-normalized, and every label is non-negatively normalized.
    """

    n: int
    m: int
    labels: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]
    source: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labels",
                           tuple(tuple(sorted(lbl)) for lbl in self.labels))
        object.__setattr__(self, "edges", frozenset(self.edges))
        d = len(self.labels)
        if d < 1:
            raise InvalidGraph("need at least one vertex")
        for (i, j) in self.edges:
            if not (0 <= i < d and 0 <= j < d and i != j):
                raise InvalidGraph(f"bad edge ({i}, {j})")
        coprime = GridParams(self.n, self.m, 1)
        for i, lbl in enumerate(self.labels):
            try:
                rec = invset_from_skeleton(coprime, lbl)
            except InvalidSkeleton as exc:
                raise InvalidGraph(f"label {i} is not a skeleton: {exc}") from exc
            if rec.min_element() < 0:
                raise InvalidGraph(f"label {i} not non-negatively normalized")
            if i == self.source and rec.min_element() != 0:
                raise InvalidGraph("source label must be 0-normalized")
        for i in range(d):
            for j in range(i + 1, d):
                meets = bool(set(self.labels[i]) & set(self.labels[j]))
                joined = (i, j) in self.edges or (j, i) in self.edges
                if meets != joined:
                    raise InvalidGraph(
                        f"vertices {i},{j}: intersection and edge disagree")
                if (i, j) in self.edges and (j, i) in self.edges:
                    raise InvalidGraph(f"double edge between {i} and {j}")
        indeg = [0] * d
        for (_, j) in self.edges:
            indeg[j] += 1
        sources = [i for i in range(d) if indeg[i] == 0]
        if sources != [self.source]:
            raise InvalidGraph(f"in-degree-0 vertices {sources}, "
                               f"expected exactly the source {self.source}")
        if self._toposort() is None:
            raise InvalidGraph("digraph has a cycle")

    @property
    def d(self) -> int:
        return len(self.labels)

    def _toposort(self) -> list[int] | None:
        d = self.d
        indeg = [0] * d
        for (_, j) in self.edges:
            indeg[j] += 1
        queue = [i for i in range(d) if indeg[i] == 0]
        order = []
        while queue:
            i = queue.pop()
            order.append(i)
            for (a, b) in self.edges:
                if a == i:
                    indeg[b] -= 1
                    if indeg[b] == 0:
                        queue.append(b)
        return order if len(order) == d else None

    def levels(self) -> tuple[int, ...]:
        """Length of the longest directed path from the source to each vertex."""
        order = self._toposort()
        f = [0] * self.d
        for i in order:
            for (a, b) in self.edges:
                if a == i:
                    f[b] = max(f[b], f[i] + 1)
        return tuple(f)

    def to_jsonable(self) -> dict:
        return {"labels": [list(lbl) for lbl in self.labels],
                "edges": sorted([i, j] for (i, j) in self.edges),
                "source": self.source}


def build_graph(delta: InvariantSet) -> LabeledDigraph:
    """The gluing data of an invariant subset (the map into T^d_{n,m}).

    Applies the minimal shift to the skeleton parts, records the level
    f(i) as the common residue mod d of the shifted part, divides by d to
    obtain the coprime labels, and joins intersecting labels with edges
    oriented by increasing level.  The recomputed longest-path levels
    must reproduce f.
    """
    p = delta.params
    if not delta.normalized:
        raise NotNormalized("gluing data requires a 0-normalized subset")
    d = p.d
    sk = skeleton(delta)
    parts = sk.parts_mod_d()
    mvec = minimal_shifting(shift_bounds(sk))
    f = tuple((i + mvec[i]) % d for i in range(d))
    labels = tuple(tuple((x + mvec[i]) // d for x in parts[i]) for i in range(d))
    edges = set()
    for i in range(d):
        for j in range(d):
            if i != j and set(labels[i]) & set(labels[j]):
                if f[i] == f[j]:
                    raise InvariantViolation(
                        f"intersecting parts {i}, {j} on the same level")
                if f[i] < f[j]:
                    edges.add((i, j))
    graph = LabeledDigraph(p.n, p.m, labels, frozenset(edges), source=0)
    if graph.levels() != f:
        raise InvariantViolation(
            f"levels {graph.levels()} do not match the shift residues {f}")
    return graph


def canonical_form(graph: LabeledDigraph) -> bytes:
    """Deterministic encoding invariant under label-preserving isomorphism.

    Vertices are ordered by (label, in-degree) and the reordered graph is
    serialized once as compact JSON.  No two vertices share this key, so
    the order is canonical: equal labels intersect, so in a validated
    graph each group of equal labels is an acyclic tournament; and if
    u -> v inside a group, every in-neighbour w of u also meets v, where
    the edge v -> w would close the cycle w -> u -> v -> w, so w -> v and
    in-degree(v) >= in-degree(u) + 1.
    """
    indeg = [0] * graph.d
    for (_, j) in graph.edges:
        indeg[j] += 1
    keys = list(zip(graph.labels, indeg))
    if len(set(keys)) != graph.d:
        raise InvariantViolation(f"two vertices share label and in-degree in {graph}")
    order = sorted(range(graph.d), key=keys.__getitem__)
    pos = {old: new for new, old in enumerate(order)}
    payload = {"labels": [list(graph.labels[v]) for v in order],
               "edges": sorted([pos[i], pos[j]] for (i, j) in graph.edges),
               "source": pos[graph.source]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")


def minimal_representative(graph: LabeledDigraph) -> InvariantSet:
    """The invariant subset with skeleton parts S_i = d*label_i + i.

    The vertex order must make the level function weakly monotone; the
    given order is kept when it already is, otherwise vertices are
    stably reordered by level.  The result is 0-normalized and its
    gluing data has the same canonical form as the input.
    """
    d = graph.d
    f = graph.levels()
    if all(f[i] <= f[i + 1] for i in range(d - 1)):
        order = list(range(d))
    else:
        order = sorted(range(d), key=lambda v: (f[v], v))
    values = []
    for i, v in enumerate(order):
        values.extend(d * x + i for x in graph.labels[v])
    params = GridParams(graph.n, graph.m, d)
    try:
        delta = invset_from_skeleton(params, values)
    except InvalidSkeleton as exc:
        raise InvalidGraph(f"labels do not assemble to a subset: {exc}") from exc
    if not delta.normalized:
        raise InvariantViolation(f"minimal representative {delta.gen} is not normalized")
    if canonical_form(build_graph(delta)) != canonical_form(graph):
        raise InvariantViolation(
            "the minimal representative's gluing data is not isomorphic to the input")
    return delta


def equivalent(delta1: InvariantSet, delta2: InvariantSet) -> bool:
    """Whether two subsets have the same gluing data up to isomorphism."""
    if delta1.params != delta2.params:
        raise ValueError("subsets must share the same grid parameters")
    return canonical_form(build_graph(delta1)) == canonical_form(build_graph(delta2))


def min_gap_in_class(delta: InvariantSet) -> int:
    """Least gap count over the equivalence class of delta."""
    return gap(minimal_representative(build_graph(delta)))
