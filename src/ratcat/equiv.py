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
from dataclasses import dataclass, field
from .errors import (
    Infeasible,
    InvalidGraph,
    InvalidSkeleton,
    InvariantViolation,
    NotNormalized,
)
from .invset import (
    InvariantSet,
    Skeleton,
    coprime_from_skeleton,
    gap,
    invset_from_skeleton,
    skeleton,
)
from .lattice import GridParams


@dataclass(frozen=True)
class ShiftBounds:
    """Pairwise shift bounds between skeleton parts; None encodes infinity.

    b[i][j] is one less than the least positive difference y - x over x in
    S_i, y in S_j (the collision distance when part i slides up against
    part j), and bounds the integral shifts: a_i - a_j <= b[i][j].
    """

    d: int
    b: tuple[tuple[int | None, ...], ...]


def shift_bounds(skel: Skeleton) -> ShiftBounds:
    """Bound matrix of the skeleton parts S_i = S mod d.

    One sweep down the sorted skeleton keeps the next (least larger)
    value of every part; each value x of part i is compared with those.
    """
    d = skel.params.d
    b = [[None] * d for _ in range(d)]
    nxt: list[int | None] = [None] * d
    for x in reversed(skel.values()):
        i = x % d
        row = b[i]
        for j, y in enumerate(nxt):
            if y is not None and j != i and (row[j] is None or y - x - 1 < row[j]):
                row[j] = y - x - 1
        nxt[i] = x
    return ShiftBounds(d, tuple(map(tuple, b)))


def minimal_shifting(bounds: ShiftBounds) -> tuple[int, ...]:
    """Componentwise-least integral acceptable shifting (m[0] = 0).

    m_i is the largest total weight of a walk from i to 0 in the graph
    with arc weights -b[next][current]; computed by rounds of longest-path
    relaxation that stop at the first round with no change.  Without a
    positive cycle every longest walk has at most d-1 arcs, so round d
    changes nothing; a change in round d means the bounds admit a
    positive cycle, which cannot happen for bounds derived from an
    actual skeleton.
    """
    d, b = bounds.d, bounds.b
    v: list[int | None] = [None] * d
    v[0] = 0
    for _ in range(d):
        changed = False
        for i in range(1, d):
            for j in range(d):
                if j == i or b[j][i] is None or v[j] is None:
                    continue
                cand = v[j] - b[j][i]
                if v[i] is None or cand > v[i]:
                    v[i] = cand
                    changed = True
        if not changed:
            break
    else:
        raise Infeasible("relaxation failed to stabilize")
    for i in range(1, d):
        if v[i] is None:
            raise Infeasible(f"no finite bound chain from {i} to 0")
    result = tuple(v)
    if any(x > 0 for x in result):
        raise InvariantViolation(f"minimal shifting {result} has a positive entry")
    for i in range(d):
        for j in range(d):
            if i != j and b[i][j] is not None and result[i] - result[j] > b[i][j]:
                raise InvariantViolation(
                    f"minimal shifting {result} breaks the bound b[{i}][{j}]")
    return result


def meeting_pairs(sets) -> set[tuple[int, int]]:
    """The index pairs i < j of the sets that share a value."""
    return {(i, j) for i, s in enumerate(sets) for j in range(i + 1, len(sets))
            if not s.isdisjoint(sets[j])}


@dataclass(frozen=True)
class LabeledDigraph:
    """Gluing data: an acyclic digraph with coprime-skeleton labels.

    Vertices carry skeletons of (n, m)-invariant subsets; two labels
    intersect as value sets exactly when the vertices are joined by an
    edge, exactly one vertex, the source, has in-degree 0 and a 0-normalized
    label, and every label is non-negatively normalized.

    Validation builds successor lists and in-degrees in one pass over the
    edges; Kahn's algorithm from the source then both rejects cycles and
    yields the longest-path levels, which levels() returns.  The levels
    and the memoized canonical form are not compared, hashed or printed.
    """

    n: int
    m: int
    labels: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]
    source: int = field(init=False)
    _levels: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _form: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(tuple(sorted(lbl)) for lbl in self.labels)
        edges = frozenset(self.edges)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)
        d = len(labels)
        if d < 1:
            raise InvalidGraph("need at least one vertex")
        succ: list[list[int]] = [[] for _ in range(d)]
        indeg = [0] * d
        for (i, j) in edges:
            if not (0 <= i < d and 0 <= j < d and i != j):
                raise InvalidGraph(f"bad edge ({i}, {j})")
            succ[i].append(j)
            indeg[j] += 1
        sources = [i for i in range(d) if indeg[i] == 0]
        for i, lbl in enumerate(labels):
            try:
                rec = coprime_from_skeleton(self.n, self.m, lbl)
            except InvalidSkeleton as exc:
                raise InvalidGraph(f"label {i} is not a skeleton: {exc}") from exc
            low = rec.min_element()
            if low < 0:
                raise InvalidGraph(f"label {i} not non-negatively normalized")
            if [i] == sources and low != 0:
                raise InvalidGraph("source label must be 0-normalized")
        meets = meeting_pairs([set(lbl) for lbl in labels])
        joined = {(i, j) if i < j else (j, i) for i, j in edges}
        if meets != joined or len(joined) != len(edges):
            disagree = meets ^ joined
            i, j = min(disagree | {(i, j) for i, j in edges if i < j and (j, i) in edges})
            raise InvalidGraph(f"vertices {i},{j}: intersection and edge disagree"
                               if (i, j) in disagree else f"double edge between {i} and {j}")
        if len(sources) != 1:
            raise InvalidGraph(f"in-degree-0 vertices {sources}, expected exactly one")
        object.__setattr__(self, "source", sources[0])
        # Kahn: a vertex leaves the queue after all its predecessors, so
        # its level is final then; a vertex on a cycle never enters it.
        level = [0] * d
        queue = [self.source]
        for i in queue:
            for j in succ[i]:
                if level[j] <= level[i]:
                    level[j] = level[i] + 1
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(queue) != d:
            raise InvalidGraph("digraph has a cycle")
        object.__setattr__(self, "_levels", tuple(level))

    @property
    def d(self) -> int:
        return len(self.labels)

    def levels(self) -> tuple[int, ...]:
        """Length of the longest directed path from the source to each vertex."""
        return self._levels

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
    for i, j in meeting_pairs([set(lbl) for lbl in labels]):
        if f[i] == f[j]:
            raise InvariantViolation(f"intersecting parts {i}, {j} on the same level")
        edges.add((i, j) if f[i] < f[j] else (j, i))
    try:
        graph = LabeledDigraph(p.n, p.m, labels, frozenset(edges))
    except InvalidGraph as exc:
        raise InvariantViolation(f"gluing data of {delta.gen} is invalid: {exc}") from exc
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
    in-degree(v) >= in-degree(u) + 1.  The form is memoized on the graph.
    """
    if graph._form is not None:
        return graph._form
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
    form = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")
    object.__setattr__(graph, "_form", form)
    return form


def minimal_representative(graph: LabeledDigraph) -> InvariantSet:
    """The invariant subset with skeleton parts S_i = d*label_i + i.

    The vertex order must make the level function weakly monotone, so
    vertices are stably sorted by level: the given order is kept within
    a level, and kept whole when it already is monotone.  The result is
    0-normalized, and its minimal shifting must be m_i = level(order[i]) - i.
    That makes its gluing data the input's: as 0 <= level < d, both
    (d*label + i + m_i) // d = label and (i + m_i) mod d = level, so
    build_graph would rebuild every label and level, and so the edges,
    the label meets oriented up the levels.
    """
    d = graph.d
    order = sorted(range(d), key=graph.levels().__getitem__)
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
    predicted = tuple(graph.levels()[v] - i for i, v in enumerate(order))
    shifting = minimal_shifting(shift_bounds(Skeleton(params, tuple(sorted(values)))))
    if shifting != predicted:
        raise InvariantViolation(
            f"minimal shifting {shifting} of the representative of {graph.labels} "
            f"is not {predicted}, the one its levels predict")
    return delta


def equivalent(delta1: InvariantSet, delta2: InvariantSet) -> bool:
    """Whether two subsets have the same gluing data up to isomorphism."""
    if delta1.params != delta2.params:
        raise ValueError("subsets must share the same grid parameters")
    return canonical_form(build_graph(delta1)) == canonical_form(build_graph(delta2))


def min_gap_in_class(delta: InvariantSet) -> int:
    """Least gap count over the equivalence class of delta."""
    return gap(minimal_representative(build_graph(delta)))
