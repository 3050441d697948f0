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

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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
    skeleton,
)
from .lattice import GridParams, _grid_params


@dataclass(frozen=True)
class ShiftBounds:
    """Pairwise shift bounds between skeleton parts; None encodes infinity.

    b[i][j] is one less than the least positive difference y - x over x in
    S_i, y in S_j (the collision distance when part i slides up against
    part j), and bounds the integral shifts: a_i - a_j <= b[i][j].  So no
    entry is negative; the constructor checks that, and that b is square.
    """

    b: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        if set(map(len, self.b)) != {len(self.b)}:
            raise ValueError("a bound matrix needs d >= 1 rows of d entries, not row "
                             f"lengths {[len(row) for row in self.b]}")
        low = min(filter(None, chain.from_iterable(self.b)), default=0)  # skips None and 0
        if low < 0:
            raise ValueError(f"negative bound {low}")

    @property
    def d(self) -> int:
        return len(self.b)


def shift_bounds(skel: Skeleton) -> ShiftBounds:
    """Bound matrix of the skeleton parts S_i = S mod d.

    One sweep down the sorted skeleton keeps the next (least larger)
    value of every part; each value x of part i is compared with those.
    """
    d = skel.params.d
    b = [[None] * d for _ in range(d)]
    nxt: list[int | None] = [None] * d
    for x in reversed(skel.sorted_values):
        i = x % d
        row = b[i]
        for j, y in enumerate(nxt):
            if y is not None and j != i and (row[j] is None or y - x - 1 < row[j]):
                row[j] = y - x - 1
        nxt[i] = x
    return ShiftBounds(tuple(map(tuple, b)))


def minimal_shifting(bounds: ShiftBounds) -> tuple[int, ...]:
    """Componentwise-least integral acceptable shifting (m[0] = 0).

    m_i is the largest total weight of a walk from i to 0 in the graph
    with arc weights -b[next][current], all <= 0 as no bound is negative;
    rounds of longest-path relaxation stop at the first with no change.
    No cycle is positive, so a longest walk has at most d-1 arcs and round
    d changes nothing.  Every value is <= 0, and a round with no change
    meets every bound: for i >= 1 by the relaxation, for i = 0 as v[j] <= 0 <= b[j][0].
    So m is the least point with m[0] = 0 of {a : a_i - a_j <= b[i][j]}, or
    Infeasible if none is (a = 0 is in it; parts 0 does not reach move down
    together): a bound matrix with the same feasible set gives the same m.
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
    for i in range(1, d):
        if v[i] is None:
            raise Infeasible(f"no finite bound chain from {i} to 0")
    return tuple(v)


def meeting_pairs(sets) -> list[tuple[int, int]]:
    """The index pairs i < j of the sets that share a value, in (i, j) order."""
    return [(i, j) for i, s in enumerate(sets) for j in range(i + 1, len(sets))
            if not s.isdisjoint(sets[j])]


@dataclass(frozen=True)
class LabeledDigraph:
    """Gluing data: coprime-skeleton labels on levels, joined where they meet.

    Vertices carry skeletons of (n, m)-invariant subsets and a level f.
    The labels and levels determine the edges: two vertices are joined
    exactly when their labels intersect as value sets, and the edge points
    from the lower level to the higher.  The source is the one vertex of
    level 0; its label is 0-normalized, every label is non-negatively
    normalized, no two meeting vertices share a level, and every other
    vertex meets a vertex exactly one level below it.  So the digraph is
    acyclic, the source is its one vertex of in-degree 0, and the level of
    each vertex is the length of the longest path to it from the source.

    Validation makes the one meet test (skipped by _trusted, for levels that
    prove it) and stores nothing: labels and levels are the whole graph, and
    to_jsonable() is the constructor's input.
    """

    n: int
    m: int
    labels: tuple[tuple[int, ...], ...]
    levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(tuple(sorted(lbl)) for lbl in self.labels))
        object.__setattr__(self, "levels", tuple(self.levels))
        self._check_vertices()
        levels = self.levels
        grounded = [f == 0 for f in levels]  # the source, or meets a vertex one level below
        for i, j in meeting_pairs([set(lbl) for lbl in self.labels]):
            if levels[i] > levels[j]:
                i, j = j, i
            elif levels[i] == levels[j]:
                raise InvalidGraph(f"vertices {i},{j} meet on level {levels[i]}")
            if levels[j] == levels[i] + 1:
                grounded[j] = True
        if not all(grounded):
            v = grounded.index(False)
            raise InvalidGraph(f"vertex {v} of level {levels[v]} meets no vertex "
                               f"of level {levels[v] - 1}")

    @classmethod
    def _trusted(cls, n: int, m: int, labels: tuple, levels: tuple) -> LabeledDigraph:
        """The graph of sorted labels and levels that give each vertex 1 + the
        highest level of the earlier vertices it meets, or 0 if it meets none.
        Those levels need no meet test: an earlier vertex that meets v has a
        level below v's, and v > 0 meets the earlier one that set its level.
        Every other check runs."""
        graph = object.__new__(cls)
        graph.__dict__.update(n=n, m=m, labels=labels, levels=levels)
        graph._check_vertices()
        return graph

    def _check_vertices(self):
        """One source; every label a skeleton, by the memo coprime_from_skeleton,
        and normalized as the class says.  A label's subset D has least element
        label[0] + m: min(D) - m is a cogenerator, any other y has y + m in D,
        and every generator is in D, so the least value is min(D) - m."""
        n, m, labels, levels = self.n, self.m, self.labels, self.levels
        d = len(labels)
        if d < 1:
            raise InvalidGraph("need at least one vertex")
        if len(levels) != d:
            raise InvalidGraph(f"levels {levels} for {d} labels")
        if levels.count(0) != 1:
            sources = [i for i, f in enumerate(levels) if f == 0]
            raise InvalidGraph(f"level-0 vertices {sources}, expected exactly one")
        for i, lbl in enumerate(labels):
            try:
                coprime_from_skeleton(n, m, lbl)
            except InvalidSkeleton as exc:
                raise InvalidGraph(f"label {i} is not a skeleton: {exc}") from exc
            low = lbl[0] + m
            if low < 0:
                raise InvalidGraph(f"label {i} not non-negatively normalized")
            if levels[i] == 0 and low != 0:
                raise InvalidGraph("source label must be 0-normalized")

    @property
    def d(self) -> int:
        return len(self.labels)

    def to_jsonable(self) -> dict:
        return {"labels": [list(lbl) for lbl in self.labels], "levels": list(self.levels)}


def gluing_data(params: GridParams, values) -> tuple[tuple, tuple[int, ...]]:
    """The labels and levels of the skeleton with the given sorted values:
    label i is part i shifted by a_i and divided by d, level i is i + a_i mod d.

    a is minimal_shifting of the bounds between consecutive values of different
    parts, one pass where shift_bounds compares each value with the next one of
    every part.  Both matrices give the same a, or Infeasible, having one feasible
    set: with s(x) = x + a[x mod d], a_i - a_j <= y - x - 1 says s(x) < s(y), so
    each is where s increases strictly along the values (as on same-part steps).
    """
    d = params.d
    parts, b = [[] for _ in range(d)], [[None] * d for _ in range(d)]
    x, i = values[0], values[0] % d
    for y in values:
        j = y % d
        parts[j].append(y)
        if j != i:
            row = b[i]
            if row[j] is None or y - x <= row[j]:
                row[j] = y - x - 1
            i = j
        x = y
    a = minimal_shifting(ShiftBounds(tuple(map(tuple, b))))
    return (tuple([tuple([(x + ai) // d for x in part]) for part, ai in zip(parts, a)]),
            tuple([(i + ai) % d for i, ai in enumerate(a)]))


def build_graph(delta: InvariantSet) -> LabeledDigraph:
    """The gluing data of an invariant subset (the map into T^d_{n,m}): the
    gluing_data of its skeleton, whose graph's validation orients the meeting
    labels up the levels and checks that they are its longest-path levels.
    A fault of that validation names delta and the data.
    """
    if not delta.normalized:
        raise NotNormalized("gluing data requires a 0-normalized subset")
    p = delta.params
    labels, levels = gluing_data(p, skeleton(delta).sorted_values)
    try:
        return LabeledDigraph(p.n, p.m, labels, levels)
    except InvalidGraph as exc:
        raise InvariantViolation(f"gluing data of {delta.gen} (labels {labels}, levels "
                                 f"{levels}) is invalid: {exc}") from exc


def canonical_form(graph: LabeledDigraph) -> bytes:
    """Deterministic encoding invariant under label-preserving isomorphism.

    The labels and levels, vertices sorted by (label, level), as compact
    JSON.  Complete, as labels and levels determine the edges; invariant, as
    an isomorphism keeping labels keeps the source and longest-path levels.
    No key ties: equal labels meet, and meeting vertices differ in level.
    Written directly, as the bytes of json.dumps with separators (",", ":").
    """
    pairs = sorted(zip(graph.labels, graph.levels))
    labels = "],[".join([_label_text(lbl) for lbl, _ in pairs])
    levels = ",".join([str(f) for _, f in pairs])
    return f'{{"labels":[[{labels}]],"levels":[{levels}]}}'.encode("ascii")


@lru_cache(maxsize=4096)
def _label_text(label: tuple[int, ...]) -> str:
    """A label's values as JSON array items, memoized, as labels repeat; %d
    gives labels that are equal keys, such as (0, True) and (0, 1), one text."""
    return ",".join(["%d" % x for x in label])


def _shifting_fault(values: list[int], p: tuple[int, ...]) -> str | None:
    """Why p is not minimal_shifting(shift_bounds(S)), S the sorted skeleton
    values, or None when it is; one pass over the values and one search.

    With s(x) = x + p[x mod d], p is that least solution exactly when
    (a) p[0] = 0;
    (b) s increases strictly along the values: b[i][j] is the least
        positive y - x, minus 1, so every bound holds iff x < y implies
        s(x) < s(y), and consecutive values suffice;
    (c) part 0 reaches every part over the tight arcs j -> i, those with
        p[i] = p[j] - b[j][i]: under (b), exactly the consecutive x < y of
        parts j and i with s(y) = s(x) + 1 (no value fits between them).
    (b) makes p a solution, so p >= the least one; along a tight path from
    0 the bounds hold with equality, so p <= it.  Conversely the least
    solution meets its bounds, and a longest path from 0 is tight.  A
    same-part step has s(y) - s(x) = y - x >= d: tight only at d = 1, a loop.
    """
    d = len(p)
    if p[0] != 0:
        return f"it moves part 0 by {p[0]}"
    arcs = [[] for _ in range(d)]
    x = values[0]
    i = x % d
    sx = x + p[i]
    for y in values[1:]:
        j = y % d
        sy = y + p[j]
        if sy <= sx:
            return f"values {x} < {y} shift to {sx} >= {sy}"
        if sy == sx + 1:
            arcs[i].append(j)
        x, i, sx = y, j, sy
    reached, todo = [True] + [False] * (d - 1), [0]
    while todo:
        for j in arcs[todo.pop()]:
            if not reached[j]:
                reached[j] = True
                todo.append(j)
    if not all(reached):
        return f"part {reached.index(False)} is not reached from part 0 over tight arcs"
    return None


def minimal_representative(graph: LabeledDigraph) -> InvariantSet:
    """The invariant subset with skeleton parts S_i = d*label_i + i.

    The vertex order must make the level function weakly monotone, so
    vertices are stably sorted by level: the given order is kept within
    a level, and kept whole when it already is monotone.  The result is
    0-normalized, and its minimal shifting must be p_i = level(order[i]) - i.
    That makes its gluing data the input's: as 0 <= level < d, both
    (d*label + i + p_i) // d = label and (i + p_i) mod d = level, so
    build_graph would rebuild every label and level, and so the edges,
    the label meets oriented up the levels.  The values always assemble, as
    each label is a coprime skeleton and (co)generators go class by class mod d,
    so the last value in each class mod N is its generator, taken as it is and
    not reassembled; InvariantSet still checks its classes and M-invariance.
    As N = d*n and M = d*m, Delta meets d*Z + i in d*L + i, L the subset with
    skeleton label(order[i]), and d*y + i is an N-generator or M-cogenerator
    of Delta iff y is one of L: the sorted values are Delta's skeleton, carried.

    p is checked by a certificate, _shifting_fault, not solved for again.
    With s(x) = x + p[x mod d] = d*label + level, it holds on a validated
    graph, as levels lie in [0, d) and the parts follow the levels:
    (a) the one level-0 vertex sorts first, so p_0 = 0;
    (b) values x < y have labels a <= b; if a < b, s(x) < d*(a+1) <= s(y);
        if a = b, the two vertices meet, so they differ in level, and x's,
        in the earlier part, is the lower;
    (c) each other vertex meets one a level below it at a label value a,
        and their values at a give s(y) = s(x) + 1: a tight arc into its
        part from a part one level lower, and so a tight path from part 0.
    The check stays as the invariant against forged graph values.
    """
    d, labels = graph.d, graph.labels
    order = sorted(range(d), key=graph.levels.__getitem__)
    values = sorted([d * x + i for i, v in enumerate(order) for x in labels[v]])
    params = _grid_params(graph.n, graph.m, d)
    N = params.N
    gen = [None] * N
    for x in values:  # increasing, so each class keeps its last value
        gen[x % N] = x
    try:
        delta = InvariantSet(params, gen)
    except ValueError as exc:
        raise InvariantViolation(f"labels {graph.labels} do not assemble: {exc}") from exc
    if not delta.normalized:
        raise InvariantViolation(f"minimal representative {delta.gen} is not normalized")
    predicted = tuple([graph.levels[v] - i for i, v in enumerate(order)])
    fault = _shifting_fault(values, predicted)
    if fault:
        raise InvariantViolation(f"the shifting {predicted} that the levels of {graph.labels} "
                                 f"predict is not minimal: {fault}")
    object.__setattr__(delta, "_skeleton", tuple(values))
    return delta


def min_gap_in_class(delta: InvariantSet) -> int:
    """Least gap count over the equivalence class of delta."""
    return gap(minimal_representative(build_graph(delta)))
