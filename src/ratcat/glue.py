"""Gluing periodic paths into Dyck paths and taking them apart again.

Every coprime skeleton determines an (n, m)-periodic lattice path: a
point lies on the path exactly when its rank belongs to the skeleton,
and its step is 'h' exactly when rank + n does too (a skeleton value x
is a generator iff x + n is not in the skeleton, and generators step up).
Gluing splices length-(n+m) windows of such paths into a growing Dyck
path, one level of the gluing digraph at a time.  One stack pass, _peel,
inverts it and colors the steps; its first round is the good intervals.

Paths are plain step strings, and a point is known only by its rank,
the rank of the digraph labels: a path starts at rank -m, 'h' adds n
and 'v' subtracts m.  A balanced window moves the rest of the path by
(-m, n) or back, which keeps its ranks, so gluing splices one rank list
along with the steps and ungluing pops it.  No floating point is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DomainError,
    InvalidColoring,
    InvalidGraph,
    InvariantViolation,
    NoIntersection,
    NotBalanced,
)
from .equiv import LabeledDigraph
from .invset import _walk, coprime_from_skeleton
from .lattice import DyckPath, GridParams, _grid_params, step_ranks


def _point_ranks(path: DyckPath) -> list[int]:
    """Rank of every point of the path, from its start to its end."""
    ranks = step_ranks(path.params, path)
    ranks.append(-path.params.m)
    return ranks


def _glued(params: GridParams, steps: str) -> DyckPath:
    """The Dyck path of a glued step string; any other outcome is a bug."""
    try:
        return DyckPath(params, steps)
    except DomainError as exc:
        raise InvariantViolation(f"gluing produced {steps!r}, not a Dyck path: {exc}") from exc


@dataclass(frozen=True)
class PeriodicPath:
    """(n, m)-periodic boundary path of a possibly shifted invariant subset.

    skel holds the n+m step ranks of any fundamental window; a point lies
    on the path iff its rank belongs to skel, and the outgoing step at
    that point is vertical exactly when the rank is a generator of the
    underlying subset, that is, when rank + n is not in skel.  skel may be
    given as any iterable of the n+m ranks and is kept as a frozenset; a
    value list that is no (n, m) skeleton raises InvalidSkeleton.
    """

    n: int
    m: int
    skel: frozenset[int]

    def __post_init__(self):
        label = tuple(sorted(self.skel))
        coprime_from_skeleton(self.n, self.m, label)
        object.__setattr__(self, "skel", frozenset(label))


def periodic_from_skeleton(n: int, m: int, values) -> PeriodicPath:
    """Periodic path of the skeleton given by an iterable of n+m ranks."""
    return PeriodicPath(n, m, values)


@lru_cache(maxsize=4096)
def _label_ranks(label: tuple[int, ...]) -> frozenset[int]:
    """A label's ranks as a set, memoized, as labels repeat across graphs."""
    return frozenset(label)


@lru_cache(maxsize=4096)
def _window(n: int, m: int, label: tuple[int, ...], r: int) -> tuple[str, tuple[int, ...]]:
    """_walk of the periodic path on label from rank r, memoized per (label, r);
    a walk that fails raises on every call, as lru_cache caches no exception."""
    steps, ranks = _walk(n, m, _label_ranks(label), r)
    return steps, tuple(ranks)


def _splice(steps: str, ranks: list[int], n: int, m: int, label: tuple[int, ...]) -> str:
    """Splice a window of the periodic path on label into steps at their first point on it.

    ranks are the point ranks of steps, end point included: the empty
    path's one point, of rank -m, is where the first window enters.  The
    window's own ranks are inserted; it walks back to its start rank, so
    the rest keeps its ranks.
    """
    skel = _label_ranks(label)
    for cut, r in enumerate(ranks):
        if r in skel:
            break
    else:
        raise NoIntersection("the periodic path misses the current path")
    window, window_ranks = _window(n, m, label, r)
    ranks[cut:cut] = window_ranks
    return steps[:cut] + window + steps[cut:]


def glue_once(dhat: DyckPath, periodic: PeriodicPath) -> DyckPath:
    """Splice one fundamental window of a periodic path into dhat.

    The window enters at the first point of dhat (in path order) lying
    on the periodic path; the remainder of dhat continues after the
    window, which amounts to translating it by (-m, n).
    """
    p = dhat.params
    if (periodic.n, periodic.m) != (p.n, p.m):
        raise DomainError(f"cannot glue a ({periodic.n},{periodic.m})-periodic path "
                          f"into a path of the ({p.n},{p.m}) grid")
    steps = _splice(dhat.steps, _point_ranks(dhat), p.n, p.m, tuple(sorted(periodic.skel)))
    return _glued(GridParams(p.n, p.m, p.d + 1), steps)


def glue_all(graph: LabeledDigraph) -> DyckPath:
    """Assemble the Dyck path of a gluing digraph, one level at a time.

    Within a level the order of gluing does not matter; one stable sort
    on the level puts the source, the one vertex of level 0, first, and
    its window starts at the point of rank -m, the start of every path,
    which the source label holds, as the graph checked it is 0-normalized.

    Each window is walked from its validated label by _window, memoized per
    label and entry rank; each but the source's meets one spliced a level
    earlier, so a miss is a bug.  The ranks are spliced along with the
    steps, and only the final path is validated.  That covers every
    intermediate path: each window walks back to its start rank, so it is
    balanced and its splice only inserts ranks; an intermediate path's
    point ranks are among the final path's, all >= -m when that one is Dyck.
    """
    n, m = graph.n, graph.m
    steps, ranks = "", [-m]  # the empty path: one point, of rank -m
    for v in sorted(range(graph.d), key=graph.levels.__getitem__):
        try:
            steps = _splice(steps, ranks, n, m, graph.labels[v])
        except NoIntersection as exc:
            raise InvariantViolation(f"gluing vertex {v} of {graph.labels}: {exc}") from exc
    return _glued(_grid_params(n, m, graph.d), steps)


def good_intervals(path: DyckPath) -> list[int]:
    """Start positions of the good intervals of a Dyck path.

    An interval of n+m steps is balanced when n of them are vertical; it
    is good when additionally the periodic extension of the window stays
    clear of every point of the path strictly before the window's start.
    The first balanced interval is good, and the good ones are _peel's
    round-1 windows, as its rounds are those of round-by-round removal.
    """
    return sorted(start for neg_round, start, _, _ in _peel(path, _point_ranks(path))
                  if neg_round == -1)


def window_skeleton(path: DyckPath, r: int) -> frozenset[int]:
    """Step ranks of the n+m steps starting at position r."""
    width = path.params.n + path.params.m
    if not 0 <= r <= len(path.steps) - width:
        raise NotBalanced(f"no window of {width} steps of {path.steps!r} starts at {r}")
    return frozenset(step_ranks(path.params, path)[r:r + width])


@dataclass(frozen=True)
class ColoredPath:
    """A Dyck path with steps colored by gluing vertex: colors[z] is the
    vertex whose window holds step z.

    Each color class has n vertical and m horizontal steps lying on one
    periodic path, with exactly one step per rank of its skeleton; its
    consecutive steps reconnect after translating by k*(-m, n), as _peel's
    stack neighbours share ranks, so sliding its runs along that periodic
    path tiles a fundamental window.  That window, below its own diagonal,
    is components[color]: the one Dyck rotation of the class's steps in
    path order.  base and colors determine the components, so only they
    are stored, compared and hashed.

    A hand-built value is checked when its components are read, so unglue
    pays nothing: a color per step, each in [0, d), or InvalidColoring,
    and each class a rotation of an (n, m)-Dyck path, or the DomainError of
    that path.  A coloring with such classes that is not the path's own,
    such as (0, 1, 1, 0) on the (1, 1, 2) path hvhv, is accepted.
    """

    base: DyckPath
    colors: tuple[int, ...]

    @property
    def components(self) -> tuple[DyckPath, ...]:
        """The d-tuple of (n, m)-Dyck paths, derived on each read."""
        p, steps = self.base.params, self.base.steps
        if len(self.colors) != len(steps):
            raise InvalidColoring(f"{len(self.colors)} colors for {len(steps)} steps")
        stray = set(self.colors).difference(range(p.d))
        if stray:
            raise InvalidColoring(f"color {min(stray)} is not one of the {p.d} vertices")
        words = [[] for _ in range(p.d)]
        for s, c in zip(steps, self.colors):
            words[c].append(s)
        return tuple(_component(p.n, p.m, "".join(w)) for w in words)

    def to_jsonable(self) -> dict:
        return {"steps": self.base.steps,
                "colors": list(self.colors),
                "components": [{"color": i, "steps": c.steps}
                               for i, c in enumerate(self.components)]}


def _peel(path: DyckPath, ranks: list[int]) -> list[tuple]:
    """(-round, start position, rank set, original step positions) of each
    window that ungluing removes, in removal order; ranks are the path's
    point ranks.  Sorted as they are, the records follow the rounds
    descending and each round in path order, as no two windows share a start.

    The points not yet removed sit on a stack, above n+m sentinels of no
    rank, so no window reaches below the first point.  While the top n+m+1
    start and end at one rank they form a balanced window, with n+m distinct
    ranks (each step adds n mod n+m, a unit), held by its points before its
    end e.  It is good: its periodic path holds exactly the points of its
    ranks, and no lower point holds one, so it is popped with no check.
    Once a point's own pops end, no window closes at it, and the points
    below it never change while it stays.  Stack neighbours differ in rank
    by a step (see below), so a lower point p of the rank of a window point
    w < e would start a stretch to w of k*(n+m) steps with k*m 'h', as its
    rank change is 0; its k tiles of n+m steps average m 'h', and a tile
    slid one step changes its count by at most 1, so a balanced window
    would have closed at or before w, below the top.  The window is popped
    to its end point; its round is 1 + the highest round popped at its ranks.
    This matches removing all good intervals round by round, because
    1. good windows never overlap: if W starts at r and V at s, with
       r < s < r+n+m, V holds point r+n+m, of rank ranks[r], before V;
    2. so removing one leaves every other good one good and unchanged;
    3. goodness depends only on a window's points and those before it,
       so each pop removes a window good in the whole remaining path;
    4. windows that meet are never good together, so every complete
       removal order removes the same windows, takes any two that meet in
       the same order, and gives each window the round 1 + the highest
       round of the earlier-removed windows it meets.
    Stack neighbours a < b always have ranks[a+1] == ranks[b]: it holds
    when b is pushed, and popping a window from start to end point e leaves
    its lower neighbour p with ranks[p+1] == ranks[start] == ranks[e].  So
    on any rank list, forged or not, a window's consecutive steps reconnect
    (each ends at the rank where the next starts: a k*(-m, n) translate),
    and on the path's own ranks its rank changes telescope to 0: n*#h =
    m*#v with #h + #v = n+m and gcd(n, m) = 1 gives n 'v'.  The coloring,
    a window per color, needs no check.  A rank stack beside the stack of
    positions slices out each window's ranks, sorted as its label.
    Forged ranks, whose steps are not n or -m, void the proof, and _peel
    does not check them: in unglue a window whose ranks are no skeleton
    fails the label check of LabeledDigraph._trusted, and points left on
    the stack end the pass with "no good interval left", InvariantViolations.
    """
    width = path.params.n + path.params.m
    below = -width - 1  # the stack index of a closing window's start
    top = [0] * (max(ranks) + path.params.m + 1)  # highest round popped, by rank: -m..-1 wrap
    stack = [None] * width
    stack_ranks = [None] * width  # ranks[z] for each z on the stack
    out = []
    for z, r in enumerate(ranks):
        stack.append(z)
        stack_ranks.append(r)
        while stack_ranks[below] == r:
            window = stack[below:-1]
            window_ranks = stack_ranks[below:-1]
            level = 1 + max(map(top.__getitem__, window_ranks))
            for k in window_ranks:
                top[k] = level
            del stack[below:-1], stack_ranks[below:-1]
            window_ranks.sort()
            out.append((-level, window[0], tuple(window_ranks), window))
    if len(stack) != width + 1:
        raise InvariantViolation(f"no good interval left while peeling {path.steps!r}")
    return out


def unglue(path: DyckPath) -> tuple[LabeledDigraph, ColoredPath]:
    """Invert the gluing: recover the labeled digraph and the coloring.

    Each window _peel removes is a vertex labeled by its ranks, and its
    step positions are its color class; the last, alone in the top round,
    is the source.  Vertices follow the rounds descending, each in path
    order, the order of _peel's records sorted as they are, so every window
    a vertex meets in a later round comes before it: its level is 1 + the
    highest level so far at any of its ranks.
    Those levels prove the meet test, so LabeledDigraph._trusted skips it;
    the labels are still checked, and so is the one source: two top-round
    windows would both get level 0, which the graph rejects.
    The coloring is stored as its colors alone and needs no check: _peel's
    stack neighbours share ranks, so each class's runs reconnect and each
    class is balanced.  So the ColoredPath is built without its __init__,
    which checks nothing; the components are derived when they are read.
    """
    n, m = path.params.n, path.params.m
    steps = path.steps
    point_ranks = _point_ranks(path)
    windows = sorted(_peel(path, point_ranks))
    top = [-1] * (max(point_ranks) + m + 1)  # the highest level so far, by rank
    levels, colors = [], [0] * len(steps)
    for v, (_, _, label, positions) in enumerate(windows):
        level = 1 + max(map(top.__getitem__, label))
        for k in label:
            top[k] = level
        levels.append(level)
        for z in positions:
            colors[z] = v
    try:
        graph = LabeledDigraph._trusted(n, m, tuple([w[2] for w in windows]), tuple(levels))
    except InvalidGraph as exc:
        raise InvariantViolation(f"ungluing {steps!r} gave an invalid graph: {exc}") from exc
    colored = object.__new__(ColoredPath)  # as _trusted builds the graph: nothing to check
    colored.__dict__.update(base=path, colors=tuple(colors))
    return graph, colored


@lru_cache(maxsize=4096)
def _component(n: int, m: int, word: str) -> DyckPath:
    """The one Dyck rotation of a word with n 'v' and m 'h' (the cycle lemma):
    it starts after the first maximum of the prefix sum adding m per 'v' and
    -n per 'h'.  Memoized, as color classes repeat few words; a word with no
    Dyck rotation raises on every call, as lru_cache caches no exception."""
    height = best = cut = 0
    for i, s in enumerate(word, 1):
        height += m if s == "v" else -n
        if height > best:
            best, cut = height, i
    return DyckPath(GridParams(n, m, 1), word[cut:] + word[:cut])
