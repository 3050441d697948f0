"""Gluing periodic paths into Dyck paths and taking them apart again.

Every coprime skeleton determines an (n, m)-periodic lattice path: the
path passes through a point (a, b) exactly when the box with that point
at its bottom-right corner has rank in the skeleton.  Gluing splices
length-(n+m) windows of such paths into a growing Dyck path, one level
of the gluing digraph at a time; removal of good intervals inverts the
construction and simultaneously colors the steps of the path by the
vertex that contributed them.

All paths here are carried as step strings plus an absolute anchor
point, with the box rank of the n x m rectangle providing point
membership; a path is always anchored so that its start sits at (m, 0),
which makes window step ranks agree with the digraph labels.  No
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidGraph, InvariantViolation, NoIntersection, NotBalanced
from .equiv import LabeledDigraph
from .invset import coprime_from_skeleton
from .lattice import DyckPath, GridParams, box_rank


def _good_positions(ranks: list[int], width: int) -> list[int]:
    """Starts of the good intervals of the path with the given point ranks.

    A window of width = n+m steps changes the rank by (n+m)(n - #v), so
    it is balanced exactly when its end point has the rank of its start.
    It is good when, in addition, its ranks miss every point rank before
    its start; one left-to-right scan keeps those earlier ranks in a set.
    """
    out = []
    before = set()
    for r in range(len(ranks) - width):
        if ranks[r] == ranks[r + width] and before.isdisjoint(ranks[r:r + width]):
            out.append(r)
        before.add(ranks[r])
    return out


@dataclass(frozen=True)
class PeriodicPath:
    """(n, m)-periodic boundary path of a possibly shifted invariant subset.

    skel holds the n+m step ranks of any fundamental window; a lattice
    point (a, b) lies on the path iff the rank of the box (a-1, b)
    belongs to skel, and the outgoing step at that point is vertical
    exactly when that rank is a generator of the underlying subset.
    """

    n: int
    m: int
    skel: frozenset[int]
    gens: tuple[int, ...]  # generator per class mod n of the underlying subset

    def contains_point(self, a: int, b: int) -> bool:
        return box_rank(GridParams(self.n, self.m), a - 1, b) in self.skel

    def walk(self, point: tuple[int, int], count: int) -> str:
        """The step string of the window starting at the given on-path point."""
        a, b = point
        r = box_rank(GridParams(self.n, self.m), a - 1, b)
        return self._walk_from_rank(r, count)

    def _walk_from_rank(self, r: int, count: int) -> str:
        n, m, skel, gens = self.n, self.m, self.skel, self.gens
        steps = []
        for _ in range(count):
            if r not in skel:
                raise NoIntersection(f"no point of rank {r} is on the path")
            if gens[r % n] == r:
                steps.append("v")
                r -= m
            else:
                steps.append("h")
                r += n
        return "".join(steps)


def periodic_from_skeleton(n: int, m: int, values) -> PeriodicPath:
    """Periodic path of the skeleton given by an iterable of n+m ranks."""
    label = tuple(sorted(values))
    return PeriodicPath(n, m, frozenset(label), coprime_from_skeleton(n, m, label).gen)


def paths_intersect(p: PeriodicPath, q: PeriodicPath) -> bool:
    """Two periodic paths meet iff their skeletons share a value."""
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError("paths must share the same slope")
    return bool(p.skel & q.skel)


@dataclass(frozen=True)
class AnchoredPath:
    """A step string pinned to the plane by its start point."""

    n: int
    m: int
    start: tuple[int, int]
    steps: str

    def points(self) -> list[tuple[int, int]]:
        x, y = self.start
        pts = [(x, y)]
        for s in self.steps:
            if s == "h":
                x -= 1
            else:
                y += 1
            pts.append((x, y))
        return pts

    def point_box_ranks(self) -> list[int]:
        """Rank of the box below-left of every visited point.

        Walked from the start: an 'h' step moves the point to x - 1 and
        adds n to the rank, a 'v' step moves it to y + 1 and subtracts m.
        """
        n, m = self.n, self.m
        x, y = self.start
        r = box_rank(GridParams(n, m), x - 1, y)
        ranks = [r]
        for s in self.steps:
            r += n if s == "h" else -m
            ranks.append(r)
        return ranks

    def is_dyck(self) -> bool:
        """Weakly below the diagonal through its own start and end.

        A point (x, y) satisfies n*x + m*y <= n*x0 + m*y0 exactly when its
        box rank is at least the rank at the start (x0, y0).
        """
        k, rem = divmod(len(self.steps), self.n + self.m)
        if rem or self.steps.count("v") != k * self.n:
            return False
        ranks = self.point_box_ranks()
        return min(ranks) >= ranks[0]


def _anchored(path: DyckPath) -> AnchoredPath:
    """Anchor a Dyck path with its start at (m, 0).

    With this anchor the coprime box ranks along the path coincide with
    the rank labels of the N x M rectangle, so window skeletons read off
    an anchored path are directly comparable with digraph labels.
    """
    p = path.params
    return AnchoredPath(p.n, p.m, (p.m, 0), path.steps)


def glue_once(dhat: AnchoredPath, periodic: PeriodicPath) -> AnchoredPath:
    """Splice one fundamental window of a periodic path into dhat.

    The window enters at the first point of dhat (in path order) lying
    on the periodic path; the remainder of dhat continues after the
    window, which amounts to translating it by (-m, n).
    """
    skel = periodic.skel
    for cut, r in enumerate(dhat.point_box_ranks()):
        if r in skel:
            break
    else:
        raise NoIntersection("the periodic path misses the current path")
    window = periodic._walk_from_rank(r, periodic.n + periodic.m)
    out = AnchoredPath(dhat.n, dhat.m, dhat.start,
                       dhat.steps[:cut] + window + dhat.steps[cut:])
    if not out.is_dyck():
        raise InvariantViolation(f"gluing produced {out.steps!r}, not a Dyck path")
    return out


def _glue_all_anchored(graph: LabeledDigraph) -> AnchoredPath:
    n, m = graph.n, graph.m
    f = graph.levels()
    src_label = graph.labels[graph.source]
    src = periodic_from_skeleton(n, m, src_label)
    start = (m, 0)
    if not src.contains_point(*start):
        raise InvalidGraph("source label is not 0-normalized")
    cur = AnchoredPath(n, m, start, src.walk(start, n + m))
    for level in range(1, max(f, default=0) + 1):
        for v in range(graph.d):
            if f[v] == level:
                cur = glue_once(cur, periodic_from_skeleton(n, m, graph.labels[v]))
    return cur


def glue_all(graph: LabeledDigraph) -> DyckPath:
    """Assemble the Dyck path of a gluing digraph, one level at a time.

    Within a level the order of gluing does not matter; vertices are
    processed in index order.  The result is returned in the standard
    rectangle position, start at (M, 0).
    """
    cur = _glue_all_anchored(graph)
    return DyckPath(GridParams(graph.n, graph.m, graph.d), cur.steps)


def good_intervals(path: DyckPath) -> list[int]:
    """Start positions of the good intervals of a Dyck path.

    An interval of n+m steps is balanced when n of them are vertical; it
    is good when additionally the periodic extension of the window stays
    clear of every point of the path strictly before the window's start.
    At least one good interval always exists, and the balanced interval
    closest to the start is always good.
    """
    p = path.params
    return _good_positions(_anchored(path).point_box_ranks(), p.n + p.m)


def window_skeleton(path: DyckPath, r: int) -> frozenset[int]:
    """Step ranks of the n+m steps starting at position r."""
    p = path.params
    return frozenset(_anchored(path).point_box_ranks()[r:r + p.n + p.m])


def remove_interval(path: DyckPath, r: int) -> DyckPath:
    """Remove a balanced interval, translating the tail by (m, -n)."""
    p = path.params
    n, m = p.n, p.m
    window = path.steps[r:r + n + m]
    if len(window) != n + m or window.count("v") != n:
        raise NotBalanced(f"steps [{r}, {r + n + m}) are not balanced")
    return DyckPath(GridParams(n, m, p.d - 1),
                    path.steps[:r] + path.steps[r + n + m:])


@dataclass(frozen=True)
class ColoredPath:
    """A Dyck path with steps colored by gluing vertex.

    Each color class has n vertical and m horizontal steps lying on one
    periodic path, with exactly one step per rank of its skeleton; after
    sliding the connected runs along that periodic path by multiples of
    (m, -n) they tile a fundamental window, and the window below its own
    diagonal is the (n, m)-Dyck path stored in components[color].

    That window is read off the class directly: by the cycle lemma, since
    gcd(n, m) = 1, exactly one rotation of a word with n 'v' and m 'h'
    stays weakly below the diagonal, and component v is that rotation of
    the steps of class v taken in path order.
    """

    base: DyckPath
    colors: tuple[int, ...]
    components: tuple[DyckPath, ...]

    def to_jsonable(self) -> dict:
        return {"steps": self.base.steps,
                "colors": list(self.colors),
                "components": [{"color": i, "steps": c.steps}
                               for i, c in enumerate(self.components)]}


def unglue(path: DyckPath) -> tuple[LabeledDigraph, ColoredPath]:
    """Invert the gluing: recover the labeled digraph and the coloring.

    Good intervals of the current path correspond to the sinks of the
    remaining digraph; they are recorded and removed in rounds until a
    single (n, m)-window is left, which labels the source.  Edges join
    intersecting labels and point from later-removed to earlier-removed
    vertices; original step positions are tracked through the removals
    and become the coloring.

    The point ranks are computed once and peeled along with the steps:
    removing a balanced window translates the tail by (m, -n), which
    changes a box rank n*x + m*y + const by -n*m + m*n = 0, so the ranks
    of the shortened path are the old ranks with the window deleted.
    """
    p = path.params
    n, m = p.n, p.m
    width = n + m
    total = len(path.steps)
    if not total:
        raise ValueError("cannot unglue the empty path")
    step_ranks = _anchored(path).point_box_ranks()
    ranks = list(step_ranks)
    orig = list(range(total))
    provisional = [None] * total
    batches: list[list[frozenset[int]]] = []
    while len(ranks) > 1:
        goods = _good_positions(ranks, width)
        if not goods:
            raise InvariantViolation(f"no good interval left while peeling {path.steps!r}")
        b_idx = len(batches)
        batches.append([frozenset(ranks[r:r + width]) for r in goods])
        for pos in range(len(goods) - 1, -1, -1):
            r = goods[pos]
            for z in orig[r:r + width]:
                provisional[z] = (b_idx, pos)
            del orig[r:r + width]
            del ranks[r:r + width]
    if len(batches[-1]) != 1:
        raise InvariantViolation(f"peeling {path.steps!r} did not end at a single window")

    vertex_of = {}
    skels = []
    batch_of = []
    for b_idx in range(len(batches) - 1, -1, -1):
        for pos, skel in enumerate(batches[b_idx]):
            vertex_of[(b_idx, pos)] = len(skels)
            skels.append(skel)
            batch_of.append(b_idx)
    labels = tuple(tuple(sorted(skel)) for skel in skels)
    d = len(labels)
    edges = set()
    for u in range(d):
        for v in range(d):
            if u != v and not skels[u].isdisjoint(skels[v]):
                if batch_of[u] == batch_of[v]:
                    raise InvariantViolation(
                        f"good intervals of one round meet in {path.steps!r}")
                if batch_of[u] > batch_of[v]:
                    edges.add((u, v))
    graph = LabeledDigraph(n, m, labels, frozenset(edges), source=0)

    colors = tuple(vertex_of[tag] for tag in provisional)
    classes = [[] for _ in range(d)]
    for z, c in enumerate(colors):
        classes[c].append(z)
    coprime = GridParams(n, m, 1)
    components = []
    for v, cls in enumerate(classes):
        word = "".join([path.steps[z] for z in cls])
        if len(word) != width or word.count("v") != n:
            raise InvariantViolation(f"color class {v} of {path.steps!r} is not balanced")
        if tuple(sorted([step_ranks[z] for z in cls])) != labels[v]:
            raise InvariantViolation(
                f"color class {v} of {path.steps!r} does not carry each "
                "skeleton rank exactly once")
        components.append(DyckPath(coprime, _rotation_below_diagonal(word, n, m)))
    _check_run_translations(path, colors, n, m)
    return graph, ColoredPath(path, colors, tuple(components))


def _rotation_below_diagonal(word: str, n: int, m: int) -> str:
    """The unique rotation of word (n 'v', m 'h') weakly below the diagonal.

    The rotation starts right after the first maximum of the prefix sum
    that adds m per 'v' and subtracts n per 'h' (the cycle lemma).
    """
    height = best = cut = 0
    for i, s in enumerate(word, 1):
        height += m if s == "v" else -n
        if height > best:
            best, cut = height, i
    return word[cut:] + word[:cut]


def _check_run_translations(path: DyckPath, colors, n: int, m: int) -> None:
    """Consecutive same-color steps reconnect after translating by k*(-m, n)."""
    pts = path.points()
    last_end: dict[int, tuple[int, int]] = {}
    for z, c in enumerate(colors):
        sx, sy = pts[z]
        if c in last_end:
            ex, ey = last_end[c]
            dx, dy = sx - ex, sy - ey
            if not (dx * n + dy * m == 0 and dx <= 0 and (-dx) % m == 0):
                raise InvariantViolation(
                    f"color {c} of {path.steps!r}: runs differ by ({dx}, {dy}), "
                    "not a multiple of (-m, n)")
        last_end[c] = pts[z + 1]


def map_D(graph: LabeledDigraph) -> DyckPath:
    """The bijection from gluing data to Dyck paths (glue_all)."""
    return glue_all(graph)


def map_D_inverse(path: DyckPath) -> LabeledDigraph:
    """The inverse bijection (first component of unglue)."""
    return unglue(path)[0]
