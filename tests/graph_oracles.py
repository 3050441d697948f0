"""Oracles shared by the tests: the edges and source that the labels and
levels determine, the edge-based levels and canonical form that
LabeledDigraph used before it took levels as input, the canonical form as
json.dumps writes it, the class census by subsets, equivalence by canonical
forms, one periodic window and one window removal by definition, the window
peel that counts the ranks it holds and an unglue by it, seeded paths past
desk scale, ratcat's lru caches, and the fixtures and references that ratcat
does not export: the rank of a box, Z_{>=0}, the semigroup of N and M, and a
subset from its core."""

import json
import random
import sys

from ratcat import (
    DyckPath,
    GridParams,
    InvariantSet,
    InvariantViolation,
    LabeledDigraph,
    NotBalanced,
    build_graph,
    canonical_form,
    enumerate_invsets_by_gap,
    invset_from_generators,
    step_ranks,
    subdiagonal_box_count,
)
from ratcat.invset import invset_from_skeleton


def box_rank(params, x, y):
    """Rank d*m*n - m - n - n*x - m*y of the box (x, y), on all of Z^2: the
    boxes of non-negative rank are those under the diagonal of the rectangle."""
    return params.d * params.m * params.n - params.m - params.n - params.n * x - params.m * y


def natural_numbers(params):
    """Z_{>=0} as an invariant subset."""
    return InvariantSet(params, tuple(range(params.N)))


def semigroup(params):
    """The numerical semigroup generated by N and M."""
    return invset_from_generators(params, [0])


def invset_from_core(params, lam):
    """Inverse of core_partition: the class c mod N of Delta starts at the
    least x = c mod N that is not a first-column hook of the core lam."""
    hooks = set(lam.first_column_hooks())
    gen = []
    for c in range(params.N):
        x = c
        while x in hooks:
            x += params.N
        gen.append(x)
    return InvariantSet(params, tuple(gen))


def equivalent(delta1, delta2):
    """Whether two subsets of one grid have the same gluing data up to isomorphism."""
    assert delta1.params == delta2.params, (delta1, delta2)
    return canonical_form(build_graph(delta1)) == canonical_form(build_graph(delta2))


def graph_edges(graph):
    """Each pair of meeting labels, from the lower level to the higher."""
    f = graph.levels
    return frozenset((i, j) if f[i] < f[j] else (j, i)
                     for i in range(graph.d) for j in range(i + 1, graph.d)
                     if set(graph.labels[i]) & set(graph.labels[j]))


def graph_source(graph):
    """The one vertex that no edge enters."""
    heads = {j for (_, j) in graph_edges(graph)}
    [source] = [v for v in range(graph.d) if v not in heads]
    return source


def oracle_levels(d, edges):
    """Longest-path levels by a topological sort that rescans every edge."""
    indeg = [0] * d
    for (_, j) in edges:
        indeg[j] += 1
    queue = [i for i in range(d) if indeg[i] == 0]
    order = []
    while queue:
        i = queue.pop()
        order.append(i)
        for (a, b) in edges:
            if a == i:
                indeg[b] -= 1
                if indeg[b] == 0:
                    queue.append(b)
    assert len(order) == d
    f = [0] * d
    for i in order:
        for (a, b) in edges:
            if a == i:
                f[b] = max(f[b], f[i] + 1)
    return tuple(f)


def graph_from_edges(n, m, labels, edges):
    """The graph whose edges are these: its levels are theirs by oracle_levels."""
    graph = LabeledDigraph(n, m, labels, oracle_levels(len(labels), edges))
    assert graph_edges(graph) == frozenset(edges), (graph_edges(graph), edges)
    return graph


def oracle_canonical_form(graph):
    """The edge-based canonical form, with vertices ordered by (label, in-degree)."""
    edges = graph_edges(graph)
    indeg = [0] * graph.d
    for (_, j) in edges:
        indeg[j] += 1
    keys = list(zip(graph.labels, indeg))
    assert len(set(keys)) == graph.d, graph
    order = sorted(range(graph.d), key=keys.__getitem__)
    pos = {old: new for new, old in enumerate(order)}
    payload = {"labels": [list(graph.labels[v]) for v in order],
               "edges": sorted([pos[i], pos[j]] for (i, j) in edges),
               "source": pos[graph_source(graph)]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")


def json_canonical_form(graph):
    """canonical_form as json.dumps writes it: (label, level)-sorted vertices."""
    pairs = sorted(zip(graph.labels, graph.levels))
    payload = {"labels": [list(lbl) for lbl, _ in pairs], "levels": [f for _, f in pairs]}
    return json.dumps(payload, separators=(",", ":")).encode("ascii")


def subset_class_forms(params):
    """The class census by subsets: the canonical forms of the gluing data of
    every 0-normalized subset with gap at most the sub-diagonal box count,
    which bounds the least gap of every class."""
    return {canonical_form(build_graph(delta))
            for delta in enumerate_invsets_by_gap(params, subdiagonal_box_count(params))}


def window(periodic, r):
    """The fundamental window of a periodic path from its point of rank r,
    walked by the generator vector of its subset: 'v' exactly at a rank
    that is the generator of its class mod n."""
    n, m = periodic.n, periodic.m
    gens = invset_from_skeleton(GridParams(n, m, 1), sorted(periodic.skel)).gen
    steps = []
    for _ in range(n + m):
        assert r in periodic.skel, (periodic.skel, r)
        up = gens[r % n] == r
        steps.append("v" if up else "h")
        r += -m if up else n
    return "".join(steps)


def remove_interval(path, r):
    """Remove the balanced window of n+m steps at r, translating the tail by (m, -n).

    The smaller path's grid has d - 1 >= 1, so a path with d = 1 is
    refused by its GridParams."""
    p = path.params
    width = p.n + p.m
    if not 0 <= r <= len(path.steps) - width:
        raise NotBalanced(f"no window of {width} steps of {path.steps!r} starts at {r}")
    if path.steps.count("v", r, r + width) != p.n:
        raise NotBalanced(f"steps [{r}, {r + width}) are not balanced")
    return DyckPath(GridParams(p.n, p.m, p.d - 1), path.steps[:r] + path.steps[r + width:])


def peel_guarded(path, ranks):
    """glue._peel with a per-rank count of the points on its stack: a window
    closing on top must hold its start rank twice and its other ranks once,
    or it raises, naming a rank shared with a lower point."""
    width = path.params.n + path.params.m
    held = [0] * (max(ranks) + path.params.m + 1)  # by rank: -m..-1 wrap to the end
    top = held.copy()  # the highest round removed so far, by rank
    stack, stack_ranks = [], []
    for z, r in enumerate(ranks):
        stack.append(z)
        stack_ranks.append(r)
        held[r] += 1
        while len(stack) > width and stack_ranks[-width - 1] == r:
            window = stack[-width - 1:-1]
            window_ranks = stack_ranks[-width - 1:-1]
            if sum(map(held.__getitem__, window_ranks)) != width + 1:
                shared = next(k for k in window_ranks if held[k] > 1 + (k == r))
                raise InvariantViolation(f"balanced window at steps {window} of {path.steps!r}"
                                         f" shares rank {shared} with a lower point")
            level = 1 + max(map(top.__getitem__, window_ranks))
            for k in window_ranks:
                held[k] -= 1
                top[k] = level
            del stack[-width - 1:-1]
            del stack_ranks[-width - 1:-1]
            yield -level, window[0], tuple(sorted(window_ranks)), window
    if len(stack) != 1:
        raise InvariantViolation(f"no good interval left while peeling {path.steps!r}")


def reference_unglue(path):
    """The labels, levels and colors of unglue by peel_guarded and the sort
    unglue made before the peel's records came in vertex order: each record
    rebuilt as (-round, start, label, positions)."""
    ranks = step_ranks(path.params, path) + [-path.params.m]
    windows = sorted([(neg_round, positions[0], label, positions)
                      for neg_round, _, label, positions in peel_guarded(path, ranks)])
    top = [-1] * (max(ranks) + path.params.m + 1)  # the highest level so far, by rank
    levels, colors = [], [0] * len(path.steps)
    for v, (_, _, label, positions) in enumerate(windows):
        level = 1 + max(top[k] for k in label)
        for k in label:
            top[k] = level
        levels.append(level)
        for z in positions:
            colors[z] = v
    return tuple(w[2] for w in windows), tuple(levels), tuple(colors)


def seeded_paths(params, count, seed):
    """Dyck paths from shuffled words, each cut after its first prefix
    maximum of m per 'v' minus n per 'h' (so that it stays below the
    diagonal)."""
    rng = random.Random(seed)
    word = list("v" * params.N + "h" * params.M)
    for _ in range(count):
        rng.shuffle(word)
        height = best = cut = 0
        for z, s in enumerate(word, 1):
            height += params.m if s == "v" else -params.n
            if height > best:
                best, cut = height, z
        yield DyckPath(params, "".join(word[cut:] + word[:cut]))


def sampled_paths():
    """40 seeded paths of each of five grids: (5,3,6) has the benchmark's
    widest window, (2,1,30) is long and thin."""
    for k, params in enumerate([GridParams(3, 2, 8), GridParams(3, 2, 16),
                                GridParams(1, 1, 40), GridParams(5, 3, 6),
                                GridParams(2, 1, 30)]):
        yield from seeded_paths(params, 40, seed=k)


def ratcat_caches():
    """Every lru cache held by a ratcat module: each module attribute with a
    cache_clear, once each, as the benchmark finds the caches it clears."""
    caches = {}
    for key, mod in list(sys.modules.items()):
        if key == "ratcat" or key.startswith("ratcat."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def clear_caches():
    """Empty every ratcat lru cache, so the next call computes afresh."""
    for cache in ratcat_caches():
        cache.cache_clear()
