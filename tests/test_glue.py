import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ratcat import (
    DomainError,
    DyckPath,
    GridParams,
    InvalidColoring,
    InvalidGraph,
    InvalidSkeleton,
    InvariantViolation,
    LabeledDigraph,
    MalformedPath,
    NoIntersection,
    NotBalanced,
    area,
    canonical_form,
    enumerate_paths,
    gap,
    glue_all,
    good_intervals,
    map_D_coprime,
    minimal_representative,
    parse_path,
    periodic_from_skeleton,
    step_ranks,
    unglue,
    window_skeleton,
)
from ratcat import glue
from ratcat.glue import ColoredPath, glue_once
from ratcat.invset import invset_from_skeleton
from ratcat.verify import all_grid_params, component_oracle

from graph_oracles import (
    graph_edges,
    graph_from_edges,
    graph_source,
    json_canonical_form,
    peel_guarded,
    reference_unglue,
    remove_interval,
    sampled_paths,
    seeded_paths,
    semigroup,
    window,
)

BLUE = (-2, 0, 1, 2, 4)
GREEN = (-2, -1, 0, 1, 2)
RED = (4, 5, 6, 7, 8)
ORANGE = (4, 6, 7, 8, 10)
P32 = GridParams(3, 2, 1)
FORGED_STAIR_RANKS = [-1, 0, 1, -1, 1, 0, -1]  # for hvhvhv, no rank walk: 1 -> -1 is no step


def example_graph():
    return graph_from_edges(3, 2, labels=(BLUE, ORANGE, GREEN, RED),
                            edges={(0, 1), (0, 2), (0, 3), (1, 3)})


def test_periodic_from_skeleton_golden():
    blue = periodic_from_skeleton(3, 2, BLUE)
    steps = glue._walk(3, 2, blue.skel, -2)[0]
    assert steps == window(blue, -2) == "hhvvv"
    # step ranks of any fundamental window reproduce the skeleton
    assert set(step_ranks(P32, DyckPath(P32, steps))) == set(BLUE)
    with pytest.raises(NoIntersection):
        glue._walk(3, 2, blue.skel, 3)
    stair = periodic_from_skeleton(1, 1, (-1, 0))
    assert (window(stair, -1), window(stair, 0)) == ("hv", "vh")
    with pytest.raises(InvalidSkeleton):
        periodic_from_skeleton(3, 2, (0, 2, 4, 6, 8))
    with pytest.raises(InvalidSkeleton, match="^need 5 values, got 6$"):
        periodic_from_skeleton(3, 2, (-2, 0, 0, 1, 2, 4))  # a repeated value


def test_window_matches_generator_walk():
    # every coprime skeleton with n+m <= 12 (its translates by 0 and 3),
    # from every start rank in it; the walk's ranks follow its steps
    walks = 0
    for params in all_grid_params(12):
        if params.d != 1:
            continue
        n, m = params.n, params.m
        for D in enumerate_paths(params):
            for shift in (0, 3):
                label = tuple(r + shift for r in step_ranks(params, D))
                periodic = periodic_from_skeleton(n, m, label)
                for r in label:
                    steps = window(periodic, r)
                    ranks = [r]
                    for s in steps[:-1]:
                        ranks.append(ranks[-1] + (n if s == "h" else -m))
                    assert glue._walk(n, m, periodic.skel, r) == (steps, ranks), (label, r)
                    walks += 1
    assert walks == 9136
    # a value set that is no skeleton, built by hand, is rejected at construction
    with pytest.raises(InvalidSkeleton):
        glue.PeriodicPath(2, 1, frozenset({0, 2, 4}))


def test_paths_intersect_golden():
    p_blue = periodic_from_skeleton(3, 2, BLUE)
    p_green = periodic_from_skeleton(3, 2, GREEN)
    p_red = periodic_from_skeleton(3, 2, RED)
    assert p_blue.skel & p_green.skel
    assert not p_green.skel & p_red.skel
    assert p_blue.skel & p_blue.skel


def test_paths_intersect_matches_geometry():
    # compare against a point scan over three periods
    import random
    rng = random.Random(7)
    skels = [BLUE, GREEN, RED, ORANGE]
    deltas = [invset_from_skeleton(GridParams(3, 2, 1), s) for s in skels]
    for _ in range(20):
        s1, s2 = rng.choice(skels), rng.choice(skels)
        p1 = periodic_from_skeleton(3, 2, s1)
        p2 = periodic_from_skeleton(3, 2, s2)
        pts1 = _point_set(p1)
        pts2 = _point_set(p2)
        assert bool(pts1 & pts2) == bool(p1.skel & p2.skel)


def _point_set(p):
    """Points (a, b) of the periodic path: the box (a-1, b) has a rank in skel."""
    n, m = p.n, p.m
    return {(a, b) for a in range(-10, 11) for b in range(-10, 11)
            if m * n - m - n - n * (a - 1) - m * b in p.skel}


def test_glue_once_figure_steps():
    blue = periodic_from_skeleton(3, 2, BLUE)
    d0 = DyckPath(P32, window(blue, -2))
    d1 = glue_once(d0, periodic_from_skeleton(3, 2, ORANGE))
    assert d1.steps == "hhhhvvvvvv"
    d2 = glue_once(d1, periodic_from_skeleton(3, 2, GREEN))
    assert d2.steps == "hvhvvhhhhvvvvvv"
    d3 = glue_once(d2, periodic_from_skeleton(3, 2, RED))
    assert d3.steps == "hvhvvhhhvhvvhhvvvvvv"
    assert d3.params == GridParams(3, 2, 4)
    green0 = DyckPath(P32, window(periodic_from_skeleton(3, 2, GREEN), -2))
    with pytest.raises(NoIntersection):
        glue_once(green0, periodic_from_skeleton(3, 2, RED))


def test_glue_once_rejects_a_foreign_periodic_path():
    dhat = DyckPath(GridParams(2, 1, 1), "hvv")
    # a hand-built value set that is no (2, 1) skeleton
    with pytest.raises(InvalidSkeleton, match="^some class mod N has no skeleton value$"):
        glue_once(dhat, glue.PeriodicPath(2, 1, frozenset({-1, 1, 3})))
    # a valid skeleton of another grid
    with pytest.raises(DomainError, match=r"^cannot glue a \(3,2\)-periodic path "
                       r"into a path of the \(2,1\) grid$"):
        glue_once(dhat, periodic_from_skeleton(3, 2, range(5)))


def test_self_gluing_extends_window():
    blue = periodic_from_skeleton(3, 2, BLUE)
    d0 = DyckPath(P32, window(blue, -2))
    doubled = glue_once(d0, blue)
    assert doubled.steps == window(blue, -2) * 2


def test_glue_all_golden():
    D = glue_all(example_graph())
    assert D.steps == "hvhvvhhhvhvvhhvvvvvv"
    assert area(D.params, D) == 14
    gamma = semigroup(GridParams(5, 3, 1))
    from ratcat import build_graph
    assert glue_all(build_graph(gamma)).steps == map_D_coprime(gamma).steps


def test_glue_order_within_level_is_irrelevant():
    from ratcat import build_graph, enumerate_invsets_by_gap
    for params in [GridParams(2, 1, 3), GridParams(3, 2, 2), GridParams(2, 1, 4)]:
        for delta in enumerate_invsets_by_gap(params, params.N + params.M):
            graph = build_graph(delta)
            f = graph.levels
            reference = glue_all(graph).steps
            # exhaust all orders per level
            by_level = {}
            for v in range(graph.d):
                by_level.setdefault(f[v], []).append(v)
            orders = itertools.product(
                *[itertools.permutations(by_level[lev])
                  for lev in sorted(by_level) if lev > 0])
            for order in orders:
                cur = glue_all(_single_vertex(graph))
                for level_group in order:
                    for v in level_group:
                        cur = glue_once(
                            cur, periodic_from_skeleton(graph.n, graph.m, graph.labels[v]))
                assert cur.steps == reference


def _single_vertex(graph):
    return LabeledDigraph(graph.n, graph.m, (graph.labels[graph_source(graph)],), (0,))


def test_good_intervals_golden():
    D = glue_all(example_graph())
    goods = good_intervals(D)
    skels = [tuple(sorted(window_skeleton(D, r))) for r in goods]
    assert sorted(skels) == [GREEN, RED]
    # an (n,m)-path is its own unique good interval
    gamma_path = map_D_coprime(semigroup(GridParams(3, 2, 1)))
    assert good_intervals(gamma_path) == [0]
    # periodic extensions of good intervals are pairwise disjoint
    assert not (window_skeleton(D, goods[0]) & window_skeleton(D, goods[1]))


def test_first_balanced_interval_is_good():
    for params in all_grid_params(12):
        n, m = params.n, params.m
        for D in enumerate_paths(params):
            goods = good_intervals(D)
            assert goods, D.steps
            vcount = [0]
            for s in D.steps:
                vcount.append(vcount[-1] + (s == "v"))
            balanced = [r for r in range((params.d - 1) * (n + m) + 1)
                        if vcount[r + n + m] - vcount[r] == n]
            assert balanced[0] == goods[0]


def test_remove_interval():
    D = glue_all(example_graph())
    goods = good_intervals(D)
    cur = D
    for r in sorted(goods, reverse=True):
        cur = remove_interval(cur, r)
    assert cur.steps == "hhhhvvvvvv"
    nxt = good_intervals(cur)
    assert [tuple(sorted(window_skeleton(cur, r))) for r in nxt] == [ORANGE]
    with pytest.raises(NotBalanced):
        remove_interval(D, 5)  # window "hhhvh" has one vertical step
    # a coprime path has no smaller grid to lose its one window to
    gamma_path = map_D_coprime(semigroup(GridParams(3, 2, 1)))
    with pytest.raises(ValueError, match="^d must be at least 1, got 0$"):
        remove_interval(gamma_path, 0)


def test_window_start_out_of_range_is_rejected():
    D = glue_all(example_graph())  # (3,2,4): 20 steps, windows start at 0..15
    assert D.steps == "hvhvvhhhvhvvhhvvvvvv"
    assert len(window_skeleton(D, 15)) == 5
    for r in (-10, -1, 16, 20, 25):
        with pytest.raises(NotBalanced):
            window_skeleton(D, r)
        with pytest.raises(NotBalanced):
            remove_interval(D, r)


def test_remove_then_glue_back_roundtrip():
    for params in all_grid_params(12):
        if params.d == 1:
            continue
        n, m = params.n, params.m
        for D in enumerate_paths(params):
            for r in good_intervals(D):
                skel = window_skeleton(D, r)
                smaller = remove_interval(D, r)
                back = glue_once(smaller, periodic_from_skeleton(n, m, skel))
                assert back.steps == D.steps


def test_unglue_golden():
    D = glue_all(example_graph())
    graph, colored = unglue(D)
    assert canonical_form(graph) == canonical_form(example_graph())
    assert graph.labels == (BLUE, ORANGE, GREEN, RED)
    assert sorted(graph_edges(graph)) == [(0, 1), (0, 2), (0, 3), (1, 3)]
    assert colored.colors == (2, 2, 2, 2, 2, 0, 0, 3, 3, 3, 3, 3,
                              1, 1, 1, 1, 1, 0, 0, 0)
    assert [c.steps for c in colored.components] == \
        ["hhvvv", "hhvvv", "hvhvv", "hvhvv"]
    # d = 1: single vertex labeled by the path's skeleton
    gamma_path = map_D_coprime(semigroup(GridParams(3, 2, 1)))
    graph1, colored1 = unglue(gamma_path)
    assert graph1.d == 1 and set(colored1.colors) == {0}


def test_map_D_round_trips():
    for params in all_grid_params(12):
        for D in enumerate_paths(params):
            graph = unglue(D)[0]
            assert glue_all(graph).steps == D.steps
            assert canonical_form(unglue(glue_all(graph))[0]) == \
                canonical_form(graph)


def test_area_equals_min_gap_of_class():
    from ratcat import build_graph, enumerate_invsets_by_gap
    for params in [GridParams(1, 1, 2), GridParams(3, 2, 2)]:
        for delta in enumerate_invsets_by_gap(params, params.N + params.M):
            graph = build_graph(delta)
            assert area(params, glue_all(graph)) == \
                gap(minimal_representative(graph))


def test_good_intervals_are_the_sinks():
    # periodic extensions of good intervals = periodic paths of the sinks
    from ratcat import build_graph, enumerate_invsets_by_gap
    for params in [GridParams(3, 2, 2), GridParams(2, 1, 3), GridParams(1, 1, 3)]:
        for delta in enumerate_invsets_by_gap(params, params.N + params.M):
            graph = build_graph(delta)
            sinks = {graph.labels[v] for v in range(graph.d)
                     if not any(e[0] == v for e in graph_edges(graph))}
            D = glue_all(graph)
            found = {tuple(sorted(window_skeleton(D, r)))
                     for r in good_intervals(D)}
            assert found == sinks


def test_step_rank_skeleton_correspondence():
    # multiset of step ranks of the glued path = floor(skeleton/d)
    from ratcat import build_graph, enumerate_invsets_by_gap, skeleton, step_ranks
    for params in [GridParams(3, 2, 2), GridParams(1, 1, 3), GridParams(2, 1, 3)]:
        for delta in enumerate_invsets_by_gap(params, params.N + params.M):
            graph = build_graph(delta)
            rep = minimal_representative(graph)
            D = glue_all(graph)
            expected = sorted(x // params.d for x in skeleton(rep).sorted_values)
            assert sorted(step_ranks(params, D)) == expected


def _paths_up_to(total):
    for params in all_grid_params(total):
        yield from enumerate_paths(params)


def _points(path):
    """Lattice points visited by the path, walked from (m, 0)."""
    a, b = path.params.m, 0
    pts = [(a, b)]
    for s in path.steps:
        if s == "h":
            a -= 1
        else:
            b += 1
        pts.append((a, b))
    return pts


def _reference_point_ranks(path):
    """Rank m*n - m - n - n*(a-1) - m*b of the box below-left of each point."""
    n, m = path.params.n, path.params.m
    return [m * n - m - n - n * (a - 1) - m * b for a, b in _points(path)]


def _reference_good_intervals(path):
    """Balanced windows (n vertical steps) whose ranks miss every earlier point."""
    n, m = path.params.n, path.params.m
    ranks = _reference_point_ranks(path)
    vcount = [0]
    for s in path.steps:
        vcount.append(vcount[-1] + (s == "v"))
    out = []
    for r in range(len(path.steps) - (n + m) + 1):
        window = set(ranks[r:r + n + m])
        if vcount[r + n + m] - vcount[r] == n and \
                all(ranks[z] not in window for z in range(r)):
            out.append(r)
    return out


def _reference_good_positions(ranks, width):
    """Starts of the good intervals of these point ranks, in one scan.

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


def test_point_box_ranks_match_per_point_formula():
    for D in _paths_up_to(14):
        assert glue._point_ranks(D) == _reference_point_ranks(D), D.steps


def test_good_intervals_match_quadratic_definition():
    for D in [*_paths_up_to(14), *sampled_paths()]:
        expected = _reference_good_intervals(D)
        assert good_intervals(D) == expected, D.steps
        n, m = D.params.n, D.params.m
        assert _reference_good_positions(_reference_point_ranks(D), n + m) == expected, D.steps


def test_ranks_unchanged_under_remove_interval():
    for D in _paths_up_to(14):
        if D.params.d == 1:
            continue
        n, m = D.params.n, D.params.m
        ranks = _reference_point_ranks(D)
        for r in range(len(D.steps) - (n + m) + 1):
            if D.steps[r:r + n + m].count("v") != n:
                continue
            smaller = remove_interval(D, r)
            assert _reference_point_ranks(smaller) == \
                ranks[:r] + ranks[r + n + m:], (D.steps, r)


def test_components_match_diagram_oracle():
    for D in _paths_up_to(14):
        graph, colored = unglue(D)
        for v, comp in enumerate(colored.components):
            assert comp == component_oracle(D.params.n, D.params.m,
                                            graph.labels[v]), (D.steps, v)


def test_invariant_violation_survives_optimize():
    # under -O the trailing assert is stripped, which shows -O is in effect
    script = textwrap.dedent(f"""
        import ratcat.glue as glue
        from ratcat import GridParams, InvariantViolation, glue_all, parse_path, unglue
        graph = unglue(parse_path("hvhv", GridParams(1, 1, 2)))[0]
        glue._walk = lambda n, m, skel, r: ("vh", [r, r - 1])  # above the diagonal
        try:
            glue_all(graph)
        except InvariantViolation as exc:
            print("raised", type(exc).__name__)
        glue._point_ranks = lambda path: {FORGED_STAIR_RANKS}  # _peel trusts them
        try:
            unglue(parse_path("hvhvhv", GridParams(1, 1, 3)))
        except InvariantViolation as exc:
            print("raised", str(exc).endswith("[-1, 1] is not a skeleton"))
        assert False
        print("optimized")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["raised", "InvariantViolation", "raised", "True", "optimized"]


def _runs_translate_by_coordinates(path, colors):
    """The run check in coordinates: each step starts where its color's last
    step ended, moved by k*(-m, n) for some k >= 0."""
    n, m = path.params.n, path.params.m
    pts = _points(path)
    last_end = {}
    for z, c in enumerate(colors):
        if c in last_end:
            dx, dy = pts[z][0] - last_end[c][0], pts[z][1] - last_end[c][1]
            if not (dx * n + dy * m == 0 and dx <= 0 and (-dx) % m == 0):
                return False
        last_end[c] = pts[z + 1]
    return True


def test_run_check_agrees_with_coordinate_oracle():
    # unglue checks no run: _peel's stack neighbours share ranks, so every
    # coloring it makes passes the coordinate check, and the check itself
    # rejects each swap of two adjacent colors
    swapped = 0
    for D in _paths_up_to(14):
        if D.params.d < 2:
            continue
        colors = unglue(D)[1].colors
        assert _runs_translate_by_coordinates(D, colors), D.steps
        for z in range(len(colors) - 1):
            if colors[z] != colors[z + 1]:
                other = colors[:z] + (colors[z + 1], colors[z]) + colors[z + 2:]
                assert not _runs_translate_by_coordinates(D, other), (D.steps, z)
                swapped += 1
    assert swapped == 7259
    for D in sampled_paths():
        assert _runs_translate_by_coordinates(D, unglue(D)[1].colors), D.steps


def _reference_glue_all(graph):
    """The gluing as a chain of validated splices, each walking the ranks
    of the whole current path to find its cut."""
    n, m = graph.n, graph.m
    source, *rest = sorted(range(graph.d), key=graph.levels.__getitem__)
    cur = DyckPath(GridParams(n, m, 1),
                   window(periodic_from_skeleton(n, m, graph.labels[source]), -m))
    for v in rest:
        periodic = periodic_from_skeleton(n, m, graph.labels[v])
        ranks = step_ranks(cur.params, cur)
        cut = next(z for z, r in enumerate(ranks) if r in periodic.skel)
        cur = DyckPath(GridParams(n, m, cur.params.d + 1),
                       cur.steps[:cut] + window(periodic, ranks[cut]) + cur.steps[cut:])
    return cur


def _brute_force_component(n, m, word):
    """The rotations of word that DyckPath accepts."""
    found = []
    for z in range(len(word)):
        try:
            found.append(DyckPath(GridParams(n, m, 1), word[z:] + word[:z]))
        except DomainError:
            pass
    return found


def _reference_unglue(path):
    """Peeling that tags each step with (round, position in round), then
    numbers the tags source first; components by brute-force rotation."""
    n, m = path.params.n, path.params.m
    width = n + m
    ranks = glue._point_ranks(path)
    orig = list(range(len(path.steps)))
    tags = [None] * len(path.steps)
    batches = []
    while len(ranks) > 1:
        goods = _reference_good_positions(ranks, width)
        batches.append([frozenset(ranks[r:r + width]) for r in goods])
        for pos in range(len(goods) - 1, -1, -1):
            r = goods[pos]
            for z in orig[r:r + width]:
                tags[z] = (len(batches) - 1, pos)
            del orig[r:r + width]
            del ranks[r:r + width]
    vertex_of, skels, batch_of = {}, [], []
    for b in range(len(batches) - 1, -1, -1):
        for pos, skel in enumerate(batches[b]):
            vertex_of[(b, pos)] = len(skels)
            skels.append(skel)
            batch_of.append(b)
    edges = {(u, v) for u in range(len(skels)) for v in range(len(skels))
             if batch_of[u] > batch_of[v] and skels[u] & skels[v]}
    graph = graph_from_edges(n, m, tuple(tuple(sorted(s)) for s in skels), edges)
    colors = tuple(vertex_of[tag] for tag in tags)
    components = []
    for v in range(len(skels)):
        word = "".join(s for s, c in zip(path.steps, colors) if c == v)
        [component] = _brute_force_component(n, m, word)
        components.append(component)
    return graph, colors, tuple(components)


def test_unglue_and_glue_all_match_references():
    for D in [*_paths_up_to(14), *sampled_paths()]:
        graph, colored = unglue(D)
        reference = _reference_unglue(D)
        # equal labels and levels give equal edges: the reference's are its peel rounds'
        assert (graph, colored.colors, colored.components) == reference, D.steps
        assert glue_all(graph).steps == _reference_glue_all(graph).steps == D.steps


def test_unglue_derives_no_component(monkeypatch):
    # unglue stores the colors alone; the components are derived when read
    calls = []
    real = glue._component
    monkeypatch.setattr(glue, "_component", lambda *args: calls.append(args) or real(*args))
    for D in [glue_all(example_graph()), *_paths_up_to(10),
              *seeded_paths(GridParams(1, 1, 40), 3, seed=4)]:
        calls.clear()
        graph, colored = unglue(D)
        assert calls == [], D.steps
        assert colored.components == _reference_unglue(D)[2], D.steps
        assert len(calls) == graph.d, D.steps


@pytest.mark.parametrize("colors, error, message", [
    ((0, 2, 2, 0), InvalidColoring, r"^color 2 is not one of the 2 vertices$"),
    ((-1, 0, 0, 1), InvalidColoring, r"^color -1 is not one of the 2 vertices$"),
    ((0, 0, 1), InvalidColoring, r"^3 colors for 4 steps$"),
    ((0, 0, 0, 1), MalformedPath, r"^expected 2 steps, got 3$"),
])
def test_hand_built_coloring_is_checked_when_read(colors, error, message):
    colored = ColoredPath(parse_path("hvhv", GridParams(1, 1, 2)), colors)
    with pytest.raises(error, match=message):
        colored.components


def test_balanced_foreign_coloring_is_accepted():
    D = parse_path("hvhv", GridParams(1, 1, 2))
    assert unglue(D)[1].colors == (1, 1, 0, 0)
    assert [c.steps for c in ColoredPath(D, (0, 1, 1, 0)).components] == ["hv", "hv"]


def test_component_is_the_unique_dyck_rotation():
    for n, m in [(n, m) for n in range(1, 9) for m in range(1, 10 - n)
                 if math.gcd(n, m) == 1]:
        for vs in itertools.combinations(range(n + m), n):
            word = "".join("v" if z in vs else "h" for z in range(n + m))
            assert [glue._component(n, m, word)] == \
                _brute_force_component(n, m, word), word
    glue._component.cache_clear()
    for _ in range(2):  # no rotation of a word with two 'v' is a (1, 2)-path
        with pytest.raises(DomainError):
            glue._component(1, 2, "vvh")
    assert glue._component.cache_info().currsize == 0


def test_peel_removes_only_good_windows():
    # each window _peel pops is a good interval of the path left at that moment
    for D in _paths_up_to(12):
        n, m = D.params.n, D.params.m
        left = list(range(len(D.steps)))  # original positions of the steps left
        for _, start, skel, positions in glue._peel(D, glue._point_ranks(D)):
            current = DyckPath(GridParams(n, m, len(left) // (n + m)),
                               "".join(D.steps[z] for z in left))
            assert start == positions[0], (D.steps, positions)
            r = left.index(start)
            goods = _reference_good_positions(_reference_point_ranks(current), n + m)
            assert r in goods, (D.steps, positions)
            assert positions == left[r:r + n + m], (D.steps, positions)
            assert set(skel) == window_skeleton(current, r), (D.steps, positions)
            assert list(skel) == sorted(skel), (D.steps, skel)
            del left[r:r + n + m]
        assert not left, D.steps


def test_unglue_failure_paths(monkeypatch):
    D = glue_all(example_graph())
    # strictly rising ranks: no window starts and ends at one rank
    monkeypatch.setattr(glue, "_point_ranks",
                        lambda path: list(range(-2, len(path.steps) - 1)))
    with pytest.raises(InvariantViolation,
                       match=f"^no good interval left while peeling {D.steps!r}$"):
        unglue(D)
    # the window [1, -1, 1] closes on top but shares rank -1 with the start: _peel
    # trusts it, and the graph's label check rejects the ranks it pops
    stair = DyckPath(GridParams(1, 1, 3), "hvhvhv")
    monkeypatch.setattr(glue, "_point_ranks", lambda path: FORGED_STAIR_RANKS)
    with pytest.raises(InvariantViolation) as exc:
        unglue(stair)
    assert str(exc.value) == ("ungluing 'hvhvhv' gave an invalid graph: "
                              "label 2 is not a skeleton: [-1, 1] is not a skeleton")
    assert isinstance(exc.value.__cause__, InvalidGraph)


def test_peel_agrees_with_the_guarded_peel():
    # on a path's own ranks the guard never fires, so dropping it changes nothing
    for D in [*_paths_up_to(14), *sampled_paths()]:
        ranks = glue._point_ranks(D)
        assert list(glue._peel(D, ranks)) == list(peel_guarded(D, ranks)), D.steps
    stair = DyckPath(GridParams(1, 1, 3), "hvhvhv")
    with pytest.raises(InvariantViolation, match=r"^balanced window at steps \[2, 3\] of "
                       "'hvhvhv' shares rank -1 with a lower point$"):
        list(peel_guarded(stair, FORGED_STAIR_RANKS))


def test_unglue_matches_the_reference_unglue():
    # _peel's records sort into vertex order as they are, rebuilding none,
    # and the ColoredPath built without __init__ is the checked one
    for D in [*_paths_up_to(14), *sampled_paths()]:
        graph, colored = unglue(D)
        assert (graph.labels, graph.levels, colored.colors) == reference_unglue(D), D.steps
        assert colored == ColoredPath(D, colored.colors), D.steps
        assert hash(colored) == hash(ColoredPath(D, colored.colors)), D.steps


def test_two_top_round_windows_are_an_invariant_violation(monkeypatch):
    # windows of one round never meet, so both top-round windows get level 0
    D = DyckPath(GridParams(1, 1, 3), "hhhvvv")
    monkeypatch.setattr(glue, "_peel", lambda path, ranks: iter(
        [(-2, 0, (-1, 0), [0, 5]), (-2, 2, (1, 2), [2, 3])]))
    with pytest.raises(InvariantViolation, match=r"^ungluing 'hhhvvv' gave an invalid graph: "
                       r"level-0 vertices \[0, 1\], expected exactly one$") as exc:
        unglue(D)
    assert isinstance(exc.value.__cause__, InvalidGraph)


def test_invalid_graph_from_unglue_is_an_invariant_violation(monkeypatch):
    # unglue's graph skips the meet test, which its levels prove, but not the label check
    D = DyckPath(GridParams(1, 1, 2), "hhvv")
    for label, message in [((0, 2), "label 1 is not a skeleton: [0, 2] is not a skeleton"),
                           ((-3, -2), "label 1 not non-negatively normalized")]:
        monkeypatch.setattr(glue, "_peel", lambda path, ranks, label=label: iter(
            [(-2, 0, (-1, 0), [0, 3]), (-1, 1, label, [1, 2])]))
        with pytest.raises(InvariantViolation) as exc:
            unglue(D)
        assert str(exc.value) == f"ungluing 'hhvv' gave an invalid graph: {message}"
        assert isinstance(exc.value.__cause__, InvalidGraph)


def test_glue_all_checks_no_label_again(monkeypatch):
    # the graph validated its labels: gluing builds no PeriodicPath and
    # makes no skeleton check of its own
    paths = list(seeded_paths(GridParams(1, 1, 40), 3, seed=3))
    graphs = [unglue(D)[0] for D in paths]
    calls = []
    real_check, real_init = glue.coprime_from_skeleton, glue.PeriodicPath.__post_init__
    monkeypatch.setattr(glue, "coprime_from_skeleton",
                        lambda *args: calls.append("check") or real_check(*args))
    monkeypatch.setattr(glue.PeriodicPath, "__post_init__",
                        lambda self: calls.append("init") or real_init(self))
    assert glue_all(example_graph()).steps == "hvhvvhhhvhvvhhvvvvvv"
    assert [glue_all(graph) for graph in graphs] == paths
    assert calls == []


def test_glue_all_miss_is_an_invariant_violation():
    # a forged level function glues (1, 2) before (0, 1), the one it meets
    graph = LabeledDigraph(1, 1, ((-1, 0), (0, 1), (1, 2)), (0, 1, 2))
    object.__setattr__(graph, "levels", (0, 2, 1))
    with pytest.raises(InvariantViolation, match=r"^gluing vertex 2 of \(\(-1, 0\), \(0, 1\), "
                       r"\(1, 2\)\): the periodic path misses the current path$") as exc:
        glue_all(graph)
    assert isinstance(exc.value.__cause__, NoIntersection)


def test_unglue_makes_no_meet_test(monkeypatch):
    # unglue's levels prove what the meet test checks, so its graph skips it
    import ratcat.equiv as equiv
    paths = [glue_all(example_graph()), *seeded_paths(GridParams(1, 1, 40), 3, seed=2)]
    calls = []
    real = equiv.meeting_pairs
    monkeypatch.setattr(equiv, "meeting_pairs", lambda sets: calls.append(1) or real(sets))
    graphs = [unglue(D)[0] for D in paths]
    assert calls == []
    # the counter sees the public constructor's one meet test
    for graph in graphs:
        LabeledDigraph(graph.n, graph.m, **graph.to_jsonable())
    assert len(calls) == len(graphs)


def test_trusted_values_match_the_full_checks():
    # what unglue, minimal_representative and canonical_form no longer
    # re-derive: the public constructor, the skeleton reassembly and
    # json.dumps agree with them
    paths = [*_paths_up_to(14), *seeded_paths(GridParams(1, 1, 40), 40, seed=21),
             *seeded_paths(GridParams(3, 2, 16), 40, seed=22)]
    for D in paths:
        graph = unglue(D)[0]
        n, m, d = graph.n, graph.m, graph.d
        assert LabeledDigraph(n, m, **graph.to_jsonable()) == graph, D.steps
        order = sorted(range(d), key=graph.levels.__getitem__)
        values = [d * x + i for i, v in enumerate(order) for x in graph.labels[v]]
        assert invset_from_skeleton(GridParams(n, m, d), values) == \
            minimal_representative(graph), D.steps
        assert canonical_form(graph) == json_canonical_form(graph), D.steps
    assert len(paths) == 2905 + 80
