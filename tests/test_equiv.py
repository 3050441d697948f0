import collections
import functools
import itertools
import json
import math
import random

import pytest

from ratcat import (
    GridParams,
    Infeasible,
    InvalidGraph,
    InvariantViolation,
    LabeledDigraph,
    ShiftBounds,
    bizley_count,
    build_graph,
    canonical_form,
    cogenerators_m,
    count_equivalence_classes,
    enumerate_invsets_by_gap,
    enumerate_paths,
    gap,
    gaps,
    glue_all,
    invset_from_generators,
    map_G,
    min_gap_in_class,
    minimal_representative,
    minimal_shifting,
    parse_path,
    shift_bounds,
    skeleton,
    subdiagonal_box_count,
    unglue,
)
from ratcat.invset import (
    InvariantSet,
    Skeleton,
    invset_from_path_coprime,
    invset_from_skeleton,
)
from ratcat.verify import all_grid_params

from graph_oracles import (
    clear_caches,
    equivalent,
    graph_edges,
    graph_from_edges,
    graph_source,
    oracle_canonical_form,
    oracle_levels,
    sampled_paths,
    seeded_paths,
    semigroup,
    subset_class_forms,
)

P128 = GridParams(3, 2, 4)
P64 = GridParams(3, 2, 2)
P22 = GridParams(1, 1, 2)


def worked_delta():
    return invset_from_generators(P128, [0, 1, 5, 8, 9, 16, 27, 30, 34, 35, 38, 43])


def left_graph():
    return graph_from_edges(
        3, 2,
        labels=((-2, 0, 1, 2, 4), (4, 6, 7, 8, 10),
                (-2, -1, 0, 1, 2), (4, 5, 6, 7, 8)),
        edges={(0, 1), (0, 2), (0, 3), (1, 3)})


def right_graph():
    return graph_from_edges(
        3, 2,
        labels=((-2, 0, 1, 2, 4), (-2, -1, 0, 1, 2),
                (4, 6, 7, 8, 10), (4, 5, 6, 7, 8)),
        edges={(0, 1), (0, 2), (0, 3), (2, 3)})


def test_skeleton_parts_golden():
    parts = skeleton(worked_delta()).parts_mod_d()
    assert parts == [[-8, 0, 4, 8, 16], [-7, -3, 1, 5, 9],
                     [22, 26, 30, 34, 38], [19, 27, 31, 35, 43]]


def test_shift_bounds_golden():
    bounds = shift_bounds(skeleton(worked_delta()))
    assert bounds.b == ((None, 0, 5, 2), (2, None, 12, 9),
                        (None, None, None, 0), (None, None, 2, None))
    assert bounds.b[0][1] == oracle_btilde(skeleton(worked_delta()))[0][1] - 1 == 0
    single = shift_bounds(skeleton(semigroup(GridParams(5, 3, 1))))
    assert single.b == ((None,),)


def test_minimal_shifting_golden():
    bounds = shift_bounds(skeleton(worked_delta()))
    assert minimal_shifting(bounds) == (0, 0, -4, -2)
    coprime = shift_bounds(skeleton(semigroup(GridParams(5, 3, 1))))
    assert minimal_shifting(coprime) == (0,)


def brute_force_acceptable(parts, shift):
    """Linear-slide acceptability checked exactly on the segment t in (0, 1]."""
    from fractions import Fraction
    full = [0, *shift]
    for i in range(len(parts)):
        for j in range(len(parts)):
            if i == j:
                continue
            for x in parts[i]:
                for y in parts[j]:
                    den = full[i] - full[j]
                    if den == 0:
                        if x == y:
                            return False
                        continue
                    t = Fraction(y - x, den)
                    if 0 < t <= 1:
                        return False
    return True


def test_acceptability_matches_inequalities():
    # brute-force the discretized slide test against the bound system
    for delta in [worked_delta().shifted(0), invset_from_generators(P64, [0, 13, 8, 9, 4, 17])]:
        sk = skeleton(delta)
        parts = sk.parts_mod_d()
        bounds = shift_bounds(sk)
        d = delta.params.d
        window = range(-6, 7)
        for shift in itertools.product(window, repeat=d - 1):
            full = (0, *shift)
            ineq_ok = all(
                bounds.b[i][j] is None or full[i] - full[j] <= bounds.b[i][j]
                for i in range(d) for j in range(d) if i != j)
            assert ineq_ok == brute_force_acceptable(parts, shift)
            if ineq_ok:
                mvec = minimal_shifting(bounds)
                assert all(full[i] >= mvec[i] for i in range(d))


def test_build_graph_golden():
    graph = build_graph(worked_delta())
    assert graph.labels == ((-2, 0, 1, 2, 4), (-2, -1, 0, 1, 2),
                            (4, 5, 6, 7, 8), (4, 6, 7, 8, 10))
    assert graph.levels == (0, 1, 2, 1)
    assert sorted(graph_edges(graph)) == [(0, 1), (0, 2), (0, 3), (3, 2)]
    coprime = build_graph(semigroup(GridParams(5, 3, 1)))
    assert coprime.d == 1 and not graph_edges(coprime)


def test_canonical_form_golden():
    assert canonical_form(left_graph()) == canonical_form(right_graph())
    assert canonical_form(build_graph(worked_delta())) == canonical_form(left_graph())
    single = build_graph(semigroup(GridParams(5, 3, 1)))
    assert b"labels" in canonical_form(single)
    # distinct label multisets give distinct forms
    g1 = build_graph(InvariantSet(P22, (0, 1)))
    g2 = build_graph(InvariantSet(P22, (0, 3)))
    assert canonical_form(g1) != canonical_form(g2)


def search_form(graph):
    """Oracle: canonical form by permutation search.

    Vertices are ordered so the labels are sorted; among the orderings
    that only permute equal labels, the one minimizing (sorted edge
    list, source index) wins.
    """
    by_label = sorted(range(graph.d), key=lambda v: graph.labels[v])
    groups = [list(g) for _, g in
              itertools.groupby(by_label, key=lambda v: graph.labels[v])]
    best = None
    edges, source = graph_edges(graph), graph_source(graph)
    for parts in itertools.product(*map(itertools.permutations, groups)):
        pos = {old: new for new, old in
               enumerate(v for part in parts for v in part)}
        key = (sorted((pos[i], pos[j]) for (i, j) in edges), pos[source])
        if best is None or key < best:
            best = key
    return [graph.labels[v] for v in by_label], best


CENSUS_GRIDS = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3), (1, 2, 3), (2, 1, 3),
                (3, 1, 3), (1, 3, 3), (3, 2, 2), (5, 2, 2), (1, 1, 4), (1, 1, 5),
                (3, 2, 3)]


@functools.cache
def desk_graphs():
    """The unglue graph of every path with N+M <= 14, built once per run:
    graphs are immutable values, so the tests share them."""
    return tuple(unglue(path)[0] for params in all_grid_params(14)
                 for path in enumerate_paths(params))


@functools.cache
def oracle_graphs():
    """desk_graphs, then the build_graph graphs of the census grids."""
    census = (build_graph(delta) for params in (GridParams(*g) for g in CENSUS_GRIDS)
              for delta in enumerate_invsets_by_gap(params, subdiagonal_box_count(params)))
    return desk_graphs() + tuple(census)


def relabeled(graph, perm):
    """The same graph with vertex v renamed perm[v]."""
    labels, levels = [None] * graph.d, [None] * graph.d
    for v, lbl in enumerate(graph.labels):
        labels[perm[v]], levels[perm[v]] = lbl, graph.levels[v]
    other = LabeledDigraph(graph.n, graph.m, tuple(labels), tuple(levels))
    assert graph_edges(other) == {(perm[i], perm[j]) for (i, j) in graph_edges(graph)}
    return other


def test_canonical_form_matches_permutation_search():
    # equal forms <=> equal searched forms, per grid
    rng = random.Random(20171)
    checked = relabelings = 0
    by_grid: dict[tuple, dict] = {}
    for graph in oracle_graphs():
        form = canonical_form(graph)
        if graph.d <= 6:
            old = repr(search_form(graph))
            by_grid.setdefault((graph.n, graph.m, graph.d), {}).setdefault(
                form, set()).add(old)
            checked += 1
        if graph.d > 1 and rng.random() < 0.25:
            perm = list(range(graph.d))
            rng.shuffle(perm)
            other = relabeled(graph, perm)
            assert graph_source(other) == perm[graph_source(graph)]
            assert canonical_form(other) == form
            relabelings += 1
    for classes in by_grid.values():
        assert all(len(olds) == 1 for olds in classes.values())
        assert len(set().union(*classes.values())) == len(classes)
    assert checked > 5000 and relabelings > 500


def test_canonical_form_partitions_like_the_edge_form():
    # labels and levels determine the edges, so the (label, level) form and
    # the old edge-based one split the graphs into the same classes
    graphs = [*oracle_graphs(), *(unglue(D)[0] for D in sampled_paths())]
    pairs = {(canonical_form(g), oracle_canonical_form(g)) for g in graphs}
    assert len(pairs) == len({new for new, _ in pairs}) == len({old for _, old in pairs})
    assert len(graphs) == 2905 + 3184 + 200 and len(pairs) > 1000


def test_to_jsonable_is_the_constructor_input():
    for graph in oracle_graphs():
        data = json.loads(json.dumps(graph.to_jsonable()))
        assert set(data) == {"labels", "levels"}
        assert LabeledDigraph(graph.n, graph.m, **data) == graph


def test_canonical_form_nine_equal_labels():
    graph = build_graph(InvariantSet(GridParams(1, 1, 9), tuple(range(9))))
    assert graph.d == 9 and len(set(graph.labels)) == 1
    form = canonical_form(graph)
    # the nine copies lie on levels 0..8 and form a transitive tournament
    assert form == (b'{"labels":[' + b",".join([b"[-1,0]"] * 9)
                    + b'],"levels":[0,1,2,3,4,5,6,7,8]}')
    assert len(graph_edges(graph)) == 36
    perm = list(range(9))
    random.Random(9).shuffle(perm)
    assert canonical_form(relabeled(graph, perm)) == form
    assert canonical_form(unglue(glue_all(graph))[0]) == form


def test_minimal_representative_golden():
    rep = minimal_representative(left_graph())
    assert skeleton(rep).parts_mod_d() == [
        [-8, 0, 4, 8, 16], [17, 25, 29, 33, 41],
        [-6, -2, 2, 6, 10], [19, 23, 27, 31, 35]]
    assert gap(rep) == 14
    other = minimal_representative(right_graph())
    assert other.gen != rep.gen
    assert equivalent(rep, other)
    # d = 1: the graph of a coprime subset represents itself
    gamma = semigroup(GridParams(5, 3, 1))
    assert minimal_representative(build_graph(gamma)).gen == gamma.gen


def test_minimal_representative_recovers_shift():
    # the representative's own minimal shift must give M_i = d*label + level
    for graph in [left_graph(), right_graph(), build_graph(worked_delta())]:
        rep = minimal_representative(graph)
        sk = skeleton(rep)
        mvec = minimal_shifting(shift_bounds(sk))
        parts = sk.parts_mod_d()
        d = rep.params.d
        f = build_graph(rep).levels
        for i in range(d):
            shifted = sorted(x + mvec[i] for x in parts[i])
            assert all(v % d == f[i] for v in shifted)


def test_minimal_representative_solves_no_shifting(monkeypatch):
    import ratcat.equiv as equiv
    calls = {"minimal_shifting": 0, "ShiftBounds": 0, "shift_bounds": 0}

    def counted(name):
        real = getattr(equiv, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(equiv, name, wrapper)

    for name in calls:
        counted(name)
    graphs = [left_graph(), right_graph(), build_graph(worked_delta())]
    # build_graph solves once, over the adjacent-value bounds, not the d-wide sweep
    assert calls == {"minimal_shifting": 1, "ShiftBounds": 1, "shift_bounds": 0}
    for graph in graphs:
        minimal_representative(graph)
    assert calls == {"minimal_shifting": 1, "ShiftBounds": 1, "shift_bounds": 0}


LEFT_LABELS = r"\(\(-2, 0, 1, 2, 4\), \(4, 6, 7, 8, 10\), \(-2, -1, 0, 1, 2\), \(4, 5, 6, 7, 8\)\)"


@pytest.mark.parametrize("graph, levels, message", [
    # left_graph's levels are (0, 1, 1, 2): its shifting is (0, 0, -1, -1)
    (left_graph, (1, 2, 2, 3), rf"^the shifting \(1, 1, 0, 0\) that the levels of {LEFT_LABELS} "
                               r"predict is not minimal: it moves part 0 by 1$"),
    (left_graph, (0, 1, 1, 1), rf"^the shifting \(0, 0, -1, -2\) that the levels of {LEFT_LABELS} "
                               r"predict is not minimal: values 17 < 19 shift to 17 >= 17$"),
    # (0, 1) meets every bound of hhvv's representative but is not the least
    (lambda: unglue(parse_path("hhvv", P22))[0], (0, 2),
     r"^the shifting \(0, 1\) that the levels of \(\(-1, 0\), \(0, 1\)\) predict is not "
     r"minimal: part 1 is not reached from part 0 over tight arcs$"),
])
def test_forged_levels_are_an_invariant_violation(graph, levels, message):
    graph = graph()
    minimal_representative(graph)
    object.__setattr__(graph, "levels", levels)  # the stable level sort keeps the order
    with pytest.raises(InvariantViolation, match=message):
        minimal_representative(graph)


def test_shifting_certificate_matches_bellman_ford():
    import ratcat.equiv as equiv
    graphs = oracle_graphs() + tuple(unglue(path)[0] for path in sampled_paths())
    only_reach = 0
    for graph in graphs:
        sk = skeleton(minimal_representative(graph))
        least = minimal_shifting(shift_bounds(sk))
        values = list(sk.sorted_values)
        assert equiv._shifting_fault(values, least) is None, graph
        for i in range(graph.d):
            for step in (-2, -1, 1, 2):
                p = least[:i] + (least[i] + step,) + least[i + 1:]
                fault = equiv._shifting_fault(values, p)
                assert fault is not None, (graph, p)
                only_reach += fault.startswith("part ")
    assert len(graphs) == 2905 + 3184 + 200
    assert only_reach == 8364  # vectors that meet every bound and are not the least


def test_minimal_representative_does_not_rebuild_gluing_data(monkeypatch):
    import ratcat.equiv as equiv
    graph = left_graph()
    calls = {"build_graph": 0, "canonical_form": 0, "__post_init__": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(equiv, "build_graph")
    counted(equiv, "canonical_form")
    counted(LabeledDigraph, "__post_init__")
    rep = minimal_representative(graph)
    assert calls == {"build_graph": 0, "canonical_form": 0, "__post_init__": 0}
    assert gap(rep) == 14
    # the counters see the rebuild the old self-check made
    equiv.canonical_form(equiv.build_graph(rep))
    assert calls == {"build_graph": 1, "canonical_form": 1, "__post_init__": 1}


def test_equivalent_golden():
    d1 = invset_from_generators(P64, [0, 13, 8, 9, 4, 17])
    d2 = invset_from_generators(P64, [0, 19, 8, 15, 4, 11])
    assert equivalent(d1, d2)
    assert equivalent(d1, d1)
    assert not equivalent(InvariantSet(P22, (0, 1)), InvariantSet(P22, (0, 3)))


def test_min_gap_in_class():
    assert min_gap_in_class(worked_delta()) == 14
    gamma = semigroup(GridParams(5, 3, 1))
    assert min_gap_in_class(gamma) == gap(gamma)
    # the (2,2)-invariant family: all k >= 1 slide into each other
    assert min_gap_in_class(InvariantSet(P22, (0, 1))) == 0
    for k in range(1, 5):
        assert min_gap_in_class(InvariantSet(P22, (0, 2 * k + 1))) == 1


def test_census_matches_canonical_classes():
    # equivalence <=> equal canonical forms <=> equal glued paths
    from ratcat import glue_all
    for params in [P22, P64, GridParams(2, 1, 2)]:
        budget = 2 * (params.N + params.M)
        deltas = enumerate_invsets_by_gap(params, budget)
        forms = {}
        for delta in deltas:
            graph = build_graph(delta)
            forms.setdefault(canonical_form(graph), []).append(
                glue_all(graph).steps)
        for paths in forms.values():
            assert len(set(paths)) == 1
        glued = {p[0] for p in forms.values()}
        assert len(glued) == len(forms)


def test_invalid_graph_from_build_graph_is_an_invariant_violation(monkeypatch):
    import ratcat.equiv as equiv
    monkeypatch.setattr(equiv, "meeting_pairs", lambda sets: [])  # no edges
    with pytest.raises(InvariantViolation, match=r"^gluing data of \(0, 1, .* is invalid: "
                       r"vertex 1 of level 1 meets no vertex of level 0$") as exc:
        build_graph(worked_delta())
    assert isinstance(exc.value.__cause__, InvalidGraph)


def test_labels_that_do_not_assemble_are_an_invariant_violation():
    for label, message in [
        # every value of part 0 is 0 mod 3, so classes 4 and 8 mod 12 stay empty
        ((0, 3, 6, 9, 12), "generator None not congruent to 4 mod 12"),
        # part 0's last values 3, 40, 2 by class mod 3 give generators 12, 160, 8
        ((0, 1, 2, 3, 40), "generator vector is not M-invariant"),
    ]:
        graph = left_graph()
        object.__setattr__(graph, "labels", (label,) + graph.labels[1:])
        with pytest.raises(InvariantViolation) as exc:
            minimal_representative(graph)
        assert str(exc.value) == f"labels {graph.labels} do not assemble: {message}"
        assert isinstance(exc.value.__cause__, ValueError)


def test_minimal_representative_assembles_no_skeleton(monkeypatch):
    # the assembled values are a skeleton by construction: no reassembly
    import ratcat.equiv as equiv
    import ratcat.invset as invset
    calls = []
    real = invset.invset_from_skeleton

    def counted(params, values):
        calls.append(1)
        return real(params, values)
    monkeypatch.setattr(invset, "invset_from_skeleton", counted)
    monkeypatch.setattr(equiv, "invset_from_skeleton", counted, raising=False)
    graphs = [left_graph(), right_graph(), build_graph(worked_delta())]
    calls.clear()
    for graph in graphs:
        minimal_representative(graph)
    assert calls == []
    # the counter sees the reassembly the label check makes on a fresh label
    clear_caches()
    LabeledDigraph(graphs[0].n, graphs[0].m, graphs[0].labels, graphs[0].levels)
    assert calls


def test_internal_errors_are_not_turned_into_domain_errors(monkeypatch):
    import ratcat.equiv as equiv
    import ratcat.invset as invset
    from ratcat import glue_all, unglue

    def broken(*args):
        raise ZeroDivisionError("bug inside a check")

    graph = left_graph()
    D = glue_all(graph)
    # the label check reaches invset_from_skeleton through the memos
    clear_caches()
    monkeypatch.setattr(invset, "invset_from_skeleton", broken)
    with pytest.raises(ZeroDivisionError):
        LabeledDigraph(graph.n, graph.m, graph.labels, graph.levels)
    # errors are not cached: the same labels raise again, here through unglue
    with pytest.raises(ZeroDivisionError):
        unglue(D)
    monkeypatch.setattr(equiv, "_shifting_fault", broken)
    with pytest.raises(ZeroDivisionError):
        minimal_representative(graph)


# -- the per-pair bounds and the relaxation, kept as oracles ---------------

def oracle_btilde(skel):
    """Collision distances by a bisect per value and ordered pair of parts."""
    from bisect import bisect_right
    parts = skel.parts_mod_d()
    d = skel.params.d
    btilde = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for x in parts[i]:
                k = bisect_right(parts[j], x)
                if k < len(parts[j]):
                    diff = parts[j][k] - x
                    if btilde[i][j] is None or diff < btilde[i][j]:
                        btilde[i][j] = diff
    return tuple(map(tuple, btilde))


def oracle_minimal_shifting(bounds):
    """d-1 rounds of relaxation, then one verification round."""
    d, b = bounds.d, bounds.b
    v = [None] * d
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
    return tuple(v)


def check_kinds_by_rule(delta):
    """A skeleton value x is a generator, x == gen[x mod N], iff x + N is
    not a skeleton value; step_pattern reads the kinds off that rule."""
    sk = skeleton(delta)
    N, values = delta.params.N, set(sk.sorted_values)
    kinds = "".join("v" if x == delta.gen[x % N] else "h" for x in sk.sorted_values)
    assert "".join("h" if x + N in values else "v" for x in sk.sorted_values) == kinds
    assert sk.step_pattern() == kinds


def check_against_oracles(delta):
    check_kinds_by_rule(delta)
    check_kinds_by_rule(delta.shifted(3))
    sk = skeleton(delta)
    bounds = shift_bounds(sk)
    assert bounds.b == tuple(tuple(None if x is None else x - 1 for x in row)
                             for row in oracle_btilde(sk))
    assert minimal_shifting(bounds) == oracle_minimal_shifting(bounds)
    graph = build_graph(delta)
    assert graph.levels == oracle_levels(graph.d, graph_edges(graph))
    return graph


def test_levels_and_bounds_match_oracles():
    graphs = census = 0
    for graph in desk_graphs():
        assert graph.levels == oracle_levels(graph.d, graph_edges(graph))
        # the rebuild that minimal_representative's certificate replaces
        rep_graph = check_against_oracles(minimal_representative(graph))
        assert canonical_form(rep_graph) == canonical_form(graph), graph
        graphs += 1
    for n, m, d in CENSUS_GRIDS:
        params = GridParams(n, m, d)
        for delta in enumerate_invsets_by_gap(params, subdiagonal_box_count(params)):
            check_against_oracles(delta)
            census += 1
    assert graphs == 2905 and census == 3184


def census_subsets(params):
    return enumerate_invsets_by_gap(params, subdiagonal_box_count(params))


def test_adjacent_bounds_give_the_least_shifting():
    # gluing_data solves over the bounds between consecutive values only; the
    # d-wide shift_bounds matrix and the one-pass certificate are its witnesses
    import ratcat.equiv as equiv
    subsets = [worked_delta()] + [delta for grid in CENSUS_GRIDS
                                  for delta in census_subsets(GridParams(*grid))]
    for delta in subsets:
        sk = skeleton(delta)
        d = delta.params.d
        least = minimal_shifting(shift_bounds(sk))
        assert equiv.gluing_data(delta.params, sk.sorted_values) == (
            tuple(tuple((x + least[i]) // d for x in part)
                  for i, part in enumerate(sk.parts_mod_d())),
            tuple((i + least[i]) % d for i in range(d))), delta.gen
        assert equiv._shifting_fault(list(sk.sorted_values), least) is None, delta.gen
    assert len(subsets) == 1 + 3184


def test_adjacent_bounds_have_the_full_feasible_set():
    # on any distinct values, not only skeletons: the same least shifting, or
    # the same Infeasible when a part has no value above one of part 0's
    import ratcat.equiv as equiv
    rng = random.Random(2202)
    infeasible = 0
    for _ in range(3000):
        d = rng.randint(1, 5)
        values = tuple(sorted(rng.sample(range(-12, 30), rng.randint(d, 14))))
        params = GridParams(1, 1, d)
        try:
            want = minimal_shifting(shift_bounds(Skeleton(params, values)))
        except Infeasible as exc:
            with pytest.raises(Infeasible, match=f"^{exc}$"):
                equiv.gluing_data(params, values)
            infeasible += 1
            continue
        levels = equiv.gluing_data(params, values)[1]
        assert levels == tuple((i + want[i]) % d for i in range(d)), values
        assert equiv._shifting_fault(list(values), want) is None, values
    assert infeasible > 300


def test_census_forms_are_the_build_graph_forms(monkeypatch):
    # the search certifies exactly the classes of the subsets' build_graph data,
    # each once, and Bizley many
    import ratcat.series as series
    real = series.minimal_representative
    for grid in CENSUS_GRIDS:
        params = GridParams(*grid)
        certified = []
        with monkeypatch.context() as mp:
            mp.setattr(series, "minimal_representative",
                       lambda graph: certified.append(graph) or real(graph))
            classes = count_equivalence_classes(params)
        forms = [canonical_form(graph) for graph in certified]
        assert set(forms) == subset_class_forms(params), grid
        assert len(forms) == len(set(forms)) == classes == bizley_count(*grid), grid


@pytest.mark.parametrize("grid", [(1, 1, 6), (3, 2, 3), (2, 1, 5), (5, 2, 2)])
def test_search_visits_bizley_many_graphs_at_each_depth(grid):
    # the valid graphs with k vertices are the classes of (n, m, k), so the
    # search stops at depth d after a proven number of graphs; each graph it
    # visits passes the full validation, meet test included
    import ratcat.series as series
    n, m, d = grid
    depths = collections.Counter()
    for labels, levels in series._reverse_search(GridParams(*grid)):
        LabeledDigraph(n, m, labels, levels)
        depths[len(labels)] += 1
    assert depths == {k: bizley_count(n, m, k) for k in range(1, d + 1)}


def oracle_enumeration(params, budget):
    """Generator vectors of every 0-normalized subset with gap <= budget, by
    brute force over the residue decomposition: one coprime component and a
    shift per class, class 0 unshifted, in lexicographic order of the choices."""
    n, m, d = params.n, params.m, params.d
    base = [invset_from_path_coprime(path) for path in enumerate_paths(GridParams(n, m, 1))]
    first = [(k, 0) for k in range(len(base))]
    rest = [(k, s) for k in range(len(base)) for s in range(budget + 1)]
    return [invset_from_generators(params, [d * (g + s) + r for r, (k, s) in enumerate(chosen)
                                            for g in base[k].gen]).gen
            for chosen in itertools.product(first, *[rest] * (d - 1))
            if sum(gap(base[k]) + s for k, s in chosen) <= budget]


def test_enumeration_matches_brute_force():
    for grid in CENSUS_GRIDS:
        params = GridParams(*grid)
        for budget in (0, 2, subdiagonal_box_count(params)):
            got = [delta.gen for delta in enumerate_invsets_by_gap(params, budget)]
            assert got == oracle_enumeration(params, budget), (grid, budget)


def test_positive_cycle_is_infeasible():
    # a1 - a2 <= -1 and a2 - a1 <= -1 cannot both hold; 0 reaches the cycle.
    # Every arc weighs -b, so a positive cycle needs a negative bound, and
    # such a matrix is rejected when it is built.
    b = ((None, 0, None), (None, None, -1), (None, -1, None))
    with pytest.raises(ValueError, match=r"^negative bound -1$"):
        ShiftBounds(b)
    # what stays infeasible is a part with no bound chain to part 0
    unreachable = ShiftBounds(((None, None, None), (None, None, 0), (0, 0, None)))
    with pytest.raises(Infeasible, match=r"^no finite bound chain from 1 to 0$"):
        minimal_shifting(unreachable)
    with pytest.raises(Infeasible, match=r"^no finite bound chain from 1 to 0$"):
        oracle_minimal_shifting(unreachable)


@pytest.mark.parametrize("b, message", [
    (((None, -5), (None, None)), "negative bound -5"),
    # three parts given two-entry rows (once ShiftBounds(3, <2 x 2>), an IndexError)
    (((None, 0), (None, None), (0, None)),
     "a bound matrix needs d >= 1 rows of d entries, not row lengths [2, 2, 2]"),
    (((None, 0, 1), (None, None, 2)),
     "a bound matrix needs d >= 1 rows of d entries, not row lengths [3, 3]"),
    (((None, 0), (0,)), "a bound matrix needs d >= 1 rows of d entries, not row lengths [2, 1]"),
    ((), "a bound matrix needs d >= 1 rows of d entries, not row lengths []"),
])
def test_shift_bounds_are_checked_on_construction(b, message):
    with pytest.raises(ValueError) as exc:
        ShiftBounds(b)
    assert str(exc.value) == message


def test_minimal_shifting_of_nonnegative_bounds_is_final():
    # with bounds >= 0 the relaxation's result holds every bound and is <= 0
    rng = random.Random(74)
    feasible = 0
    for _ in range(300):
        d = rng.randint(1, 6)
        b = tuple(tuple(None if i == j or rng.random() < 0.3 else rng.randint(0, 5)
                        for j in range(d)) for i in range(d))
        try:
            v = minimal_shifting(ShiftBounds(b))
        except Infeasible:
            continue
        assert v[0] == 0 and all(x <= 0 for x in v)
        assert all(b[i][j] is None or v[i] - v[j] <= b[i][j]
                   for i in range(d) for j in range(d) if i != j)
        assert v == oracle_minimal_shifting(ShiftBounds(b))
        feasible += 1
    assert feasible > 200


def test_equal_graphs_are_equal_values():
    graph, fresh = left_graph(), left_graph()
    assert graph == fresh and hash(graph) == hash(fresh) and repr(graph) == repr(fresh)
    assert graph.levels == (0, 1, 1, 2)
    assert canonical_form(graph) == canonical_form(fresh)


BLUE, GREEN = (-2, 0, 1, 2, 4), (-2, -1, 0, 1, 2)
ORANGE, RED = (4, 6, 7, 8, 10), (4, 5, 6, 7, 8)
ZERO = (-1, 0)  # the 0-normalized (1, 1) skeleton; equal labels all meet


@pytest.mark.parametrize("n, m, labels, levels, message", [
    (3, 2, (BLUE, ORANGE, RED), (0, 1, 1), "vertices 1,2 meet on level 1"),
    (1, 1, (ZERO,) * 3, (0, 1, 1), "vertices 1,2 meet on level 1"),
    (3, 2, (GREEN, RED), (0, 0), "level-0 vertices [0, 1], expected exactly one"),
    (3, 2, (BLUE, GREEN), (1, 2), "level-0 vertices [], expected exactly one"),
    (3, 2, (GREEN, RED), (0, 1), "vertex 1 of level 1 meets no vertex of level 0"),
    # a longest path to GREEN has one edge, not two
    (3, 2, (BLUE, GREEN), (0, 2), "vertex 1 of level 2 meets no vertex of level 1"),
    # only the source is excused: d - 1 grounded vertices are not enough
    (1, 1, (ZERO, ZERO), (0, -1), "vertex 1 of level -1 meets no vertex of level -2"),
    (3, 2, (BLUE, GREEN), (0,), "levels (0,) for 2 labels"),
    (3, 2, (), (), "need at least one vertex"),
    (3, 2, ((-2, 2, 4, 5, 8),), (0,),
     "label 0 is not a skeleton: some class mod N has no skeleton value"),
    (3, 2, (BLUE, (-7, -5, -4, -3, -1)), (0, 1), "label 1 not non-negatively normalized"),
    (3, 2, ((0, 1, 2, 3, 4),), (0,), "source label must be 0-normalized"),
])
def test_graph_validation_messages(n, m, labels, levels, message):
    with pytest.raises(InvalidGraph) as exc:
        LabeledDigraph(n, m, labels=labels, levels=levels)
    assert str(exc.value) == message


def test_a_label_reads_its_least_element_off_its_least_value():
    # the vertex check takes min(Delta) = label[0] + m, as min(Delta) - m is
    # the least skeleton value; here against the reconstructed subset
    checked = 0
    for n, m in [(n, m) for n in range(1, 13) for m in range(1, 14 - n) if math.gcd(n, m) == 1]:
        params = GridParams(n, m, 1)
        for D in enumerate_paths(params):
            values = skeleton(invset_from_path_coprime(D)).sorted_values
            for s in (-3, 0, 5):
                label = tuple([x + s for x in values])
                assert invset_from_skeleton(params, label).min_element() == label[0] + m == s
                if s == 0:
                    LabeledDigraph(n, m, (label,), (0,))
                else:
                    with pytest.raises(InvalidGraph, match=(
                            "^label 0 not non-negatively normalized$" if s < 0
                            else "^source label must be 0-normalized$")):
                        LabeledDigraph(n, m, (label,), (0,))
                checked += 1
    assert checked == 3 * 1061


def test_build_graph_runs_the_meet_test_once(monkeypatch):
    import ratcat.equiv as equiv
    calls = []
    real = equiv.meeting_pairs
    monkeypatch.setattr(equiv, "meeting_pairs", lambda sets: calls.append(1) or real(sets))
    for delta in [worked_delta(), semigroup(GridParams(5, 3, 1))]:
        calls.clear()
        build_graph(delta)
        assert len(calls) == 1


def full_skeleton(delta):
    """Delta's sorted skeleton from its generators, whatever it carries."""
    return tuple(sorted([*delta.gen, *cogenerators_m(delta)]))


@functools.cache
def carrying_subsets():
    """The subsets built carrying their skeleton: the minimal representative
    of each desk and sampled path's graph and of each census class graph."""
    import ratcat.series as series
    graphs = [*desk_graphs(), *(unglue(D)[0] for D in sampled_paths()),
              *(graph for grid in CENSUS_GRIDS for graph in series.class_graphs(GridParams(*grid)))]
    return tuple(minimal_representative(graph) for graph in graphs)


def test_carried_skeleton_is_the_skeleton():
    subsets = carrying_subsets()
    for delta in subsets:
        assert delta._skeleton == skeleton(delta).sorted_values == full_skeleton(delta), delta.gen
        plain = InvariantSet(delta.params, delta.gen)
        assert plain._skeleton is None
        assert plain == delta and hash(plain) == hash(delta), delta.gen
        assert repr(plain) == repr(delta) and plain.to_jsonable() == delta.to_jsonable()
    assert len(subsets) == 2905 + 200 + sum(bizley_count(*grid) for grid in CENSUS_GRIDS)
    # the memo hands out one carrying subset per label, cold and warm alike
    from ratcat.invset import coprime_from_skeleton
    clear_caches()
    for params in all_grid_params(14):
        if params.d == 1:
            for path in enumerate_paths(params):
                label = skeleton(invset_from_path_coprime(path)).sorted_values
                cold = coprime_from_skeleton(params.n, params.m, label)
                warm = coprime_from_skeleton(params.n, params.m, label)
                assert warm is cold and cold._skeleton == label == full_skeleton(cold), label


def test_gap_closed_form_counts_the_gaps():
    census = [delta for grid in CENSUS_GRIDS for delta in census_subsets(GridParams(*grid))]
    for delta in [*carrying_subsets(), *census]:
        for shifted in (delta, delta.shifted(-3), delta.shifted(5)):
            assert gap(shifted) == len(gaps(shifted)), shifted.gen


@pytest.mark.parametrize("grid", [(1, 1, 7), (2, 1, 6)], ids=["n1-m1-d7", "n2-m1-d6"])
def test_classify_reads_the_carried_skeleton(monkeypatch, grid):
    # once the label memos are warm, the G-image and gap of a path's minimal
    # representative compute no cogenerator: the representative carries them
    import ratcat.invset as invset
    path = next(seeded_paths(GridParams(*grid), 1, seed=29))
    def classify():
        rep = minimal_representative(unglue(path)[0])
        return rep, map_G(rep).steps, gap(rep)
    rep, steps, _ = want = classify()  # warms the memos
    calls = []
    real = invset.cogenerators_m
    monkeypatch.setattr(invset, "cogenerators_m", lambda delta: calls.append(delta) or real(delta))
    assert classify() == want and calls == []
    assert map_G(InvariantSet(rep.params, rep.gen)).steps == steps and len(calls) == 1
