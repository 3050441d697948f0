"""Named verification suites exercising every theorem at desk scale.

Each suite is a generator of (name, ok, detail) checks, and run_suite
is the one place that turns them into PASS, FAIL and REPORT lines.  The
CLI exposes the suites as subcommands and the acceptance tests run the
same code, so CI and the command line agree by construction.  A check
over every path of a grid that fails names the first path that fails
it.  All checks are exact; sizes are chosen so that the whole battery
finishes in well under the documented time budgets.
"""

from __future__ import annotations

from inspect import signature
from math import gcd

from .equiv import (
    LabeledDigraph,
    build_graph,
    canonical_form,
    minimal_representative,
    minimal_shifting,
    shift_bounds,
)
from .errors import FormulaMismatch
from .glue import glue_all, good_intervals, unglue, window_skeleton
from .invset import (
    gap,
    invset_from_generators,
    invset_from_skeleton,
    map_D_coprime,
    map_G,
    skeleton,
)
from .lattice import (ENUM_LIMIT, DyckPath, GridParams, area, bizley_count,
                      enumerate_paths, parse_path, subdiagonal_box_count)
from .series import (
    C_series,
    F_series,
    QTPoly,
    class_graphs,
    enumerate_invsets_by_gap,
    fuss_catalan,
    qt_catalan,
    springer_poincare,
)
from .sweep import dinv_armleg, dinv_sweep, zeta


def all_grid_params(max_total: int) -> list[GridParams]:
    """Every (n, m, d) with gcd(n, m) = 1 and d(n + m) <= max_total."""
    out = []
    for n in range(1, max_total):
        for m in range(1, max_total):
            if gcd(n, m) == 1:
                out.extend(GridParams(n, m, d) for d in range(1, max_total // (n + m) + 1))
    return sorted(out, key=lambda p: (p.N + p.M, p.n, p.m, p.d))


def _every_path(params: GridParams, names, facts):
    """One check per name over every path of the grid.

    facts(path) gives one bool per name; a check that fails has the
    detail ``fails at <steps>`` for the first path that breaks it.
    """
    fails = [""] * len(names)
    for path in enumerate_paths(params):
        for i, good in enumerate(facts(path)):
            if not good and not fails[i]:
                fails[i] = f"fails at {path.steps}"
    for name, fail in zip(names, fails):
        yield name, not fail, fail


def suite_golden_zeta():
    for params, steps, expected in [
        (GridParams(5, 3, 1), "hhvhvvvv", "hvhvhvvv"),
        (GridParams(3, 2, 3), "hvhvvhhhvhvvvvv", "hhhvvhvvvvhhvvv"),
    ]:
        got = zeta(params, parse_path(steps, params)).steps
        yield (f"zeta golden ({params.N},{params.M})", got == expected,
               f"{steps} -> {got}")


def suite_zeta_bijective(max_size=14):
    for params in all_grid_params(max_size):
        paths = enumerate_paths(params)
        image = {zeta(params, d).steps for d in paths}
        yield (f"zeta permutes Y_({params.N},{params.M})",
               len(image) == len(paths), f"{len(paths)} paths")


def suite_factorization(max_size=14):
    for params in all_grid_params(max_size):
        yield from _every_path(
            params, [f"zeta = G o D^-1 on Y_({params.N},{params.M})"],
            lambda d: (zeta(d.params, d).steps ==
                       map_G(minimal_representative(unglue(d)[0])).steps,))


def suite_dinv_agreement(max_size=14):
    for params in all_grid_params(max_size):
        yield from _every_path(
            params, [f"dinv = dinv' on Y_({params.N},{params.M})"],
            lambda d: (dinv_sweep(d.params, d) == dinv_armleg(d.params, d),))


def _round_trip(d: DyckPath) -> tuple[bool, bool]:
    graph = unglue(d)[0]
    glued = glue_all(graph)
    return (glued.steps == d.steps,
            canonical_form(unglue(glued)[0]) == canonical_form(graph))


def suite_round_trips(max_size=15):
    for params in all_grid_params(max_size):
        yield from _every_path(
            params,
            [f"B o B^-1 = id on Y_({params.N},{params.M})",
             f"B^-1 o B canonical-equal on graphs of Y_({params.N},{params.M})"],
            _round_trip)


def suite_worked_12_8():
    params = GridParams(3, 2, 4)
    delta = invset_from_generators(
        params, [0, 1, 5, 8, 9, 16, 27, 30, 34, 35, 38, 43])
    bounds = shift_bounds(skeleton(delta))
    expected_b = ((None, 0, 5, 2), (2, None, 12, 9),
                  (None, None, None, 0), (None, None, 2, None))
    yield "(12,8) pairwise bound matrix", bounds.b == expected_b, ""

    mvec = minimal_shifting(bounds)
    yield "(12,8) minimal shifting", mvec == (0, 0, -4, -2), str(mvec)

    graph = build_graph(delta)
    yield "(12,8) levels", graph.levels == (0, 1, 2, 1), ""
    yield ("(12,8) labels",
           graph.labels == ((-2, 0, 1, 2, 4), (-2, -1, 0, 1, 2),
                            (4, 5, 6, 7, 8), (4, 6, 7, 8, 10)), "")

    rep = minimal_representative(graph)
    yield "(12,8) minimal representative gap = 14", gap(rep) == 14, ""

    glued = glue_all(graph)
    yield "(12,8) glued path area = 14", area(params, glued) == 14, ""

    skels = sorted(tuple(sorted(window_skeleton(glued, r))) for r in good_intervals(glued))
    yield ("(12,8) good intervals",
           skels == [(-2, -1, 0, 1, 2), (4, 5, 6, 7, 8)], "")

    left = LabeledDigraph(
        3, 2,
        labels=((-2, 0, 1, 2, 4), (4, 6, 7, 8, 10),
                (-2, -1, 0, 1, 2), (4, 5, 6, 7, 8)),
        levels=(0, 1, 1, 2))
    rep_left = minimal_representative(left)
    expected_parts = [[-8, 0, 4, 8, 16], [17, 25, 29, 33, 41],
                      [-6, -2, 2, 6, 10], [19, 23, 27, 31, 35]]
    yield ("(12,8) representative skeleton parts",
           skeleton(rep_left).parts_mod_d() == expected_parts, "")


def suite_counting(max_size=14):
    for params in all_grid_params(max_size):
        count = len(enumerate_paths(params))
        yield (f"|Y_({params.N},{params.M})| = Bizley",
               count == bizley_count(params.n, params.m, params.d), str(count))
    # the search's classes are distinct and Bizley many; on the subset grids
    # they are exactly the classes of the subsets' gluing data
    subset_grids = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3), (1, 2, 3), (3, 2, 2)]
    for (n, m, d) in [*subset_grids, (3, 2, 4), (1, 1, 10)]:
        params = GridParams(n, m, d)
        forms = [canonical_form(graph) for graph in class_graphs(params)]
        odd = []
        if (n, m, d) in subset_grids:
            subsets = enumerate_invsets_by_gap(params, subdiagonal_box_count(params))
            odd = sorted({canonical_form(build_graph(delta)) for delta in subsets} ^ set(forms))
        yield (f"class census ({params.N},{params.M})",
               len(forms) == len(set(forms)) == bizley_count(n, m, d) and not odd,
               f"{len(forms)} classes" + (f", subsets differ at {odd[0].decode()}" if odd else ""))
    for (n, m, d), (N, k) in [((1, 1, 2), (2, 1)), ((1, 2, 2), (2, 2)),
                              ((1, 1, 3), (3, 1)), ((1, 2, 3), (3, 2))]:
        c = fuss_catalan(N, k)
        yield f"Fuss-Catalan c_{N}({k})", c == bizley_count(n, m, d), str(c)


def suite_area_min_gap():
    for (n, m, d) in [(1, 1, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3), (3, 2, 2)]:
        params = GridParams(n, m, d)
        by_class: dict[bytes, tuple[LabeledDigraph, list]] = {}
        for delta in enumerate_invsets_by_gap(params, 2 * (params.N + params.M)):
            graph = build_graph(delta)
            by_class.setdefault(canonical_form(graph), (graph, []))[1].append(delta)
        bad = next((form for form, (graph, members) in by_class.items()
                    if not area(params, glue_all(graph)) ==
                    gap(minimal_representative(graph)) == min(map(gap, members))), None)
        yield (f"area(D(class)) = min gap over ({params.N},{params.M}) classes", bad is None,
               f"{len(by_class)} classes" if bad is None else f"fails at class {bad.decode()}")


def suite_series():
    c22 = C_series(GridParams(1, 1, 2), 10)
    expected = QTPoly({(0, 1): 1, **{(k, 0): 1 for k in range(1, 11)}})
    yield "C_{2,2} = (q + t - qt)/(1 - q) through q^10", c22.poly == expected, ""

    one_minus_q = QTPoly({(0, 0): 1, (1, 0): -1})
    for n in range(1, 5):
        lhs = (one_minus_q * F_series(n, 6).poly).truncate_q(6)
        rhs = F_series(n, 6, restricted=True).poly.truncate_q(6)
        yield f"(1-q) F_{n} = restricted F_{n} through q^6", lhs == rhs, ""

    for n in (2, 3, 4):
        c = C_series(GridParams(1, 1, n), 6)
        f = F_series(n, 6, restricted=True)
        yield f"C_({n},{n}) = restricted F_{n} through q^6", c.agrees_with(f), ""

    for n, m in [(2, 3), (3, 4), (2, 5)]:
        params = GridParams(n, m, 1)
        yield (f"C = qt-Catalan at d=1 ({n},{m})",
               C_series(params, params.delta).poly == qt_catalan(params), "")


def suite_coprime_structure(max_size=12):
    mismatch = ""  # the first FormulaMismatch, which names its (n, m)
    for params in all_grid_params(max_size):  # d = 1: every coprime n + m <= max_size
        if params.d == 1:
            try:
                springer_poincare(params.n, params.m)
            except FormulaMismatch as exc:
                mismatch = mismatch or str(exc)
            yield (f"qt-Catalan ({params.n},{params.m}) q<->t symmetric",
                   qt_catalan(params).is_qt_symmetric(), "")
    yield f"Poincare formulas agree for all n+m <= {max_size}", not mismatch, mismatch


def _coloring_valid(path: DyckPath) -> bool:
    n, m = path.params.n, path.params.m
    graph, colored = unglue(path)
    # each component is an (n, m)-Dyck path rotated from its class, so the
    # class's step counts hold; what is left is the label's diagram path
    if colored.components != tuple(component_oracle(n, m, label) for label in graph.labels):
        return False
    return n != 1 or m != 1 or _matches_paren_matching(path.steps, colored.colors)


def suite_coloring(max_size=14):
    for params in all_grid_params(max_size):
        yield from _every_path(
            params, [f"coloring of Y_({params.N},{params.M}) valid"],
            lambda path: (_coloring_valid(path),))


def component_oracle(n: int, m: int, label) -> DyckPath:
    """The coloring component of a vertex, computed from its label alone:
    the diagram path of the label's invariant subset, 0-normalized."""
    delta = invset_from_skeleton(GridParams(n, m, 1), label)
    return map_D_coprime(delta.shifted(-delta.min_element()))


def _matches_paren_matching(steps: str, colors) -> bool:
    """For N = M the color pairs are the balanced-parenthesis matching
    of the step string, with 'h' opening and 'v' closing."""
    stack = []
    for z, s in enumerate(steps):
        if s == "h":
            stack.append(z)
        elif not stack or colors[stack.pop()] != colors[z]:
            return False
    return not stack


def suite_conjecture_probe():
    """Reported only: is C * (1-q)^(d-1) symmetric in q and t up to cutoff?

    Rests on an open conjecture, so its checks have ok None: they are
    logged as REPORT lines, never asserted.
    """
    one_minus_q = QTPoly({(0, 0): 1, (1, 0): -1})
    for (n, m, d) in [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 2), (3, 2, 2)]:
        params = GridParams(n, m, d)
        cutoff = 8
        poly = C_series(params, cutoff).poly
        for _ in range(d - 1):
            poly = poly * one_minus_q
        # terms are exact only up to q-degree cutoff-(d-1); compare within
        # the symmetric box so that mirrored terms are never truncated away
        box = cutoff - (d - 1)
        inside = QTPoly({(q, t): c for (q, t), c in poly.coeffs.items()
                         if q <= box and t <= box})
        yield (f"C_({params.N},{params.M}) * (1-q)^{d-1} q<->t symmetric "
               f"in the box q,t <= {box}", None, str(inside == inside.swapped()))


SUITES = {
    "golden-zeta": suite_golden_zeta,
    "zeta-bijective": suite_zeta_bijective,
    "factorization": suite_factorization,
    "dinv-agreement": suite_dinv_agreement,
    "round-trips": suite_round_trips,
    "worked-12-8": suite_worked_12_8,
    "counting": suite_counting,
    "area-min-gap": suite_area_min_gap,
    "series": suite_series,
    "coprime-structure": suite_coprime_structure,
    "coloring": suite_coloring,
    "conjecture-probe": suite_conjecture_probe,
}


def _sized(suite) -> bool:
    """Whether a suite takes a max_size, read off its own signature."""
    return "max_size" in signature(suite).parameters


def run_suite(name: str, max_size: int | None = None):
    """Run one suite (or 'all'); returns (ok, lines).

    A check is the line ``PASS|FAIL|REPORT <name>[: <detail>]``, REPORT
    when its ok is None.  A suite that raises adds, after the checks it
    made, ``FAIL <suite>: raised <Type>: <message>``; 'all' goes on with
    the remaining suites.  max_size None keeps each suite's default, and
    'all' passes any other max_size to the sized suites only.  A max_size
    below 2 is rejected, since no grid has N + M < 2 and the sized suites
    would check nothing and pass; so is one above ENUM_LIMIT, since every
    sized suite enumerates the paths of grids up to that size, and one
    given to an unsized suite.
    """
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join([*SUITES, 'all'])}")
    if max_size is not None and max_size < 2:
        raise ValueError(f"max_size must be at least 2, got {max_size}")
    if max_size is not None and max_size > ENUM_LIMIT:
        raise ValueError(f"max_size must be at most the enumeration limit "
                         f"{ENUM_LIMIT}, got {max_size}")
    if max_size is not None and name != "all" and not _sized(SUITES[name]):
        raise ValueError(f"suite {name} takes no max_size")
    ok, lines = True, []
    for key in (SUITES if name == "all" else [name]):
        suite = SUITES[key]
        try:
            sized = max_size is not None and _sized(suite)
            for check, good, detail in suite(max_size) if sized else suite():
                tag = "REPORT" if good is None else "PASS" if good else "FAIL"
                lines.append(f"{tag} {check}" + (f": {detail}" if detail else ""))
                ok &= good is not False
        except Exception as exc:
            lines.append(f"FAIL {key}: raised {type(exc).__name__}: {exc}")
            ok = False
    return ok, lines
