"""The benchmark's workloads: seeded inputs, one timed pass, per-item checks.

Each workload is a closed loop in one process: an item starts when the
previous one has finished.  ``make_inputs`` draws the inputs from the seed
with the benchmark's own sampler, not with ratcat; the program only ever
sees the resulting step strings and grid parameters, which ``load`` turns
into ``GridParams`` / ``parse_path`` objects.  ``run_pass`` times every
item, checks its answer and records failures in a ``PassLog``.

Calls into ratcat go through module attributes (``glue.unglue``), so the
traced run can replace those attributes with timing wrappers.  Why each
workload exists, and which end-to-end metric each layer should move on it,
is written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from ratcat import equiv, glue, invset, lattice, series, sweep
from sampler import PathSampler

ROUNDTRIP_GRIDS = ((3, 2, 4), (3, 4, 3), (2, 1, 7), (5, 3, 6), (3, 2, 8))
ROUNDTRIP_PER_GRID = 200
# classify takes every path of (1, 1, 7) and a sample of the near-square grids.
# Sampled square grids would make the pass time depend on whether the sample
# hits the rare paths whose labels are all equal (d! orderings to search).
CLASSIFY_EVERY = (1, 1, 7)
CLASSIFY_GRIDS = ((1, 2, 6), (2, 1, 6))
CLASSIFY_PER_GRID = 300
SWEEP_GRIDS = ((3, 4, 3), (1, 1, 10), (2, 1, 7))
# Each count_equivalence_classes call is one item, so no case may run for more
# than a fraction of a second: the fastest of many repeats filters host noise.
CENSUS_GRIDS = ((1, 1, 3), (1, 1, 4), (1, 2, 3), (2, 1, 3), (3, 1, 3), (1, 3, 3),
                (3, 2, 2), (5, 2, 2))
# C_series identities checked by the census, after verify's series suite,
# each with the grid (n, m, d) whose series it checks.
CENSUS_SERIES = (("C22_closed_form", 1, 1, 2), ("C_is_qt_catalan", 2, 3, 1),
                 ("C_is_qt_catalan", 3, 4, 1), ("C_is_qt_catalan", 2, 5, 1),
                 ("C_nn_is_restricted_F", 1, 1, 2), ("C_nn_is_restricted_F", 1, 1, 3),
                 ("C_nn_is_restricted_F", 1, 1, 4))


class PassLog:
    """Per-item latencies and failure accounting for one timed pass.

    A check returns None when the answer is right and a description of the
    mismatch otherwise; an exception counts as a failure too.  The first
    failing input is kept so the report can name it.
    """

    def __init__(self, tracer=None):
        self.latencies = array("d")  # floats in an array keep the heap flat
        self.attempted = 0
        self.failed = 0
        self.first_failure: dict | None = None
        self._tracer = tracer

    def run_item(self, describe: Callable[[], str], check: Callable, *args) -> None:
        if self._tracer is not None:
            self._tracer.item = self.attempted
        t0 = perf_counter()
        try:
            problem = check(*args)
        except Exception as exc:  # a crash is a failed item, not a dead run
            problem = f"raised {type(exc).__name__}: {exc}"
        self.latencies.append(perf_counter() - t0)
        if self._tracer is not None:
            self._tracer.item = -1
        self.attempted += 1
        if problem is not None:
            self.fail(describe, problem)

    def fail(self, describe: Callable[[], str], problem: str, items: int = 1) -> None:
        self.failed += items
        if self.first_failure is None:
            self.first_failure = {"input": describe(), "problem": problem}


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random], dict]
    load: Callable[[dict], object]
    run_pass: Callable[[object, PassLog], None]


def _sample_paths(rng: random.Random, grids, per_grid: int, every=()) -> dict:
    paths = [[*grid, steps] for grid in every for steps in PathSampler(*grid).every_path()]
    for grid in grids:
        sampler = PathSampler(*grid)
        paths += [[*grid, sampler.sample(rng)] for _ in range(per_grid)]
    return {"grids": [list(g) for g in every + grids], "items": len(paths), "paths": paths}


def _load_paths(inputs: dict) -> list:
    params = {}
    out = []
    for n, m, d, steps in inputs["paths"]:
        p = params.setdefault((n, m, d), lattice.GridParams(n, m, d))
        out.append(lattice.parse_path(steps, p))
    return out


def _describe_path(path) -> Callable[[], str]:
    p = path.params
    return lambda: f"(n,m,d)=({p.n},{p.m},{p.d}) path={path.steps}"


# -- roundtrip ---------------------------------------------------------------

def _roundtrip_check(path) -> str | None:
    graph, colored = glue.unglue(path)
    back = glue.glue_all(graph)
    if back.steps != path.steps:
        return f"glue_all(unglue(path)) = {back.steps}"
    if equiv.canonical_form(glue.unglue(back)[0]) != equiv.canonical_form(graph):
        return "canonical form changed under unglue(glue_all(graph))"
    n, m = path.params.n, path.params.m
    for v in range(graph.d):
        cls = [s for s, c in zip(path.steps, colored.colors) if c == v]
        if cls.count("v") != n or cls.count("h") != m:
            return f"color class {v} has steps {''.join(cls)}"
    return None


def _roundtrip_pass(paths, log: PassLog) -> None:
    for path in paths:
        log.run_item(_describe_path(path), _roundtrip_check, path)


# -- classify ----------------------------------------------------------------

def _classify_check(path) -> str | None:
    params = path.params
    graph = glue.unglue(path)[0]
    equiv.canonical_form(graph)
    rep = equiv.minimal_representative(graph)
    min_gap = invset.gap(rep)
    path_area = lattice.area(params, path)
    if min_gap != path_area:
        return f"min gap {min_gap} != area {path_area}"
    g_image = invset.map_G(rep).steps
    swept = sweep.zeta(params, path).steps
    if g_image != swept:
        return f"G(minimal rep) = {g_image} but zeta(path) = {swept}"
    return None


def _classify_pass(paths, log: PassLog) -> None:
    for path in paths:
        log.run_item(_describe_path(path), _classify_check, path)


# -- census ------------------------------------------------------------------

def _census_inputs(rng: random.Random) -> dict:
    cases = [["count_classes", *g] for g in CENSUS_GRIDS]
    cases += [list(c) for c in CENSUS_SERIES]
    rng.shuffle(cases)
    return {"grids": [list(g) for g in CENSUS_GRIDS], "items": len(cases),
            "cases": cases}


def _census_load(inputs: dict) -> list:
    return [(kind, lattice.GridParams(n, m, d)) for kind, n, m, d in inputs["cases"]]


def _census_check(kind: str, params) -> str | None:
    if kind == "count_classes":
        got = series.count_equivalence_classes(params)
        want = lattice.bizley_count(params.n, params.m, params.d)
        return None if got == want else f"{got} classes, Bizley count {want}"
    if kind == "C22_closed_form":
        # C_{2,2} = (q + t - qt)/(1 - q) through q^10
        want = series.QTPoly({(0, 1): 1, **{(k, 0): 1 for k in range(1, 11)}})
        ok = series.C_series(params, 10).poly == want
        return None if ok else "C_{2,2} differs from (q + t - qt)/(1 - q)"
    if kind == "C_is_qt_catalan":
        ok = series.C_series(params, params.delta).poly == series.qt_catalan(params)
        return None if ok else "C differs from the qt-Catalan polynomial"
    ok = series.C_series(params, 6).agrees_with(
        series.F_series(params.d, 6, restricted=True))
    return None if ok else "C_(n,n) differs from restricted F_n through q^6"


def _census_pass(cases, log: PassLog) -> None:
    for kind, params in cases:
        log.run_item(lambda: f"{kind} (n,m,d)=({params.n},{params.m},{params.d})",
                     _census_check, kind, params)


# -- sweep-stats -------------------------------------------------------------

def _sweep_inputs(rng: random.Random) -> dict:
    # Every path of fixed grids: the seed has nothing to vary.
    grids = [list(g) for g in SWEEP_GRIDS]
    return {"grids": grids, "items": sum(PathSampler(*g).count for g in grids)}


def _sweep_load(inputs: dict) -> list:
    return [lattice.GridParams(*g) for g in inputs["grids"]]


def _sweep_check(params, path, images: set) -> str | None:
    lattice.area(params, path)
    images.add(sweep.zeta(params, path).steps)
    dinv = sweep.dinv_sweep(params, path)
    dinv_prime = sweep.dinv_armleg(params, path)
    ranks = lattice.step_ranks(params, path)
    if dinv != dinv_prime:
        return f"dinv {dinv} != dinv' {dinv_prime}"
    if ranks[-1] != 0:
        return f"last step rank {ranks[-1]}, expected 0"
    return None


def _sweep_pass(grids, log: PassLog) -> None:
    for params in grids:
        paths = lattice.enumerate_paths(params)
        images: set[str] = set()
        failed_before = log.failed
        for path in paths:
            log.run_item(_describe_path(path), _sweep_check, params, path, images)
        want = lattice.bizley_count(params.n, params.m, params.d)
        if not len(images) == len(paths) == want:
            # zeta must be a bijection onto the grid's paths: every path of
            # the grid that passed its own check fails with the grid.
            passed = len(paths) - (log.failed - failed_before)
            log.fail(lambda: f"grid (n,m,d)=({params.n},{params.m},{params.d})",
                     f"{len(images)} zeta images, {len(paths)} paths, "
                     f"Bizley count {want}", items=passed)


WORKLOADS = {w.name: w for w in (
    Workload("roundtrip",
             lambda rng: _sample_paths(rng, ROUNDTRIP_GRIDS, ROUNDTRIP_PER_GRID),
             _load_paths, _roundtrip_pass),
    Workload("classify",
             lambda rng: _sample_paths(rng, CLASSIFY_GRIDS, CLASSIFY_PER_GRID,
                                       (CLASSIFY_EVERY,)),
             _load_paths, _classify_pass),
    Workload("census", _census_inputs, _census_load, _census_pass),
    Workload("sweep-stats", _sweep_inputs, _sweep_load, _sweep_pass),
)}

