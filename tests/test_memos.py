"""The per-label memos of the gluing layer and the grid memo: each is a
bounded lru cache that the cache scan finds, a warm cache answers as a cold
one does, and a label or grid that fails raises on every call, as lru_cache
caches no exception."""

import pytest

from ratcat import (
    GridParams,
    InvalidGraph,
    InvalidSkeleton,
    InvariantViolation,
    LabeledDigraph,
    NoIntersection,
    canonical_form,
    enumerate_paths,
    glue_all,
    minimal_representative,
    unglue,
)
from ratcat import equiv, glue, invset, lattice
from ratcat.verify import all_grid_params

from graph_oracles import clear_caches, ratcat_caches, seeded_paths

# what a label alone determines: its rank set and its window from an entry
# rank (glue_all), its subset (the vertex check), its canonical text
MEMOS = (glue._label_ranks, glue._window, invset.coprime_from_skeleton, equiv._label_text)
BLUE = (-2, 0, 1, 2, 4)


def _outcomes(paths, cold):
    """unglue, glue_all and canonical_form of each path, with every cache
    emptied before each path when cold."""
    out = []
    for D in paths:
        if cold:
            clear_caches()
        graph, colored = unglue(D)
        out.append((graph.labels, graph.levels, colored.colors,
                    glue_all(graph).steps, canonical_form(graph)))
    return out


def test_cold_and_warm_caches_agree():
    paths = [D for params in all_grid_params(14) for D in enumerate_paths(params)]
    paths += [*seeded_paths(GridParams(1, 1, 40), 20, seed=40),
              *seeded_paths(GridParams(3, 2, 16), 20, seed=16)]
    cold = _outcomes(paths, cold=True)
    assert [steps for *_, steps, _ in cold] == [D.steps for D in paths]
    clear_caches()
    assert _outcomes(paths, cold=False) == cold  # warming up along the way
    assert all(memo.cache_info().currsize for memo in MEMOS)
    assert _outcomes(paths, cold=False) == cold  # warm throughout
    assert len(paths) == 2905 + 40


def test_the_cache_scan_finds_every_memo(monkeypatch):
    found = ratcat_caches()
    for memo in MEMOS + (glue._component, lattice._grid_params):
        assert any(cache is memo for cache in found), memo
        assert memo.cache_info().maxsize is not None, memo  # bounded
    # after clearing, the next glue_all walks its windows again
    graph = unglue(next(seeded_paths(GridParams(3, 2, 16), 1, seed=5)))[0]
    walks = []
    real = glue._walk
    monkeypatch.setattr(glue, "_walk", lambda *args: walks.append(args) or real(*args))
    want = glue_all(graph)
    walks.clear()
    assert glue_all(graph) == want and walks == []
    clear_caches()
    assert glue_all(graph) == want and 0 < len(walks) <= graph.d


def test_a_forged_label_raises_on_every_call():
    clear_caches()
    for _ in range(2):  # not a (3, 2) skeleton: the vertex check
        with pytest.raises(InvalidGraph, match="^label 0 is not a skeleton: ") as exc:
            LabeledDigraph(3, 2, ((0, 2, 4, 6, 8),), (0,))
        assert isinstance(exc.value.__cause__, InvalidSkeleton)
        with pytest.raises(InvalidSkeleton):
            invset.coprime_from_skeleton(3, 2, (0, 2, 4, 6, 8))
    # a window walk that leaves the label, or does not return to its start
    graph = LabeledDigraph(2, 1, ((-1, 0, 1),), (0,))
    object.__setattr__(graph, "labels", ((-1, 1, 3),))
    for _ in range(2):
        with pytest.raises(NoIntersection, match="^no point of rank 3 is on the path$"):
            glue._window(3, 2, BLUE, 3)
        with pytest.raises(InvariantViolation, match="^window 'hhv' does not return to rank -1$"):
            glue_all(graph)
    # no failure was stored or served: the one entry is the real label (-1, 0, 1)
    label, window = invset.coprime_from_skeleton.cache_info(), glue._window.cache_info()
    assert (label.hits, label.currsize, window.hits, window.currsize) == (0, 1, 0, 0)
    # the other two memos read any tuple and have no failure
    assert glue._label_ranks((-1, 1, 3)) == {-1, 1, 3}
    assert equiv._label_text((-1, 1, 3)) == "-1,1,3"


def test_the_grid_memo_is_the_grid_check(monkeypatch):
    clear_caches()
    for args in [(1, 1, 2), (3, 2, 16), (11, 13, 4166)]:
        grid = lattice._grid_params(*args)
        assert grid == GridParams(*args) and lattice._grid_params(*args) is grid
    for args, message in [((2, 4, 1), "^n=2 and m=4 must be coprime$"),
                          ((0, 1, 1), "^n and m must be positive, got n=0 and m=1$"),
                          ((1, 1, 0), "^d must be at least 1, got 0$")]:
        for _ in range(2):  # rejected on every call
            with pytest.raises(ValueError, match=message):
                lattice._grid_params(*args)
    assert lattice._grid_params.cache_info().currsize == 3
    # glue_all and minimal_representative build and check no GridParams of their own
    graph = unglue(next(seeded_paths(GridParams(3, 2, 16), 1, seed=5)))[0]
    checks = []
    real = GridParams.__post_init__
    monkeypatch.setattr(GridParams, "__post_init__",
                        lambda self: checks.append(self) or real(self))
    assert glue_all(graph).params is lattice._grid_params(3, 2, 16)
    assert minimal_representative(graph).params is lattice._grid_params(3, 2, 16)
    assert checks == []
