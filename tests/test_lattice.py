from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

from ratcat import (
    AboveDiagonal,
    DomainError,
    DyckPath,
    GridParams,
    InvariantViolation,
    LimitExceeded,
    MalformedPath,
    area,
    bizley_count,
    enumerate_paths,
    parse_path,
    staircase_path,
    step_ranks,
    subdiagonal_box_count,
)
from ratcat.verify import all_grid_params

from graph_oracles import box_rank

P53 = GridParams(5, 3, 1)
P96 = GridParams(3, 2, 3)
P42 = GridParams(2, 1, 2)


def test_grid_params_derived():
    assert (P96.N, P96.M, P96.delta) == (9, 6, 1)
    assert (P53.N, P53.M, P53.delta) == (5, 3, 4)


def test_grid_params_rejects_non_coprime():
    with pytest.raises(ValueError):
        GridParams(2, 2, 1)
    with pytest.raises(ValueError):
        GridParams(0, 1, 1)


def test_parse_golden_paths():
    assert parse_path("hhvhvvvv", P53).steps == "hhvhvvvv"
    assert parse_path("hvhvvhhhvhvvvvv", P96).steps == "hvhvvhhhvhvvvvv"
    assert parse_path("hv", GridParams(1, 1, 1)).steps == "hv"


def test_parse_rejects_bad_input():
    with pytest.raises(MalformedPath):
        parse_path("hhvh", P53)
    with pytest.raises(MalformedPath):
        parse_path("hhxhvvvv", P53)
    with pytest.raises(MalformedPath):
        parse_path("hhhhvvvv", P53)  # wrong letter counts
    with pytest.raises(AboveDiagonal):
        parse_path("vhvhvvhv", P53)


def validate_by_coordinates(params, steps):
    """Oracle: the coordinate validator, N*x + M*y <= N*M at every point."""
    N, M = params.N, params.M
    if len(steps) != N + M or steps.count("v") != N or steps.count("h") != M:
        raise MalformedPath(steps)
    x, y = M, 0
    for s in steps:
        if s == "h":
            x -= 1
        else:
            y += 1
        if N * x + M * y > N * M:
            raise AboveDiagonal(steps)
    if steps and steps[-1] != "v":
        raise InvariantViolation(steps)


def _outcome(check, *args):
    try:
        check(*args)
    except (DomainError, InvariantViolation) as exc:
        return type(exc)
    return None


def test_rank_validation_matches_coordinate_validation():
    for params in all_grid_params(12):
        N, M = params.N, params.M
        for vs in combinations(range(N + M), N):
            steps = "".join("v" if k in vs else "h" for k in range(N + M))
            want = _outcome(validate_by_coordinates, params, steps)
            assert _outcome(DyckPath, params, steps) is want, (params, steps)
        for steps in ["h" * (M + 1) + "v" * (N - 1), "v" * N + "h" * M + "v"]:
            assert _outcome(validate_by_coordinates, params, steps) is MalformedPath
            assert _outcome(DyckPath, params, steps) is MalformedPath


def test_dyck_path_is_a_plain_value():
    D = parse_path("hhvhvvvv", P53)
    E = DyckPath(GridParams(5, 3, 1), "hhvhvvvv")
    assert D == E and hash(D) == hash(E) and {D: 1}[E] == 1
    assert repr(D) == repr(E) == \
        "DyckPath(params=GridParams(n=5, m=3, d=1), steps='hhvhvvvv')"
    assert str(D) == "hhvhvvvv"
    assert D != DyckPath(P53, "hvhvhvvv")
    object.__setattr__(E, "_area", 99)  # the cached area takes no part in ==
    assert D == E and hash(D) == hash(E) and repr(D) == repr(E)
    with pytest.raises(FrozenInstanceError):
        D.steps = "hvhvhvvv"
    assert not hasattr(D, "__dict__")


def test_box_rank_golden():
    assert box_rank(P53, 0, 0) == 7
    assert box_rank(P96, 0, 0) == 13
    assert box_rank(P96, 5, 0) == -2
    assert box_rank(P42, 0, 1) == 0


def test_step_ranks_golden():
    D = parse_path("hhvhvvvv", P53)
    assert step_ranks(P53, D) == [-3, 2, 7, 4, 9, 6, 3, 0]
    D = parse_path("hvhvvhhhvhvvvvv", P96)
    assert step_ranks(P96, D) == [-2, 1, -1, 2, 0, -2, 1, 4, 7, 5, 8, 6, 4, 2, 0]
    p11 = GridParams(1, 1, 1)
    assert step_ranks(p11, parse_path("hv", p11)) == [-1, 0]


def test_grid_params_rejects_nonpositive_values():
    for (n, m, d), message in [((3, 2, 0), "d must be at least 1, got 0"),
                               ((3, 2, -1), "d must be at least 1, got -1"),
                               ((0, 1, 1), "n and m must be positive, got n=0 and m=1"),
                               ((1, 0, 2), "n and m must be positive, got n=1 and m=0"),
                               ((-1, 2, 1), "n and m must be positive, got n=-1 and m=2")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridParams(n, m, d)


def step_ranks_from_boxes(params, path):
    """Oracle: each step ranked by the box to the left of its start point."""
    ranks = []
    x, y = params.M, 0
    for s in path.steps:
        ranks.append(box_rank(params, x - 1, y))
        if s == "h":
            x -= 1
        else:
            y += 1
    return ranks


def test_step_ranks_agree_with_box_definition():
    for params in [P53, P96, P42, GridParams(1, 1, 3), GridParams(3, 4, 1)]:
        for D in enumerate_paths(params):
            assert step_ranks(params, D) == step_ranks_from_boxes(params, D)


def test_rank_multiplicities():
    for params in [P53, GridParams(3, 4, 1)]:
        for D in enumerate_paths(params):
            ranks = step_ranks(params, D)
            assert len(set(ranks)) == len(ranks)  # distinct when d = 1
    for params in [P96, P42]:
        for D in enumerate_paths(params):
            ranks = step_ranks(params, D)
            assert all(ranks.count(r) <= params.d for r in ranks)


def test_area_golden():
    assert area(P53, parse_path("hhvhvvvv", P53)) == 3
    assert area(P42, parse_path("hhvvvv", P42)) == 2
    for params in [P53, GridParams(2, 3, 1), GridParams(4, 3, 1)]:
        assert area(params, staircase_path(params)) == 0


def area_by_rows(params, path):
    """Oracle: per row, the boxes of non-negative rank right of the diagram."""
    total = 0
    for y, row in enumerate(path.row_lengths()):
        hi = params.d * params.m * params.n - params.m - params.n - params.m * y
        if hi >= 0:
            upper = min(hi // params.n, params.M - 1)
            if upper >= row:
                total += upper - row + 1
    return total


def test_area_matches_row_count():
    for params in all_grid_params(16):
        for D in enumerate_paths(params):
            assert area(params, D) == area_by_rows(params, D), (params, D.steps)


def test_area_rejects_a_path_of_another_grid():
    D = parse_path("hhvhvvvv", P53)
    assert area(GridParams(5, 3, 1), D) == 3  # equal, not identical, params
    with pytest.raises(MalformedPath):
        area(GridParams(3, 5, 1), D)


def test_step_ranks_rejects_a_path_of_another_grid():
    D = parse_path("hhvhvvvv", GridParams(5, 3, 1))
    assert step_ranks(GridParams(5, 3, 1), D) == [-3, 2, 7, 4, 9, 6, 3, 0]
    with pytest.raises(MalformedPath, match="is on the grid"):
        step_ranks(GridParams(3, 5, 1), D)


def test_area_plus_boxes_is_subdiagonal_count():
    for params in [P53, P96, P42, GridParams(1, 1, 4)]:
        total = subdiagonal_box_count(params)
        for D in enumerate_paths(params):
            assert area(params, D) + D.box_count() == total
    assert subdiagonal_box_count(P53) == P53.delta


def test_enumerate_counts_and_order():
    assert len(enumerate_paths(GridParams(1, 1, 2))) == 2
    assert len(enumerate_paths(GridParams(3, 2, 1))) == 2
    paths = [D.steps for D in enumerate_paths(P42)]
    assert paths == ["hhvvvv", "hvhvvv", "hvvhvv"]
    assert paths == sorted(paths)


def test_enumerated_paths_are_the_validated_paths():
    for params in all_grid_params(14):
        paths = enumerate_paths(params)
        for D in paths:
            full = DyckPath(params, D.steps)
            assert D == full and area(params, D) == area(params, full), D.steps
        steps = [D.steps for D in paths]
        assert all(a < b for a, b in zip(steps, steps[1:])), params
        assert len(paths) == bizley_count(params.n, params.m, params.d), params


def _reference_enumeration(params):
    """(steps, area) of every Dyck path by a plain recursion, 'h' first, one
    step per call, summing r // n over the 'v' steps from rank r."""
    n, m = params.n, params.m
    out = []

    def rec(steps, r, h_left, v_left, total):
        if not h_left and not v_left:
            out.append((steps, total))
        if h_left:
            rec(steps + "h", r + n, h_left - 1, v_left, total)
        if v_left and r >= 0:
            rec(steps + "v", r - m, h_left, v_left - 1, total + r // n)

    rec("", -m, params.M, params.N, 0)
    return out


def test_enumeration_emits_its_forced_tail_at_once():
    # with no 'h' left, the enumeration appends the 'v' tail and its area at once
    for params in all_grid_params(16):
        got = [(D.steps, area(params, D)) for D in enumerate_paths(params)]
        assert got == _reference_enumeration(params), params


def test_enumerate_limit():
    with pytest.raises(LimitExceeded):
        enumerate_paths(GridParams(1, 1, 13))


def test_bizley_golden():
    assert bizley_count(1, 1, 3) == 5
    assert bizley_count(2, 1, 2) == 3
    for n, m in [(2, 3), (5, 3), (4, 7)]:
        from math import comb
        assert bizley_count(n, m, 1) == comb(n + m, m) // (n + m)


def test_bizley_matches_enumeration():
    from math import gcd
    for n in range(1, 7):
        for m in range(1, 8 - n):
            if gcd(n, m) != 1:
                continue
            for d in range(1, 4):
                params = GridParams(n, m, d)
                if params.N + params.M > 24:
                    continue
                assert len(enumerate_paths(params)) == bizley_count(n, m, d)


@pytest.mark.parametrize("n, m, d", [(0, 1, 1), (-1, 2, 1), (1, 0, 2), (1, 1, 0)])
def test_bizley_rejects_what_grid_params_rejects(n, m, d):
    with pytest.raises(ValueError):
        bizley_count(n, m, d)
