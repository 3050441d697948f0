import pytest
from graph_oracles import seeded_paths

from ratcat import (
    AboveDiagonal,
    DyckPath,
    GridParams,
    InvariantViolation,
    MalformedPath,
    area,
    cli,
    dinv_armleg,
    dinv_sweep,
    enumerate_paths,
    parse_path,
    step_ranks,
    sweep,
    zeta,
)
from ratcat.verify import all_grid_params

P53 = GridParams(5, 3, 1)
P96 = GridParams(3, 2, 3)


def test_zeta_golden():
    assert zeta(P53, parse_path("hhvhvvvv", P53)).steps == "hvhvhvvv"
    assert zeta(P96, parse_path("hvhvvhhhvhvvvvv", P96)).steps == "hhhvvhvvvvhhvvv"
    p11 = GridParams(1, 1, 1)
    assert zeta(p11, parse_path("hv", p11)).steps == "hv"


def zeta_by_sorting(params, path):
    """Oracle: step indices sorted by (rank ascending, position descending)."""
    ranks = step_ranks(params, path)
    order = sorted(range(len(ranks)), key=lambda k: (ranks[k], -k))
    return "".join(path.steps[k] for k in order)


def test_zeta_tie_breaking_reverses_equal_ranks():
    D = parse_path("hvhvvhhhvhvvvvv", P96)
    ranks = step_ranks(P96, D)
    image = zeta(P96, D)
    # steps of rank 4 appear as h then v in D, and as v then h in zeta(D)
    assert [D.steps[k] for k in range(15) if ranks[k] == 4] == ["h", "v"]
    assert [D.steps[k] for k in range(15) if ranks[k] == 1] == ["v", "h"]
    srt = sorted(range(15), key=lambda k: (ranks[k], -k))
    assert [D.steps[k] for k in srt if ranks[k] == 4] == ["v", "h"]
    assert [D.steps[k] for k in srt if ranks[k] == 1] == ["h", "v"]
    assert image.steps == zeta_by_sorting(P96, D)


def test_zeta_matches_sorting():
    for params in all_grid_params(16):
        for D in enumerate_paths(params):
            assert zeta(params, D).steps == zeta_by_sorting(params, D), (params, D.steps)


def test_dinv_golden():
    assert dinv_sweep(P53, parse_path("hhvhvvvv", P53)) == 1
    assert dinv_sweep(P96, parse_path("hvhvvhhhvhvvvvv", P96)) == 7
    p11 = GridParams(1, 1, 1)
    assert dinv_sweep(p11, parse_path("hv", p11)) == 0


def test_dinv_armleg_empty_diagram():
    empty = parse_path("hhh" + "vvvvv", P53)
    assert empty.box_count() == 0
    assert dinv_armleg(P53, empty) == 0


def dinv_by_arm_and_leg(params, path):
    """Oracle: the box loop over the Young diagram, testing each box's arm
    and leg by m*leg < n*(arm+1) and (arm == 0 or n*arm <= m*(leg+1))."""
    n, m = params.n, params.m
    rows = path.row_lengths()
    cols = [0] * params.M  # height of the 'h' step crossing each column
    x, y = params.M, 0
    for s in path.steps:
        if s == "h":
            x -= 1
            cols[x] = y
        else:
            y += 1
    total = 0
    for y, row in enumerate(rows):
        for x in range(row):
            arm = row - x - 1
            leg = cols[x] - y - 1
            if m * leg < n * (arm + 1) and (arm == 0 or n * arm <= m * (leg + 1)):
                total += 1
    return total


def test_dinv_armleg_matches_box_loop():
    count = 0
    for params in all_grid_params(16):
        for D in enumerate_paths(params):
            assert dinv_armleg(params, D) == dinv_by_arm_and_leg(params, D), (params, D.steps)
            count += 1
    assert count == 10155


def test_dinv_armleg_matches_box_loop_past_desk_scale():
    for k, params in enumerate([GridParams(1, 1, 40), GridParams(2, 1, 30),
                                GridParams(3, 2, 16)]):
        for D in seeded_paths(params, 40, seed=k):
            assert dinv_armleg(params, D) == dinv_by_arm_and_leg(params, D), (params, D.steps)


def test_dinv_armleg_rejects_a_path_of_another_grid():
    D = parse_path("hvhvvhhhvhvvvvv", P96)
    with pytest.raises(MalformedPath) as err:
        dinv_armleg(GridParams(2, 1, 5), D)
    assert str(err.value) == ("path 'hvhvvhhhvhvvvvv' is on the grid GridParams(n=3, m=2, d=3),"
                              " not GridParams(n=2, m=1, d=5)")


def test_dinv_statistics_agree():
    for params in all_grid_params(11):
        for D in enumerate_paths(params):
            assert dinv_sweep(params, D) == dinv_armleg(params, D)


def test_zeta_image_valid_and_bijective():
    for params in all_grid_params(14):
        paths = enumerate_paths(params)
        images = {zeta(params, D) for D in paths}
        assert len(images) == len(paths)
        for image in images:  # each built trusted: compare with the full checks
            assert (image.steps.count("v"), image.steps.count("h")) == (params.N, params.M)
            full = DyckPath(params, image.steps)
            assert area(params, image) == area(params, full), image.steps


def test_sweep_image_that_is_no_path_is_a_bug(monkeypatch, capsys):
    walk = sweep._dyck_area
    monkeypatch.setattr(sweep, "_dyck_area", lambda params, steps: walk(params, steps[::-1]))
    with pytest.raises(InvariantViolation) as exc:
        zeta(P53, parse_path("hhvhvvvv", P53))
    assert str(exc.value) == ("the sweep image 'hvhvhvvv' of 'hhvhvvvv' is no Dyck path: "
                              "'vvvhvhvh' crosses the diagonal")
    assert isinstance(exc.value.__cause__, AboveDiagonal)
    with pytest.raises(InvariantViolation):  # not printed as a domain error
        cli.main(["sweep", "zeta", "--n", "5", "--m", "3", "--path", "hhvhvvvv"])
    assert capsys.readouterr().err == ""


def test_dinv_bounded_by_subdiagonal_count():
    from ratcat import subdiagonal_box_count
    for params in [P53, P96]:
        total = subdiagonal_box_count(params)
        for D in enumerate_paths(params):
            assert 0 <= dinv_sweep(params, D) <= total
            assert dinv_sweep(params, D) + zeta(params, D).box_count() == total
