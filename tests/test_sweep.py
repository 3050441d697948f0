from ratcat import (
    GridParams,
    dinv_armleg,
    dinv_sweep,
    enumerate_paths,
    parse_path,
    step_ranks,
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


def test_dinv_statistics_agree():
    for params in all_grid_params(11):
        for D in enumerate_paths(params):
            assert dinv_sweep(params, D) == dinv_armleg(params, D)


def test_zeta_image_valid_and_bijective():
    for params in all_grid_params(11):
        paths = enumerate_paths(params)
        image = {zeta(params, D).steps for D in paths}  # constructor validates
        assert len(image) == len(paths)


def test_dinv_bounded_by_subdiagonal_count():
    from ratcat import subdiagonal_box_count
    for params in [P53, P96]:
        total = subdiagonal_box_count(params)
        for D in enumerate_paths(params):
            assert 0 <= dinv_sweep(params, D) <= total
            assert dinv_sweep(params, D) + zeta(params, D).box_count() == total
