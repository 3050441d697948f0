from math import gcd

import pytest

import ratcat.invset
from ratcat import (
    DomainError,
    EmptyInput,
    GridParams,
    InvalidSkeleton,
    InvariantViolation,
    NoIntersection,
    NotCoprimeCase,
    NotNormalized,
    area,
    cli,
    cogenerators_m,
    core_partition,
    d_quotient,
    decompose,
    dinv_invset,
    enumerate_paths,
    gap,
    gaps,
    generators_n,
    invset_from_generators,
    invset_from_path_coprime,
    invset_from_skeleton,
    map_D_coprime,
    map_G,
    skeleton,
    zeta,
)
from ratcat.invset import InvariantSet, Skeleton
from ratcat.verify import all_grid_params

from graph_oracles import box_rank, invset_from_core, natural_numbers, semigroup

P53 = GridParams(5, 3, 1)
P64 = GridParams(3, 2, 2)
P22 = GridParams(1, 1, 2)


def exzeta_delta():
    return invset_from_generators(P53, [0, 7])


def delta1_64():
    # {0,4,6,8,9,10,12,13,14,...} as a (6,4)-invariant subset
    return invset_from_generators(P64, [0, 13, 8, 9, 4, 17])


def delta2_64():
    return invset_from_generators(P64, [0, 19, 8, 15, 4, 11])


def test_from_generators_golden():
    gamma = semigroup(P53)
    assert gaps(gamma) == [1, 2, 4, 7]
    assert gap(gamma) == 4 == P53.delta
    delta = exzeta_delta()
    assert [delta.contains(x) for x in range(9)] == \
        [True, False, False, True, False, True, True, True, True]
    assert natural_numbers(GridParams(1, 1, 1)).gen == (0,)


def test_from_generators_errors():
    with pytest.raises(EmptyInput):
        invset_from_generators(P53, [])
    with pytest.raises(EmptyInput):
        invset_from_generators(P22, [0])  # odd class never reached


def test_membership_closure():
    for delta in [exzeta_delta(), delta1_64(), invset_from_generators(P64, [0, 1])]:
        N, M = delta.params.N, delta.params.M
        for x in range(-2 * N, 4 * N):
            if delta.contains(x):
                assert delta.contains(x + N) and delta.contains(x + M)


def test_generators_cogenerators_golden():
    delta = exzeta_delta()
    assert generators_n(delta) == [0, 3, 6, 7, 9]
    assert cogenerators_m(delta) == [-3, 2, 4]
    assert generators_n(semigroup(P53)) == [0, 3, 6, 9, 12]
    p11 = GridParams(1, 1, 1)
    assert generators_n(natural_numbers(p11)) == [0]
    assert cogenerators_m(natural_numbers(p11)) == [-1]


def test_skeleton_golden():
    assert skeleton(delta1_64()).sorted_values == (-4, 0, 2, 4, 5, 8, 9, 11, 13, 17)
    sk = skeleton(exzeta_delta())
    assert sk.sorted_values == (-3, 0, 2, 3, 4, 6, 7, 9)
    assert sk.step_pattern() == "hvhvhvvv"


def test_skeleton_reconstruction():
    for delta in [exzeta_delta(), delta1_64(), delta2_64(),
                  invset_from_generators(P64, [0, 1]),
                  natural_numbers(P22).shifted(3)]:
        rebuilt = invset_from_skeleton(delta.params, skeleton(delta).sorted_values)
        assert rebuilt.gen == delta.gen


def test_skeleton_membership_lemma():
    # x is a skeleton value iff x+M is in Delta and x-N is not
    for delta in [exzeta_delta(), delta1_64(), semigroup(P53)]:
        N, M = delta.params.N, delta.params.M
        values = set(skeleton(delta).sorted_values)
        for x in range(min(values) - N - M, max(values) + N + M):
            in_skel = delta.contains(x + M) and not delta.contains(x - N)
            assert (x in values) == in_skel


def test_map_D_coprime_golden():
    assert map_D_coprime(exzeta_delta()).steps == "hhvhvvvv"
    assert map_D_coprime(semigroup(P53)).steps == "hhh" + "vvvvv"
    full = map_D_coprime(natural_numbers(P53))
    assert full.box_count() == P53.delta  # full diagram
    with pytest.raises(NotCoprimeCase):
        map_D_coprime(delta1_64())
    with pytest.raises(NotNormalized):
        map_D_coprime(exzeta_delta().shifted(5))


def test_coprime_bijection_roundtrip():
    from math import gcd
    for n in range(1, 7):
        for m in range(1, 8 - n):
            if gcd(n, m) != 1:
                continue
            params = GridParams(n, m, 1)
            for D in enumerate_paths(params):
                delta = invset_from_path_coprime(D)
                assert map_D_coprime(delta).steps == D.steps
                assert gap(delta) == area(params, D)


def _reference_invset_from_path(path):
    """The box scan: the ranks of sub-diagonal boxes outside the diagram
    are exactly the non-negative integers missing from Delta."""
    p = path.params
    rows = path.row_lengths()
    missing = set()
    for y in range(p.N):
        for x in range(rows[y], p.M):
            r = box_rank(p, x, y)
            if r >= 0:
                missing.add(r)
    gen = []
    for c in range(p.N):
        x = c
        while x in missing:
            x += p.N
        gen.append(x)
    return InvariantSet(p, tuple(gen))


def test_invset_from_path_matches_box_scan():
    checked = 0
    for n, m in [(n, m) for n in range(1, 16) for m in range(1, 17 - n) if gcd(n, m) == 1]:
        for D in enumerate_paths(GridParams(n, m, 1)):
            assert invset_from_path_coprime(D) == _reference_invset_from_path(D), D.steps
            checked += 1
    assert checked == 4505
    with pytest.raises(NotCoprimeCase):
        invset_from_path_coprime(map_G(delta1_64()))


def test_invset_from_path_forged_ranks_are_a_bug(monkeypatch):
    D = map_D_coprime(exzeta_delta())
    monkeypatch.setattr(ratcat.invset, "step_ranks", lambda params, path: [0] * 8)
    with pytest.raises(InvariantViolation, match="^ranks of 'hhvhvvvv' are no skeleton: ") as exc:
        invset_from_path_coprime(D)
    assert not isinstance(exc.value, DomainError)
    assert isinstance(exc.value.__cause__, InvalidSkeleton)


def _reference_map_D(delta):
    """The box definition: row y of the diagram holds the boxes (x, y),
    x < m, whose rank lies in Delta, and the rows close at x = 0."""
    p = delta.params
    steps, x = [], p.M
    for y in range(p.N):
        row = sum(1 for b in range(p.m) if delta.contains(box_rank(p, b, y)))
        steps.append("h" * (x - row) + "v")
        x = row
    assert x == 0, delta.gen
    return "".join(steps)


def test_map_D_matches_box_definition():
    # Delta from the box scan, so neither side reads it off a skeleton
    checked = 0
    for params in all_grid_params(14):
        if params.d != 1:
            continue
        for D in enumerate_paths(params):
            delta = _reference_invset_from_path(D)
            assert map_D_coprime(delta).steps == _reference_map_D(delta) == D.steps
            checked += 1
    assert checked == 1401


def test_failed_skeleton_walk_is_a_bug(monkeypatch):
    # a skeleton without -m gives the walk no start point
    delta = exzeta_delta()
    forged = Skeleton(P53, tuple(x + 1 for x in skeleton(delta).sorted_values))
    monkeypatch.setattr(ratcat.invset, "skeleton", lambda delta: forged)
    with pytest.raises(InvariantViolation, match=r"^the skeleton walk of \(0, 6, 7, 3, 9\) "
                       "fails: no point of rank -3 is on the path$") as exc:
        map_D_coprime(delta)
    assert isinstance(exc.value.__cause__, NoIntersection)


@pytest.mark.parametrize("forge, cause, message", [
    (lambda pattern: pattern[::-1], "AboveDiagonal", "'vvvhvhvh' crosses the diagonal"),
    (lambda pattern: pattern[1:], "MalformedPath", "expected 8 steps, got 7"),
])
def test_map_G_pattern_that_is_no_path_is_a_bug(monkeypatch, forge, cause, message):
    pattern = Skeleton.step_pattern
    monkeypatch.setattr(Skeleton, "step_pattern", lambda self: forge(pattern(self)))
    bad = forge("hvhvhvvv")
    with pytest.raises(InvariantViolation) as exc:
        map_G(exzeta_delta())
    assert str(exc.value) == (f"the skeleton pattern {bad!r} of (0, 6, 7, 3, 9) "
                              f"is no Dyck path: {message}")
    assert type(exc.value.__cause__).__name__ == cause
    with pytest.raises(InvariantViolation):  # not printed as a domain error
        cli.main(["invset", "info", "--n", "5", "--m", "3", "--generators", "0,6,7,3,9"])


def test_map_G_golden():
    assert map_G(exzeta_delta()).steps == "hvhvhvvv"
    gamma = semigroup(P53)
    assert map_G(gamma).steps == zeta(P53, map_D_coprime(gamma)).steps


def test_dinv_invset_22():
    # the k-indexed family of (2,2)-invariant subsets
    def delta_k(k):
        return InvariantSet(P22, (0, 2 * k + 1))
    assert dinv_invset(delta_k(0)) == 1
    for k in range(1, 6):
        assert dinv_invset(delta_k(k)) == 0
        assert gap(delta_k(k)) == k


def test_dinv_invset_square_formula():
    # dinv = C(n,2) - #{(i,j): y_j > x_i} when M = N
    from itertools import product
    from math import comb
    from ratcat import enumerate_invsets_by_gap
    for n in (2, 3, 4):
        params = GridParams(1, 1, n)
        for delta in enumerate_invsets_by_gap(params, 6):
            xs = list(delta.gen)
            ys = [x - n for x in xs]
            pairs = sum(1 for i, j in product(range(n), repeat=2) if ys[j] > xs[i])
            assert dinv_invset(delta) == comb(n, 2) - pairs


def test_dinv_invset_is_complementary_box_count():
    # dinv = (sub-diagonal boxes) - |G(Delta)| = area(G(Delta))
    from ratcat import enumerate_invsets_by_gap, subdiagonal_box_count
    for params in [P53, P64, P22]:
        total = subdiagonal_box_count(params)
        for delta in enumerate_invsets_by_gap(params, 5):
            image = map_G(delta)
            assert dinv_invset(delta) == total - image.box_count()
            assert dinv_invset(delta) == area(params, image)


def test_gap_golden():
    assert gap(exzeta_delta()) == 3
    assert gaps(exzeta_delta()) == [1, 2, 4]
    rep = invset_from_skeleton(
        GridParams(3, 2, 4),
        [-8, 0, 4, 8, 16, 17, 25, 29, 33, 41, -6, -2, 2, 6, 10,
         19, 23, 27, 31, 35])
    assert gap(rep) == 14


def test_decompose_golden():
    comps = decompose(delta1_64())
    even = comps[0]
    assert even.residue == 0 and even.shift == 0
    assert generators_n(even.part) == [0, 2, 4]
    assert cogenerators_m(even.part) == [-2, 1]
    # d = 1 decomposition is trivial
    one = decompose(exzeta_delta())
    assert len(one) == 1 and one[0].shift == 0
    assert one[0].part.gen == exzeta_delta().gen


def test_decompose_gap_additivity_and_reconstruction():
    for delta in [delta1_64(), delta2_64(), natural_numbers(P64),
                  natural_numbers(P22)]:
        comps = decompose(delta)
        assert gap(delta) == sum(c.shift + gap(c.part) for c in comps)
        d = delta.params.d
        for x in range(0, 4 * delta.params.N):
            r = x % d
            part = comps[r]
            assert delta.contains(x) == part.part.contains(
                (x - r) // d - part.shift)


def test_core_partition_roundtrip_and_hooks():
    for params in [P53, GridParams(2, 3, 1), P64, P22]:
        seen = 0
        for delta in _normalized_sets(params, 6):
            lam = core_partition(delta)
            hooks = lam.hook_lengths()
            assert params.N not in hooks and params.M not in hooks
            back = invset_from_core(params, lam)
            assert back.gen == delta.gen
            seen += 1
        assert seen >= 2


def _normalized_sets(params, budget):
    from ratcat import enumerate_invsets_by_gap
    return enumerate_invsets_by_gap(params, budget)


def test_core_partition_golden():
    assert core_partition(natural_numbers(P53)).parts == ()
    assert core_partition(semigroup(P53)).parts == (4, 2, 1, 1)
    lam = core_partition(exzeta_delta())
    assert lam.first_column_hooks() == [4, 2, 1]
    with pytest.raises(NotNormalized):
        core_partition(exzeta_delta().shifted(5))


def test_d_quotient_matches_decomposition():
    for delta in [delta1_64(), delta2_64()] + list(_normalized_sets(P22, 4)):
        d = delta.params.d
        lam = core_partition(delta)
        quots = d_quotient(lam, d)
        comps = decompose(delta)
        assert [q.parts for q in quots] == \
            [core_partition(c.part).parts for c in comps]
