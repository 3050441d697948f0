import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from ratcat import (
    C_series,
    F_series,
    FormulaMismatch,
    GridParams,
    InvalidGraph,
    InvariantViolation,
    LimitExceeded,
    QTPoly,
    QTSeries,
    area,
    bizley_count,
    count_equivalence_classes,
    enumerate_invsets_by_gap,
    enumerate_paths,
    fuss_catalan,
    gap,
    invset_from_path_coprime,
    qt_catalan,
    springer_poincare,
)
from ratcat.verify import all_grid_params

P22 = GridParams(1, 1, 2)


def test_qtpoly_arithmetic():
    p = QTPoly({(1, 0): 1, (0, 1): 1})
    q = QTPoly({(0, 0): 1, (1, 0): -1})
    assert (p * q).coeffs == {(1, 0): 1, (0, 1): 1, (2, 0): -1, (1, 1): -1}
    assert (p + p - p) == p
    assert p.swapped() == p and p.is_qt_symmetric()
    assert QTPoly({(2, 0): 1, (0, 0): 3}).truncate_q(1) == QTPoly({(0, 0): 3})
    assert repr(QTPoly({(0, 1): 1, (1, 0): 1})) == "q + t"


def test_qt_catalan_golden():
    assert qt_catalan(P22) == QTPoly({(1, 0): 1, (0, 1): 1})        # q + t
    assert qt_catalan(GridParams(3, 2, 1)) == QTPoly({(1, 0): 1, (0, 1): 1})
    assert qt_catalan(GridParams(1, 1, 1)) == QTPoly({(0, 0): 1})


def test_qt_catalan_symmetry():
    for (n, m) in [(2, 3), (3, 4), (4, 5), (3, 5), (2, 7)]:
        assert qt_catalan(GridParams(n, m, 1)).is_qt_symmetric()


def test_enumerate_invsets_by_gap():
    four = enumerate_invsets_by_gap(P22, 3)
    assert len(four) == 4
    assert sorted(gap(s) for s in four) == [0, 1, 2, 3]
    p53 = GridParams(5, 3, 1)
    assert len(enumerate_invsets_by_gap(p53, p53.delta)) == bizley_count(5, 3, 1)
    assert len(enumerate_invsets_by_gap(P22, 0)) == 1
    # exactly once: distinct generator vectors
    vecs = [s.gen for s in enumerate_invsets_by_gap(GridParams(3, 2, 2), 8)]
    assert len(vecs) == len(set(vecs))


def test_C_series_golden():
    series = C_series(P22, 5)
    assert series.poly == QTPoly({(0, 1): 1, (1, 0): 1, (2, 0): 1,
                                  (3, 0): 1, (4, 0): 1, (5, 0): 1})
    assert C_series(P22, 0).poly == QTPoly({(0, 1): 1})
    p53 = GridParams(5, 3, 1)
    assert C_series(p53, p53.delta).poly == qt_catalan(p53)


def test_F_series_golden():
    assert F_series(2, 3, restricted=True).poly == \
        QTPoly({(0, 1): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})
    assert F_series(1, 2).poly == QTPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1})


def pair_stat(a):
    """Number of pairs i < j with a_i = a_j or a_j = a_i + 1, pair by pair."""
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a))
               if a[i] == a[j] or a[j] == a[i] + 1)


def test_F_series_matches_brute_force():
    from itertools import product
    for n in range(1, 5):
        for restricted in (False, True):
            expected = QTPoly()
            for a in product(range(6), repeat=n):
                if sum(a) <= 5 and (a[-1] == 0 or not restricted):
                    expected.add_term(sum(a), pair_stat(a))
            assert F_series(n, 5, restricted=restricted).poly == expected


def test_tuple_stat_counts_the_pairs():
    import random
    from ratcat.series import _tuple_stat
    rng = random.Random(12)
    for _ in range(2000):
        a = [rng.randrange(6) for _ in range(rng.randint(0, 12))]
        assert _tuple_stat(a) == pair_stat(a), a


def test_F_series_and_fuss_catalan_refuse_past_their_limits():
    from ratcat.series import F_LIMIT, FUSS_LIMIT
    assert F_series(F_LIMIT, 0).poly == QTPoly({(0, F_LIMIT * (F_LIMIT - 1) // 2): 1})
    for n, cutoff in [(F_LIMIT + 1, 0), (1, F_LIMIT), (10**6, 10**6), (30, 30)]:
        with pytest.raises(LimitExceeded, match=rf"^the {n}-tuples through q\^{cutoff} exceed"):
            F_series(n, cutoff)
    # a negative cutoff has no tuples (restricted size 1 once gave the term 1)
    with pytest.raises(ValueError, match=r"^the cutoff must be at least 0, got -1$"):
        F_series(1, -1, restricted=True)
    assert fuss_catalan(FUSS_LIMIT // 2, 1) > 2 ** (FUSS_LIMIT - 30)
    with pytest.raises(LimitExceeded, match=rf"^\(k\+1\)N = {FUSS_LIMIT + 1} exceeds"):
        fuss_catalan(1, FUSS_LIMIT)


def test_subset_count_is_exact_and_C_series_refuses_past_the_limit(monkeypatch):
    from ratcat.series import C_LIMIT, _subset_count
    for (n, m, d) in [(1, 1, 3), (2, 1, 2), (3, 2, 2), (2, 3, 1), (1, 1, 4), (2, 1, 3)]:
        params = GridParams(n, m, d)
        gaps = [gap(s) for s in enumerate_invsets_by_gap(GridParams(n, m, 1), params.delta)]
        for budget in range(9):
            assert _subset_count(gaps, d, budget) == \
                len(enumerate_invsets_by_gap(params, budget)), (params, budget)
    # the work is subsets times N + M: on (1,1,2) the subsets with gap <= c
    # are c + 1 and N + M = 4, so the limit, then one past it
    assert len(enumerate_invsets_by_gap(P22, C_LIMIT // 4 - 1)) == C_LIMIT // 4
    # one subset of d * 2 steps at gap 0 on (1,1,d)
    assert len(enumerate_invsets_by_gap(GridParams(1, 1, C_LIMIT // 2), 0)) == 1
    # on (3,2,2), N + M = 10, the exact count decides: c + 1 subsets is the
    # lower bound, and 10000 at c = 2500 the limit
    assert len(enumerate_invsets_by_gap(GridParams(3, 2, 2), 2500)) == C_LIMIT // 10
    with pytest.raises(LimitExceeded, match=r"^the invariant subsets of the \(6,4\) grid "
                       rf"with gap at most 2501 exceed the limit of {C_LIMIT}"):
        C_series(GridParams(3, 2, 2), 2501)
    for d, cutoff in [(2, C_LIMIT // 4), (9, 40), (10**6, 10**6), (C_LIMIT // 2 + 1, 0),
                      (1000, 1), (10**9, 0)]:
        with pytest.raises(LimitExceeded, match=rf"^the invariant subsets of the \({d},{d}\) "
                           rf"grid with gap at most {cutoff} exceed the limit of {C_LIMIT}"):
            C_series(GridParams(1, 1, d), cutoff)
    # the lower bound needs only d, the cutoff and N + M: one subset of
    # (11,13,4167) is 100008 steps, refused before any coprime path is listed
    import ratcat.series as series
    monkeypatch.setattr(series, "enumerate_paths", None)
    with pytest.raises(LimitExceeded, match=r"^the invariant subsets of the \(45837,54171\) "):
        C_series(GridParams(11, 13, 4167), 0)


def test_a_coprime_gap_is_its_path_area():
    # at d = 1, gap(D^-1(P)) = area(P): series C reads its gap counts off the paths
    checked = 0
    for params in all_grid_params(16):
        if params.d == 1:
            for path in enumerate_paths(params):
                assert gap(invset_from_path_coprime(path)) == area(params, path), path.steps
                checked += 1
    assert checked == 4505


def test_series_C_builds_only_the_components_that_fit(monkeypatch):
    # one subset at cutoff 0: the one coprime component of gap 0 is built,
    # not the 104006 of (11, 13)
    import ratcat.series as series
    built = []
    real = series.invset_from_path_coprime
    monkeypatch.setattr(series, "invset_from_path_coprime",
                        lambda path: built.append(path) or real(path))
    coprime = GridParams(11, 13, 1)
    [delta] = enumerate_invsets_by_gap(GridParams(11, 13, 4166), 0)
    assert built == [D for D in enumerate_paths(coprime) if area(coprime, D) == 0]
    assert gap(delta) == 0
    built.clear()  # 5 of the 7 coprime paths of (5, 3) have area <= 2
    assert len(enumerate_invsets_by_gap(GridParams(5, 3, 2), 2)) == 19
    assert sorted(area(D.params, D) for D in built) == [0, 1, 1, 2, 2]


def test_F_series_cyclic_shift():
    one_minus_q = QTPoly({(0, 0): 1, (1, 0): -1})
    for n in range(1, 5):
        full = F_series(n, 6)
        restricted = F_series(n, 6, restricted=True)
        assert (one_minus_q * full.poly).truncate_q(6) == \
            restricted.poly.truncate_q(6)


def test_EH_comparison():
    for n in (2, 3, 4):
        c = C_series(GridParams(1, 1, n), 6)
        f = F_series(n, 6, restricted=True)
        assert c.agrees_with(f)
        assert isinstance(c, QTSeries)


def test_springer_poincare():
    assert springer_poincare(2, 3) == QTPoly({(0, 0): 1, (0, 2): 1})
    assert springer_poincare(1, 4) == QTPoly({(0, 0): 1})
    poly = springer_poincare(3, 5)
    assert sum(poly.coeffs.values()) == bizley_count(3, 5, 1)
    with pytest.raises(ValueError):
        springer_poincare(2, 4)


def test_springer_poincare_mismatch_names_its_grid(monkeypatch):
    import ratcat.series as series
    monkeypatch.setattr(series, "dinv_sweep", lambda params, path: 0)
    with pytest.raises(FormulaMismatch, match=r"^the two Poincare formulas disagree at \(2,3\)$"):
        springer_poincare(2, 3)


def test_qt_polynomials_stop_at_the_enumeration_limit():
    # N + M = 25, one past the limit that enumerate_paths enforces
    with pytest.raises(LimitExceeded):
        qt_catalan(GridParams(13, 12, 1))
    with pytest.raises(LimitExceeded):
        springer_poincare(13, 12)


def test_fuss_catalan():
    assert fuss_catalan(3, 1) == 5
    assert fuss_catalan(2, 2) == 3
    assert fuss_catalan(3, 2) == 12
    assert fuss_catalan(2, 1) == 2


def test_class_counts():
    cases = {(1, 1, 2): 2, (2, 1, 2): 3, (1, 2, 2): 3, (1, 1, 3): 5,
             (1, 1, 5): 42, (3, 2, 3): 377, (2, 3, 3): 377, (5, 2, 2): 76,
             (2, 1, 5): 273, (3, 2, 4): 7229}
    for (n, m, d), expected in cases.items():
        params = GridParams(n, m, d)
        assert count_equivalence_classes(params) == expected
        assert expected == bizley_count(n, m, d)
    start = time.perf_counter()  # 296 010 subsets would take seconds
    assert count_equivalence_classes(GridParams(1, 1, 7)) == 429
    assert time.perf_counter() - start < 0.5
    assert fuss_catalan(2, 2) == count_equivalence_classes(GridParams(1, 2, 2))


def test_forged_census_data_is_an_invariant_violation(monkeypatch):
    import ratcat.equiv as equiv
    import ratcat.series as series
    real = series._reverse_search  # forged to put every vertex on level 0
    with monkeypatch.context() as mp:
        mp.setattr(series, "_reverse_search", lambda params: (
            (labels, (0,) * len(labels)) for labels, _ in real(params)))
        with pytest.raises(InvariantViolation) as exc:
            count_equivalence_classes(P22)
    assert str(exc.value) == ("census graph (labels ((-1, 0), (0, 1)), levels (0, 0)) is invalid: "
                              "level-0 vertices [0, 1], expected exactly one")
    assert isinstance(exc.value.__cause__, InvalidGraph)
    # a forged certificate: minimal_representative's fault, named with the graph
    monkeypatch.setattr(equiv, "_shifting_fault", lambda values, p: "forged")
    with pytest.raises(InvariantViolation) as exc:
        count_equivalence_classes(P22)
    assert str(exc.value) == ("census graph (labels ((-1, 0), (0, 1)), levels (0, 1)) is invalid: "
                              "the shifting (0, 0) that the levels of ((-1, 0), (0, 1)) predict "
                              "is not minimal: forged")
    assert isinstance(exc.value.__cause__, InvariantViolation)


def test_forged_census_data_raises_under_optimize():
    # under -O the trailing assert is stripped, which shows -O is in effect
    script = textwrap.dedent("""
        import ratcat.equiv as equiv
        import ratcat.series as series
        from ratcat import GridParams, InvariantViolation
        real = series._reverse_search
        series._reverse_search = lambda params: (
            (labels, (0,) * len(labels)) for labels, _ in real(params))
        try:
            print("count", series.count_equivalence_classes(GridParams(1, 1, 3)))
        except InvariantViolation as exc:
            print("raised", "levels (0, 0, 0)" in str(exc))
        series._reverse_search = real
        equiv._shifting_fault = lambda values, p: "forged"
        try:
            print("count", series.count_equivalence_classes(GridParams(1, 1, 3)))
        except InvariantViolation as exc:
            print("raised", str(exc).endswith("is not minimal: forged"))
        assert False
        print("optimized")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["raised", "True", "raised", "True", "optimized"]
