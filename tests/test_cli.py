import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ratcat import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sweep_zeta(capsys):
    code, out, _ = run(capsys, "sweep", "zeta", "--n", "5", "--m", "3",
                       "--d", "1", "--path", "hhvhvvvv")
    assert code == 0
    assert out.strip() == "hvhvhvvv"


def test_count_fuss(capsys):
    code, out, _ = run(capsys, "count", "fuss", "--N", "2", "--k", "2")
    assert code == 0 and out.strip() == "3"


F_OVER = "error: the {}-tuples through q^{} exceed the limit of 200000 tuple entries\n"
FUSS_OVER = "error: (k+1)N = {} exceeds the limit 10000\n"
C_OVER = ("error: the invariant subsets of the ({0},{0}) grid with gap at most {1} exceed "
          "the limit of 100000 G-image steps (subsets times N+M)\n")


@pytest.mark.parametrize("argv, out, err", [
    # series F: n times C(cutoff + free, free) tuple entries, at most 200000
    (("series", "F", "--size", "1", "--cutoff", "199999"), "exact through q^199999: 1 + q + ", ""),
    (("series", "F", "--size", "200000", "--cutoff", "0"), "exact through q^0: t^19999900000\n",
     ""),
    (("series", "F", "--size", "1", "--restricted", "--cutoff", "1000000"),
     "exact through q^1000000: 1\n", ""),
    (("series", "F", "--size", "1", "--cutoff", "200000"), "", F_OVER.format(1, 200000)),
    (("series", "F", "--size", "200001", "--cutoff", "0"), "", F_OVER.format(200001, 0)),
    (("series", "F", "--cutoff", "1000000"), "", F_OVER.format(2, 1000000)),
    (("series", "F", "--size", "1000000", "--cutoff", "0"), "", F_OVER.format(1000000, 0)),
    (("series", "F", "--size", "1000000", "--cutoff", "1000000"), "",
     F_OVER.format(1000000, 1000000)),
    (("series", "F", "--size", "12", "--cutoff", "30"), "", F_OVER.format(12, 30)),
    # count fuss: the result has fewer than (k+1)N <= 10000 bits
    (("count", "fuss", "--N", "1", "--k", "9999"), "1\n", ""),
    (("count", "fuss", "--N", "5000", "--k", "1"), "31829439382772224521847575957638", ""),
    (("count", "fuss", "--N", "1", "--k", "10000"), "", FUSS_OVER.format(10001)),
    (("count", "fuss", "--N", "1000000"), "", FUSS_OVER.format(2000000)),
    (("count", "fuss", "--N", "1", "--k", "1000000"), "", FUSS_OVER.format(1000001)),
    (("count", "fuss", "--N", "100000", "--k", "100000"), "", FUSS_OVER.format(10000100000)),
    # series C: subsets times N+M G-image steps, at most 100000; at d = 2 on
    # (1,1) the subsets with gap <= c are c + 1, and N+M = 4
    (("series", "C", "--d", "2", "--cutoff", "24999"), "exact through q^24999: q + t + q^2", ""),
    (("series", "C", "--d", "2", "--cutoff", "25000"), "", C_OVER.format(2, 25000)),
    (("series", "C", "--d", "9", "--cutoff", "40"), "", C_OVER.format(9, 40)),
    (("series", "C", "--d", "2", "--cutoff", "1000000"), "", C_OVER.format(2, 1000000)),
    (("series", "C", "--d", "1000000", "--cutoff", "1000000"), "",
     C_OVER.format(1000000, 1000000)),
    # at a large d one subset is d * (n+m) steps: (1,1,50000) at gap 0 is the limit
    (("series", "C", "--d", "100000", "--cutoff", "0"), "", C_OVER.format(100000, 0)),
    (("series", "C", "--d", "1000", "--cutoff", "1"), "", C_OVER.format(1000, 1)),
    (("series", "C", "--d", "50000", "--cutoff", "0"), "exact through q^0: t^1249975000\n", ""),
    # one subset of (11,13,4167) is 100008 steps: refused before the 104006
    # coprime subsets of (11,13) are built.  Rows from here on take an id that
    # names their command, so re-pinning an expected text renames no test.
    pytest.param(("series", "C", "--n", "11", "--m", "13", "--d", "4167", "--cutoff", "0"), "",
                 "error: the invariant subsets of the (45837,54171) grid with gap at most 0 "
                 "exceed the limit of 100000 G-image steps (subsets times N+M)\n",
                 id="C-n11-m13-d4167-cutoff0"),
])
def test_bounded_work_at_and_past_the_limit(capsys, argv, out, err):
    # each run ends in well under 5 s: an answer at the limit, exit 1 past it
    start = time.perf_counter()
    code, got_out, got_err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (code, got_err) == ((1, err) if err else (0, ""))
    assert got_out.startswith(out) and (got_out == "") == (out == "")


def test_count_bizley(capsys):
    code, out, _ = run(capsys, "count", "bizley", "--n", "1", "--m", "1", "--d", "3")
    assert code == 0 and out.strip() == "5"


def test_paths_enumerate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "paths", "enumerate", "--n", "2", "--m", "1",
                       "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [p["steps"] for p in payload] == ["hhvvvv", "hvhvvv", "hvvhvv"]
    assert all(p["n"] == 2 and p["m"] == 1 and p["d"] == 2 for p in payload)


def test_paths_count_only(capsys):
    code, out, _ = run(capsys, "paths", "enumerate", "--n", "1", "--m", "1",
                       "--d", "4", "--count-only")
    assert code == 0 and out.strip() == "14"


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--n", "3", "--m", "2", "--d", "3",
                       "--path", "hvhvvhhhvhvvvvv", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["area"] == 7
    assert payload["dinv"] == payload["dinv_armleg"] == 7
    assert payload["step_ranks"][:3] == [-2, 1, -1]


def test_invset_info_json(capsys):
    code, out, _ = run(capsys, "invset", "info", "--n", "5", "--m", "3",
                       "--generators", "0,7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [0, 3, 6, 7, 9]
    assert payload["cogenerators"] == [-3, 2, 4]
    assert payload["gap"] == 3
    assert payload["g_image"] == "hvhvhvvv"
    assert payload["core"] == [2, 1, 1]
    assert [e["value"] for e in payload["skeleton"]] == [-3, 0, 2, 3, 4, 6, 7, 9]


def test_invset_info_negative_first_generator(capsys):
    # argparse reads a separate value that starts with "-" as a flag, so the
    # help names the attached form, which takes any integers
    with pytest.raises(SystemExit):
        cli.main(["invset", "info", "--help"])
    assert "--generators=-5,0" in " ".join(capsys.readouterr().out.split())
    code, out, _ = run(capsys, "invset", "info", "--n", "1", "--m", "1", "--d", "2",
                       "--generators=-5,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [-5, 0]
    assert [c["shift"] for c in payload["decomposition"]] == [0, -3]


G, C = "generator", "cogenerator"


@pytest.mark.parametrize("argv, entries", [
    (("--n", "5", "--m", "3", "--generators", "0,7"),
     [(-3, C, 0), (0, G, 0), (2, C, 0), (3, G, 0), (4, C, 0), (6, G, 0), (7, G, 0),
      (9, G, 0)]),
    (("--n", "3", "--m", "2", "--d", "2", "--generators", "0,5,7"),
     [(-4, C, 0), (0, G, 0), (1, C, 1), (2, C, 0), (3, C, 1), (4, G, 0), (5, G, 1),
      (7, G, 1), (8, G, 0), (9, G, 1)]),
])
def test_invset_info_skeleton_entries(capsys, argv, entries):
    # every entry in full: value, kind and residue mod d
    code, out, _ = run(capsys, "invset", "info", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["skeleton"] == [
        {"value": v, "kind": k, "residue": r} for v, k, r in entries]


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--n", "3", "--m", "2", "--d", "4",
                       "--path", "hvhvvhhhvhvvhhvvvvvv", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_gap"] == 14
    assert payload["graph"]["levels"] == [0, 1, 1, 2]
    assert len(payload["graph"]["labels"]) == 4


def test_color_json(capsys):
    code, out, _ = run(capsys, "color", "--n", "1", "--m", "1", "--d", "2",
                       "--path", "hhvv", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["colors"] == [0, 1, 1, 0]
    assert [c["steps"] for c in payload["components"]] == ["hv", "hv"]


def test_series_and_poly(capsys):
    code, out, _ = run(capsys, "series", "C", "--n", "1", "--m", "1",
                       "--d", "2", "--cutoff", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q_cutoff"] == 4
    assert {"q": 0, "t": 1, "c": 1} in payload["terms"]
    code, out, _ = run(capsys, "poly", "catalan", "--n", "3", "--m", "2")
    assert code == 0 and out.strip() == "q + t"
    code, out, _ = run(capsys, "series", "F", "--size", "2", "--cutoff", "3",
                       "--restricted")
    assert code == 0 and "t" in out


@pytest.mark.parametrize("argv, expected", [
    (("stats", "--n", "3", "--m", "2", "--d", "3", "--path", "hvhvvhhhvhvvvvv"),
     "area        7\n"
     "dinv        7\n"
     "dinv'       7\n"
     "step ranks  -2 1 -1 2 0 -2 1 4 7 5 8 6 4 2 0\n"),
    (("invset", "info", "--n", "1", "--m", "1", "--d", "2", "--generators", "0,3"),
     "generators    [0, 3]\n"
     "cogenerators  [-2, 1]\n"
     "skeleton      [-2, 0, 1, 3]\n"
     "gap           1\n"
     "dinv          0\n"
     "G image       hvhv\n"
     "residue 0  shift 0  generators [0]\n"
     "residue 1  shift 1  generators [0]\n"
     "core          [1]\n"),
    (("classify", "--n", "3", "--m", "2", "--d", "4", "--path", "hvhvvhhhvhvvhhvvvvvv"),
     'graph      {"labels":[[-2,0,1,2,4],[4,6,7,8,10],[-2,-1,0,1,2],[4,5,6,7,8]],'
     '"levels":[0,1,1,2]}\n'
     'canonical  {"labels":[[-2,-1,0,1,2],[-2,0,1,2,4],[4,5,6,7,8],[4,6,7,8,10]],'
     '"levels":[1,0,2,1]}\n'
     "min rep    [0, 2, 6, 8, 10, 16, 25, 27, 31, 33, 35, 41]\n"
     "min gap    14\n"),
    (("color", "--n", "3", "--m", "2", "--d", "2", "--path", "hvhvvhhvvv"),
     "steps   hvhvvhhvvv\n"
     "colors  1111100000\n"
     "color 0  hhvvv\n"
     "color 1  hvhvv\n"),
    (("series", "C", "--n", "1", "--m", "1", "--d", "2", "--cutoff", "4"),
     "exact through q^4: q + t + q^2 + q^3 + q^4\n"),
    (("series", "F", "--size", "2", "--cutoff", "3", "--restricted"),
     "exact through q^3: q + t + q^2 + q^3\n"),
    (("paths", "enumerate", "--n", "2", "--m", "1", "--d", "2"),
     "hhvvvv\nhvhvvv\nhvvhvv\n"),
])
def test_human_output_golden(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected


@pytest.mark.parametrize("argv, answer", [
    (("series", "F", "--size", "2000", "--cutoff", "0"), "t^1999000"),
    (("series", "C", "--n", "1", "--m", "1", "--d", "1500", "--cutoff", "0"), "t^1124250"),
])
def test_series_deeper_than_the_recursion_limit(capsys, argv, answer):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == f"exact through q^0: {answer}\n"


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "golden-zeta")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_suite_that_raises_fails(capsys, monkeypatch):
    from ratcat import InvariantViolation, verify

    def broken(max_size=None):
        raise InvariantViolation("'vhv' crosses the diagonal")

    monkeypatch.setitem(verify.SUITES, "coloring", broken)
    code, out, err = run(capsys, "verify", "--suite", "coloring")
    assert code == 2 and err == ""
    assert out == "FAIL coloring: raised InvariantViolation: 'vhv' crosses the diagonal\n"
    # 'all' reports the failure and still runs the other suites
    monkeypatch.setattr(verify, "SUITES", {
        "golden-zeta": verify.SUITES["golden-zeta"], "coloring": broken})
    ok, lines = verify.run_suite("all")
    assert not ok
    assert lines == ["PASS zeta golden (5,3): hhvhvvvv -> hvhvhvvv",
                     "PASS zeta golden (9,6): hvhvvhhhvhvvvvv -> hhhvvhvvvvhhvvv",
                     "FAIL coloring: raised InvariantViolation: "
                     "'vhv' crosses the diagonal"]


@pytest.mark.parametrize("path, distinct_labels, min_gap", [
    ("hhhhhhhhhvvvvvvvvv", 9, 36),  # a chain of nine labels
    ("hvhvhvhvhvhvhvhvhv", 1, 0),  # nine equal labels
])
def test_classify_nine_vertices(capsys, path, distinct_labels, min_gap):
    code, out, err = run(capsys, "classify", "--n", "1", "--m", "1", "--d", "9",
                         "--path", path, "--format", "json")
    assert code == 0 and err == ""
    labels = json.loads(out)["graph"]["labels"]
    assert len(labels) == 9 and len(set(map(tuple, labels))) == distinct_labels
    assert json.loads(out)["min_gap"] == min_gap


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "sweep", "zeta", "--n", "5", "--m", "3",
                       "--d", "1", "--path", "vvvvvhhh")
    assert code == 1
    assert "error" in err


def test_non_coprime_rejected(capsys):
    code, _, err = run(capsys, "paths", "enumerate", "--n", "2", "--m", "4",
                       "--d", "1")
    assert code == 1 and "coprime" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["paths", "enumerate"])
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "classify", "--n", "3", "--m", "2", "--d", "2",
                "--path", "hvhvvhhvvv", "--format", "json")
    second = run(capsys, "classify", "--n", "3", "--m", "2", "--d", "2",
                 "--path", "hvhvvhhvvv", "--format", "json")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("sweep", "zeta", "--n", "1", "--m", "1", "--d", "0", "--path="),
    ("stats", "--n", "1", "--m", "1", "--d", "0", "--path="),
    ("invset", "info", "--n", "1", "--m", "1", "--d", "0", "--generators", "0"),
    ("series", "C", "--n", "1", "--m", "1", "--d", "0", "--cutoff", "3"),
    ("count", "bizley", "--n", "1", "--m", "1", "--d", "0"),
    ("paths", "enumerate", "--n", "1", "--m", "1", "--d", "-1"),
])
def test_nonpositive_d_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: d must be at least 1, got {argv[argv.index('--d') + 1]}\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "--suite", "round-trips", "--max-size", "1"),
     "max_size must be at least 2, got 1"),
    (("verify", "--suite", "all", "--max-size", "0"),
     "max_size must be at least 2, got 0"),
    (("series", "F", "--size", "2", "--cutoff", "-1"),
     "--cutoff must be at least 0, got -1"),
    (("series", "C", "--n", "1", "--m", "1", "--d", "2", "--cutoff", "-3"),
     "--cutoff must be at least 0, got -3"),
])
def test_empty_ranges_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("poly", "springer", "--n", "3", "--m", "5", "--d", "2"),
     "the Springer polynomial needs --d 1, got 2"),
])
def test_ignored_flags_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("series", "F", "--size", "2", "--cutoff", "2", "--n", "5", "--m", "3", "--d", "4"),
    ("series", "C", "--n", "1", "--m", "1", "--d", "2", "--cutoff", "3", "--size", "2"),
    ("count", "fuss", "--N", "2", "--k", "2", "--n", "4", "--m", "2"),
    ("count", "bizley", "--n", "1", "--m", "1", "--d", "3", "--N", "2", "--k", "2"),
    ("series", "C", "--n", "1", "--m", "1", "--d", "2", "--cutoff", "3", "--restricted"),
])
def test_flags_of_another_kind_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_failing_check_names_its_path(monkeypatch):
    from ratcat import verify

    real = verify.dinv_armleg
    monkeypatch.setattr(verify, "dinv_armleg", lambda params, path:
                        real(params, path) + (path.steps == "hhvvhv"))
    ok, lines = verify.run_suite("dinv-agreement", 6)
    assert not ok
    assert lines == [
        "FAIL dinv = dinv' on Y_(3,3): fails at hhvvhv" if (p.N, p.M) == (3, 3)
        else f"PASS dinv = dinv' on Y_({p.N},{p.M})"
        for p in verify.all_grid_params(6)]


def test_poincare_mismatch_names_its_grid(monkeypatch):
    from ratcat import FormulaMismatch, verify

    real = verify.springer_poincare

    def broken(n, m):  # the message springer_poincare gives on a mismatch
        if (n, m) == (2, 3):
            raise FormulaMismatch("the two Poincare formulas disagree at (2,3)")
        return real(n, m)

    monkeypatch.setattr(verify, "springer_poincare", broken)
    ok, lines = verify.run_suite("coprime-structure", 6)
    assert not ok
    assert lines[-1] == ("FAIL Poincare formulas agree for all n+m <= 6: "
                         "the two Poincare formulas disagree at (2,3)")
    assert all(line.startswith("PASS qt-Catalan") for line in lines[:-1])
    assert "PASS qt-Catalan (2,3) q<->t symmetric" in lines


def test_round_trip_checks_fail_independently(monkeypatch):
    from ratcat import verify

    real, calls = verify.canonical_form, []

    def first_call_differs(graph):  # breaks one canonical-form comparison only
        calls.append(graph)
        return real(graph) + (b"!" if len(calls) == 1 else b"")

    monkeypatch.setattr(verify, "canonical_form", first_call_differs)
    ok, lines = verify.run_suite("round-trips", 3)
    assert not ok
    assert lines == ["PASS B o B^-1 = id on Y_(1,1)",
                     "FAIL B^-1 o B canonical-equal on graphs of Y_(1,1): fails at hv",
                     "PASS B o B^-1 = id on Y_(1,2)",
                     "PASS B^-1 o B canonical-equal on graphs of Y_(1,2)",
                     "PASS B o B^-1 = id on Y_(2,1)",
                     "PASS B^-1 o B canonical-equal on graphs of Y_(2,1)"]


def test_failing_class_names_its_canonical_form(monkeypatch):
    from ratcat import GridParams, canonical_form, parse_path, unglue, verify

    real = verify.area
    monkeypatch.setattr(verify, "area", lambda params, path:
                        real(params, path) + (path.steps == "hvhvvv"))
    ok, lines = verify.run_suite("area-min-gap")
    assert not ok
    form = canonical_form(unglue(parse_path("hvhvvv", GridParams(2, 1, 2)))[0]).decode()
    assert lines[1] == f"FAIL area(D(class)) = min gap over (4,2) classes: fails at class {form}"
    assert lines[:1] + lines[2:] == [
        "PASS area(D(class)) = min gap over (2,2) classes: 2 classes",
        "PASS area(D(class)) = min gap over (2,4) classes: 3 classes",
        "PASS area(D(class)) = min gap over (3,3) classes: 5 classes",
        "PASS area(D(class)) = min gap over (6,4) classes: 23 classes"]


@pytest.mark.parametrize("suite", [
    "golden-zeta", "worked-12-8", "area-min-gap", "series", "conjecture-probe"])
def test_unsized_suite_rejects_max_size(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-size", "3")
    assert code == 1 and out == ""
    assert err == f"error: suite {suite} takes no max_size\n"


def test_all_passes_max_size_to_sized_suites_only(monkeypatch):
    from ratcat import verify

    def sized(max_size=14):
        yield f"sized {max_size}", True, ""

    def unsized():
        yield "unsized", True, ""

    monkeypatch.setattr(verify, "SUITES", {"sized": sized, "unsized": unsized})
    assert verify.run_suite("all", 3) == (True, ["PASS sized 3", "PASS unsized"])
    assert verify.run_suite("all") == (True, ["PASS sized 14", "PASS unsized"])


@pytest.mark.parametrize("suite", ["all", "round-trips"])
def test_verify_max_size_above_the_enumeration_limit_is_rejected(capsys, monkeypatch, suite):
    from ratcat import verify
    from ratcat.lattice import ENUM_LIMIT

    ran = []

    def sized(max_size=14):
        ran.append(max_size)
        yield f"sized {max_size}", True, ""

    monkeypatch.setattr(verify, "SUITES", {"round-trips": sized})
    code, out, err = run(capsys, "verify", "--suite", suite,
                         "--max-size", str(ENUM_LIMIT + 1))
    assert (code, out, ran) == (1, "", [])
    assert err == (f"error: max_size must be at most the enumeration limit {ENUM_LIMIT}, "
                   f"got {ENUM_LIMIT + 1}\n")
    assert verify.run_suite(suite, ENUM_LIMIT) == (True, [f"PASS sized {ENUM_LIMIT}"])


def test_verify_smallest_max_size_checks_a_grid(capsys):
    from ratcat import verify

    with pytest.raises(ValueError, match="max_size must be at least 2, got 1"):
        verify.run_suite("coloring", 1)
    code, out, _ = run(capsys, "verify", "--suite", "round-trips", "--max-size", "2")
    assert code == 0
    assert out.splitlines() == ["PASS B o B^-1 = id on Y_(1,1)",
                                "PASS B^-1 o B canonical-equal on graphs of Y_(1,1)"]


def _src_env():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "ratcat", "count", "bizley", "--n", "1", "--m", "1",
         "--d", "3"], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"


@pytest.mark.parametrize("argv", [["verify", "--suite", "all", "--max-size", "4"],
                                  ["paths", "enumerate", "--n", "1", "--m", "1", "--d", "8"]])
def test_closed_stdout_ends_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has left before the first line is written
    try:
        done = subprocess.run([sys.executable, "-m", "ratcat", *argv], env=_src_env(),
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr, done.stderr
    assert done.returncode == 1
