"""Acceptance battery: one test per criterion, every check exact.

Each test runs the corresponding named verification suite (the same code
the CLI `verify` subcommand uses) and prints one PASS/FAIL line per
individual check; run with `pytest -v` to get one line per criterion.
Each suite's lines must also equal its recorded output in verify_output/,
so any change to what a suite prints shows up here.
"""

import time
from pathlib import Path

from ratcat import verify

RECORDED = Path(__file__).parent / "verify_output"


def _recorded(name):
    return (RECORDED / f"{name}.txt").read_text().splitlines()


def _run(criterion, name, max_size=None):
    start = time.time()
    ok, lines = verify.run_suite(name, max_size)
    elapsed = time.time() - start
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status} suite={name} "
          f"({len(lines)} checks, {elapsed:.2f}s)")
    for line in lines:
        if line.startswith("FAIL"):
            print("   ", line)
    assert ok, f"criterion {criterion} failed; see suite {name!r}"
    assert lines == _recorded(name), f"suite {name!r} printed other lines"


def test_criterion_01_golden_sweep_examples():
    _run(1, "golden-zeta")


def test_criterion_02_sweep_bijective_up_to_14():
    _run(2, "zeta-bijective", 14)


def test_criterion_03_factorization_up_to_14():
    _run(3, "factorization", 14)


def test_criterion_04_dinv_agreement_up_to_14():
    _run(4, "dinv-agreement", 14)


def test_criterion_05_round_trips_up_to_15():
    _run(5, "round-trips", 15)


def test_criterion_06_worked_12_8_example():
    _run(6, "worked-12-8")


def test_criterion_07_counting_and_class_census():
    _run(7, "counting", 14)


def test_criterion_08_area_equals_min_gap():
    _run(8, "area-min-gap")


def test_criterion_09_series_identities():
    _run(9, "series")


def test_criterion_10_coprime_structure_up_to_12():
    _run(10, "coprime-structure", 12)


def test_criterion_11_coloring_up_to_14():
    _run(11, "coloring", 14)


def test_conjecture_probe_reported_not_asserted():
    ok, lines = verify.run_suite("conjecture-probe")
    for line in lines:
        print(line)
    assert ok  # the probe only reports; it never fails
    assert lines == _recorded("conjecture-probe")
