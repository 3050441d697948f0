"""Tests of the benchmark itself: sampler, failure accounting, span arithmetic,
and agreement of BENCHMARK.json with the metrics the benchmark reports."""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import ratcat  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ratcat import GridParams, bizley_count, enumerate_paths, parse_path  # noqa: E402
from sampler import PathSampler  # noqa: E402


@pytest.mark.parametrize("grid", workloads.ROUNDTRIP_GRIDS + workloads.CLASSIFY_GRIDS
                         + workloads.SWEEP_GRIDS)
def test_samples_parse_and_count_matches_bizley(grid):
    sampler = PathSampler(*grid)
    assert sampler.count == bizley_count(*grid)
    rng = random.Random(7)
    for _ in range(20):
        parse_path(sampler.sample(rng), GridParams(*grid))


@pytest.mark.parametrize("grid", [(1, 1, 4), (3, 2, 2), (2, 1, 3), workloads.CLASSIFY_EVERY])
def test_every_path_matches_enumerate_paths(grid):
    want = [p.steps for p in enumerate_paths(GridParams(*grid))]
    assert PathSampler(*grid).every_path() == want


def test_sampler_is_uniform_on_a_small_grid():
    grid = (1, 1, 4)
    every = {p.steps for p in enumerate_paths(GridParams(*grid))}
    sampler = PathSampler(*grid)
    rng = random.Random(2024)
    per_path = 500
    seen = Counter(sampler.sample(rng) for _ in range(per_path * len(every)))
    assert set(seen) == every
    chi2 = sum((k - per_path) ** 2 / per_path for k in seen.values())
    # 99.9% quantile of chi-square with 13 degrees of freedom
    assert len(every) == 14 and chi2 < 34.53


def test_wrong_glue_is_reported_with_its_input(monkeypatch, capsys):
    def wrong_glue_all(graph):
        return ratcat.staircase_path(GridParams(graph.n, graph.m, graph.d))

    monkeypatch.setattr(ratcat.glue, "glue_all", wrong_glue_all)
    assert run.main(["--workload", "roundtrip", "--seed", "3", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in lines if line.startswith("fail_frac"))
    assert float(frac.split()[1]) > 0
    first = next(line for line in lines if line.startswith("first failure"))
    assert "path=" in first and "glue_all(unglue(path))" in first


def test_self_time_and_escaping_failures():
    tracer = layertrace.Tracer()
    unglue = tracer.names.index("glue.unglue")
    skel = tracer.names.index("invset.invset_from_skeleton")
    gap = tracer.names.index("invset.gap")
    # unglue [0, 10] calls invset_from_skeleton [1, 4], which calls gap [2, 3]
    # and raises; the exception escapes invset into glue.
    for name, start, end, parent, raised in [(unglue, 0, 10, -1, 0),
                                             (skel, 1, 4, 0, 1),
                                             (gap, 2, 3, 1, 1)]:
        tracer.name_id.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.item_ids.append(0)
        tracer.raised.append(raised)
    got = tracer.metrics(passes=1)
    assert got["glue.unglue.self_s"] == 7
    assert got["invset.invset_from_skeleton.self_s"] == 2
    assert got["invset.self_s"] == 3 and got["invset.calls"] == 2
    assert got["invset.failed"] == 1 and got["glue.failed"] == 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.metric_units()
