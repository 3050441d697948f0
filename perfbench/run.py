"""ratcat's benchmark: one seeded workload per fresh interpreter.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see WORKLOADS.md): roundtrip, classify, census, sweep-stats.
The run draws its inputs from --seed with the benchmark's own sampler, then

* runs timed passes over the same inputs for --seconds, starting no pass
  that would end after that (but running at least one),
  clearing ratcat's lru caches before each pass so that every pass starts
  as cold as a user's first call, and checks every answer;
* times set-up in fresh interpreters that import ratcat and load the inputs
  (setup_child.py), three before the passes and one after each pass up to
  SETUP_PROBES_MAX in all; setup_s is their median;
* with --trace 1, runs untraced passes for the first half of the time and
  traced passes (layertrace.py) for the rest, and reports per-layer metrics
  and the tracing overhead instead of the end-to-end metrics.

Human-readable lines name each metric with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  ``--workload all`` runs every workload in its own
interpreter and ends with one JSON object over all of them.

The run needs ratcat's sources in src/ beside this directory and exits
with status 2, printing no result, when they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES_FIRST = 3  # before the timed passes; one more follows each pass
SETUP_PROBES_MAX = 15
NAMES = ("roundtrip", "classify", "census", "sweep-stats")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "ratcat").glob("*.py")))


def setup_probe(name: str, payload: str) -> float:
    """Seconds from starting a fresh interpreter to its inputs being loaded."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), str(SRC), name]
    t0 = time.monotonic()
    done = subprocess.run(cmd, input=payload, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout) - t0


def best_of_passes(passes) -> tuple[list[float], float, int]:
    """Item latencies, pass wall time and items passed, host noise filtered.

    Every pass runs the same items in the same order.  An item's latency is
    the fastest of its repeats in the run (as timeit does), which drops the
    slowdowns that other tenants of a shared host cause at random; its work,
    including the garbage collections it triggers, is in every repeat.  The
    wall time is the sum of those latencies plus the fastest time any pass
    spent outside its items (loop overhead, sweep-stats' enumeration).
    """
    items = [min(repeats) for repeats in zip(*(log.latencies for _, log in passes))]
    outside = min(wall - sum(log.latencies) for wall, log in passes)
    passed = min(log.attempted - log.failed for _, log in passes)
    return items, sum(items) + max(outside, 0.0), passed


def ratcat_caches() -> list:
    """cache_clear of every lru cache held by a ratcat module."""
    clears = {}
    for key, mod in list(sys.modules.items()):
        if key == "ratcat" or key.startswith("ratcat."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clears[id(value)] = clear
    return list(clears.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "ratcat" / "__init__.py").is_file():
        print(f"error: ratcat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, PassLog
    import ratcat
    if Path(ratcat.__file__).resolve().parent != (SRC / "ratcat").resolve():
        print(f"error: imported ratcat from {ratcat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name]

    t0 = time.perf_counter()
    inputs = workload.make_inputs(random.Random(f"{name}/{seed}"))
    sampler_s = time.perf_counter() - t0
    payload = json.dumps(inputs)
    setup_times = [setup_probe(name, payload) for _ in range(SETUP_PROBES_FIRST)]
    loaded = workload.load(inputs)
    caches = ratcat_caches()

    def run_passes(until: float, tracer=None) -> list:
        """Passes until the next one would end after `until`; at least one."""
        done = []
        while True:
            for clear in caches:
                clear()
            log = PassLog(tracer)
            start = time.perf_counter()
            workload.run_pass(loaded, log)
            wall = time.perf_counter() - start
            done.append((wall, log))
            if tracer is None and len(setup_times) < SETUP_PROBES_MAX:
                # spread over the run, so that setup_s sees the same host as the passes
                setup_times.append(setup_probe(name, payload))
            if time.perf_counter() + wall > until:
                return done

    begin = time.perf_counter()
    tracer = None
    if trace:
        from layertrace import Tracer
        passes = run_passes(begin + seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = run_passes(begin + seconds, tracer)
    else:
        passes = run_passes(begin + seconds)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    logs = [log for _, log in passes + traced]
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    first_failure = next((log.first_failure for log in logs if log.first_failure), None)
    items, wall, passed = best_of_passes(passes)
    p = statistics.quantiles(items, n=100, method="inclusive")
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "items_per_s": passed / wall,
        "item_p50_ms": 1000 * p[49],
        "peak_rss_mb": peak_rss_mb,
    }
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "src_ratcat_py_lines": src_lines(),
        "grids": inputs["grids"], "items_per_pass": inputs["items"],
        "pass_walls_s": [w for w, _ in passes],
        "traced_pass_walls_s": [w for w, _ in traced],
        "setup_probes_s": setup_times, "sampler_s": sampler_s,
        "item_p99_ms": 1000 * p[98],
        "first_failure": first_failure,
    }
    print(f"workload {name}  seed {seed}  grids (n,m,d) "
          + " ".join(f"({n},{m},{d})" for n, m, d in inputs["grids"])
          + f"  {inputs['items']} items per pass")
    print(f"python {meta['python']}  nproc {meta['nproc']}  git {meta['git_sha']}"
          f"  src/ratcat/*.py {meta['src_ratcat_py_lines']} lines")
    print(f"sampler_s      {sampler_s:.4f} s  (input generation, not in setup_s)")
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters: "
                   "import ratcat + load inputs",
        "wall_s": f"one pass of {inputs['items']} items, each at its fastest "
                  f"of {len(passes)} repeats",
        "items_per_s": f"items passing their check / wall_s; {inputs['items']} "
                       f"items over {len(inputs['grids'])} grids per pass",
        "item_p50_ms": f"{len(items)} items, fastest of {len(passes)} repeats each",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for metric, unit in END_TO_END.items():
        print(f"{metric:<14} {values[metric]:.6g} {unit}  ({notes[metric]})")
    # The tail is printed but not bounded: an item lands in it whenever all of
    # its repeats met a slow spell of the host, so its run-to-run spread is
    # about twice that of the median.
    print(f"item_p99_ms    {1000 * p[98]:.6g} ms  (as item_p50_ms; not in BENCHMARK.json)")
    print(f"fail_frac      {failed / attempted:.6g}  ({failed} of {attempted} items"
          f"{'' if not traced else ', traced passes included'})")
    if first_failure:
        print(f"first failure  {first_failure['input']}: {first_failure['problem']}")

    if trace:
        layer = tracer.metrics(len(traced))
        layer["trace.wall_s_untraced"] = values["wall_s"]
        layer["trace.wall_s_traced"] = best_of_passes(traced)[1]
        layer["trace.overhead_s"] = layer["trace.wall_s_traced"] - values["wall_s"]
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{name}.tsv.gz"
        written = tracer.write_spans(spans_file)
        from layertrace import metric_units
        units = metric_units()
        print(f"traced run: {len(traced)} traced passes after {len(passes)} untraced;"
              f" calls and self_s are per traced pass; {written} spans in"
              f" {spans_file.relative_to(ROOT)}")
        for metric, unit in units.items():
            print(f"{metric:<46} {layer[metric]:.6g} {unit}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own interpreter; one JSON line over all."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
