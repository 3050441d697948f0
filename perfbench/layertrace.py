"""Span tracing of ratcat's layers from outside the package.

``Tracer.install`` wraps each listed public function by replacing the
attribute in every ``ratcat`` module that holds it (``invset_from_skeleton``
is imported by name into both ``equiv`` and ``glue``), and wraps the two
``__post_init__`` validators on their classes.  Nothing under ``src/``
changes.  Every call records a span -- name, start, end, parent span and
item id -- in flat arrays kept in memory; ``write_spans`` saves them once
the timed work is over.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from math import factorial, prod
from time import perf_counter

# layer (= ratcat module) -> traced names; "Class.validate" is Class.__post_init__
LAYERS = {
    "lattice": ("enumerate_paths", "parse_path", "area", "step_ranks",
                "DyckPath.validate"),
    "sweep": ("zeta", "dinv_sweep", "dinv_armleg"),
    "invset": ("skeleton", "invset_from_skeleton", "map_G", "map_D_coprime",
               "gap", "invset_from_path_coprime"),
    "equiv": ("shift_bounds", "minimal_shifting", "build_graph", "canonical_form",
              "minimal_representative", "LabeledDigraph.validate"),
    "glue": ("unglue", "glue_all", "glue_once", "periodic_from_skeleton"),
    "series": ("count_equivalence_classes", "enumerate_invsets_by_gap",
               "C_series", "qt_catalan", "F_series"),
}

# Input-property counters and their units; each ratio is reported with its base.
COUNTERS = {
    "equiv.graphs_seen": "count",  # graphs returned by unglue or build_graph
    "equiv.repeated_label_share": "share",  # graphs with a repeated label / graphs seen
    "equiv.label_orderings_mean": "count",  # mean over graphs seen of prod (group size)!
    "series.census.classes": "count",  # classes returned by count_equivalence_classes
    "series.census.useful_ratio": "classes/call",  # classes / equiv.build_graph.calls
}
# Tracing overhead: traced wall_s minus untraced wall_s.
OVERHEAD = ("trace.wall_s_untraced", "trace.wall_s_traced", "trace.overhead_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.failed"] = "count"
    units.update(COUNTERS)
    units.update(dict.fromkeys(OVERHEAD, "s"))
    return units


def label_orderings(labels) -> int:
    """Product over groups of equal labels of (group size)!."""
    return prod(factorial(k) for k in Counter(labels).values())


class Tracer:
    """Spans of one traced run, stored as parallel arrays indexed by span id."""

    def __init__(self):
        self.names = [f"{layer}.{name}" for layer, names in LAYERS.items()
                      for name in names]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_ids = array("i")
        self.raised = array("b")
        self.item = -1
        self._stack: list[int] = []
        self.graphs_seen = 0
        self.graphs_repeated = 0
        self.orderings_total = 0
        self.classes = 0

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "ratcat" or key.startswith("ratcat.")]
        observers = {"glue.unglue": lambda res: self._observe_graph(res[0]),
                     "equiv.build_graph": self._observe_graph,
                     "series.count_equivalence_classes": self._observe_classes}
        for idx, full in enumerate(self.names):
            layer, name = full.split(".", 1)
            home = sys.modules[f"ratcat.{layer}"]
            if name.endswith(".validate"):
                cls = getattr(home, name.split(".")[0])
                cls.__post_init__ = self._wrap(idx, cls.__post_init__, None)
                continue
            original = getattr(home, name)
            wrapper = self._wrap(idx, original, observers.get(full))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, idx, fn, observe):
        name_id, start, end = self.name_id, self.start, self.end
        parent, item_ids, raised, stack = self.parent, self.item_ids, self.raised, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(start)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            item_ids.append(self.item)
            raised.append(0)
            end.append(0.0)
            stack.append(k)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[k] = 1
                raise
            finally:
                end[k] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_graph(self, graph) -> None:
        orderings = label_orderings(graph.labels)
        self.graphs_seen += 1
        self.graphs_repeated += orderings > 1
        self.orderings_total += orderings

    def _observe_classes(self, count: int) -> None:
        self.classes += count

    # -- reading the spans ---------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each a total over the traced passes / passes."""
        n_names = len(self.names)
        layer_of = [full.split(".", 1)[0] for full in self.names]
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = [0.0] * len(self.start)
        failed = dict.fromkeys(LAYERS, 0)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        # A child span ends before its parent, so it has a larger id; walking
        # ids downwards sees every child before its parent.
        for k in range(len(start) - 1, -1, -1):
            dur = end[k] - start[k]
            idx = name_id[k]
            calls[idx] += 1
            self_s[idx] += dur - child_s[k]
            up = parent[k]
            if up >= 0:
                child_s[up] += dur
            if self.raised[k] and (up < 0 or layer_of[name_id[up]] != layer_of[idx]):
                failed[layer_of[idx]] += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.failed"] = failed[layer] / passes
        for idx, full in enumerate(self.names):
            layer = layer_of[idx]
            out[f"{full}.calls"] = calls[idx] / passes
            out[f"{full}.self_s"] = self_s[idx] / passes
            out[f"{layer}.calls"] += calls[idx] / passes
            out[f"{layer}.self_s"] += self_s[idx] / passes
        seen = self.graphs_seen
        build_calls = calls[self.names.index("equiv.build_graph")]
        out["equiv.graphs_seen"] = seen / passes
        out["equiv.repeated_label_share"] = self.graphs_repeated / seen if seen else 0.0
        out["equiv.label_orderings_mean"] = self.orderings_total / seen if seen else 0.0
        out["series.census.classes"] = self.classes / passes
        out["series.census.useful_ratio"] = (self.classes / build_calls
                                             if build_calls else 0.0)
        return out

    def write_spans(self, path) -> int:
        """Write all spans as gzipped TSV; returns the number written."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\traised\n")
            t0 = self.start[0] if self.start else 0.0
            for k in range(len(self.start)):
                fh.write(f"{k}\t{self.names[self.name_id[k]]}\t"
                         f"{self.start[k] - t0:.9f}\t{self.end[k] - t0:.9f}\t"
                         f"{self.parent[k]}\t{self.item_ids[k]}\t{self.raised[k]}\n")
        return len(self.start)
