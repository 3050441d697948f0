"""Gluing-graph oracles shared by the tests: the edge-based levels and
canonical order that LabeledDigraph used before it took levels as input."""

import json

from ratcat import LabeledDigraph


def oracle_levels(d, edges):
    """Longest-path levels by a topological sort that rescans every edge."""
    indeg = [0] * d
    for (_, j) in edges:
        indeg[j] += 1
    queue = [i for i in range(d) if indeg[i] == 0]
    order = []
    while queue:
        i = queue.pop()
        order.append(i)
        for (a, b) in edges:
            if a == i:
                indeg[b] -= 1
                if indeg[b] == 0:
                    queue.append(b)
    assert len(order) == d
    f = [0] * d
    for i in order:
        for (a, b) in edges:
            if a == i:
                f[b] = max(f[b], f[i] + 1)
    return tuple(f)


def graph_from_edges(n, m, labels, edges):
    """The graph whose edges are these: its levels are theirs by oracle_levels."""
    graph = LabeledDigraph(n, m, labels, oracle_levels(len(labels), edges))
    assert graph.edges == frozenset(edges), (graph.edges, edges)
    return graph


def oracle_canonical_form(graph):
    """The canonical form with vertices ordered by (label, in-degree)."""
    indeg = [0] * graph.d
    for (_, j) in graph.edges:
        indeg[j] += 1
    keys = list(zip(graph.labels, indeg))
    assert len(set(keys)) == graph.d, graph
    order = sorted(range(graph.d), key=keys.__getitem__)
    pos = {old: new for new, old in enumerate(order)}
    payload = {"labels": [list(graph.labels[v]) for v in order],
               "edges": sorted([pos[i], pos[j]] for (i, j) in graph.edges),
               "source": pos[graph.source]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")
