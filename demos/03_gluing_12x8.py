#!/usr/bin/env python3
"""The 12 x 8 worked example, end to end.

Starting from a (12,8)-invariant subset we compute the pairwise shift
bounds of its skeleton parts, the minimal integral shift, the labeled
digraph it determines, the minimal representative of its equivalence
class, and finally the glued Dyck path -- whose area equals the least
gap count in the class.  Ungluing recovers the digraph and colors the
path's steps.
"""

from ratcat import (
    GridParams,
    area,
    build_graph,
    canonical_form,
    gap,
    glue_all,
    good_intervals,
    invset_from_generators,
    min_gap_in_class,
    minimal_representative,
    minimal_shifting,
    shift_bounds,
    skeleton,
    unglue,
    window_skeleton,
)
from ratcat.equiv import meeting_pairs


def main():
    params = GridParams(3, 2, 4)
    delta = invset_from_generators(
        params, [0, 1, 5, 8, 9, 16, 27, 30, 34, 35, 38, 43])
    sk = skeleton(delta)
    print("skeleton parts by residue mod 4:")
    for i, part in enumerate(sk.parts_mod_d()):
        print(f"  S_{i} = {part}")

    bounds = shift_bounds(sk)
    print("\npairwise bounds b[i][j] (None = no bound):")
    for row in bounds.b:
        print("  ", ["inf" if x is None else x for x in row])
    print("minimal integral shifting:", minimal_shifting(bounds))

    graph = build_graph(delta)
    print("\ngluing digraph:")
    print("  labels:", graph.labels)
    print("  levels:", graph.levels)
    # meeting labels are joined, from the lower level to the higher
    f = graph.levels
    print("  edges: ", sorted((i, j) if f[i] < f[j] else (j, i)
                              for i, j in meeting_pairs([set(lbl) for lbl in graph.labels])))

    rep = minimal_representative(graph)
    print("\nminimal representative parts:", skeleton(rep).parts_mod_d())
    print("its gap count:", gap(rep), "= min over the class:",
          min_gap_in_class(delta))

    glued = glue_all(graph)
    print("\nglued path:", glued.steps)
    print("area:", area(params, glued), " (equals the minimal gap)")

    goods = good_intervals(glued)
    print("good intervals at", goods, "with skeletons",
          [sorted(window_skeleton(glued, r)) for r in goods])

    back, colored = unglue(glued)
    assert canonical_form(back) == canonical_form(graph)
    print("\nungluing recovers the digraph; step colors:")
    print("  steps ", glued.steps)
    print("  colors", "".join(str(c) for c in colored.colors))
    for i, comp in enumerate(colored.components):
        print(f"  color {i} reassembles to {comp.steps}")


if __name__ == "__main__":
    main()
