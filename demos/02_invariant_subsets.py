#!/usr/bin/env python3
"""Invariant subsets of the integers and their two path images.

An (N, M)-invariant subset is closed under adding N and M.  In the
coprime case it is the same data as a Dyck path (the diagram map D),
and sorting its skeleton gives a second path (the map G); the sweep map
is exactly G after inverting D.  The same subsets also correspond to
simultaneous core partitions via beta-numbers.
"""

from ratcat import (
    GridParams,
    cogenerators_m,
    core_partition,
    d_quotient,
    decompose,
    gap,
    gaps,
    generators_n,
    invset_from_generators,
    map_D_coprime,
    map_G,
    skeleton,
    zeta,
)


def main():
    params = GridParams(5, 3, 1)
    delta = invset_from_generators(params, [0, 7])
    print("Delta generated by {0, 7} under +5, +3")
    print("  5-generators  ", generators_n(delta))
    print("  3-cogenerators", cogenerators_m(delta))
    print("  gaps          ", gaps(delta), f"(gap = {gap(delta)})")
    print("  skeleton      ", list(skeleton(delta).sorted_values))
    print("  D(Delta)      ", map_D_coprime(delta).steps)
    print("  G(Delta)      ", map_G(delta).steps)
    print("  zeta(D(Delta))", zeta(params, map_D_coprime(delta)).steps,
          " (= G(Delta))")
    print()

    lam = core_partition(delta)
    print("core partition:", list(lam.parts),
          " first-column hooks:", lam.first_column_hooks())
    print("hook lengths contain no 5 and no 3:", sorted(lam.hook_lengths()))
    print()

    params64 = GridParams(3, 2, 2)
    delta64 = invset_from_generators(params64, [0, 13, 8, 9, 4, 17])
    print("a (6,4)-invariant subset and its residue decomposition:")
    for comp in decompose(delta64):
        print(f"  residue {comp.residue}: shift {comp.shift},"
              f" part generators {sorted(comp.part.gen)}")
    print("  gap additivity:", gap(delta64), "=",
          " + ".join(str(c.shift + gap(c.part)) for c in decompose(delta64)))
    lam64 = core_partition(delta64)
    print("  core:", list(lam64.parts), " 2-quotient:",
          [list(q.parts) for q in d_quotient(lam64, 2)],
          " component cores:",
          [list(core_partition(c.part).parts) for c in decompose(delta64)])


if __name__ == "__main__":
    main()
