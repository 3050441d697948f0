"""The sweep map and the two dinv statistics.

The sweep map reorders the steps of a path by weakly increasing rank;
steps of equal rank (possible only when d > 1) are emitted in reversed
order of appearance.  dinv is the area of the swept path, and it always
agrees with the arm/leg box count dinv'.
"""

from __future__ import annotations

from .lattice import DyckPath, GridParams, area


def zeta(params: GridParams, path: DyckPath) -> DyckPath:
    """Sweep map: sort steps by (rank ascending, original position descending).

    Ranks lie in [-m, d*m*n - m]: one rank walk prepends the step of rank
    r to bucket r + m of d*m*n + 1, so each bucket is in reverse path
    order and the buckets read in order give that sort.  The output is
    again a Dyck path; the DyckPath constructor asserts it.
    """
    n, m = params.n, params.m
    buckets = [""] * (params.d * m * n + 1)
    k = 0  # rank + m of the current step
    for s in path.steps:
        buckets[k] = s + buckets[k]
        k = k + n if s == "h" else k - m
    return DyckPath(params, "".join(buckets))


def dinv_sweep(params: GridParams, path: DyckPath) -> int:
    """dinv as the area of the sweep image."""
    return area(params, zeta(params, path))


def dinv_armleg(params: GridParams, path: DyckPath) -> int:
    """dinv' as a box count over the Young diagram of the path.

    A box is counted when leg/(arm+1) < n/m <= (leg+1)/arm, where arm is
    the number of boxes strictly between the box and the vertical step in
    its row, and leg the number strictly between the box and the
    horizontal step in its column.  All comparisons are exact
    cross-multiplied integer comparisons; arm = 0 makes the right
    inequality vacuously true.
    """
    n, m = params.n, params.m
    rows = path.row_lengths()
    cols = path.column_heights()
    total = 0
    for y, row in enumerate(rows):
        for x in range(row):
            arm = row - x - 1
            leg = cols[x] - y - 1
            if m * leg < n * (arm + 1) and (arm == 0 or n * arm <= m * (leg + 1)):
                total += 1
    return total
