"""The sweep map and the two dinv statistics.

The sweep map reorders the steps of a path by weakly increasing rank;
steps of equal rank (possible only when d > 1) are emitted in reversed
order of appearance.  dinv is the area of the swept path, and it always
agrees with the arm/leg box count dinv'.  dinv' is counted on the path
itself, one backward rank walk over its pairs of a 'v' and a later 'h'.
"""

from __future__ import annotations

from .errors import AboveDiagonal, InvariantViolation
from .lattice import DyckPath, GridParams, _check_grid, _dyck_area, area


def zeta(params: GridParams, path: DyckPath) -> DyckPath:
    """Sweep map: sort steps by (rank ascending, original position descending).

    Ranks lie in [-m, d*m*n - m]: one rank walk prepends the step of rank
    r to bucket r + m of d*m*n + 1, so each bucket is in reverse path
    order and the buckets read in order give that sort.  The image is a
    permutation of the steps of a validated path, so its letter counts
    hold; that it is again a Dyck path is a theorem, checked by the full
    rank walk, which also sums the area dinv_sweep reads.  A failure is a
    bug.
    """
    n, m = params.n, params.m
    buckets = [""] * (params.d * m * n + 1)
    k = 0  # rank + m of the current step
    for s in path.steps:
        buckets[k] = s + buckets[k]
        k = k + n if s == "h" else k - m
    out = "".join(buckets)
    try:
        return DyckPath._trusted(params, out, _dyck_area(params, out))
    except AboveDiagonal as exc:
        raise InvariantViolation(f"the sweep image {out!r} of {path.steps!r} "
                                 f"is no Dyck path: {exc}") from exc


def dinv_sweep(params: GridParams, path: DyckPath) -> int:
    """dinv as the area of the sweep image."""
    return area(params, zeta(params, path))


def dinv_armleg(params: GridParams, path: DyckPath) -> int:
    """dinv' as the arm/leg box count, counted over step pairs by rank.

    A box of the Young diagram is counted when
    m*leg < n*(arm+1) and (arm == 0 or n*arm <= m*(leg+1)), where arm is
    the number of boxes strictly between the box and the vertical step in
    its row, and leg the number strictly between the box and the
    horizontal step in its column.  Boxes are the pairs (a 'v' step, a
    later 'h' step): the row of the one, the column of the other.

    If the 'v' step leaves rank r_v and the 'h' step rank r_h, then
    r_h - r_v = n*arm - m*(leg+1): the point the 'h' step leaves lies arm
    columns left of and leg+1 rows above the one the 'v' step leaves.
    So the test reads 0 <= r_v - r_h < n + m (arm == 0 satisfies
    n*arm <= m*(leg+1) on its own), and one backward rank walk counts,
    at each 'v' step, the later 'h' steps in that window.
    """
    _check_grid(params, path)
    n, m = params.n, params.m
    # h steps seen so far, by rank + m + n - 1 (an 'h' leaves a rank in
    # [-m, d*m*n - m - n]; a 'v' leaves r_v >= 0, whose window starts at r_v)
    cnt = [0] * (params.d * m * n)
    k = n - 1  # rank + m + n - 1 of the current point; the end point ranks -m
    total = 0
    for s in reversed(path.steps):
        if s == "h":
            k -= n
            cnt[k] += 1
        else:
            k += m
            total += sum(cnt[k - n - m + 1:k + 1])
    return total
