"""Rational-slope Dyck paths in a dn x dm rectangle.

A path lives in the rectangle of height N = d*n and width M = d*m with
gcd(n, m) = 1, runs from the bottom-right corner (M, 0) to the top-left
corner (0, N), and stays weakly below the corner-to-corner diagonal.
Steps are written 'h' (one unit left) and 'v' (one unit up) and are read
from the bottom-right corner.  Boxes are addressed by their bottom-left
lattice point, so the box (x, y) occupies [x, x+1] x [y, y+1].

One walk over ranks gives everything: the point (x, y) has rank
d*m*n - m - n*x - m*y, so a path starts at rank -m, each 'h' adds n and
each 'v' subtracts m; it is Dyck iff every point rank is >= -m, that is
N*x + M*y <= N*M; and its area sums max(0, r // n) over its 'v' steps,
r the rank of the point the step leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .errors import AboveDiagonal, InvariantViolation, LimitExceeded, MalformedPath

ENUM_LIMIT = 24


@dataclass(frozen=True)
class GridParams:
    """The grid (n, m, d): the N x M rectangle with N = d*n and M = d*m.

    n and m are positive and coprime and d >= 1, so d = gcd(N, M).  This
    is the one place where a grid is checked: everything that takes a
    GridParams, or builds one from its own arguments, relies on it.
    """

    n: int
    m: int
    d: int = 1

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be positive, got n={self.n} and m={self.m}")
        if gcd(self.n, self.m) != 1:
            raise ValueError(f"n={self.n} and m={self.m} must be coprime")
        if self.d < 1:
            raise ValueError(f"d must be at least 1, got {self.d}")

    @property
    def N(self) -> int:
        return self.d * self.n

    @property
    def M(self) -> int:
        return self.d * self.m

    @property
    def delta(self) -> int:
        """Coprime genus (m-1)(n-1)/2, an integer since gcd(n, m) = 1."""
        return (self.m - 1) * (self.n - 1) // 2


@lru_cache(maxsize=256)
def _grid_params(n: int, m: int, d: int) -> GridParams:
    """GridParams(n, m, d), memoized, as glue_all and minimal_representative
    ask for one of few grids on every call; a rejected grid raises on every
    call, as lru_cache caches no exception."""
    return GridParams(n, m, d)


def _dyck_area(params: GridParams, steps: str) -> int:
    """Area of a string of N 'v' and M 'h' steps (the caller has counted
    them) by its one rank walk, which raises AboveDiagonal if it crosses."""
    n, m = params.n, params.m
    r, total = -m, 0
    for s in steps:
        if s == "h":
            r += n
        elif r < 0:  # the point after this 'v' would rank below -m
            raise AboveDiagonal(f"{steps!r} crosses the diagonal")
        else:
            total += r // n
            r -= m
    if steps[-1] != "v":  # excluded by the diagonal constraint
        raise InvariantViolation(f"{steps!r} ends with a horizontal step")
    return total


@dataclass(frozen=True, slots=True)
class DyckPath:
    """A step sequence weakly below the diagonal, validated on construction."""

    params: GridParams
    steps: str
    _area: int = field(init=False, repr=False, compare=False)  # summed by validation

    def __post_init__(self):
        steps, N, M = self.steps, self.params.N, self.params.M
        if len(steps) != N + M:
            raise MalformedPath(f"expected {N + M} steps, got {len(steps)}")
        if steps.count("v") != N or steps.count("h") != M:
            raise MalformedPath(f"expected {N} 'v' and {M} 'h' steps in {steps!r}")
        object.__setattr__(self, "_area", _dyck_area(self.params, steps))

    @classmethod
    def _trusted(cls, params: GridParams, steps: str, area: int) -> DyckPath:
        """The path of N 'v' and M 'h' steps whose rank walk stays weakly
        below the diagonal and sums area, all known to the caller; nothing
        is checked again."""
        path = object.__new__(cls)
        object.__setattr__(path, "params", params)
        object.__setattr__(path, "steps", steps)
        object.__setattr__(path, "_area", area)
        return path

    def __str__(self) -> str:
        return self.steps

    def row_lengths(self) -> list[int]:
        """Row lengths of the Young diagram: x-position of the v step in each row."""
        rows = []
        x = self.params.M
        for s in self.steps:
            if s == "h":
                x -= 1
            else:
                rows.append(x)
        return rows

    def box_count(self) -> int:
        """Number of boxes of the Young diagram enclosed by the path."""
        return sum(self.row_lengths())

    def to_jsonable(self) -> dict:
        p = self.params
        return {"n": p.n, "m": p.m, "d": p.d, "steps": self.steps}


def parse_path(text: str, params: GridParams) -> DyckPath:
    """The DyckPath of a step string; its N 'v' and M 'h' steps, and no
    other letter, are checked by DyckPath itself."""
    return DyckPath(params, text)


def _check_grid(params: GridParams, path: DyckPath) -> None:
    """Reject a path handed in with a grid other than its own."""
    if params is not path.params and params != path.params:
        raise MalformedPath(f"path {path.steps!r} is on the grid {path.params}, not {params}")


def step_ranks(params: GridParams, path: DyckPath) -> list[int]:
    """Rank of each step, in path order: the rank of the point it leaves.

    The first step is ranked -m; after a horizontal step the rank grows
    by n, after a vertical step it drops by m.  Equivalently a vertical
    step inherits the rank of the box to its left, a horizontal step the
    rank of the box above it.  The final (vertical) step has rank 0.
    """
    _check_grid(params, path)
    n, m = params.n, params.m
    ranks, r = [], -m
    for s in path.steps:
        ranks.append(r)
        r = r + n if s == "h" else r - m
    return ranks


def subdiagonal_box_count(params: GridParams) -> int:
    """Number of boxes of the rectangle lying weakly under the diagonal."""
    total = 0
    for y in range(params.N):
        # rank(x, y) >= 0  <=>  n*x <= d*m*n - m - n - m*y
        hi = params.d * params.m * params.n - params.m - params.n - params.m * y
        if hi >= 0:
            total += min(hi // params.n, params.M - 1) + 1
    return total


def area(params: GridParams, path: DyckPath) -> int:
    """Number of whole boxes between the diagonal and the path.

    Counts boxes of non-negative rank that are not part of the Young
    diagram of the path; ranges from 0 for the full diagram up to the
    total sub-diagonal box count (delta when d = 1) for the empty one.
    The path's validation has summed it already.
    """
    _check_grid(params, path)
    return path._area


def enumerate_paths(params: GridParams) -> tuple[DyckPath, ...]:
    """All Dyck paths of the rectangle in lexicographic order ('h' < 'v').

    The generator's own walk makes DyckPath's checks and sums each area,
    so no path is walked twice.  The result is cached per parameter set;
    treat it as immutable.
    """
    if params.N + params.M > ENUM_LIMIT:
        raise LimitExceeded(
            f"N+M = {params.N + params.M} exceeds the limit {ENUM_LIMIT}")
    return _enumerate_cached(params)


@lru_cache(maxsize=None)
def _enumerate_cached(params: GridParams) -> tuple[DyckPath, ...]:
    # The walk spends exactly M 'h' and N 'v' steps, takes a 'v' only from
    # rank r >= 0 and sums r // n as it does: the checks and the area of
    # DyckPath's own walk, so each leaf is built trusted.
    # With no 'h' left the rank is m*(v_left - 1), as every full walk ends at
    # -m, so the one completion is v_left 'v' steps from ranks k*m, k < v_left,
    # and it adds tail[v_left] to the area.
    n, m = params.n, params.m
    trusted = DyckPath._trusted
    tail = [0]
    for k in range(params.N):
        tail.append(tail[-1] + k * m // n)
    out = []
    steps = []

    def rec(r, h_left, v_left, area):
        if not h_left:
            out.append(trusted(params, "".join(steps) + "v" * v_left, area + tail[v_left]))
            return
        steps.append("h")
        rec(r + n, h_left - 1, v_left, area)
        steps.pop()
        if v_left and r >= 0:  # a 'v' from rank r reaches rank r - m >= -m
            steps.append("v")
            rec(r - m, h_left, v_left - 1, area + r // n)
            steps.pop()

    rec(-m, params.M, params.N, 0)
    return tuple(out)


def bizley_count(n: int, m: int, d: int) -> int:
    """|Y_{dn,dm}|: the coefficient of x^d in exp(sum_j C(j(m+n), jm)/(j(m+n)) x^j).

    Computed in exact rational arithmetic; the result is checked to be
    an integer.  (n, m, d) is checked as a GridParams.
    """
    GridParams(n, m, d)
    c = [Fraction(0)] * (d + 1)
    for j in range(1, d + 1):
        c[j] = Fraction(comb(j * (m + n), j * m), j * (m + n))
    e = [Fraction(0)] * (d + 1)
    e[0] = Fraction(1)
    for r in range(1, d + 1):
        e[r] = sum(j * c[j] * e[r - j] for j in range(1, r + 1)) / r
    if e[d].denominator != 1:
        raise InvariantViolation(f"exponential-formula coefficient {e[d]} is not integral")
    return int(e[d])


def staircase_path(params: GridParams) -> DyckPath:
    """The full-diagram path hugging the diagonal (area 0): 'v' whenever allowed."""
    r, steps = -params.m, []
    while len(steps) < params.N + params.M:
        if r >= 0:  # then the 'v' stays weakly below the diagonal, and y < N
            steps.append("v")
            r -= params.m
        else:
            steps.append("h")
            r += params.n
    return DyckPath(params, "".join(steps))
