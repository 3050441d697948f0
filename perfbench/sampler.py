"""Exact uniform sampler and enumerator of Dyck paths in the dn x dm rectangle.

A path runs from (M, 0) to (0, N) with steps 'h' (x -= 1) and 'v'
(y += 1) and must keep N*x + M*y <= N*M at every lattice point, the same
diagonal test that ``ratcat.lattice.DyckPath`` applies.  An exact-integer
dynamic program counts the completions still possible from each point;
choosing each step with probability (completions after it) / (completions
here) makes every path equally likely, and ``random.Random.randrange`` is
exact on big integers, so no floating point enters the draw.  Stdlib only.
"""

from __future__ import annotations

import random


class PathSampler:
    """Uniform sampler over the Dyck paths of one grid (n, m, d)."""

    def __init__(self, n: int, m: int, d: int):
        N, M = d * n, d * m
        self.n, self.m, self.d, self.N, self.M = n, m, d, N, M
        # ways[x][y]: number of paths from the lattice point (x, y) to (0, N)
        ways = [[0] * (N + 1) for _ in range(M + 1)]
        for x in range(M + 1):
            for y in range(N, -1, -1):
                if N * x + M * y > N * M:
                    continue
                if x == 0 and y == N:
                    ways[x][y] = 1
                    continue
                total = ways[x - 1][y] if x else 0
                if y < N:
                    total += ways[x][y + 1]
                ways[x][y] = total
        self._ways = ways

    @property
    def count(self) -> int:
        """Number of Dyck paths of the grid."""
        return self._ways[self.M][0]

    def every_path(self) -> list[str]:
        """All paths of the grid as step strings, in lexicographic order."""
        ways, out, steps = self._ways, [], []

        def walk(x: int, y: int) -> None:
            if not x and y == self.N:
                out.append("".join(steps))
                return
            for step, nx, ny in (("h", x - 1, y), ("v", x, y + 1)):
                if nx >= 0 and ny <= self.N and ways[nx][ny]:
                    steps.append(step)
                    walk(nx, ny)
                    steps.pop()

        walk(self.M, 0)
        return out

    def sample(self, rng: random.Random) -> str:
        """One path, drawn uniformly, as a step string."""
        ways = self._ways
        x, y = self.M, 0
        steps = []
        while x or y < self.N:
            via_h = ways[x - 1][y] if x else 0
            if rng.randrange(ways[x][y]) < via_h:
                steps.append("h")
                x -= 1
            else:
                steps.append("v")
                y += 1
        return "".join(steps)
