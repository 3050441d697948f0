"""(N, M)-invariant subsets of the integers and their skeletons.

An invariant subset Delta is closed under adding N and M.  It is encoded
by its vector of N-generators: gen[c] is the least element of Delta
congruent to c mod N, so membership is x in Delta iff x >= gen[x mod N],
and the infinite set is never materialized.  The skeleton of Delta is
the set of its N-generators together with its M-cogenerators; within
each class mod N the largest skeleton value is the generator, which is
what makes a subset reconstructible from its skeleton.  The values also
give the kinds: x is a generator iff x + N is not in the skeleton.  For a
generator x, x + N is in Delta along with x, so it is neither kind; for a
cogenerator y, y + N is a cogenerator if it is outside Delta (y + N + M is
in it), and the generator of its class if inside (y is not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    DomainError,
    EmptyInput,
    InvalidSkeleton,
    InvariantViolation,
    NoIntersection,
    NotCoprimeCase,
    NotNormalized,
)
from .lattice import DyckPath, GridParams, area, step_ranks


@dataclass(frozen=True)
class InvariantSet:
    """Finite encoding of an (N, M)-invariant subset by its generator vector."""

    params: GridParams
    gen: tuple[int, ...]
    # the sorted skeleton, set only by a constructor that has proven it
    _skeleton: tuple[int, ...] | None = field(default=None, init=False, compare=False,
                                              repr=False)

    def __post_init__(self):
        N, M = self.params.N, self.params.M
        gen = tuple(self.gen)
        object.__setattr__(self, "gen", gen)
        if len(gen) != N:
            raise ValueError(f"need {N} generators, got {len(gen)}")
        for c, g in enumerate(gen):
            if g is None or g % N != c:
                raise ValueError(f"generator {g} not congruent to {c} mod {N}")
        for c, g in enumerate(gen):
            if gen[(c + M) % N] > g + M:
                raise ValueError("generator vector is not M-invariant")

    @property
    def normalized(self) -> bool:
        return min(self.gen) == 0

    def min_element(self) -> int:
        return min(self.gen)

    def contains(self, x: int) -> bool:
        return x >= self.gen[x % self.params.N]

    def shifted(self, c: int) -> InvariantSet:
        """The translate Delta + c."""
        N = self.params.N
        gen = [0] * N
        for g in self.gen:
            gen[(g + c) % N] = g + c
        return InvariantSet(self.params, tuple(gen))

    def to_jsonable(self) -> dict:
        p = self.params
        return {"n": p.n, "m": p.m, "d": p.d, "generators": sorted(self.gen)}


@dataclass(frozen=True)
class Skeleton:
    """The N-generators and M-cogenerators of an invariant subset, sorted;
    each value's kind (by the rule above) and part (residue mod d) follow."""

    params: GridParams
    sorted_values: tuple[int, ...]

    def step_pattern(self) -> str:
        """'v' per generator, 'h' per cogenerator, in increasing value order."""
        N, members = self.params.N, set(self.sorted_values)
        return "".join(["h" if x + N in members else "v" for x in self.sorted_values])

    def parts_mod_d(self) -> list[list[int]]:
        """Skeleton values split by residue mod d, each part sorted."""
        parts = [[] for _ in range(self.params.d)]
        for x in self.sorted_values:
            parts[x % self.params.d].append(x)
        return parts

    def to_jsonable(self) -> list[dict]:
        kinds = {"v": "generator", "h": "cogenerator"}
        return [{"value": x, "kind": kinds[s], "residue": x % self.params.d}
                for x, s in zip(self.sorted_values, self.step_pattern())]


def invset_from_generators(params: GridParams, gens) -> InvariantSet:
    """Smallest (N, M)-invariant set containing the given integers.

    Every residue class mod d must be reachable, otherwise some class
    mod N would stay empty and the finite encoding breaks down.
    """
    gens = list(gens)
    if not gens:
        raise EmptyInput("need at least one generator")
    N, M, n, m, d = params.N, params.M, params.n, params.m, params.d
    minv = pow(m, -1, n) if n > 1 else 0
    gen = [None] * N
    for c in range(N):
        best = None
        for g in gens:
            if (c - g) % d != 0:
                continue
            b = ((c - g) // d * minv) % n if n > 1 else 0
            val = g + b * M
            if best is None or val < best:
                best = val
        if best is None:
            raise EmptyInput(f"no generator hits residue class {c % d} mod {d}")
        gen[c] = best
    return InvariantSet(params, tuple(gen))


def generators_n(delta: InvariantSet) -> list[int]:
    """The N-generators Delta \\ (Delta + N), sorted."""
    return sorted(delta.gen)


def cogenerators_m(delta: InvariantSet) -> list[int]:
    """The M-cogenerators (Delta - M) \\ Delta, sorted.

    y is an M-cogenerator iff y is not in Delta but y + M is; these are
    enumerated from the generator vector in closed form.
    """
    N, M = delta.params.N, delta.params.M
    gen = delta.gen
    out = []
    for b in range(N):
        out.extend(range(gen[(b + M) % N] - M, gen[b], N))
    return sorted(out)


def skeleton(delta: InvariantSet) -> Skeleton:
    """The generators and cogenerators, merged and sorted, or the sorted
    skeleton that Delta carries from its constructor."""
    values = delta._skeleton
    if values is None:
        values = tuple(sorted([*delta.gen, *cogenerators_m(delta)]))
    return Skeleton(delta.params, values)


def invset_from_skeleton(params: GridParams, values) -> InvariantSet:
    """Reconstruct the invariant subset whose skeleton has the given values.

    The largest value in each class mod N is the generator of that
    class; the reconstruction must reproduce the input value set, so the
    subset carries the values as its skeleton.
    """
    N, M = params.N, params.M
    values = sorted(values)
    if len(values) != N + M:
        raise InvalidSkeleton(f"need {N + M} values, got {len(values)}")
    if len(set(values)) != len(values):
        raise InvalidSkeleton("skeleton values must be distinct")
    gen = [None] * N
    for v in values:  # increasing, so the last value seen in a class wins
        gen[v % N] = v
    if None in gen:
        raise InvalidSkeleton("some class mod N has no skeleton value")
    try:
        delta = InvariantSet(params, tuple(gen))
    except ValueError as exc:
        raise InvalidSkeleton(str(exc)) from exc
    # generators and M-cogenerators together are the skeleton's values
    if sorted(gen + cogenerators_m(delta)) != values:
        raise InvalidSkeleton(f"{values} is not a skeleton")
    object.__setattr__(delta, "_skeleton", tuple(values))
    return delta


@lru_cache(maxsize=4096)
def coprime_from_skeleton(n: int, m: int, label: tuple[int, ...]) -> InvariantSet:
    """invset_from_skeleton(GridParams(n, m, 1), label), memoized.

    Gluing graphs reuse few distinct labels, and each one is checked in
    full on its first call.  A label that is not a skeleton raises on
    every call, because lru_cache does not cache exceptions.
    """
    return invset_from_skeleton(GridParams(n, m, 1), label)


def _walk(n: int, m: int, skel: frozenset[int], r: int) -> tuple[str, list[int]]:
    """Steps and step ranks of the window from rank r: 'h' iff r + n is in skel."""
    start, steps, ranks = r, [], []
    for _ in range(n + m):
        if r not in skel:
            raise NoIntersection(f"no point of rank {r} is on the path")
        ranks.append(r)
        up = r + n not in skel
        steps.append("v" if up else "h")
        r += -m if up else n
    if r != start:
        raise InvariantViolation(f"window {''.join(steps)!r} does not return to rank {start}")
    return "".join(steps), ranks


def map_D_coprime(delta: InvariantSet) -> DyckPath:
    """Boundary path of the diagram of boxes whose rank lies in Delta (d = 1).

    Its step ranks are Delta's skeleton (see invset_from_path_coprime), so
    it is the skeleton's window walk from rank -m, where every path
    starts: -m is a cogenerator, as min(Delta) = 0.  A walk that fails,
    or is no Dyck path, is a bug.
    """
    p = delta.params
    if p.d != 1:
        raise NotCoprimeCase("the diagram map requires d = 1")
    if not delta.normalized:
        raise NotNormalized("the diagram map requires min(Delta) = 0")
    try:
        return DyckPath(p, _walk(p.n, p.m, frozenset(skeleton(delta).sorted_values), -p.m)[0])
    except DomainError as exc:
        raise InvariantViolation(f"the skeleton walk of {delta.gen} fails: {exc}") from exc


def invset_from_path_coprime(path: DyckPath) -> InvariantSet:
    """Inverse of map_D_coprime, reading Delta's skeleton off the step ranks:
    a 'v' step's rank r, its left box, is in Delta and r - n is not, so r is
    a generator; an 'h' step's r, the box above, is not, but r + m is."""
    p = path.params
    if p.d != 1:
        raise NotCoprimeCase("the diagram map requires d = 1")
    try:
        return invset_from_skeleton(p, step_ranks(p, path))
    except InvalidSkeleton as exc:
        raise InvariantViolation(f"ranks of {path.steps!r} are no skeleton: {exc}") from exc


def map_G(delta: InvariantSet) -> DyckPath:
    """Path read off the sorted skeleton: generators become vertical steps,
    cogenerators horizontal ones.  That it is a Dyck path is a theorem,
    checked on construction; a pattern that fails the check is a bug."""
    pattern = skeleton(delta).step_pattern()
    try:
        return DyckPath(delta.params, pattern)
    except DomainError as exc:
        raise InvariantViolation(f"the skeleton pattern {pattern!r} of {delta.gen} "
                                 f"is no Dyck path: {exc}") from exc


def dinv_invset(delta: InvariantSet) -> int:
    """dinv of an invariant subset: the area of its G-image."""
    return area(delta.params, map_G(delta))


def gap(delta: InvariantSet) -> int:
    """|Z_{>=0} \\ Delta|, computed in closed form from the generators: class c
    misses c, c + N, ... below g = gen[c], (g - c) // N = g // N of them, if g >= 0."""
    N = delta.params.N
    return sum([g // N for g in delta.gen if g >= N])


def gaps(delta: InvariantSet) -> list[int]:
    """The non-negative integers missing from Delta, sorted."""
    N = delta.params.N
    out = []
    for c, g in enumerate(delta.gen):
        out.extend(range(c, g, N))
    return sorted(out)


@dataclass(frozen=True)
class ResidueComponent:
    """One congruence class of a decomposition: Delta_r = shift + part."""

    residue: int
    shift: int
    part: InvariantSet


def decompose(delta: InvariantSet) -> list[ResidueComponent]:
    """Split Delta into d coprime components, one per residue class mod d.

    Delta_r = [(Delta intersect (dZ + r)) - r] / d; the component is
    returned 0-normalized together with its shift m_r = min(Delta_r), so
    that Delta is recovered exactly as the union of d*(m_r + part_r) + r.
    """
    p = delta.params
    coprime = GridParams(p.n, p.m, 1)
    out = []
    for r in range(p.d):
        vals = [(delta.gen[c] - r) // p.d for c in range(r, p.N, p.d)]
        shift = min(vals)
        gen = [None] * p.n
        for v in vals:
            gen[(v - shift) % p.n] = v - shift
        out.append(ResidueComponent(r, shift, InvariantSet(coprime, tuple(gen))))
    return out


@dataclass(frozen=True)
class CorePartition:
    """A partition with weakly decreasing positive parts (possibly empty)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(x < 1 for x in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    def first_column_hooks(self) -> list[int]:
        r = len(self.parts)
        return [self.parts[i] + (r - 1 - i) for i in range(r)]

    def hook_lengths(self) -> list[int]:
        """All hook lengths of the diagram (for core-property checks)."""
        conj = conjugate(self.parts)
        out = []
        for i, row in enumerate(self.parts):
            for j in range(row):
                out.append(row - j + conj[j] - i - 1)
        return out

    def to_jsonable(self) -> list[int]:
        return list(self.parts)


def conjugate(parts) -> list[int]:
    parts = list(parts)
    if not parts:
        return []
    return [sum(1 for p in parts if p > j) for j in range(parts[0])]


def partition_from_beta(values) -> CorePartition:
    """Partition determined by a finite beta-set: lambda_i = b_i - (s - i)."""
    vals = sorted(values, reverse=True)
    s = len(vals)
    parts = [v - (s - 1 - i) for i, v in enumerate(vals)]
    return CorePartition(tuple(p for p in parts if p > 0))


def core_partition(delta: InvariantSet) -> CorePartition:
    """The (N, M)-core whose first-column hook lengths are the gaps of Delta.

    This is the beta-set correspondence with the gap set itself as the
    beta-numbers (the window complement of Delta below any cutoff past
    max(gen), here max(gen) rounded up to a multiple of N).  It sends
    Z_{>=0} to the empty partition and the semigroup of N and M to the
    largest (N, M)-core.
    """
    if not delta.normalized:
        raise NotNormalized("core correspondence requires min(Delta) = 0")
    return partition_from_beta(gaps(delta))


def d_quotient(lam: CorePartition, d: int) -> list[CorePartition]:
    """The d-quotient, with the first-column hook set as the beta window.

    Quotient r collects the hooks congruent to r mod d; with this window
    convention the quotients of the core of Delta are, index by index,
    the cores of the components of decompose(Delta).
    """
    hooks = lam.first_column_hooks()
    out = []
    for r in range(d):
        out.append(partition_from_beta(
            [(h - r) // d for h in hooks if h % d == r]))
    return out
