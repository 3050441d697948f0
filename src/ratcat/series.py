"""q,t polynomials and gap-truncated series for paths and invariant subsets.

The polynomial c_{N,M}(q,t) sums q^area t^dinv over Dyck paths; the
series C_{N,M}(q,t) sums q^gap t^dinv over invariant subsets, which for
d > 1 is an infinite series computed exactly up to a gap cutoff.  Also
here: the torus-link homology series F_n(q,t), Poincare polynomials of
the compactified-Jacobian cell decompositions, and the Fuss-Catalan and
exponential-formula path counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

from .equiv import LabeledDigraph, minimal_representative
from .errors import FormulaMismatch, InvalidGraph, InvariantViolation, LimitExceeded
from .invset import InvariantSet, dinv_invset, gap, invset_from_path_coprime, skeleton
from .lattice import GridParams, area, enumerate_paths
from .sweep import dinv_sweep


class QTPoly:
    """Sparse bivariate polynomial with integer coefficients, exponents >= 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for (q, t), c in dict(coeffs).items():
                if c:
                    if q < 0 or t < 0:
                        raise ValueError("exponents must be non-negative")
                    self.coeffs[(q, t)] = c

    def add_term(self, q: int, t: int, c: int = 1) -> None:
        key = (q, t)
        new = self.coeffs.get(key, 0) + c
        if new:
            self.coeffs[key] = new
        else:
            self.coeffs.pop(key, None)

    def __eq__(self, other) -> bool:
        return isinstance(other, QTPoly) and self.coeffs == other.coeffs

    def __add__(self, other: QTPoly) -> QTPoly:
        out = QTPoly(self.coeffs)
        for (q, t), c in other.coeffs.items():
            out.add_term(q, t, c)
        return out

    def __sub__(self, other: QTPoly) -> QTPoly:
        out = QTPoly(self.coeffs)
        for (q, t), c in other.coeffs.items():
            out.add_term(q, t, -c)
        return out

    def __mul__(self, other: QTPoly) -> QTPoly:
        out = QTPoly()
        for (q1, t1), c1 in self.coeffs.items():
            for (q2, t2), c2 in other.coeffs.items():
                out.add_term(q1 + q2, t1 + t2, c1 * c2)
        return out

    def swapped(self) -> QTPoly:
        """q and t exchanged."""
        return QTPoly({(t, q): c for (q, t), c in self.coeffs.items()})

    def is_qt_symmetric(self) -> bool:
        return self == self.swapped()

    def truncate_q(self, cutoff: int) -> QTPoly:
        return QTPoly({(q, t): c for (q, t), c in self.coeffs.items()
                       if q <= cutoff})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        def mono(q, t, c):
            parts = [] if c == 1 and (q or t) else [str(c)]
            if q:
                parts.append("q" if q == 1 else f"q^{q}")
            if t:
                parts.append("t" if t == 1 else f"t^{t}")
            return "*".join(parts) or str(c)
        return " + ".join(
            mono(q, t, c) for (q, t), c in
            sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0][1])))

    def to_jsonable(self) -> list[dict]:
        return [{"q": q, "t": t, "c": c}
                for (q, t), c in sorted(self.coeffs.items())]


@dataclass(frozen=True)
class QTSeries:
    """A polynomial exact for all terms of q-degree <= q_cutoff.

    Enumeration by gap budget is complete per budget, and t-degrees are
    bounded by the sub-diagonal box count, so no t-truncation occurs.
    """

    poly: QTPoly
    q_cutoff: int

    def agrees_with(self, other: QTSeries) -> bool:
        cutoff = min(self.q_cutoff, other.q_cutoff)
        return self.poly.truncate_q(cutoff) == other.poly.truncate_q(cutoff)

    def to_jsonable(self) -> dict:
        return {"q_cutoff": self.q_cutoff, "terms": self.poly.to_jsonable()}


def qt_catalan(params: GridParams) -> QTPoly:
    """Sum of q^area t^dinv over all Dyck paths of the rectangle."""
    out = QTPoly()
    for path in enumerate_paths(params):
        out.add_term(area(params, path), dinv_sweep(params, path))
    return out


# G-image steps, subsets * (N + M): verify, the demos and the benchmark ask for
# <= 800, the tests, past those of the limit itself, for <= 26490 ((3,2,3) at gap 21)
C_LIMIT = 100_000


def _subset_count(gaps: list[int], d: int, budget: int) -> int:
    """The subsets with gap <= budget, as enumerate_invsets_by_gap lists them:
    sum_j [q^j]A^d * C(budget - j + d - 1, d - 1) over j <= budget, with A(q)
    the sum of q^gap over the coprime subsets, of these gaps, and the
    binomial the d - 1 shifts of sum <= budget - j."""
    a = [gaps.count(g) for g in range(min(budget, max(gaps)) + 1)]
    power = [1]  # A^r through q^budget
    for _ in range(d):
        power = [sum(power[t - g] * a[g]
                     for g in range(max(0, t + 1 - len(power)), min(t, len(a) - 1) + 1))
                 for t in range(min(budget, len(power) + len(a) - 2) + 1)]
    return sum(c * comb(budget - j + d - 1, d - 1) for j, c in enumerate(power))


def enumerate_invsets_by_gap(params: GridParams, budget: int) -> list[InvariantSet]:
    """All 0-normalized invariant subsets with gap <= budget, each once.

    Enumerated through the residue decomposition: the component of class
    0 is a 0-normalized coprime subset, every other class contributes a
    0-normalized coprime subset plus a non-negative shift, and gap is
    the sum of shifts and component gaps.  Part r of a subset is the union
    of d*(component + shift) + r.  Depth-first over the (component index,
    shift) per class, children pushed in reverse to pop in lexicographic
    order; a stack, as the depth is d.  A node popped at depth r writes its
    choice to chosen[r]; the entries below, its ancestors', stay.  A node
    scans the components of gap <= budget, each a subset of its own.

    Each subset costs O(N + M) steps here and in C_series's G-image, and
    every node leads to one at depth d <= N: the work is the subsets times
    N + M.  It is counted first, by the lower bound C(budget + d - 1, d - 1)
    of subsets (one coprime subset has gap 0), before the coprime paths are
    listed, then by _subset_count; above C_LIMIT it raises LimitExceeded,
    building no subset.  The count reads each coprime subset's gap as its
    path's area, which the enumeration carries: at d = 1, gap(D^-1(P)) =
    area(P) (Gorsky-Mazin, arXiv:1105.1151).  So only the components with
    gap <= budget are built.
    """
    d, N = params.d, params.N
    steps = N + params.M
    over = LimitExceeded(f"the invariant subsets of the ({N},{params.M}) grid with gap at "
                         f"most {budget} exceed the limit of {C_LIMIT} G-image steps "
                         f"(subsets times N+M)")
    k = min(budget, d - 1)  # C(budget + d - 1, k) >= C(2k, k) >= 2**k
    if k >= C_LIMIT.bit_length() or comb(budget + d - 1, k) * steps > C_LIMIT:
        raise over
    coprime = GridParams(params.n, params.m, 1)
    paths = enumerate_paths(coprime)
    gaps = [area(coprime, path) for path in paths]
    if _subset_count(gaps, d, budget) * steps > C_LIMIT:
        raise over
    fits = [(k, g) for k, g in enumerate(gaps) if g <= budget]
    base = {k: invset_from_path_coprime(paths[k]) for k, _ in fits}
    out, chosen = [], [None] * d
    stack = [(0, budget - g, k, 0) for k, g in reversed(fits)]
    while stack:
        r, left, k, shift = stack.pop()
        chosen[r] = k, shift
        if r + 1 == d:
            gen = [None] * N
            for c, (k, shift) in enumerate(chosen):
                for g in base[k].gen:
                    val = d * (g + shift) + c
                    gen[val % N] = val
            out.append(InvariantSet(params, tuple(gen)))
            continue
        stack.extend(reversed([(r + 1, left - g - shift, k, shift)
                               for k, g in fits if g <= left
                               for shift in range(left - g + 1)]))
    return out


def C_series(params: GridParams, q_cutoff: int) -> QTSeries:
    """Sum of q^gap t^dinv over invariant subsets, exact through q_cutoff."""
    poly = QTPoly()
    for delta in enumerate_invsets_by_gap(params, q_cutoff):
        poly.add_term(gap(delta), dinv_invset(delta))
    return QTSeries(poly, q_cutoff)


def _tuple_stat(a) -> int:
    """Number of pairs i < j with a_i = a_j or a_j = a_i + 1: each a_j counts
    the earlier entries equal to a_j or a_j - 1."""
    seen: dict[int, int] = {}
    total = 0
    for x in a:
        total += seen.get(x, 0) + seen.get(x - 1, 0)
        seen[x] = seen.get(x, 0) + 1
    return total


F_LIMIT = 200_000


def F_series(n: int, deg_cutoff: int, restricted: bool = False) -> QTSeries:
    """Torus-link homology series: sum of q^(sum a) t^d(a) over a in Z_{>=0}^n.

    The restricted variant fixes a_n = 0, which multiplies the full
    series by (1 - q).  The f = n (or n - 1) free entries with sum at most
    the cutoff c are stars and bars: positions b_1 < ... < b_f in
    range(c + f) give a_i = b_i - b_(i-1) - 1, with b_0 = -1.  So there are
    C(c + f, f) tuples, each built and scored in O(n) steps, and n times
    that count is the work: above F_LIMIT it raises LimitExceeded, before
    any tuple is built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if deg_cutoff < 0:
        raise ValueError(f"the cutoff must be at least 0, got {deg_cutoff}")
    free = n - 1 if restricted else n
    # C(c + f, k) for k = min(c, f) is at least C(2k, k) >= 2**k
    k = min(deg_cutoff, free)
    if k >= F_LIMIT.bit_length() or n * comb(deg_cutoff + free, k) > F_LIMIT:
        raise LimitExceeded(f"the {n}-tuples through q^{deg_cutoff} exceed the limit "
                            f"of {F_LIMIT} tuple entries")
    poly = QTPoly()
    for bars in combinations(range(deg_cutoff + free), free):
        a = [b - p - 1 for p, b in zip((-1, *bars), bars)] + [0] * (n - free)
        poly.add_term(sum(a), _tuple_stat(a))
    return QTSeries(poly, deg_cutoff)


def springer_poincare(n: int, m: int) -> QTPoly:
    """Poincare polynomial of the invariant-subspace variety, in t.

    Computed both as sum of t^(2(delta - dinv)) and as sum of t^(2|D|)
    over coprime Dyck paths; the two must agree.
    """
    params = GridParams(n, m, 1)
    by_dinv = QTPoly()
    by_boxes = QTPoly()
    for path in enumerate_paths(params):
        by_dinv.add_term(0, 2 * (params.delta - dinv_sweep(params, path)))
        by_boxes.add_term(0, 2 * path.box_count())
    if by_dinv != by_boxes:
        raise FormulaMismatch(f"the two Poincare formulas disagree at ({n},{m})")
    return by_dinv


FUSS_LIMIT = 10_000


def fuss_catalan(N: int, k: int) -> int:
    """((k+1)N)! / ((kN+1)! N!), the count of dominant k-Shi regions.

    The result is at most C((k+1)N, N) < 2^((k+1)N), so (k+1)N bounds its
    bits: above FUSS_LIMIT it raises LimitExceeded, before any factorial.
    """
    if N < 1 or k < 1:
        raise ValueError("N and k must be positive")
    if (k + 1) * N > FUSS_LIMIT:
        raise LimitExceeded(f"(k+1)N = {(k + 1) * N} exceeds the limit {FUSS_LIMIT}")
    return factorial((k + 1) * N) // (factorial(k * N + 1) * factorial(N))


def _reverse_search(params: GridParams):
    """(labels, levels) of every valid gluing graph with at most d vertices,
    each once, vertices in the order added: the search of
    count_equivalence_classes, depth-first on a stack."""
    n, m, d = params.n, params.m, params.d
    skels = [skeleton(invset_from_path_coprime(path)).sorted_values
             for path in enumerate_paths(GridParams(n, m, 1))]
    stack = [((skel,), (0,)) for skel in reversed(skels)]
    while stack:
        labels, levels = stack.pop()
        yield labels, levels
        if len(labels) == d:
            continue
        high: dict[int, int] = {}  # each label value -> the highest level holding it
        for label, f in zip(labels, levels):
            for x in label:
                if high.get(x, -1) < f:
                    high[x] = f
        top, last = (levels[-1], labels[-1]), max(high)
        for skel in skels:
            for s in range(last - skel[0] + 1):
                label = tuple([x + s for x in skel])
                f = 1 + max([high[x] for x in label if x in high], default=-1)
                if f and (f, label) > top:
                    stack.append((labels + (label,), levels + (f,)))


def class_graphs(params: GridParams):
    """The gluing graph of each equivalence class, each once, checked as
    count_equivalence_classes says; a fault is an InvariantViolation that
    names the labels and levels."""
    n, m, d = params.n, params.m, params.d
    for labels, levels in _reverse_search(params):
        if len(labels) == d:
            try:
                graph = LabeledDigraph._trusted(n, m, labels, levels)
                minimal_representative(graph)
            except (InvalidGraph, InvariantViolation) as exc:
                raise InvariantViolation(f"census graph (labels {labels}, levels {levels}) "
                                         f"is invalid: {exc}") from exc
            yield graph


def count_equivalence_classes(params: GridParams) -> int:
    """Number of equivalence classes of invariant subsets: the valid gluing
    graphs with d vertices, counted by reverse search over the graphs
    (Avis and Fukuda, Reverse search for enumeration, Discrete Appl. Math.
    65, 1996), with no subset enumerated.

    A graph is its (label, level) vertices, all distinct, as equal labels
    meet and meeting vertices differ in level.  Its top vertex is the
    greatest by (level, label), and its parent is the graph without it.
    The parent is valid: the top lies on the highest level, so every vertex
    it meets lies below it and no other vertex leans on it.  The roots are
    the one-vertex graphs, a 0-normalized coprime skeleton on level 0.  A
    graph's children add a label L = skeleton + s, s >= 0, that meets some
    vertex, on level f = 1 + the highest level that L meets, when (f, L)
    is above the top.  Each child is valid, with the new vertex its top,
    and each valid graph of more than one vertex is the child of its parent
    this way: its top label is non-negatively normalized, so it is a
    0-normalized skeleton plus its least element s >= 0; it meets some
    vertex, as a second vertex of level 0 cannot be; and its level is 1 +
    the highest level it meets, as it meets one a level below and all of
    them lie below it.  So every valid graph is visited once, and the
    search stops at depth d.  L meets a vertex only while s <= (the highest
    label value) - min(skeleton), the loop's bound.

    Each graph with d vertices is built by LabeledDigraph._trusted, as each
    vertex lies 1 + the highest level of the earlier ones it meets, and
    minimal_representative certifies it by _shifting_fault: it is the
    gluing data of a 0-normalized subset, so every class counted holds one.
    That each subset's gluing data validates, the other direction, is
    checked by verify and by the tests' subset census.
    """
    return sum(1 for _ in class_graphs(params))
