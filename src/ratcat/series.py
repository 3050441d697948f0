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
from math import factorial

from .equiv import checked_graph, gluing_data
from .errors import FormulaMismatch
from .invset import InvariantSet, dinv_invset, gap, invset_from_path_coprime, skeleton
from .lattice import GridParams, area, enumerate_paths, subdiagonal_box_count
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


def _decompositions(params: GridParams, budget: int):
    """The 0-normalized coprime components, one per (n, m)-Dyck path, and each
    subset with gap <= budget with its (component index, shift) per class r:
    the union of d*(component + shift) + r, class 0 unshifted.  Depth-first,
    children pushed in reverse to pop in lexicographic order; a stack, as the
    depth is d."""
    d, N = params.d, params.N
    base = [invset_from_path_coprime(path)
            for path in enumerate_paths(GridParams(params.n, params.m, 1))]
    gaps = list(map(gap, base))
    out, stack = [], [(0, budget, ())]
    while stack:
        r, left, chosen = stack.pop()
        if r == d:
            gen = [None] * N
            for c, (k, shift) in enumerate(chosen):
                for g in base[k].gen:
                    val = d * (g + shift) + c
                    gen[val % N] = val
            out.append((chosen, InvariantSet(params, tuple(gen))))
            continue
        stack.extend(reversed([
            (r + 1, left - g - shift, chosen + ((k, shift),))
            for k, g in enumerate(gaps) if g <= left
            for shift in ((0,) if r == 0 else range(left - g + 1))]))
    return base, out


def enumerate_invsets_by_gap(params: GridParams, budget: int) -> list[InvariantSet]:
    """All 0-normalized invariant subsets with gap <= budget, each once.

    Enumerated through the residue decomposition: the component of class
    0 is a 0-normalized coprime subset, every other class contributes a
    0-normalized coprime subset plus a non-negative shift, and gap is
    the sum of shifts and component gaps.
    """
    return [delta for _, delta in _decompositions(params, budget)[1]]


def C_series(params: GridParams, q_cutoff: int) -> QTSeries:
    """Sum of q^gap t^dinv over invariant subsets, exact through q_cutoff."""
    poly = QTPoly()
    for delta in enumerate_invsets_by_gap(params, q_cutoff):
        poly.add_term(gap(delta), dinv_invset(delta))
    return QTSeries(poly, q_cutoff)


def _tuple_stat(a: tuple[int, ...]) -> int:
    """Number of pairs i < j with a_i = a_j or a_j = a_i + 1."""
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a))
               if a[i] == a[j] or a[j] == a[i] + 1)


def F_series(n: int, deg_cutoff: int, restricted: bool = False) -> QTSeries:
    """Torus-link homology series: sum of q^(sum a) t^d(a) over a in Z_{>=0}^n.

    The restricted variant fixes a_n = 0, which multiplies the full
    series by (1 - q).
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = QTPoly()
    free = n - 1 if restricted else n

    # depth-first over (head, degree left), children pushed in reverse so
    # they pop in order; an explicit stack, since the depth is n
    stack = [((), deg_cutoff)]
    while stack:
        head, left = stack.pop()
        if len(head) == free:
            a = head + (0,) if restricted else head
            poly.add_term(deg_cutoff - left, _tuple_stat(a))
            continue
        stack.extend((head + (k,), left - k) for k in range(left, -1, -1))
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


def fuss_catalan(N: int, k: int) -> int:
    """((k+1)N)! / ((kN+1)! N!), the count of dominant k-Shi regions."""
    if N < 1 or k < 1:
        raise ValueError("N and k must be positive")
    return factorial((k + 1) * N) // (factorial(k * N + 1) * factorial(N))


def count_equivalence_classes(params: GridParams) -> int:
    """Number of distinct gluing digraphs over all invariant subsets.

    One enumeration at gap budget subdiagonal_box_count(params) meets
    every class: the least gap in a class equals the area of the class's
    glued Dyck path, and no area exceeds the sub-diagonal box count.
    Every subset is assembled as a validated InvariantSet, while its
    skeleton part r is read off as d*(skeleton(component) + shift) + r, with
    the component skeletons computed once.  A class is its sorted (label, level)
    vertices, canonical_form's key, and is validated once: each check is on a
    vertex, the source count or a vertex pair, so one key's graphs agree.
    """
    d = params.d
    base, subsets = _decompositions(params, subdiagonal_box_count(params))
    skels = [[d * x for x in skeleton(s).sorted_values] for s in base]
    classes = set()
    for chosen, delta in subsets:
        labels, levels = gluing_data(params, sorted([x + d * shift + r for r, (k, shift)
                                                     in enumerate(chosen) for x in skels[k]]))
        key = tuple(sorted(zip(labels, levels)))
        if key not in classes:
            classes.add(key)
            checked_graph(delta, labels, levels)
    return len(classes)
