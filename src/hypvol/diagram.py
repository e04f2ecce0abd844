"""Coxeter diagrams of hyperbolic polytopes and their exact Gram matrices.

Diagram file format (UTF-8, line oriented, `#` starts a comment):

    n <dimension>
    facets <count>
    edge <i> <j> <label>

where the label is one of `3`, `4`, `5`, `6`, `inf`, or `dashed <surd>`.
An absent edge means the two hyperplanes are orthogonal.  A label m stands
for dihedral angle pi/m, `inf` for parallel hyperplanes, and `dashed w` for
diverging hyperplanes at Gram entry -w (the printed weight is the magnitude
of the Gram entry).  Each header line appears once.  Integers are written
in the ASCII digits 0-9 alone, with no sign or underscore.  ``schur_step``
is the one kernel of exact elimination over surds: ``eliminate`` and the
face census of ``geometry`` loop over it; ``bfs`` is the one search of the
non-orthogonality graph ``GramMatrix.neighbours``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import BadWeight, DiagramSyntaxError, NotLorentzian, UnsupportedLabel, excerpt
from .surd import MultiSurd, parse_surd, product

# Exact cosines of pi/m; the keys are the supported finite labels.
_COS = {
    3: MultiSurd(Fraction(1, 2)),
    4: MultiSurd.sqrt(2, Fraction(1, 2)),
    5: MultiSurd({1: Fraction(1, 4), 5: Fraction(1, 4)}),
    6: MultiSurd.sqrt(3, Fraction(1, 2)),
}


class _DiagramFields(NamedTuple):
    dimension: int
    facets: int
    edges: dict[tuple[int, int], MultiSurd]


class CoxeterDiagram(_DiagramFields):
    """Facet-adjacency data: dimension, facet count, and ``edges``, which maps
    each edge (i, j), i < j, to its exact Gram entry (see ``_parse_label``).

    An immutable tuple, checked whenever one is built (``_replace`` too): a
    bad one raises ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if self.facets < self.dimension + 1:
            raise ValueError("need at least dimension + 1 facets")
        for (i, j) in self.edges:
            if not (0 <= i < j < self.facets):
                raise ValueError(f"bad edge indices ({i}, {j})")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


class GramMatrix:
    """Symmetric matrix of exact Minkowski products of unit facet normals.

    ``neighbours`` is its non-orthogonality graph, each facet's neighbours
    ascending, from one pass of zero tests.  ``rescaled_form`` eliminates it
    once, when first asked."""

    def __init__(self, dimension: int, entries: list[list[MultiSurd]]):
        self.dimension = dimension
        self.entries = entries
        self.size = len(entries)
        self.neighbours = [[j for j, e in enumerate(row) if j != i and not e.is_zero()]
                           for i, row in enumerate(entries)]
        self._rescaled: tuple | None = None

    def __getitem__(self, ij: tuple[int, int]) -> MultiSurd:
        return self.entries[ij[0]][ij[1]]


def parse_diagram(text: str) -> CoxeterDiagram:
    """Parse the line-oriented diagram format; see the module docstring."""
    dim = None
    facets = None
    edges: dict[tuple[int, int], MultiSurd] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind in ("n", "facets") and len(parts) > 2:
            raise DiagramSyntaxError(f"line {lineno}: trailing tokens {excerpt(parts[2:])}")
        if kind in ("n", "facets") and (dim if kind == "n" else facets) is not None:
            raise DiagramSyntaxError(f"line {lineno}: repeated {kind} header")
        if kind == "n":
            dim = _parse_int(parts, 1, lineno, "bad dimension")
        elif kind == "facets":
            facets = _parse_int(parts, 1, lineno, "bad facet count")
        elif kind == "edge":
            if dim is None or facets is None:
                raise DiagramSyntaxError(f"line {lineno}: edge before n/facets header")
            if len(parts) < 4:
                raise DiagramSyntaxError(f"line {lineno}: edge needs i, j and a label")
            i = _parse_int(parts, 1, lineno, "bad facet index")
            j = _parse_int(parts, 2, lineno, "bad facet index")
            if i == j:
                raise DiagramSyntaxError(f"line {lineno}: self edge {excerpt(i)}")
            if not (0 <= i < facets and 0 <= j < facets):
                raise DiagramSyntaxError(f"line {lineno}: facet index out of range")
            key = (min(i, j), max(i, j))
            if key in edges:
                raise DiagramSyntaxError(f"line {lineno}: duplicate edge {excerpt(key)}")
            edges[key] = _parse_label(parts[3:], lineno)
        else:
            raise DiagramSyntaxError(f"line {lineno}: unknown directive {excerpt(kind)}")
    if dim is None or facets is None:
        raise DiagramSyntaxError("missing n or facets header")
    try:
        return CoxeterDiagram(dim, facets, edges)
    except ValueError as exc:
        raise DiagramSyntaxError(str(exc)) from exc


def _parse_int(parts, k, lineno, message):
    """parts[k] as an integer in ASCII digits; DiagramSyntaxError otherwise."""
    try:
        if parts[k].isascii() and parts[k].isdigit():
            return int(parts[k])
    except (IndexError, ValueError):  # no token, or past int()'s digit limit
        pass
    raise DiagramSyntaxError(f"line {lineno}: {message}")


def _parse_label(parts: list[str], lineno: int) -> MultiSurd:
    """The Gram entry of an edge label: -cos(pi/m), -1 for inf, -w for dashed w."""
    head, *rest = parts
    if rest and head != "dashed":
        raise DiagramSyntaxError(f"line {lineno}: trailing tokens {excerpt(rest)}")
    if head == "inf":
        return MultiSurd(-1)
    if head == "dashed":
        if len(parts) < 2:
            raise DiagramSyntaxError(f"line {lineno}: dashed edge needs a weight")
        try:
            w = parse_surd(" ".join(parts[1:]))
        except (ValueError, ZeroDivisionError) as exc:
            raise BadWeight(f"line {lineno}: {exc}") from exc
        if (w - 1).sign() <= 0:
            raise BadWeight(
                f"line {lineno}: dashed weight must exceed 1 "
                "(weight 1 means parallel hyperplanes; use inf)"
            )
        return -w
    m = _parse_int(parts, 0, lineno, f"unknown edge label {excerpt(head)}")
    if m not in _COS:
        raise UnsupportedLabel(
            f"line {lineno}: finite label {m} not in {{3,4,5,6}}"
            + (" (drop the edge for a right angle)" if m == 2 else "")
        )
    return -_COS[m]


def gram_matrix(diagram: CoxeterDiagram) -> GramMatrix:
    """Exact Gram matrix: 1 on the diagonal, each edge's entry off it."""
    N = diagram.facets
    one = MultiSurd(1)
    zero = MultiSurd(0)
    G = [[one if i == j else zero for j in range(N)] for i in range(N)]
    for (i, j), entry in diagram.edges.items():
        G[i][j] = G[j][i] = entry
    return GramMatrix(diagram.dimension, G)


def schur_step(A: list[list[MultiSurd]], basis: list[int] | tuple[int, ...],
               rows: list[list[MultiSurd]], inverses: list[MultiSurd],
               j: int) -> tuple[MultiSurd, list[MultiSurd], list[MultiSurd]]:
    """One left-looking LDL' step: the Schur complement of A[basis] in A[basis + j].

    ``rows`` and ``inverses`` hold A[basis] = L D L', per basis index its row
    of L left of the unit diagonal and its inverse pivot.  Returns the
    complement c = A_jj - y D^-1 y', j's column y = L^-1 A[basis, j] and its
    multiplier row y D^-1, which extends the factor when c is nonzero."""
    y: list[MultiSurd] = []
    for i, multipliers in zip(basis, rows):
        y.append(_minus_dot(A[i][j], multipliers, y))
    row = [v if v.is_zero() else product(v, inverse) for v, inverse in zip(y, inverses)]
    return _minus_dot(A[j][j], row, y), y, row


def _minus_dot(v: MultiSurd, xs: list[MultiSurd], ys: list[MultiSurd]) -> MultiSurd:
    """v - sum x y over the pairs, skipping products with a zero factor."""
    for x, y in zip(xs, ys):
        if not (x.is_zero() or y.is_zero()):
            v = v - x * y
    return v


def eliminate(entries: list[list[MultiSurd]]) -> tuple[list[int], list[MultiSurd]]:
    """Symmetric elimination of a symmetric surd matrix, exact.

    Loops over ``schur_step``, pivoting on the first remaining index of
    nonzero Schur complement.  When all vanish but an entry a of the
    complement block does not, first in index order at (i, k), adding row
    and column k to row and column i (a unimodular congruence) lets i and k
    pivot as 2a and -a/2: product -a^2, inertia (1, 1).  Returns the
    eliminated indices in pivot order, which number the rank, and the
    pivots, whose product is the determinant of the (nonsingular)
    eliminated principal submatrix.  Pivots are chosen by zero tests alone,
    which a field automorphism keeps: the conjugated matrix has the
    conjugated pivots."""
    A = [row[:] for row in entries]
    active = list(range(len(A)))
    eliminated, pivots, rows, inverses = [], [], [], []   # rows, inverses: L D L' of A[eliminated]
    while active:
        steps = {}
        for j in active:
            steps[j] = schur_step(A, eliminated, rows, inverses, j)
            if not steps[j][0].is_zero():
                chosen = [j]
                break
        else:
            chosen = next(([i, k] for t, i in enumerate(active) for k in active[t + 1:]
                           if not _minus_dot(A[i][k], steps[i][2], steps[k][1]).is_zero()), None)
            if chosen is None:
                break
            i, k = chosen
            A[i] = [a + b for a, b in zip(A[i], A[k])]
            A[i][i] = A[i][i] + A[i][k]
            for u, a in enumerate(A[i]):
                A[u][i] = a
            steps = {}  # row i changed: both steps are taken afresh
        for j in chosen:
            c, _, row = steps.get(j) or schur_step(A, eliminated, rows, inverses, j)
            active.remove(j)
            eliminated.append(j)
            pivots.append(c)
            rows.append(row)
            inverses.append(c.inverse())
    return eliminated, pivots


def inertia(entries: list[list[MultiSurd]]) -> tuple[int, int, int]:
    """Exact inertia (pos, neg, zero) of a symmetric surd matrix."""
    _, pivots = eliminate(entries)
    pos = sum(p.sign() > 0 for p in pivots)
    return pos, len(pivots) - pos, len(entries) - len(pivots)


def bfs(neighbours: list[list[int]], start: int, members) -> dict[int, int]:
    """The members joined to ``start`` through members, each mapped to its
    parent in the BFS tree (-1 at ``start``), in BFS order; each facet's
    neighbours are visited in list order."""
    parent, order = {start: -1}, [start]
    for u in order:
        for v in neighbours[u]:
            if v not in parent and v in members:
                parent[v] = u
                order.append(v)
    return parent


def rescaled_form(G: GramMatrix) -> tuple[dict[int, int], list[list[MultiSurd]],
                                         list[int], list[MultiSurd]]:
    """Vinberg's rescaled form F = L G L, built and eliminated once per G.

    ``bfs`` over ``G.neighbours`` roots each component of the
    non-orthogonality graph at its least facet; a root keeps scale 1, any
    other facet takes its parent's times the doubled Gram entry between
    them, so every rescaled pairing is a product of cyclic products.  The
    scaling is diagonal and invertible: F has the signature of G.  Returns
    the forest (facet -> parent, -1 at a root, in BFS order), F and
    ``eliminate(F)``'s eliminated indices and pivots.
    """
    if G._rescaled is None:
        N = G.size
        forest: dict[int, int] = {}
        for root in range(N):
            if root not in forest:
                forest |= bfs(G.neighbours, root, range(N))
        lam = [MultiSurd(1)] * N
        for v, u in forest.items():
            if u >= 0:
                lam[v] = product(lam[u], G[u, v] * 2)
        F = [[MultiSurd(0)] * N for _ in range(N)]
        for i in range(N):
            for j in range(i, N):
                if not G[i, j].is_zero():
                    F[i][j] = F[j][i] = product(lam[i], lam[j], G[i, j])
        G._rescaled = (forest, F, *eliminate(F))
    return G._rescaled


def signature(G: GramMatrix) -> tuple[int, int, int]:
    """Exact signature (positive, negative, zero), from F's pivots."""
    *_, pivots = rescaled_form(G)
    pos = sum(p.sign() > 0 for p in pivots)
    return pos, len(pivots) - pos, G.size - len(pivots)


def assert_lorentzian(G: GramMatrix) -> tuple[int, int, int]:
    """Check signature (n, 1, N - n - 1); raise NotLorentzian otherwise."""
    sig = signature(G)
    n, N = G.dimension, G.size
    if sig != (n, 1, N - n - 1):
        raise NotLorentzian(
            f"signature {sig}, expected ({n}, 1, {N - n - 1}) for a "
            f"{n}-dimensional hyperbolic polytope with {N} facets"
        )
    return sig
