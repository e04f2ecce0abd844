"""Hyperboloid-model realization and Klein-model description of a polytope.

The combinatorics are exact: faces, vertices and incidences come from the
census, which reads them off the exact Gram matrix by the inertia of its
principal submatrices (Vinberg, "Hyperbolic reflection groups", Russian
Math. Surveys 40, 1985, Thm 3.1).  Coordinates are numeric at a
configurable binary precision (mpmath floats, default 128 bits).  The
Minkowski form used throughout is <x, y> = -x0*y0 + x1*y1 + ... with the
timelike coordinate first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import mpmath
from mpmath import mp

from .diagram import GramMatrix, assert_lorentzian, inertia
from .errors import NoVertices, TriangulationFailure

DEFAULT_PREC = 128

FacetSet = tuple[int, ...]


def _mink(x, y):
    total = -x[0] * y[0]
    for i in range(1, len(x)):
        total += x[i] * y[i]
    return total


@dataclass
class PolytopeRealization:
    """Unit facet normals in Minkowski space, plus the census vertices.

    Finite vertices are normalized to <x, x> = -1 with x0 > 0; ideal
    vertices are light-cone rays normalized to x0 = 1.  ``vertex_facets``
    holds the facet set of each finite, then each ideal vertex, and
    ``faces`` every elliptic facet set, i.e. every face not at infinity.
    """

    dimension: int
    normals: list[list[mpmath.mpf]]
    prec: int
    gram: GramMatrix
    finite_vertices: list[list[mpmath.mpf]] = field(default_factory=list)
    ideal_vertices: list[list[mpmath.mpf]] = field(default_factory=list)
    vertex_facets: list[frozenset[int]] = field(default_factory=list)
    faces: set[frozenset[int]] = field(default_factory=set)

    @property
    def facet_count(self) -> int:
        return len(self.normals)

    def gram_residual(self, G: GramMatrix) -> mpmath.mpf:
        """Max deviation of reconstructed products from the float Gram."""
        with mp.workprec(self.prec):
            Gf = G.evaluate(self.prec)
            worst = mp.mpf(0)
            for i in range(self.facet_count):
                for j in range(self.facet_count):
                    worst = max(worst, abs(_mink(self.normals[i], self.normals[j]) - Gf[i, j]))
        return worst

    def is_compact(self) -> bool:
        return not self.ideal_vertices


@dataclass
class KleinPolytope:
    """Affine picture in the unit ball: inequalities, vertices, triangulation.

    Inequalities are rows (a, b) meaning a . v <= b.  Vertices carry an
    ideal flag (on the unit sphere).  Simplices index into the vertex list,
    with -1 denoting the interior Steiner point used by the fan.
    """

    dimension: int
    inequalities: list[tuple[list[mpmath.mpf], mpmath.mpf]]
    vertices: list[list[mpmath.mpf]]
    ideal_flags: list[bool]
    simplices: list[list[int]]
    steiner_point: list[mpmath.mpf]

    def simplex_points(self, simplex: list[int]) -> list[list[mpmath.mpf]]:
        return [self.vertices[k] if k >= 0 else self.steiner_point for k in simplex]


def realize(G: GramMatrix, prec: int = DEFAULT_PREC) -> PolytopeRealization:
    """Factor the Gram matrix into unit normals spanning a Lorentzian frame.

    The signature is checked exactly.  In the symmetric eigendecomposition
    of the float image, the most negative eigenmode becomes the timelike
    coordinate and the n largest the spacelike ones; the N - n - 1 zero
    modes are dropped.
    """
    assert_lorentzian(G)
    n, N = G.dimension, G.size
    with mp.workprec(prec):
        eigvals, Q = mp.eigsy(G.evaluate(prec))
        order = sorted(range(N), key=lambda k: eigvals[k])
        cols = [order[0]] + order[N - n:]
        normals = [[Q[i, k] * mp.sqrt(abs(eigvals[k])) for k in cols] for i in range(N)]
    return PolytopeRealization(n, normals, prec, G)


def _row_reduce(rows: list[list[mpmath.mpf]], prec: int) -> tuple[list[list[mpmath.mpf]], list[int]]:
    """Reduced row echelon form by Gaussian elimination with partial pivoting.

    Entries below 2^(-2 prec / 3) in magnitude count as zero.  Returns the
    reduced rows, each pivot row scaled to a unit pivot, and the pivot
    columns in order; their count is the numerical rank.
    """
    m = len(rows)
    w = len(rows[0])
    A = [row[:] for row in rows]
    piv_cols = []
    r = 0
    drop = mp.mpf(2) ** (-(prec * 2) // 3)
    for c in range(w):
        p, best = None, drop
        for i in range(r, m):
            if abs(A[i][c]) > best:
                p, best = i, abs(A[i][c])
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and abs(A[i][c]) > 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return A, piv_cols


def _nullspace_vector(rows: list[list[mpmath.mpf]], prec: int) -> list[mpmath.mpf] | None:
    """One unit vector spanning the nullspace of an n x (n+1) system.

    Returns None when the nullspace has dimension greater than one
    (degenerate intersection).  Negating rows leaves the result unchanged
    bit for bit, since every pivot choice and rounding is sign-symmetric.
    """
    A, piv_cols = _row_reduce(rows, prec)
    w = len(rows[0])
    free = [c for c in range(w) if c not in piv_cols]
    if len(free) != 1:
        return None
    fc = free[0]
    x = [mp.mpf(0)] * w
    x[fc] = mp.mpf(1)
    for row, pc in zip(A, piv_cols):
        x[pc] = -row[fc]
    norm = mp.sqrt(sum(c * c for c in x))
    return [c / norm for c in x]


def census(G: GramMatrix) -> tuple[list[list[FacetSet]], list[tuple[FacetSet, FacetSet]]]:
    """Exact face census of the polytope with Gram matrix G.

    Returns the elliptic facet sets by size, entry k listing the k-sets in
    lexicographic order (entry 0 is the polytope itself), and per ideal
    vertex its first n-set of inertia (n - 1, 0, 1) together with its
    parabolic set, the union of all such n-sets whose union keeps rank
    n - 1 with no negative part.  For a finite-volume polytope the elliptic
    k-sets are its faces of codimension k, the elliptic n-sets its finite
    vertices, and the parabolic sets the facets through its ideal vertices.
    """
    n, N = G.dimension, G.size

    def sub_inertia(S):
        return inertia([[G[i, j] for j in S] for i in S])

    faces: list[list[FacetSet]] = [[()]]
    for k in range(1, n + 1):
        below = set(faces[-1])
        faces.append([S + (j,) for S in faces[-1] for j in range(S[-1] + 1 if S else 0, N)
                      if all(S[:i] + S[i + 1:] + (j,) in below for i in range(k - 1))
                      and sub_inertia(S + (j,)) == (k, 0, 0)])
    finite = set(faces[n])
    cusps: list[tuple[FacetSet, FacetSet]] = []
    for T in combinations(range(N), n):
        if T in finite or any(set(T) <= set(P) for _, P in cusps):
            continue
        if sub_inertia(T) != (n - 1, 0, 1):
            continue
        for c, (first, P) in enumerate(cusps):
            U = tuple(sorted({*P, *T}))
            if sub_inertia(U) == (n - 1, 0, len(U) - n + 1):
                cusps[c] = (first, U)
                break
        else:
            cusps.append((T, T))
    return faces, cusps


def _vertex_line(normals, subset, prec) -> list[mpmath.mpf]:
    """The line where the facets of ``subset`` meet, pointing to the future."""
    # <e_i, x> = 0 in the Minkowski form: negate the timelike column
    x = _nullspace_vector([[-normals[i][0]] + normals[i][1:] for i in subset], prec)
    if x is None:
        raise NoVertices(f"facets {list(subset)} do not meet in a line; the input is invalid")
    return [-c for c in x] if x[0] < 0 else x


def enumerate_vertices(realization: PolytopeRealization) -> PolytopeRealization:
    """Fill in the finite and ideal vertices of the census.

    Each vertex is solved once, on its first n-set, and the time orientation
    of the frame is fixed by the first vertex: if it violates a facet
    inequality, every normal is flipped.  Every vertex must then lie
    strictly inside each facet half-space not through it, and every edge
    must have two ends, as in a finite-volume polytope.
    """
    n = realization.dimension
    faces, cusps = census(realization.gram)
    sets = [frozenset(T) for T in faces[n]] + [frozenset(P) for _, P in cusps]
    if not sets:
        raise NoVertices("no facet n-subset meets the ball closure; "
                         "polytope is unbounded or the input is invalid")
    for edge in faces[n - 1]:
        ends = sum(1 for S in sets if S.issuperset(edge))
        if ends != 2:
            raise NoVertices(f"edge on facets {list(edge)} has {ends} end(s); "
                             "the polytope has infinite volume or the input is invalid")
    with mp.workprec(realization.prec):
        normals = realization.normals
        finite = []
        for T in faces[n]:
            x = _vertex_line(normals, T, realization.prec)
            scale = 1 / mp.sqrt(-_mink(x, x))
            finite.append([c * scale for c in x])
        ideal = []
        for T, _ in cusps:
            x = _vertex_line(normals, T, realization.prec)
            ideal.append([c / x[0] for c in x])
        verts = finite + ideal
        if any(_mink(verts[0], e) > 0 for j, e in enumerate(normals) if j not in sets[0]):
            normals = realization.normals = [[-c for c in e] for e in normals]
        for x, S in zip(verts, sets):
            if any(_mink(x, e) >= 0 for j, e in enumerate(normals) if j not in S):
                raise NoVertices(f"the vertex on facets {sorted(S)} violates a facet "
                                 "inequality; the input is not a polytope")
    realization.finite_vertices = finite
    realization.ideal_vertices = ideal
    realization.vertex_facets = sets
    realization.faces = {frozenset(S) for level in faces for S in level}
    return realization


def to_klein(realization: PolytopeRealization) -> KleinPolytope:
    """Central projection to the unit ball with a fan triangulation.

    Finite vertices map inside the ball, ideal ones onto the sphere (they
    are renormalized to unit length so the cusp integrand sees an exactly
    ideal point).  The triangulation cones every facet's recursive fan to
    the Steiner point at the vertex centroid.
    """
    n = realization.dimension
    if len(realization.finite_vertices) + len(realization.ideal_vertices) < n + 1:
        raise NoVertices("fewer than n+1 vertices; cannot triangulate")
    with mp.workprec(realization.prec):
        verts: list[list[mpmath.mpf]] = []
        flags: list[bool] = []
        for x in realization.finite_vertices:
            verts.append([c / x[0] for c in x[1:]])
            flags.append(False)
        for x in realization.ideal_vertices:
            v = x[1:]
            norm = mp.sqrt(sum(c * c for c in v))
            verts.append([c / norm for c in v])
            flags.append(True)

        inequalities = []
        for e in realization.normals:
            inequalities.append(([c for c in e[1:]], e[0]))

        centroid = [sum(v[i] for v in verts) / len(verts) for i in range(n)]
        if len(verts) == n + 1:
            simplices = [list(range(n + 1))]  # the polytope is one simplex
        else:
            simplices = _fan_triangulation(n, realization)
        return KleinPolytope(n, inequalities, verts, flags, simplices, centroid)


def _fan_triangulation(n, realization: PolytopeRealization) -> list[list[int]]:
    """Steiner-point fan over facets, recursively fanned from the smallest
    vertex index within each face.  A face is its elliptic facet set, and
    its vertices are those whose facet set contains it."""
    vertex_facets, faces = realization.vertex_facets, realization.faces
    N = realization.facet_count

    def triangulate_face(S: frozenset[int], d: int) -> list[list[int]]:
        ids = [k for k, F in enumerate(vertex_facets) if S <= F]
        if len(ids) < d + 1:
            raise TriangulationFailure(f"face {sorted(ids)} has too few vertices for dim {d}")
        if len(ids) == d + 1:
            return [ids]
        apex = ids[0]
        pieces = []
        for j in range(N):
            ridge = S | {j}
            if j in S or ridge not in faces or ridge <= vertex_facets[apex]:
                continue
            for s in triangulate_face(ridge, d - 1):
                pieces.append(s + [apex])
        if not pieces:
            raise TriangulationFailure(f"face {sorted(ids)} has no usable sub-facets")
        return pieces

    return [s + [-1] for i in range(N) for s in triangulate_face(frozenset([i]), n - 1)]
