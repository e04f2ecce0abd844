"""Hyperboloid-model realization and Klein-model description of a polytope.

All geometry here is numeric at a configurable binary precision (mpmath
floats, default 128 bits); exactness lives upstream in the Gram matrix.
The Minkowski form used throughout is <x, y> = -x0*y0 + x1*y1 + ... with
the timelike coordinate first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations

import mpmath
from mpmath import mp

from .diagram import GramMatrix
from .errors import NotLorentzian, NoVertices, TriangulationFailure

log = logging.getLogger(__name__)

DEFAULT_PREC = 128

Matrix = mpmath.matrix


def _mink(x, y):
    total = -x[0] * y[0]
    for i in range(1, len(x)):
        total += x[i] * y[i]
    return total


@dataclass
class PolytopeRealization:
    """Unit facet normals in Minkowski space, plus enumerated vertices.

    Finite vertices are normalized to <x, x> = -1 with x0 > 0; ideal
    vertices are light-cone rays normalized to x0 = 1.
    """

    dimension: int
    normals: list[list[mpmath.mpf]]
    prec: int
    tolerance: mpmath.mpf
    finite_vertices: list[list[mpmath.mpf]] = field(default_factory=list)
    ideal_vertices: list[list[mpmath.mpf]] = field(default_factory=list)

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


def realize(G, prec: int = DEFAULT_PREC, dimension: int | None = None) -> PolytopeRealization:
    """Factor the float Gram into unit normals spanning a Lorentzian frame.

    Symmetric eigendecomposition of the float image; the single negative
    eigenvalue becomes the timelike coordinate, near-zero modes (rank
    deficiency N - n - 1) are discarded.

    Accepts an exact GramMatrix or any square array of floats (useful for
    angles like pi/7 whose cosine lives outside the surd ring); raw arrays
    need the ``dimension`` argument.
    """
    if isinstance(G, GramMatrix):
        n = G.dimension
        N = G.size
    else:
        if dimension is None:
            raise ValueError("dimension is required for a raw float Gram matrix")
        n = dimension
        N = len(G)
    with mp.workprec(prec):
        if isinstance(G, GramMatrix):
            Gf = G.evaluate(prec)
        else:
            Gf = mp.matrix([[mp.mpf(x) for x in row] for row in G])
            if Gf.rows != Gf.cols:
                raise ValueError("Gram matrix must be square")
        eigvals, Q = mp.eigsy(Gf)
        order = sorted(range(N), key=lambda k: eigvals[k])
        zero_cut = mp.mpf(2) ** (-prec // 2) * max(1, max(abs(eigvals[k]) for k in range(N)))
        neg = [k for k in order if eigvals[k] < -zero_cut]
        pos = [k for k in order if eigvals[k] > zero_cut]
        if len(neg) != 1 or len(pos) != n:
            raise NotLorentzian(
                f"float Gram has {len(pos)} positive and {len(neg)} negative "
                f"eigenvalues, expected ({n}, 1)"
            )
        cols = neg + pos
        normals = []
        for i in range(N):
            row = [Q[i, k] * mp.sqrt(abs(eigvals[k])) for k in cols]
            normals.append(row)
        # classification band: 2^-40 at 128 bits, scaling with precision
        tol = mp.mpf(2) ** (-(40 * prec) // 128)
        return PolytopeRealization(n, normals, prec, tol)


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


def _enumerate_candidates(realization: PolytopeRealization):
    """Finite and ideal vertices for both time orientations in one pass.

    Flipping every normal negates the rows of each facet n-subset, which
    leaves its line unchanged and negates every Minkowski pairing with the
    normals, so one solve per subset serves both orientations.  Returns
    the candidates of the unflipped and of the flipped normals, and the
    number of degenerate subsets.
    """
    n = realization.dimension
    normals = realization.normals
    band = realization.tolerance
    found = ([], []), ([], [])  # (finite, ideal) per orientation
    degenerate = 0
    for subset in combinations(range(realization.facet_count), n):
        # <e_i, x> = 0 in the Minkowski form: negate the timelike column
        rows = [[-normals[i][0]] + normals[i][1:] for i in subset]
        x = _nullspace_vector(rows, realization.prec)
        if x is None:
            degenerate += 1
            log.debug("degenerate intersection at facets %s", subset)
            continue
        q = _mink(x, x)
        if abs(x[0]) < band:
            continue
        if x[0] < 0:
            x = [-c for c in x]
        if q < -band:
            scale = 1 / mp.sqrt(-q)
            kind, point = 0, [c * scale for c in x]
        elif q <= band:
            kind, point = 1, [c / x[0] for c in x]
        else:
            continue  # spacelike lines are outside the hyperboloid model
        pairings = [_mink(x, e) for e in normals]
        if max(pairings) <= band:
            found[0][kind].append(point)
        if min(pairings) >= -band:
            found[1][kind].append(point)
    return found[0], found[1], degenerate


def _dedup(vectors, tol):
    out = []
    for v in vectors:
        if not any(all(abs(a - b) <= 64 * tol for a, b in zip(v, u)) for u in out):
            out.append(v)
    return out


def enumerate_vertices(realization: PolytopeRealization) -> PolytopeRealization:
    """Fill in finite and ideal vertices by intersecting facet n-subsets.

    Each n-subset of facets determines a line; timelike lines give finite
    vertices, light-cone lines give ideal ones, and candidates violating
    any facet inequality are dropped.  The time orientation of the frame is
    not canonical, so if one orientation yields nothing the normals are
    flipped globally and kept that way.
    """
    with mp.workprec(realization.prec):
        kept, flipped, degenerate = _enumerate_candidates(realization)
        finite, ideal = kept
        if not finite and not ideal:
            finite, ideal = flipped
            realization.normals = [[-c for c in e] for e in realization.normals]
        band = realization.tolerance
        finite, ideal = _dedup(finite, band), _dedup(ideal, band)
        if degenerate:
            log.info("skipped %d degenerate facet intersections", degenerate)
        if not finite and not ideal:
            raise NoVertices("no facet n-subset meets the ball closure; "
                             "polytope is unbounded or the input is invalid")
        realization.finite_vertices = finite
        realization.ideal_vertices = ideal
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

        tol = realization.tolerance
        incidence = []
        for e in realization.normals:
            members = []
            for k, v in enumerate(verts):
                val = -e[0] + sum(a * b for a, b in zip(e[1:], v))
                if abs(val) <= 64 * tol:
                    members.append(k)
            incidence.append(members)

        centroid = [sum(v[i] for v in verts) / len(verts) for i in range(n)]
        if len(verts) == n + 1:
            simplices = [list(range(n + 1))]  # the polytope is one simplex
        else:
            simplices = _fan_triangulation(n, verts, incidence, realization.prec)
        return KleinPolytope(n, inequalities, verts, flags, simplices, centroid)


def _affine_dim(ids: list[int], verts, prec: int) -> int:
    if len(ids) <= 1:
        return 0
    base = verts[ids[0]]
    rows = [[verts[k][i] - base[i] for i in range(len(base))] for k in ids[1:]]
    return len(_row_reduce(rows, prec)[1])


def _fan_triangulation(n, verts, incidence, prec) -> list[list[int]]:
    """Steiner-point fan over facets, recursively fanned from the smallest
    vertex index within each face (faces are identified by their defining
    hyperplane sets)."""
    incidence_sets = [set(m) for m in incidence]

    def triangulate_face(defining: frozenset[int], ids: list[int], d: int) -> list[list[int]]:
        if len(ids) < d + 1:
            raise TriangulationFailure(f"face {sorted(ids)} has too few vertices for dim {d}")
        if len(ids) == d + 1:
            return [list(ids)]
        apex = min(ids)
        pieces = []
        seen_ridges = set()  # the same ridge can be cut out by several hyperplanes
        for j in range(len(incidence)):
            if j in defining:
                continue
            sub = [k for k in ids if k in incidence_sets[j]]
            if apex in sub or len(sub) < d:
                continue
            key = frozenset(sub)
            if key in seen_ridges:
                continue
            if _affine_dim(sub, verts, prec) != d - 1:
                continue
            seen_ridges.add(key)
            for s in triangulate_face(defining | {j}, sub, d - 1):
                pieces.append(s + [apex])
        if not pieces:
            raise TriangulationFailure(f"face {sorted(ids)} has no usable sub-facets")
        return pieces

    simplices = []
    for i, members in enumerate(incidence):
        if _affine_dim(members, verts, prec) != n - 1:
            continue
        for s in triangulate_face(frozenset([i]), members, n - 1):
            simplices.append(s + [-1])
    if not simplices:
        raise TriangulationFailure("no full-dimensional facets found")
    return simplices
