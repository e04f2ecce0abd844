"""Hyperboloid-model realization and Klein-model description of a polytope.

The combinatorics are exact: the census reads faces, vertices and
incidences off the exact Gram matrix (Vinberg, "Hyperbolic reflection
groups", Russian Math. Surveys 40, 1985, Thm 3.1), by one
``diagram.schur_step`` per connected candidate and zero tests on the
non-orthogonality graph ``GramMatrix.neighbours``.
Coordinates are float64: with every incidence decided exactly, they only
feed the integrator, which works in float64, and two safety checks.  numpy
is imported by the functions that use it, so the census loads none.  The
Minkowski form used throughout is <x, y> = -x0*y0 + x1*y1 + ... with the
timelike coordinate first.  The Klein fan cones one facet per orbit of the
Gram matrix's exact automorphisms (``facet_orbits``), weighted by the orbit
size: every such automorphism is an isometry of the polytope fixing its
centre, so the facets of one orbit have cones of equal volume.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .diagram import GramMatrix, assert_lorentzian, bfs, schur_step
from .errors import NoVertices, TooLarge, TriangulationFailure

FacetSet = tuple[int, ...]


def _flip_time(X: np.ndarray) -> np.ndarray:
    """X with its timelike column negated, so that X' @ y is <x, y> per row x."""
    import numpy as np
    Y = np.array(X, dtype=np.float64)
    Y[..., 0] *= -1.0
    return Y


class PolytopeRealization:
    """Unit facet normals in Minkowski space, plus the census vertices.

    ``normals`` is an (N, n+1) array.  Finite vertices are normalized to
    <x, x> = -1 with x0 > 0; ideal vertices are light-cone rays normalized
    to x0 = 1.  ``vertex_facets`` holds the facet set of each finite, then
    each ideal vertex, and ``faces`` every elliptic facet set, i.e. every
    face not at infinity.  Enumerating the vertices centres the frame (see
    ``centring_boost``).
    """

    def __init__(self, dimension: int, normals: np.ndarray, gram: GramMatrix):
        self.dimension, self.normals, self.gram = dimension, normals, gram
        self.finite_vertices: list[np.ndarray] = []
        self.ideal_vertices: list[np.ndarray] = []
        self.vertex_facets: list[frozenset[int]] = []
        self.faces: set[frozenset[int]] = set()

    @property
    def facet_count(self) -> int:
        return len(self.normals)


class KleinPolytope(NamedTuple):
    """Affine picture in the unit ball: vertices and a weighted triangulation;
    an immutable tuple.

    ``vertices`` is a (V, n) array whose rows carry an ideal flag (on the
    unit sphere).  Simplices index into its rows, with -1 denoting the
    origin, the polytope's centre, from which the fan is coned.  Each
    simplex counts ``weights`` times, once for every facet of the orbit
    whose representative's cone it triangulates; the volume is the
    weighted sum over the simplices.
    """

    dimension: int
    vertices: np.ndarray
    ideal_flags: list[bool]
    simplices: list[list[int]]
    weights: list[int]


def centring_boost(finite, ideal) -> np.ndarray:
    """The Lorentz boost B that sends the vertices' centre c to e0.

    c is the normalized sum of the finite vertices, which every isometry of
    the polytope fixes, or of the ideal ones when there are none, scaled by
    the caller so that every isometry fixes their sum too.  It lies in the
    relative interior of those vertices' convex hull: inside the polytope,
    or on the facets through all of them.  For c = (c0, u) with
    <c, c> = -1, B is [[c0, -u'], [-u, I + u u' / (1 + c0)]].
    """
    import numpy as np
    c = np.sum(finite if len(finite) else ideal, axis=0)
    c = c / np.sqrt(-(_flip_time(c) @ c))
    c0, u = c[0], c[1:]
    return np.block([[np.array([[c0]]), -u[None]],
                     [-u[:, None], np.eye(len(u)) + np.outer(u, u) / (1.0 + c0)]])


def realize(G: GramMatrix) -> PolytopeRealization:
    """Factor the Gram matrix into unit normals spanning a Lorentzian frame.

    The signature is checked exactly.  In the symmetric eigendecomposition
    of the float image, the most negative eigenmode becomes the timelike
    coordinate and the n largest the spacelike ones; the N - n - 1 zero
    modes are dropped.  Each distinct entry is converted to float once, and
    one past the float64 range raises TooLarge.
    """
    import numpy as np
    assert_lorentzian(G)
    n, N = G.dimension, G.size
    image = {e: float(e) for e in {e for row in G.entries for e in row}}
    if not all(map(math.isfinite, image.values())):
        raise TooLarge("a Gram entry exceeds the float64 range")
    eigvals, Q = np.linalg.eigh([[image[e] for e in row] for row in G.entries])
    cols = [0, *range(N - n, N)]  # eigenvalues come in ascending order
    return PolytopeRealization(n, Q[:, cols] * np.sqrt(np.abs(eigvals[cols])), G)


def census(G: GramMatrix) -> tuple[list[list[FacetSet]], list[tuple[FacetSet, FacetSet]]]:
    """Exact face census of the polytope with Gram matrix G.

    Returns the elliptic facet sets by size, entry k listing the k-sets in
    lexicographic order (entry 0 is the polytope itself), and per ideal
    vertex its first n-set of inertia (n - 1, 0, 1) together with its
    parabolic set, the facets through it.  For a finite-volume polytope the
    elliptic k-sets are its faces of codimension k, the elliptic n-sets its
    finite vertices.

    A candidate k-set U = S + j, S elliptic, first passes the subset test:
    every (k-1)-subset of U is elliptic.  If U is disconnected in the
    non-orthogonality graph, G[U] is block diagonal and each block, a proper
    subset of U, lies in an elliptic (k-1)-subset; so U is elliptic with no
    arithmetic.  When S keeps a factor it is connected, so U is connected
    iff j meets S, and no BFS runs.  A connected U costs one
    ``diagram.schur_step`` on the LDL' factor G[R] = L D L' of R = U - i,
    where i is j if S keeps a factor, else the last vertex of a BFS of U, a
    leaf of its BFS tree; either way R is connected and elliptic, so it
    keeps a factor.  G[R] is positive definite, so G[U] has its inertia
    plus the sign of the complement c = G_ii - y D^-1 y', where
    L y = G[R, i]: U is elliptic iff c > 0, and connected parabolic (every
    proper subset elliptic, G[U] singular) iff c = 0.  Only connected
    elliptic sets below n facets keep a factor, and a pivot is inverted
    when its factor first serves as a basis.

    A positive semidefinite matrix of rank n - 1 has an elliptic
    (n-1)-subset, and an n-set T on an elliptic ridge T - d has inertia
    (n - 1, 0, 1) iff K, the component of d in T, is connected parabolic,
    as the other components lie in T - d: a lookup among the recorded sets.
    The vertex is v = sum k_i e_i over K, k > 0 the Perron kernel vector of
    G[K].  Off-diagonal Gram entries are nonpositive, so <v, e_j> =
    sum k_i G_ij is zero iff G_ij = 0 for every i in K: the parabolic set
    is K plus the facets that meet no facet of K.  The normals span, so
    v = 0 iff that is every facet, when K is a component of the graph, and
    T is no ideal vertex.  No matrix is eliminated in full.
    """
    n, N = G.dimension, G.size
    A, near = G.entries, G.neighbours
    # connected elliptic R below n facets -> (R in pivot order, multiplier rows,
    # inverse pivots, the last pivot while it is not yet inverted) of G[R]
    factors = {(): ((), [], [], None)}
    parabolic = set()    # connected parabolic sets

    def factor(R: FacetSet):
        basis, rows, inverses, pivot = factors[R]
        if pivot is not None:
            inverses = inverses + [pivot.inverse()]
            factors[R] = basis, rows, inverses, None
        return basis, rows, inverses

    faces: list[list[FacetSet]] = [[()]]
    for k in range(1, n + 1):
        below = set(faces[-1])
        level = []
        for S in faces[-1]:
            for j in range(S[-1] + 1 if S else 0, N):
                U = S + (j,)
                if not all(S[:i] + S[i + 1:] + (j,) in below for i in range(k - 1)):
                    continue
                if S in factors:
                    connected, i = not S or not set(near[j]).isdisjoint(S), j
                else:
                    tree = bfs(near, U[0], U)
                    connected, i = len(tree) == k, next(reversed(tree))
                if not connected:
                    level.append(U)
                    continue
                basis, rows, inverses = factor(tuple(u for u in U if u != i))
                c, _, row = schur_step(A, basis, rows, inverses, i)
                if c.sign() > 0:
                    level.append(U)
                    if k < n:
                        factors[U] = basis + (i,), rows + [row], inverses, c
                elif c.is_zero():
                    parabolic.add(U)
        faces.append(level)
    finite, ridges = set(faces[n]), set(faces[n - 1])
    cusps: list[tuple[FacetSet, FacetSet]] = []
    for T in combinations(range(N), n):
        if T in finite or any(set(T) <= set(P) for _, P in cusps):
            continue
        d = next((d for i, d in enumerate(T) if T[:i] + T[i + 1:] in ridges), None)
        if d is None:
            continue
        K = bfs(near, d, T).keys()
        if tuple(sorted(K)) in parabolic:
            P = tuple(j for j in range(N) if j in K or K.isdisjoint(near[j]))
            if len(P) < N:    # else K is a component of the graph, and v = 0
                cusps.append((T, P))
    return faces, cusps


def enumerate_vertices(realization: PolytopeRealization) -> PolytopeRealization:
    """Fill in the finite and ideal vertices of the census.

    Each vertex is solved once, on its first n-set, as one row of a stacked
    SVD, and the time orientation of the frame is fixed by the first vertex:
    if it violates a facet inequality, every normal is flipped.  Every
    vertex must then lie strictly inside each facet half-space not through
    it, and every edge must have two ends, as in a finite-volume polytope.
    Last, normals and vertices move to the centred frame of
    ``centring_boost``, whose centre every isometry of the polytope fixes,
    whatever the frame of the normals.
    """
    import numpy as np
    n, N = realization.dimension, realization.facet_count
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
    normals = realization.normals
    # each vertex's line is the last right-singular vector of the n x (n+1)
    # system <e_i, x> = 0 on its first n-set, which must have rank n
    subsets = faces[n] + [T for T, _ in cusps]
    _, s, Vt = np.linalg.svd(_flip_time(normals[np.array(subsets)]))
    flat = s[:, -1] <= s[:, 0] * (n + 1) * np.finfo(np.float64).eps
    if flat.any():
        raise NoVertices(f"facets {list(subsets[flat.argmax()])} do not meet in a line; "
                         "the input is invalid")
    lines = [-x if x[0] < 0 else x for x in Vt[:, -1]]    # pointing to the future
    finite = [x / np.sqrt(-(_flip_time(x) @ x)) for x in lines[:len(faces[n])]]
    ideal = [x / x[0] for x in lines[len(faces[n]):]]
    pairings = np.array(finite + ideal) @ _flip_time(normals).T    # [vertex, facet]
    off = np.array([[j not in S for j in range(N)] for S in sets])
    if (pairings[0, off[0]] > 0).any():
        normals = realization.normals = -normals
        pairings = -pairings
    for row, out, S in zip(pairings, off, sets):
        if (row[out] >= 0).any():
            raise NoVertices(f"the vertex on facets {sorted(S)} violates a facet "
                             "inequality; the input is not a polytope")
    if not finite:
        # scale the rays by |<x, t>| for the Gram matrix's own time axis
        # t = sum_i q_i e_i, q its negative eigenvector, which every isometry
        # of the polytope fixes in any frame; in that of ``realize`` t is e0
        t = np.linalg.eigh(normals @ _flip_time(normals).T)[1][:, 0] @ normals
        ideal = [x / abs(_flip_time(x) @ t) for x in ideal]
    B = centring_boost(finite, ideal)
    realization.normals = normals @ B.T
    finite = [x / np.sqrt(-(_flip_time(x) @ x)) for x in (B @ x for x in finite)]
    realization.finite_vertices = finite
    realization.ideal_vertices = [x / x[0] for x in (B @ x for x in ideal)]
    realization.vertex_facets = sets
    realization.faces = {frozenset(S) for level in faces for S in level}
    return realization


def facet_orbits(G: GramMatrix) -> list[list[int]]:
    """The facets' orbits under the permutations s with G[s(i)][s(j)] ==
    G[i][j] for all i, j, each ascending, ordered by their least facet.

    Such an s is an isometry of the polytope that fixes its centre.  It
    extends linearly to an isometry of R^{n,1} sending normal e_i to
    e_s(i): the normals span R^{n,1}, their linear relations are the kernel
    of G, and s preserves that kernel.  The isometry maps the cone
    {x : <x, e_i> <= 0 for all i} onto itself; that cone is the one over
    the polytope, inside the future light cone, so the isometry keeps the
    time orientation and permutes the vertices.  It therefore fixes the
    centre c of ``centring_boost`` and maps the cone from c over facet i
    onto the cone over facet s(i), of equal volume.

    Facets are first split by the sorted multiset of their Gram rows.
    Then, for each pair (i, j) of one class not yet known to share an
    orbit, ``_automorphism`` looks for one such s with s(i) = j, and the
    cycles of the s it finds merge orbits.  The group itself is never
    enumerated: each pair is searched at most once.
    """
    ids: dict = {}    # each distinct entry as a small integer
    A = [[ids.setdefault(e, len(ids)) for e in row] for row in G.entries]
    rows = [sorted(row) for row in A]
    N = G.size
    least = list(range(N))    # the least facet of each facet's orbit so far
    for i, j in combinations(range(N), 2):
        if least[i] != least[j] and rows[i] == rows[j]:
            for k, image in enumerate(_automorphism(A, rows, i, j) or ()):
                low, high = sorted((least[k], least[image]))
                least = [low if m == high else m for m in least]
    return [[k for k in range(N) if least[k] == m] for m in sorted(set(least))]


def _automorphism(A: list[list[int]], rows: list[list[int]], i: int, j: int) -> list[int] | None:
    """A permutation s of the facets with s(i) = j that keeps every entry of
    A, as the list of images, or None: a backtracking search that maps i,
    then every other facet in turn, to an unused facet of the same row
    multiset and checks its entries against every facet mapped so far."""
    N = len(A)
    order = [i, *(k for k in range(N) if k != i)]
    image: list[int] = [-1] * N

    def extend(at: int) -> bool:
        if at == N:
            return True
        k, done = order[at], order[:at]
        for m in [j] if at == 0 else range(N):
            if (m not in image and rows[m] == rows[k]
                    and all(A[m][image[u]] == A[k][u] for u in done)):
                image[k] = m
                if extend(at + 1):
                    return True
                image[k] = -1
        return False

    return image if extend(0) else None


def to_klein(realization: PolytopeRealization) -> KleinPolytope:
    """Central projection to the unit ball with a fan triangulation.

    Finite vertices map inside the ball, ideal ones onto the sphere (they
    are renormalized to unit length so the cusp integrand sees an exactly
    ideal point).  The triangulation cones one facet per orbit of
    ``facet_orbits``, its least, to the origin, the centre of the frame, and
    weights it by the orbit size; within the facet, each face is coned from
    its best vertex, the one on the most of its ridges (see
    ``_fan_triangulation``).  It leaves out the orbits of facets through the
    centre, whose cones are flat.
    """
    import numpy as np
    n = realization.dimension
    finite, ideal = realization.finite_vertices, realization.ideal_vertices
    if len(finite) + len(ideal) < n + 1:
        raise NoVertices("fewer than n+1 vertices; cannot triangulate")
    verts = np.array([x[1:] / x[0] for x in finite]
                     + [x[1:] / np.linalg.norm(x[1:]) for x in ideal])
    flags = [False] * len(finite) + [True] * len(ideal)
    return KleinPolytope(n, verts, flags, *_fan_triangulation(n, realization))


def _fan_triangulation(n, realization: PolytopeRealization) -> tuple[list[list[int]], list[int]]:
    """Fan from the origin over one facet per orbit, each face recursively
    fanned from its best vertex, and each simplex's weight, its orbit's
    size.  A face is its elliptic facet set S, its vertices are those whose
    facet set contains S, and its ridges are the faces S + j.  A convex face
    is the union of the cones from any of its vertices over its ridges; a
    ridge through that apex spans a flat cone, so only the ridges that miss
    the apex are coned.  The apex is the vertex on the most ridges, ties to
    the least index, so that the fewest ridges are fanned (a pulling
    triangulation)."""
    vertex_facets, faces = realization.vertex_facets, realization.faces
    N = realization.facet_count

    def triangulate_face(S: frozenset[int], d: int) -> list[list[int]]:
        ids = [k for k, F in enumerate(vertex_facets) if S <= F]
        if len(ids) < d + 1:
            raise TriangulationFailure(f"face {sorted(ids)} has too few vertices for dim {d}")
        if len(ids) == d + 1:
            return [ids]
        ridges = [S | {j} for j in range(N) if j not in S and S | {j} in faces]
        apex = max(ids, key=lambda k: sum(ridge <= vertex_facets[k] for ridge in ridges))
        pieces = []
        for ridge in ridges:
            if ridge <= vertex_facets[apex]:
                continue
            for s in triangulate_face(ridge, d - 1):
                pieces.append(s + [apex])
        if not pieces:
            raise TriangulationFailure(f"face {sorted(ids)} has no usable sub-facets")
        return pieces

    # the centre lies on the facets through every vertex it is the centre of
    centred = vertex_facets[:len(realization.finite_vertices)] or vertex_facets
    through_centre = frozenset.intersection(*centred)
    simplices, weights = [], []
    for orbit in facet_orbits(realization.gram):
        if orbit[0] not in through_centre:
            cone = triangulate_face(frozenset(orbit[:1]), n - 1)
            simplices += [s + [-1] for s in cone]
            weights += [len(orbit)] * len(cone)
    return simplices, weights
