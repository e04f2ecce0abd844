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
from functools import reduce
from itertools import combinations
from typing import NamedTuple

from .diagram import GramMatrix, assert_lorentzian, schur_step
from .errors import NoVertices, TooLarge, TriangulationFailure

FacetSet = int    # a set of facets as a bitmask: bit j is facet j


def _facets(S: FacetSet) -> list[int]:
    """The facets of S, ascending."""
    return [j for j in range(S.bit_length()) if S >> j & 1]


def _flip_time(X: np.ndarray) -> np.ndarray:
    """X with its timelike column negated, so that X' @ y is <x, y> per row x."""
    import numpy as np
    Y = np.array(X, dtype=np.float64)
    Y[..., 0] *= -1.0
    return Y


def _on_hyperboloid(X: np.ndarray) -> np.ndarray:
    """The timelike rows x of X scaled to <x, x> = -1."""
    import numpy as np
    return X / np.sqrt(-np.einsum("ij,ij->i", _flip_time(X), X))[:, None]


class PolytopeRealization:
    """Unit facet normals in Minkowski space, plus the census vertices.

    ``normals`` is an (N, n+1) array.  Finite vertices are normalized to
    <x, x> = -1 with x0 > 0; ideal vertices are light-cone rays normalized
    to x0 = 1; both are lists of rows.  ``vertex_facets`` holds the facet
    set of each finite, then each ideal vertex, and ``faces`` every
    elliptic facet set, i.e. every face not at infinity, each set a
    bitmask as in ``census``.  Enumerating the vertices centres the frame (see
    ``centring_boost``).
    """

    def __init__(self, dimension: int, normals: np.ndarray, gram: GramMatrix):
        self.dimension, self.normals, self.gram = dimension, normals, gram
        self.finite_vertices: list[np.ndarray] = []
        self.ideal_vertices: list[np.ndarray] = []
        self.vertex_facets: list[FacetSet] = []
        self.faces: set[FacetSet] = set()

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
    modes are dropped.  The image is built from the graph's edges, with 1.0
    on the diagonal and 0.0 off the edges; each distinct edge entry is
    converted to float once, and one past the float64 range raises TooLarge.
    """
    import numpy as np
    assert_lorentzian(G)
    n, N = G.dimension, G.size
    image, floats = np.eye(N), {}
    for i, row in enumerate(G.neighbours):
        for j in row:
            if j > i:
                e = G.entries[i][j]
                x = floats.get(e)
                if x is None:
                    x = floats[e] = float(e)
                image[i, j] = image[j, i] = x
    if not all(map(math.isfinite, floats.values())):
        raise TooLarge("a Gram entry exceeds the float64 range")
    eigvals, Q = np.linalg.eigh(image)
    cols = [0, *range(N - n, N)]  # eigenvalues come in ascending order
    return PolytopeRealization(n, Q[:, cols] * np.sqrt(np.abs(eigvals[cols])), G)


def census(G: GramMatrix) -> tuple[list[list[FacetSet]], list[tuple[FacetSet, FacetSet]]]:
    """Exact face census of the polytope with Gram matrix G.

    Every facet set is a bitmask, bit j facet j (``FacetSet``).  Returns
    the elliptic facet sets by size, entry k listing the k-sets in
    lexicographic order of their ascending facets (entry 0 is the polytope
    itself, the empty set 0), and per ideal vertex its first n-set of
    inertia (n - 1, 0, 1) together with its parabolic set, the facets
    through it.  For a finite-volume polytope the elliptic k-sets are its
    faces of codimension k, the elliptic n-sets its finite vertices.

    A candidate k-set U = S + j, j above the facets of S and S elliptic,
    first passes the subset test: U minus each facet of S is elliptic.  If U
    is disconnected in the non-orthogonality graph, G[U] is block diagonal
    and each block, a proper subset of U, lies in an elliptic (k-1)-subset;
    so U is elliptic with no arithmetic.  Only connected elliptic sets below
    n facets keep a factor, so no search decides connectivity: when S keeps
    a factor, U is connected iff j's neighbour mask meets S, and i = j; else
    S is disconnected, and U is connected iff some facet i of S meets
    U - i, an elliptic set that keeps a factor, the least such i tested in
    the loop of the subset test.  A connected U costs one
    ``diagram.schur_step`` on the LDL' factor G[R] = L D L' of R = U - i.
    G[R] is positive definite, so G[U] has its inertia plus the sign of the
    complement c = G_ii - y D^-1 y', where L y = G[R, i], a sign that no
    choice of i changes: U is elliptic iff c > 0, and connected parabolic
    (every proper subset elliptic, G[U] singular) iff c = 0.  A pivot is
    inverted when its factor first serves as a basis.

    Each recorded connected parabolic K spans v = sum k_i e_i, k > 0 the
    Perron kernel vector of G[K], and <v, v> = 0.  Off-diagonal Gram
    entries are nonpositive, so <v, e_j> = sum k_i G_ij is zero iff
    G_ij = 0 for every i in K: the parabolic set P, the facets through v,
    is K plus the facets that meet no facet of K.  The normals span, so
    v = 0 iff P is every facet, when K is a component of the graph.  Else
    v^perp is positive semidefinite, so G[T] is for each T in P, and an
    n-set T in P on an elliptic ridge T - d has inertia (n - 1, 0, 1), its
    one non-elliptic component K' the component of d.  Its normals are
    independent iff K' spans v' != 0, when they span v^perp, so that T lies
    in no other parabolic set and P(K') = P.  Each ideal vertex is thus
    named by the first n-set of its P, in lexicographic order, that holds a
    K with that P and an elliptic ridge, with no walk over all n-sets.  No
    matrix is eliminated in full.
    """
    n, N = G.dimension, G.size
    A = G.entries
    near = [sum(1 << j for j in row) for row in G.neighbours]
    # connected elliptic R below n facets -> (R in pivot order, multiplier rows,
    # inverse pivots, the last pivot while it is not yet inverted) of G[R]
    factors = {0: ((), [], [], None)}
    parabolic = set()    # connected parabolic sets

    def factor(R: FacetSet):
        basis, rows, inverses, pivot = factors[R]
        if pivot is not None:
            inverses = inverses + [pivot.inverse()]
            factors[R] = basis, rows, inverses, None
        return basis, rows, inverses

    faces: list[list[FacetSet]] = [[0]]
    for k in range(1, n + 1):
        below = set(faces[-1])
        level = []
        for S in faces[-1]:
            lows, rest = [], S
            while rest:
                lows.append(rest & -rest)
                rest ^= lows[-1]
            kept = S in factors
            for j in range(S.bit_length(), N):
                U = S | 1 << j
                i = j if kept and (not S or near[j] & S) else None
                for low in lows:
                    R = U ^ low
                    if R not in below:
                        break
                    if i is None and not kept and R in factors and near[low.bit_length() - 1] & R:
                        i = low.bit_length() - 1
                else:
                    if i is None:    # disconnected
                        level.append(U)
                        continue
                    basis, rows, inverses = factor(U ^ 1 << i)
                    c, _, row = schur_step(A, basis, rows, inverses, i)
                    if c.sign() > 0:
                        level.append(U)
                        if k < n:
                            factors[U] = basis + (i,), rows + [row], inverses, c
                    elif c.is_zero():
                        parabolic.add(U)
        faces.append(level)
    ridges = set(faces[n - 1])
    groups: dict[FacetSet, list[FacetSet]] = {}    # parabolic set -> its K
    for K in parabolic:
        P = K | sum(1 << j for j in range(N) if not near[j] & K)
        if P != (1 << N) - 1:    # else K is a component of the graph, and v = 0
            groups.setdefault(P, []).append(K)
    cusps: list[tuple[FacetSet, FacetSet]] = []
    for P, Ks in groups.items():
        for ts in combinations(_facets(P), n):
            T = sum(1 << d for d in ts)
            if any(T & K == K for K in Ks) and any(T ^ 1 << d in ridges for d in ts):
                cusps.append((T, P))
                break
    cusps.sort(key=lambda cusp: _facets(cusp[0]))
    return faces, cusps


def enumerate_vertices(realization: PolytopeRealization) -> PolytopeRealization:
    """Fill in the finite and ideal vertices of the census.

    Each vertex is solved once, on its first n-set, as one row of a stacked
    SVD, and the time orientation of the frame is fixed by the first vertex:
    if it violates a facet inequality, every normal is flipped.  Every
    vertex must then lie strictly inside each facet half-space not through
    it (the first that does not is named), and every edge must have two
    ends, as in a finite-volume polytope.  Last, normals and vertices move
    to the centred frame of ``centring_boost``, whose centre every isometry
    of the polytope fixes, whatever the frame of the normals.  Each step
    runs once over the (V, n+1) stack of vertices.
    """
    import numpy as np
    n, N = realization.dimension, realization.facet_count
    faces, cusps = census(realization.gram)
    sets = faces[n] + [P for _, P in cusps]
    if not sets:
        raise NoVertices("no facet n-subset meets the ball closure; "
                         "polytope is unbounded or the input is invalid")
    for edge in faces[n - 1]:
        ends = sum(S & edge == edge for S in sets)
        if ends != 2:
            raise NoVertices(f"edge on facets {_facets(edge)} has {ends} end(s); "
                             "the polytope has infinite volume or the input is invalid")
    normals = realization.normals
    # each vertex's line is the last right-singular vector of the n x (n+1)
    # system <e_i, x> = 0 on its first n-set, which must have rank n
    subsets = np.array([_facets(T) for T in faces[n] + [T for T, _ in cusps]])
    _, s, Vt = np.linalg.svd(_flip_time(normals[subsets]))
    flat = s[:, -1] <= s[:, 0] * (n + 1) * np.finfo(np.float64).eps
    if flat.any():
        raise NoVertices(f"facets {subsets[flat.argmax()].tolist()} do not meet in a line; "
                         "the input is invalid")
    lines = Vt[:, -1]
    lines = np.where(lines[:, :1] < 0, -lines, lines)    # pointing to the future
    finite, ideal = _on_hyperboloid(lines[:len(faces[n])]), lines[len(faces[n]):]
    ideal = ideal / ideal[:, :1]
    pairings = np.concatenate([finite, ideal]) @ _flip_time(normals).T    # [vertex, facet]
    off = np.array([[not S >> j & 1 for j in range(N)] for S in sets])
    if (pairings[0, off[0]] > 0).any():
        normals = realization.normals = -normals
        pairings = -pairings
    outside = ((pairings >= 0) & off).any(axis=1)
    if outside.any():
        raise NoVertices(f"the vertex on facets {_facets(sets[outside.argmax()])} violates "
                         "a facet inequality; the input is not a polytope")
    if not len(finite):
        # scale the rays by |<x, t>| for the Gram matrix's own time axis
        # t = sum_i q_i e_i, q its negative eigenvector, which every isometry
        # of the polytope fixes in any frame; in that of ``realize`` t is e0
        t = np.linalg.eigh(normals @ _flip_time(normals).T)[1][:, 0] @ normals
        ideal = ideal / np.abs(_flip_time(ideal) @ t)[:, None]
    B = centring_boost(finite, ideal)
    realization.normals = normals @ B.T
    finite, ideal = finite @ B.T, ideal @ B.T
    realization.finite_vertices = list(_on_hyperboloid(finite))
    realization.ideal_vertices = list(ideal / ideal[:, :1])
    realization.vertex_facets = sets
    realization.faces = {S for level in faces for S in level}
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
    X = np.array(finite + ideal)
    verts = X[:, 1:] / X[:, :1]
    verts[len(finite):] /= np.linalg.norm(verts[len(finite):], axis=1)[:, None]
    flags = [False] * len(finite) + [True] * len(ideal)
    return KleinPolytope(n, verts, flags, *_fan_triangulation(n, realization))


def _fan_triangulation(n, realization: PolytopeRealization) -> tuple[list[list[int]], list[int]]:
    """Fan from the origin over one facet per orbit, each face recursively
    fanned from its best vertex, and each simplex's weight, its orbit's
    size.  A face is its elliptic facet set S, a bitmask, its vertices are
    those whose facet set F contains S (F & S == S), and its ridges are the
    faces S | 1 << j.  A convex face
    is the union of the cones from any of its vertices over its ridges; a
    ridge through that apex spans a flat cone, so only the ridges that miss
    the apex are coned.  The apex is the vertex on the most ridges, ties to
    the least index, so that the fewest ridges are fanned (a pulling
    triangulation); a vertex F is on ridge S | 1 << j iff j is in F, so
    its count is the popcount of F and the ridges' facets j."""
    vertex_facets, faces = realization.vertex_facets, realization.faces
    N = realization.facet_count

    def triangulate_face(S: FacetSet, d: int) -> list[list[int]]:
        ids = [k for k, F in enumerate(vertex_facets) if F & S == S]
        if len(ids) < d + 1:
            raise TriangulationFailure(f"face {sorted(ids)} has too few vertices for dim {d}")
        if len(ids) == d + 1:
            return [ids]
        ridges = [R for R in (S | 1 << j for j in range(N)) if R != S and R in faces]
        on = reduce(int.__or__, ridges, S) ^ S    # the facets j of the ridges S + j
        apex = max(ids, key=lambda k: (vertex_facets[k] & on).bit_count())
        pieces = []
        for R in ridges:
            if R & vertex_facets[apex] == R:
                continue
            for s in triangulate_face(R, d - 1):
                pieces.append(s + [apex])
        if not pieces:
            raise TriangulationFailure(f"face {sorted(ids)} has no usable sub-facets")
        return pieces

    # the centre lies on the facets through every vertex it is the centre of
    centred = vertex_facets[:len(realization.finite_vertices)] or vertex_facets
    through_centre = reduce(int.__and__, centred)
    simplices, weights = [], []
    for orbit in facet_orbits(realization.gram):
        if not through_centre >> orbit[0] & 1:
            cone = triangulate_face(1 << orbit[0], n - 1)
            simplices += [s + [-1] for s in cone]
            weights += [len(orbit)] * len(cone)
    return simplices, weights
