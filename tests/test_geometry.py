import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from hypvol import analyze, diagram, geometry
from hypvol.diagram import assert_lorentzian, gram_matrix, parse_diagram
from hypvol.errors import HypvolError, NotLorentzian, NoVertices
from hypvol.geometry import census, enumerate_vertices, realize, to_klein
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D
from hypvol.surd import MultiSurd
from oracles import (as_mpf, census_by_inertia, census_tuples, facet_tuple, relabeled,
                     simplex_points)


# angles pi/4, pi/5, pi/2: the smallest compact triangle labels {3,4,5,6} allow
TRIANGLE_245 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 5\n"
TRIANGLE_444 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 4\nedge 0 2 4\n"
# the compact Coxeter 4-simplex [5,3,3,4]
SIMPLEX_5334 = "n 4\nfacets 5\nedge 0 1 5\nedge 1 2 3\nedge 2 3 3\nedge 3 4 4\n"
# a Lorentzian diagram whose facets 1 and 5 are parallel and orthogonal to
# the rest, so its graph is disconnected: the first random diagram on which
# the census and full eliminations of the n-sets alone disagreed
DISCONNECTED_4D = ("n 4\nfacets 6\nedge 0 2 5\nedge 1 5 inf\nedge 2 3 dashed 3/2\n"
                   "edge 2 4 dashed 3/2\n")


def mink(x, y):
    return x[1:] @ y[1:] - x[0] * y[0]


def realized_polytope(text):
    r = realize(gram_matrix(parse_diagram(text)))
    return enumerate_vertices(r)


def gram_residual(r, G):
    """max |N J N^T - G| over the float image of the exact Gram matrix."""
    N = r.normals
    NJ = N * np.r_[-1.0, np.ones(N.shape[1] - 1)]
    G_float = np.array([[float(G[i, j]) for j in range(G.size)] for i in range(G.size)])
    return np.abs(NJ @ N.T - G_float).max()


def test_realize_rejects_definite():
    # the spherical triangle group A3
    with pytest.raises(NotLorentzian):
        realize(gram_matrix(parse_diagram("n 2\nfacets 3\nedge 0 1 3\nedge 1 2 3\n")))


def test_realize_237_reconstruction():
    G = gram_matrix(parse_diagram(TRIANGLE_245))
    r = realize(G)
    assert r.facet_count == 3
    assert gram_residual(r, G) < 1e-14


def test_realize_5d():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    r = realize(G)
    assert len(r.normals) == 8
    assert len(r.normals[0]) == 6
    assert gram_residual(r, G) < 1e-14


@pytest.mark.parametrize("text", [POLYTOPE_5D, POLYTOPE_7D, TRIANGLE_245], ids=["5d", "7d", "245"])
def test_realize_converts_each_distinct_entry_once(text, monkeypatch):
    G = gram_matrix(parse_diagram(text))
    N = G.size
    # reference: every entry converted on its own
    eigvals, Q = np.linalg.eigh([[float(G[i, j]) for j in range(N)] for i in range(N)])
    cols = [0, *range(N - G.dimension, N)]
    expected = Q[:, cols] * np.sqrt(np.abs(eigvals[cols]))
    conversions = []
    to_float = MultiSurd.__float__
    monkeypatch.setattr(MultiSurd, "__float__", lambda e: conversions.append(e) or to_float(e))
    r = realize(G)
    assert np.array_equal(r.normals, expected)
    # no entry is converted twice, and only edge entries are converted: the
    # unit diagonal and the zeros off the edges are written as floats
    assert len(conversions) == len(set(conversions))
    assert set(conversions) == {G[i, j] for i in range(N) for j in G.neighbours[i]}


def test_vertices_237_compact():
    r = realized_polytope(TRIANGLE_245)
    # every pair of sides meets at a finite angle: compact
    assert len(r.finite_vertices) == 3
    assert len(r.ideal_vertices) == 0
    assert not r.ideal_vertices


def test_vertices_ideal_triangle():
    r = realized_polytope(IDEAL_TRIANGLE)
    assert len(r.finite_vertices) == 0
    assert len(r.ideal_vertices) == 3


def test_vertices_5d_has_cusp():
    r = realized_polytope(POLYTOPE_5D)
    assert len(r.ideal_vertices) >= 1


def test_vertices_satisfy_all_inequalities():
    r = realized_polytope(POLYTOPE_5D)
    for x in r.finite_vertices + r.ideal_vertices:
        for e in r.normals:
            assert mink(x, e) <= 2.0 ** -37


def test_vertices_normalization():
    r = realized_polytope(POLYTOPE_5D)
    for x in r.finite_vertices:
        assert abs(mink(x, x) + 1) < 1e-14
        assert x[0] > 0
    for x in r.ideal_vertices:
        assert abs(x[0] - 1) < 1e-14
        assert abs(mink(x, x)) < 2.0 ** -37


def test_no_vertices_error():
    # three pairwise diverging lines: no 2-subset is elliptic or parabolic,
    # so the region has no vertices at all
    text = "n 2\nfacets 3\nedge 0 1 dashed 2\nedge 1 2 dashed 2\nedge 0 2 dashed 2\n"
    r = realize(gram_matrix(parse_diagram(text)))
    with pytest.raises(NoVertices):
        enumerate_vertices(r)


def test_klein_triangle_single_simplex():
    # a simplex too is fanned from the origin, one piece per side
    kp = to_klein(realized_polytope(TRIANGLE_245))
    assert sorted(sorted(s) for s in kp.simplices) == [[-1, 0, 1], [-1, 0, 2], [-1, 1, 2]]


@pytest.mark.parametrize("text", [IDEAL_TRIANGLE, TRIANGLE_245, POLYTOPE_5D, POLYTOPE_7D],
                         ids=["ideal-triangle", "245", "5d", "7d"])
def test_frame_is_centred(text):
    # the finite vertices (or, with none, the ideal ones) sum to a multiple
    # of e0, so their centre is the Klein origin
    r = realized_polytope(text)
    total = np.sum(r.finite_vertices or r.ideal_vertices, axis=0)
    assert np.abs(total[1:]).max() < 1e-13 * total[0]


def test_fan_leaves_out_facets_through_the_centre():
    # the two finite vertices of a triangle with one ideal vertex lie on
    # facet 0, and so does their centre: only facets 1 and 2 are coned
    r = realized_polytope("n 2\nfacets 3\nedge 0 2 3\nedge 1 2 inf\n")
    kp = to_klein(r)
    assert len(kp.simplices) == 2
    for s in kp.simplices:
        assert abs(np.linalg.det(simplex_points(kp, s)[:-1])) > 1e-3


def test_klein_vertex_placement():
    r = realized_polytope(POLYTOPE_5D)
    kp = to_klein(r)
    for v, ideal in zip(kp.vertices, kp.ideal_flags):
        norm = np.linalg.norm(v)
        if ideal:
            assert abs(norm - 1) < 1e-15
        else:
            assert norm < 1 - 1e-12


def test_klein_simplices_have_positive_volume():
    # one facet cone per orbit {i, i + 4}, each counted twice
    kp = to_klein(realized_polytope(POLYTOPE_5D))
    assert len(kp.simplices) == 17 and kp.weights == [2] * 17
    for s in kp.simplices:
        pts = np.array([[float(c) for c in p] for p in simplex_points(kp, s)])
        assert abs(np.linalg.det(pts[1:] - pts[0])) > 1e-12


def test_klein_triangulation_volume_additivity():
    """Weighted Euclidean volume of the triangulation equals rejection
    sampling: the isometries that map one facet cone onto another of its
    orbit fix the centre, so in the Klein ball they are rotations."""
    r = realized_polytope(POLYTOPE_5D)
    kp = to_klein(r)
    n = kp.dimension
    total = 0.0
    for s, weight in zip(kp.simplices, kp.weights):
        pts = np.array([[float(c) for c in p] for p in simplex_points(kp, s)])
        total += weight * abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(n)

    pts = np.array([[float(c) for c in v] for v in kp.vertices])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    # the facet half-spaces <e, (1, v)> <= 0 read a . v <= b with e = (b, a)
    A = np.array([e[1:] for e in r.normals])
    b = np.array([e[0] for e in r.normals])
    rng = np.random.default_rng(123)
    m = 2_000_000
    X = rng.uniform(lo, hi, size=(m, n))
    inside = ((X @ A.T - b) <= 1e-12).all(axis=1)
    frac = inside.mean()
    box = float(np.prod(hi - lo))
    est = frac * box
    sigma = box * math.sqrt(frac * (1 - frac) / m)
    assert abs(total - est) < 3 * sigma


def test_klein_7d_counts():
    r = realized_polytope(POLYTOPE_7D)
    assert (len(r.finite_vertices), len(r.ideal_vertices)) == (18, 1)
    kp = to_klein(r)
    assert len(kp.simplices) == 37 and kp.weights == [2] * 37


@pytest.mark.parametrize("text, pieces", [(POLYTOPE_5D, 17), (POLYTOPE_7D, 37)], ids=["5d", "7d"])
def test_fan_pieces_do_not_depend_on_the_labeling(text, pieces):
    # each face is coned from its vertex on the most ridges, and every ridge
    # it skips passes through that apex: read back from the simplices, each
    # [w_0, ..., w_(n-1), -1] cones the face spanned by w_0..w_d from w_d
    # over the ridge spanned by w_0..w_(d-1), for d = n - 1 down to 1
    d = parse_diagram(text)
    rng = random.Random(27)
    for relabeling in range(21):
        perm = list(range(d.facets))
        if relabeling:
            rng.shuffle(perm)
        r = enumerate_vertices(realize(gram_matrix(relabeled(d, perm))))
        kp = to_klein(r)
        assert len(kp.simplices) == pieces, relabeling
        vertex_facets = [frozenset(facet_tuple(F)) for F in r.vertex_facets]
        faces = {frozenset(facet_tuple(S)) for S in r.faces}
        apexes, coned = {}, {}
        for s in kp.simplices:
            spans = [frozenset.intersection(*(vertex_facets[w] for w in s[:k + 1]))
                     for k in range(len(s) - 1)]
            for k in range(1, len(s) - 1):
                apexes.setdefault(spans[k], set()).add(s[k])
                coned.setdefault(spans[k], set()).add(spans[k - 1])
        for face, (apex,) in apexes.items():
            ridges = {face | {j} for j in range(d.facets)} & faces - {face}
            on = {ridge for ridge in ridges if ridge <= vertex_facets[apex]}
            assert ridges - coned[face] == on, (relabeling, sorted(face))
            assert all(sum(ridge <= F for ridge in ridges) <= len(on)
                       for F in vertex_facets if face <= F)


IDEAL_TETRAHEDRON = "n 3\nfacets 4\n" + "".join(
    f"edge {i} {j} 3\n" for i in range(4) for j in range(i + 1, 4))


@pytest.mark.parametrize("text, orbits", [
    (POLYTOPE_5D, [[i, i + 4] for i in range(4)]),
    (POLYTOPE_7D, [[i, i + 5] for i in range(5)]),
    (IDEAL_TRIANGLE, [[0, 1, 2]]),
    (IDEAL_TETRAHEDRON, [[0, 1, 2, 3]]),
    (TRIANGLE_245, [[0], [1], [2]]),
    (SIMPLEX_5334, [[i] for i in range(5)]),
], ids=["5d", "7d", "ideal-triangle", "ideal-tetrahedron", "245", "5334"])
def test_facet_orbits(text, orbits):
    # the orbits of the Gram matrix's exact automorphisms, and their sizes
    # on 20 relabelings
    d = parse_diagram(text)
    assert geometry.facet_orbits(gram_matrix(d)) == orbits
    rng = random.Random(24)
    for _ in range(20):
        perm = list(range(d.facets))
        rng.shuffle(perm)
        found = geometry.facet_orbits(gram_matrix(relabeled(d, perm)))
        assert sorted(map(len, found)) == sorted(map(len, orbits))
        assert sorted(sorted(perm[i] for i in orbit) for orbit in orbits) == found


@pytest.mark.parametrize("text, searches", [
    (IDEAL_TETRAHEDRON, 3), (IDEAL_TRIANGLE, 2), (POLYTOPE_5D, 1), (POLYTOPE_7D, 1),
], ids=["ideal-tetrahedron", "ideal-triangle", "5d", "7d"])
def test_orbit_search_finds_one_automorphism_per_pair(text, searches, monkeypatch):
    # |Aut| is 24 for the tetrahedron and 6 for the triangle, but each search
    # returns one automorphism and each that succeeds merges orbits, so no
    # pair is searched twice; in 5D and 7D the first one, i <-> i + 4 or
    # i <-> i + 5, merges every orbit at once
    calls = []
    search = geometry._automorphism
    G = gram_matrix(parse_diagram(text))
    facets = range(G.size)

    def counted(A, rows, i, j):
        found = search(A, rows, i, j)
        if found is not None:
            assert sorted(found) == list(facets) and found[i] == j
            assert all(G[found[k], found[m]] == G[k, m] for k in facets for m in facets)
        calls.append(((i, j), found is not None))
        return found

    monkeypatch.setattr(geometry, "_automorphism", counted)
    orbits = geometry.facet_orbits(G)
    pairs = [pair for pair, _ in calls]
    assert len(calls) == searches and len(set(pairs)) == len(pairs)
    assert sum(found for _, found in calls) <= G.size - len(orbits)


@pytest.mark.parametrize("text", [TRIANGLE_245, SIMPLEX_5334,
                                  "n 2\nfacets 3\nedge 0 2 3\nedge 1 2 inf\n"],
                         ids=["245", "5334", "one-ideal-vertex"])
def test_trivial_symmetry_keeps_every_facet_cone(text, monkeypatch):
    # with singleton orbits every weight is 1 and the fan is the one over
    # every facet: the report is byte-identical to the one with the orbit
    # search replaced by singletons
    def report():
        out = analyze(text, target_rel_err=1e-6).to_dict()
        del out["timings"]
        return json.dumps(out)

    kp = to_klein(realized_polytope(text))
    assert set(kp.weights) == {1}
    expected = report()
    monkeypatch.setattr(geometry, "facet_orbits", lambda G: [[i] for i in range(G.size)])
    assert to_klein(realized_polytope(text)).simplices == kp.simplices
    assert report() == expected


def test_vertex_enumeration_solves_each_subset_once(monkeypatch):
    # one stacked SVD whose rows are the first n-sets of the 12 finite and 1
    # ideal vertices, each once, not one row per facet 5-subset
    calls = []
    svd = np.linalg.svd

    def counted(A, *args, **kwargs):
        calls.append(np.array(A))
        return svd(A, *args, **kwargs)

    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    r = realize(G)
    faces, cusps = census_tuples(G)
    subsets = faces[5] + [T for T, _ in cusps]
    expected = r.normals[np.array(subsets)] * np.r_[-1.0, np.ones(5)]
    monkeypatch.setattr(np.linalg, "svd", counted)
    enumerate_vertices(r)
    assert (len(r.finite_vertices), len(r.ideal_vertices)) == (12, 1)
    assert len(subsets) == len(set(subsets)) == 12 + 1
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], expected)


def test_dependent_normals_raise_a_typed_error():
    # normals that contradict the exact census: facets 1 and 2 given one
    # normal meet in no line, and the rank test names their vertex's n-set
    r = realize(gram_matrix(parse_diagram(TRIANGLE_245)))
    r.normals[2] = r.normals[1]
    with pytest.raises(NoVertices, match=r"facets \[1, 2\] do not meet in a line"):
        enumerate_vertices(r)


@pytest.mark.parametrize("text, first", [(POLYTOPE_5D, [1, 2, 3, 4, 6]),
                                         (POLYTOPE_7D, [1, 2, 3, 4, 5, 7, 8])], ids=["5d", "7d"])
def test_vertex_outside_a_facet_raises_a_typed_error(text, first):
    # facet 0's normal reversed: every vertex off facet 0 now lies outside
    # it, and the check names the first of them in census order; the first
    # vertex lies on facet 0, so the time orientation is kept
    G = gram_matrix(parse_diagram(text))
    faces, cusps = census_tuples(G)
    off = [S for S in faces[G.dimension] + [P for _, P in cusps] if 0 not in S]
    assert 0 in faces[G.dimension][0] and len(off) > 1 and list(off[0]) == first
    r = realize(G)
    r.normals[0] = -r.normals[0]
    with pytest.raises(NoVertices, match=rf"the vertex on facets {re.escape(str(first))} violates"):
        enumerate_vertices(r)


def reference_klein_gram(G):
    """Gram matrix of the census vertices in the centred Klein ball at 128
    bits: the frame from mp.eigsy as in ``realize``, one mp.lu_solve per
    vertex of its first n-set together with x0 = 1, and then, with no boost,
    K_ij = 1 + <x_i, x_j> / (<x_i, c> <x_j, c>), the dot product of the
    Klein images in the frame whose time axis is the unit centre c: the
    normalized sum of the finite vertices, or of the ideal ones."""
    n, N = G.dimension, G.size
    faces, cusps = census_tuples(G)
    with mp.workprec(128):
        eigvals, Q = mp.eigsy(mp.matrix([[as_mpf(G[i, j]) for j in range(N)]
                                         for i in range(N)]))
        order = sorted(range(N), key=lambda k: eigvals[k])
        cols = [order[0]] + order[N - n:]
        E = [[Q[i, k] * mp.sqrt(abs(eigvals[k])) for k in cols] for i in range(N)]
        verts = []
        for T in faces[n] + [first for first, _ in cusps]:
            A = mp.matrix([[-E[i][0]] + E[i][1:] for i in T] + [[1] + [0] * n])
            x = mp.lu_solve(A, mp.matrix([0] * n + [1]))
            verts.append([x[k] for k in range(n + 1)])

        def form(x, y):
            return -x[0] * y[0] + mp.fsum(a * b for a, b in zip(x[1:], y[1:]))

        finite = [[a / mp.sqrt(-form(x, x)) for a in x] for x in verts[:len(faces[n])]]
        c = [mp.fsum(col) for col in zip(*(finite or verts))]
        c = [a / mp.sqrt(-form(c, c)) for a in c]
        return np.array([[float(1 + form(x, y) / (form(x, c) * form(y, c))) for y in verts]
                         for x in verts])


@pytest.mark.parametrize("text", [IDEAL_TRIANGLE, TRIANGLE_245, POLYTOPE_5D, POLYTOPE_7D],
                         ids=["ideal-triangle", "245", "5d", "7d"])
def test_float_geometry_matches_128_bit_reference(text):
    G = gram_matrix(parse_diagram(text))
    r = enumerate_vertices(realize(G))
    V = to_klein(r).vertices
    # the two frames may differ by a rotation fixing the time axis, which
    # leaves the Gram matrix of the Klein vertices unchanged
    assert np.abs(V @ V.T - reference_klein_gram(G)).max() < 1e-13
    for x, S in zip(r.finite_vertices + r.ideal_vertices, r.vertex_facets):
        for j in facet_tuple(S):
            assert abs(mink(x, r.normals[j])) < 1e-13


def _euler(faces, cusps):
    """Euler characteristic of the face lattice; 1 for a polytope."""
    n = len(faces) - 1
    return sum((-1) ** (n - k) * len(level) for k, level in enumerate(faces)) + len(cusps)


@pytest.mark.parametrize("text, f, ideal", [
    (IDEAL_TRIANGLE, [3, 0], 3),
    (TRIANGLE_245, [3, 3], 0),
    (TRIANGLE_444, [3, 3], 0),
    (POLYTOPE_5D, [8, 25, 40, 34, 12], 1),
    (POLYTOPE_7D, [10, 42, 98, 140, 126, 69, 18], 1),
], ids=["ideal-triangle", "245", "444", "5d", "7d"])
def test_census_face_numbers(text, f, ideal):
    faces, cusps = census(gram_matrix(parse_diagram(text)))
    assert [len(level) for level in faces[1:]] == f
    assert len(cusps) == ideal
    assert _euler(faces, cusps) == 1


@pytest.mark.parametrize("text", [POLYTOPE_5D, POLYTOPE_7D], ids=["5d", "7d"])
def test_census_euler_under_relabeling(text):
    d = parse_diagram(text)
    base_faces, base_cusps = census(gram_matrix(d))
    rng = random.Random(6)
    for _ in range(5):
        perm = list(range(d.facets))
        rng.shuffle(perm)
        faces, cusps = census(gram_matrix(relabeled(d, perm)))
        assert [len(level) for level in faces] == [len(level) for level in base_faces]
        assert len(cusps) == len(base_cusps)
        assert _euler(faces, cusps) == 1


@pytest.mark.parametrize("text", [IDEAL_TRIANGLE, TRIANGLE_245, TRIANGLE_444, SIMPLEX_5334,
                                  POLYTOPE_5D, POLYTOPE_7D, DISCONNECTED_4D],
                         ids=["ideal-triangle", "245", "444", "5334", "5d", "7d", "disconnected"])
def test_census_matches_full_eliminations(text):
    # the subset test, plus one Schur complement per connected candidate,
    # decides what a full elimination of its principal submatrix does, on
    # the diagram and 20 relabelings; both bundled polytopes have a cusp
    # whose parabolic set, written in closed form, has more than n facets,
    # and the disconnected diagram has n-sets of a cusp's inertia but no cusp
    d = parse_diagram(text)
    rng = random.Random(18)
    for relabeling in range(21):
        perm = list(range(d.facets))
        if relabeling:
            rng.shuffle(perm)
        G = gram_matrix(relabeled(d, perm))
        assert census_tuples(G) == census_by_inertia(G)


_CENSUS_LABELS = [None, None, "3", "4", "5", "6", "inf", "dashed 2", "dashed 3/2"]


def random_lorentzian_grams(count, seed):
    """``count`` Gram matrices of signature (n, 1, N - n - 1) from seeded
    random diagrams with n <= 4 and N <= n + 3; a float inertia screens out
    most others before the exact check."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        N = rng.randint(n + 1, n + 3)
        edges = [f"edge {i} {j} {label}" for i in range(N) for j in range(i + 1, N)
                 if (label := rng.choice(_CENSUS_LABELS))]
        G = gram_matrix(parse_diagram("\n".join([f"n {n}", f"facets {N}", *edges])))
        eigvals = np.linalg.eigvalsh([[float(G[i, j]) for j in range(N)] for i in range(N)])
        if ((eigvals < -1e-9).sum(), (eigvals > 1e-9).sum()) != (1, n):
            continue
        try:
            assert_lorentzian(G)
        except NotLorentzian:
            continue
        out.append(G)
    return out


def test_census_matches_full_eliminations_on_random_diagrams():
    for seed in (18, 19, 20, 21):
        grams = random_lorentzian_grams(500, seed=seed)
        found = [census_tuples(G) for G in grams]
        assert sum(bool(cusps) for _, cusps in found) >= 50   # some have ideal vertices
        for G, got in zip(grams, found):
            assert got == census_by_inertia(G), G.entries


@pytest.mark.parametrize("text, most_steps, most_inverses, most_n_sets", [
    (POLYTOPE_5D, 35, 19, 1),
    (POLYTOPE_7D, 58, 33, 1),
], ids=["5d", "7d"])
def test_census_steps_only_on_connected_sets(text, most_steps, most_inverses, most_n_sets,
                                             monkeypatch):
    # a disconnected candidate is elliptic by the subset test alone, so each
    # Schur step extends a connected set, and an ideal vertex's n-set takes
    # none: it is read off a recorded connected parabolic set; the step and
    # inverse counts are pinned on the bundled labelings, and so is the
    # count of n-sets the cusp search tries, the first ones of each cusp's
    # parabolic set rather than all C(N, n) (56 and 120 in that walk);
    # connectivity is read off the kept factors, so no graph search runs
    d = parse_diagram(text)
    rng = random.Random(23)
    for relabeling in range(6):
        perm = list(range(d.facets))
        if relabeling:
            rng.shuffle(perm)
        G = gram_matrix(relabeled(d, perm))
        counts = {"steps": 0, "inverses": 0, "n-sets": 0}

        def step(A, basis, rows, inverses, j, schur_step=geometry.schur_step):
            reached, members = [j], {*basis, j}
            for u in reached:
                reached += sorted(set(G.neighbours[u]) & members - set(reached))
            assert len(reached) == len(members), (basis, j)
            counts["steps"] += 1
            return schur_step(A, basis, rows, inverses, j)

        def inverse(self, inverse=MultiSurd.inverse):
            counts["inverses"] += 1
            return inverse(self)

        def combinations(*args):
            for subset in itertools.combinations(*args):
                counts["n-sets"] += 1
                yield subset

        with monkeypatch.context() as m:
            m.setattr(geometry, "schur_step", step)
            m.setattr(MultiSurd, "inverse", inverse)
            m.setattr(geometry, "combinations", combinations)
            found = census_tuples(G)
        assert found == census_by_inertia(G)
        if not relabeling:
            assert counts["steps"] <= most_steps and counts["inverses"] <= most_inverses, counts
            assert counts["n-sets"] <= most_n_sets, counts


# the three sides of an ideal triangle, all joined by inf, cut by two ends
# orthogonal to them and parallel to each other: a prism whose ends meet at
# infinity, so each of its three cusps has the rectangle cusp group
# A~1 x A~1, a parabolic set of two components
IDEAL_PRISM = ("n 3\nfacets 5\nedge 0 1 inf\nedge 2 3 inf\nedge 2 4 inf\n"
               "edge 3 4 inf\n")


@pytest.mark.parametrize("text, cusps", [
    (IDEAL_TRIANGLE, [((0, 1), (0, 1)), ((0, 2), (0, 2)), ((1, 2), (1, 2))]),
    (IDEAL_PRISM, [((0, 2, 3), (0, 1, 2, 3)), ((0, 2, 4), (0, 1, 2, 4)),
                   ((0, 3, 4), (0, 1, 3, 4))]),
], ids=["ideal-triangle", "ideal-prism"])
def test_census_names_every_cusp_from_its_parabolic_sets(text, cusps):
    # several cusps, found from the recorded parabolic sets in the order of
    # a walk over every n-set; on the prism each cusp's parabolic set holds
    # two recorded ones, and either names it
    d = parse_diagram(text)
    rng = random.Random(29)
    for relabeling in range(13):
        perm = list(range(d.facets))
        if relabeling:
            rng.shuffle(perm)
        G = gram_matrix(relabeled(d, perm))
        found = census_tuples(G)
        assert found == census_by_inertia(G)
        if not relabeling:
            assert found[1] == cusps
    assert len(realized_polytope(text).ideal_vertices) == len(cusps)


@pytest.mark.parametrize("text", [POLYTOPE_5D, POLYTOPE_7D, IDEAL_TRIANGLE],
                         ids=["5d", "7d", "ideal-triangle"])
def test_census_eliminates_nothing(text, monkeypatch):
    # a cusp's parabolic set is written in closed form, so no exact
    # elimination runs beside the census's Schur steps
    def eliminate(entries):
        raise AssertionError("census eliminated a matrix")

    G = gram_matrix(parse_diagram(text))
    expected = census_by_inertia(G)
    monkeypatch.setattr(diagram, "eliminate", eliminate)
    monkeypatch.setattr(diagram, "inertia", eliminate)
    assert census_tuples(G) == expected


def test_parabolic_component_of_a_disconnected_graph_is_no_ideal_vertex():
    # facets 1 and 5 are parallel and orthogonal to the rest: four n-sets
    # through both have inertia (n - 1, 0, 1), but e_1 + e_5 = 0 is no ideal
    # point, so neither the census nor full eliminations report a cusp
    G = gram_matrix(parse_diagram(DISCONNECTED_4D))
    assert_lorentzian(G)
    assert all((G[1, j] + G[5, j]).is_zero() for j in range(G.size))
    singular = [T for T in itertools.combinations(range(G.size), 4) if {1, 5} <= set(T)
                and diagram.inertia([[G[i, j] for j in T] for i in T]) == (3, 0, 1)]
    assert len(singular) == 4
    assert census(G)[1] == census_by_inertia(G)[1] == []


def test_infinite_volume_rejected():
    # sides 0 and 1 diverge, so each has one finite end and runs off to infinity
    text = "n 2\nfacets 3\nedge 0 1 dashed 2\nedge 1 2 3\nedge 0 2 3\n"
    r = realize(gram_matrix(parse_diagram(text)))
    with pytest.raises(NoVertices, match=r"edge on facets \[0\] has 1 end"):
        enumerate_vertices(r)


_FUZZ_LABELS = [None, "3", "4", "5", "6", "inf", "dashed 2", "dashed 3/2"]


@st.composite
def diagram_texts(draw):
    n = draw(st.integers(2, 4))
    N = draw(st.integers(n + 1, n + 3))
    lines = [f"n {n}", f"facets {N}"]
    for i in range(N):
        for j in range(i + 1, N):
            label = draw(st.sampled_from(_FUZZ_LABELS))
            if label is not None:
                lines.append(f"edge {i} {j} {label}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(diagram_texts())
def test_geometry_fuzz_yields_polytope_or_typed_error(text):
    G = gram_matrix(parse_diagram(text))
    try:
        assert_lorentzian(G)
    except NotLorentzian:
        return
    try:
        kp = to_klein(enumerate_vertices(realize(G)))
    except HypvolError:
        return
    for s in kp.simplices:
        pts = np.array([[float(c) for c in p] for p in simplex_points(kp, s)])
        assert abs(np.linalg.det(pts[1:] - pts[0])) > 1e-12
