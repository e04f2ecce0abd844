import math

import mpmath
import numpy as np
import pytest
from mpmath import mp

from hypvol import geometry
from hypvol.diagram import gram_matrix, parse_diagram
from hypvol.errors import NotLorentzian, NoVertices
from hypvol.geometry import enumerate_vertices, realize, to_klein, _mink
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D


def triangle_gram(*orders):
    """Float Gram of a triangle group with given edge orders (2 = right angle)."""
    G = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for (i, j), m in zip([(0, 1), (1, 2), (0, 2)], orders):
        G[i][j] = G[j][i] = -math.cos(math.pi / m)
    return G


def realized_polytope(text, prec=128):
    r = realize(gram_matrix(parse_diagram(text)), prec)
    return enumerate_vertices(r)


def test_realize_rejects_definite():
    with pytest.raises(NotLorentzian):
        realize([[1.0, 0.0], [0.0, 1.0]], dimension=2)


def test_realize_needs_dimension_for_floats():
    with pytest.raises(ValueError):
        realize(triangle_gram(2, 3, 7))


def test_realize_237_reconstruction():
    Gf = triangle_gram(2, 3, 7)
    r = realize(Gf, prec=128, dimension=2)
    assert r.facet_count == 3
    with mp.workprec(128):
        worst = max(abs(_mink(r.normals[i], r.normals[j]) - mp.mpf(Gf[i][j]))
                    for i in range(3) for j in range(3))
    assert worst < mp.mpf('1e-20')


def test_realize_5d():
    G = gram_matrix(parse_diagram(POLYTOPE_5D))
    r = realize(G, 128)
    assert len(r.normals) == 8
    assert len(r.normals[0]) == 6
    assert r.gram_residual(G) < mpmath.mpf(2) ** -64  # 2^(-prec/2)


def test_vertices_237_compact():
    r = realize(triangle_gram(2, 3, 7), prec=128, dimension=2)
    enumerate_vertices(r)
    # all angle sums of the (2,3,7) triangle subgroups are positive: compact
    assert len(r.finite_vertices) == 3
    assert len(r.ideal_vertices) == 0
    assert r.is_compact()


def test_vertices_ideal_triangle():
    r = realized_polytope(IDEAL_TRIANGLE)
    assert len(r.finite_vertices) == 0
    assert len(r.ideal_vertices) == 3
    assert not r.is_compact()


def test_vertices_5d_has_cusp():
    r = realized_polytope(POLYTOPE_5D)
    assert len(r.ideal_vertices) >= 1
    assert not r.is_compact()


def test_vertices_satisfy_all_inequalities():
    r = realized_polytope(POLYTOPE_5D)
    with mp.workprec(128):
        for x in r.finite_vertices + r.ideal_vertices:
            for e in r.normals:
                assert _mink(x, e) <= r.tolerance * 8


def test_vertices_normalization():
    r = realized_polytope(POLYTOPE_5D)
    with mp.workprec(128):
        for x in r.finite_vertices:
            assert abs(_mink(x, x) + 1) < mpmath.mpf('1e-30')
            assert x[0] > 0
        for x in r.ideal_vertices:
            assert abs(x[0] - 1) < mpmath.mpf('1e-30')
            assert abs(_mink(x, x)) < r.tolerance * 8


def test_no_vertices_error():
    # three pairwise diverging lines: every 2-subset meets in a spacelike
    # line, so the region has no vertices at all
    G = [[1.0, -2.0, -2.0], [-2.0, 1.0, -2.0], [-2.0, -2.0, 1.0]]
    r = realize(G, prec=128, dimension=2)
    with pytest.raises(NoVertices):
        enumerate_vertices(r)


def test_klein_triangle_single_simplex():
    r = realize(triangle_gram(2, 3, 7), prec=128, dimension=2)
    enumerate_vertices(r)
    kp = to_klein(r)
    assert len(kp.simplices) == 1
    assert sorted(kp.simplices[0]) == [0, 1, 2]


def test_klein_vertex_placement():
    r = realized_polytope(POLYTOPE_5D)
    kp = to_klein(r)
    with mp.workprec(128):
        for v, ideal in zip(kp.vertices, kp.ideal_flags):
            norm = mp.sqrt(sum(c * c for c in v))
            if ideal:
                assert abs(norm - 1) < mpmath.mpf('1e-30')
            else:
                assert norm < 1 - mpmath.mpf('1e-12')


def test_klein_simplices_have_positive_volume():
    kp = to_klein(realized_polytope(POLYTOPE_5D))
    for s in kp.simplices:
        pts = np.array([[float(c) for c in p] for p in kp.simplex_points(s)])
        assert abs(np.linalg.det(pts[1:] - pts[0])) > 1e-12


def test_klein_triangulation_volume_additivity():
    """Euclidean volume of the triangulation equals rejection sampling."""
    kp = to_klein(realized_polytope(POLYTOPE_5D))
    n = kp.dimension
    total = 0.0
    for s in kp.simplices:
        pts = np.array([[float(c) for c in p] for p in kp.simplex_points(s)])
        total += abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(n)

    pts = np.array([[float(c) for c in v] for v in kp.vertices])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    A = np.array([[float(c) for c in a] for a, _ in kp.inequalities])
    b = np.array([float(b) for _, b in kp.inequalities])
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
    assert len(kp.simplices) > 0


def test_vertex_enumeration_solves_each_subset_once(monkeypatch):
    calls = []
    solve = geometry._nullspace_vector

    def counted(rows, prec):
        calls.append(rows)
        return solve(rows, prec)

    monkeypatch.setattr(geometry, "_nullspace_vector", counted)
    r = realized_polytope(POLYTOPE_5D)
    assert (len(r.finite_vertices), len(r.ideal_vertices)) == (12, 1)
    assert len(calls) == math.comb(8, 5)
