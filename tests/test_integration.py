import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hypvol import analyze, integration
from hypvol.diagram import gram_matrix, parse_diagram
from hypvol.errors import NonConvergent
from hypvol.geometry import KleinPolytope, enumerate_vertices, realize, to_klein
from hypvol.integration import (
    _gauss_jacobi,
    _kernel,
    _pieces,
    _radial,
    _simplex_rule,
    _split_multi_ideal,
    polytope_volume,
    simplex_volume,
)
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D, POLYTOPE_7D
from hypvol.prediction import render_text, transcendental_factor
from oracles import as_mpf, relabeled, simplex_points


def klein_polytope(text):
    r = realize(gram_matrix(parse_diagram(text)))
    enumerate_vertices(r)
    return to_klein(r)


def built_pieces(point_sets, ideal):
    """``_pieces``' stack of one kind for simplices of weight 1 on the given
    (n + 1, n) point sets: each coned from its first point, ideal, if
    ``ideal``, else from its last, the origin."""
    n = point_sets[0].shape[1]
    if ideal:
        vertices = np.concatenate(point_sets)
        simplices = [list(range(k * (n + 1), (k + 1) * (n + 1))) for k in range(len(point_sets))]
    else:
        vertices = np.concatenate([pts[:-1] for pts in point_sets])
        simplices = [list(range(k * n, (k + 1) * n)) + [-1] for k in range(len(point_sets))]
    flags = [ideal and k % (n + 1) == 0 for k in range(len(vertices))]
    kp = KleinPolytope(n, vertices, flags, simplices, [1] * len(simplices))
    return _pieces(kp)[1 if ideal else 0]


TRIANGLE_444 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 4\nedge 0 2 4\n"
# angles pi/4, pi/5, pi/2: the smallest compact triangle labels {3,4,5,6} allow
TRIANGLE_245 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 5\n"
# the compact Coxeter 4-simplex [5,3,3,4], of volume 17 pi^2 / 21600
SIMPLEX_5334 = "n 4\nfacets 5\nedge 0 1 5\nedge 1 2 3\nedge 2 3 3\nedge 3 4 4\n"
VOLUME_5D = 0.0241330687945822699990   # README: vol(P5) from the L-series identity
# 11^(7/2) L(4, chi_-11) / 23224320, with mpmath.dirichlet over the Legendre symbol mod 11
VOLUME_7D = 0.000181338427559109761925
# the regular ideal tetrahedron, all dihedral angles pi/3, of volume 3 L(pi/3)
IDEAL_TETRAHEDRON = "n 3\nfacets 4\n" + "".join(
    f"edge {i} {j} 3\n" for i, j in itertools.combinations(range(4), 2))


@pytest.mark.parametrize("p", [1, 2, 3, 7, 12, 20])
@pytest.mark.parametrize("alpha", [0, 1, 2, 3, 6])
def test_gauss_jacobi_matches_scipy(p, alpha):
    special = pytest.importorskip("scipy.special")
    x, w = special.roots_jacobi(p, alpha, 0)
    nodes, weights = _gauss_jacobi(p, alpha)
    # (1 - x)^alpha dx on [-1, 1] is 2^(alpha+1) (1 - u)^alpha du on [0, 1]
    np.testing.assert_allclose(nodes, (1 + x) / 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weights, w / 2 ** (alpha + 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_simplex_rule_integrates_monomials_exactly(d, monkeypatch):
    # the p^d rule is exact up to degree 2p - 1 in each collapsed coordinate,
    # so for every monomial of total degree <= 2p - 1 in the barycentric
    # coordinates; int t^a = prod a_i! / (d + |a|)! over the standard simplex.
    # Blocks of 7 nodes check that the blocks add up to the whole rule.
    monkeypatch.setattr(integration, "_BATCH", 7)
    p = 3
    blocks = list(_simplex_rule(d, p))
    T = np.hstack([t for t, _ in blocks])
    w = np.concatenate([w for _, w in blocks])
    assert T.shape == (d + 1, p ** d) and (T >= 0).all()
    np.testing.assert_allclose(T.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    for a in itertools.product(range(2 * p), repeat=d + 1):
        if sum(a) <= 2 * p - 1:
            exact = Fraction(math.prod(map(math.factorial, a)), math.factorial(d + sum(a)))
            got = w @ np.prod(T ** np.array(a)[:, None], axis=0)
            assert got == pytest.approx(float(exact), rel=1e-13, abs=0), a


def test_uniform_simplex_map_properties():
    # collapsed coordinates map the cube onto the simplex, and the weights
    # make the map uniform: every node lies in the simplex, the weights sum
    # to its volume 1/d!, and the weighted barycenter is 1/(d+1) per
    # barycentric coordinate
    d, p = 4, 5
    blocks = list(_simplex_rule(d, p))
    T = np.hstack([t for t, _ in blocks])
    w = np.concatenate([w for _, w in blocks])
    assert (T >= 0).all()
    assert (T[:d].sum(axis=0) <= 1 + 1e-12).all()
    assert w.sum() == pytest.approx(1 / math.factorial(d), rel=1e-13)
    np.testing.assert_allclose(T @ w * math.factorial(d), 1 / (d + 1), rtol=1e-13, atol=0)


def test_split_multi_ideal():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    pieces = _split_multi_ideal(pts, [True, True, True])
    assert len(pieces) == 4
    assert all(ii is not None for _, ii in pieces)
    total = sum(abs(np.linalg.det(p[1:] - p[0])) / 2 for p, _ in pieces)
    assert math.isclose(total, abs(np.linalg.det(pts[1:] - pts[0])) / 2, rel_tol=1e-12)


def test_euclidean_limit_near_origin():
    # density is ~1 near the origin, so the hyperbolic volume matches the
    # Euclidean one for a tiny simplex
    pts = 1e-3 * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                            [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    est = simplex_volume(pts, budget=1e-16)
    euclid = abs(np.linalg.det(pts[1:] - pts[0])) / 6
    assert math.isclose(est.value, euclid, rel_tol=1e-5)
    assert est.rel_error < 1e-4


def test_gauss_bonnet_compact_triangle():
    # all angles pi/4: area = pi - 3 pi/4 = pi/4
    est = polytope_volume(klein_polytope(TRIANGLE_444), 1e-4)
    ref = math.pi / 4
    assert abs(est.value - ref) / ref < 1e-4
    assert abs(est.value - ref) <= est.abs_error


def test_gauss_bonnet_237_triangle():
    # the (2,4,5) triangle: area pi - pi/2 - pi/4 - pi/5 = pi/20
    est = polytope_volume(klein_polytope(TRIANGLE_245), 1e-4)
    ref = math.pi / 20
    assert abs(est.value - ref) / ref < 1e-4


def test_ideal_triangle_area_pi():
    est = polytope_volume(klein_polytope(IDEAL_TRIANGLE), 1e-3)
    assert abs(est.value - math.pi) / math.pi < 1e-3
    assert abs(est.value - math.pi) <= est.abs_error


def test_simplex_volume_validates_shape():
    with pytest.raises(ValueError):
        simplex_volume(np.zeros((3, 3)))


def test_simplex_volume_rejects_two_ideal():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.1, 0.1]])
    with pytest.raises(ValueError):
        simplex_volume(pts)


def test_cusp_estimate_detects_misclassified_vertex():
    # base vertices beyond the tangent plane at the "ideal" point, outside
    # the ball: the input is declared misclassified
    pts = np.array([[1.0, 0.0], [1.5, 0.5], [1.2, -0.3]])
    with pytest.raises(NonConvergent):
        simplex_volume(pts)


def test_cusp_piece_touching_its_ideal_point_is_nonconvergent():
    # a base vertex on the tangent plane at the ideal point gives a = 0
    # there, where the cusp's radial integral diverges
    pts = np.array([[1.0, 0.0], [1.0, 0.5], [0.0, 0.5]])
    with pytest.raises(NonConvergent, match="touches the sphere"):
        built_pieces([pts], ideal=True)


def test_cusp_piece_off_the_sphere_is_nonconvergent():
    # a vertex flagged ideal must lie on the sphere, within _IDEAL_NORM_TOL
    pts = np.array([[1.0 + 1e-6, 0.0], [0.3, 0.1], [0.1, 0.3]])
    with pytest.raises(NonConvergent, match="off the sphere by 1.00e-06"):
        built_pieces([pts], ideal=True)


def test_seeded_determinism():
    # nothing is random: the seed that analyze still accepts changes nothing
    a, b = (analyze(IDEAL_TRIANGLE, target_rel_err=1e-3, seed=seed).volume for seed in (42, 43))
    assert a == b
    assert a.strategy == "gauss-jacobi"


def test_additivity_under_bisection():
    # split a compact simplex at an edge midpoint: volumes must agree
    pts = np.array([[0.0, 0.0], [0.6, 0.1], [0.2, 0.55]])
    whole = simplex_volume(pts, budget=1e-9)
    mid = (pts[0] + pts[1]) / 2
    left = simplex_volume(np.array([pts[0], mid, pts[2]]), budget=1e-9)
    right = simplex_volume(np.array([mid, pts[1], pts[2]]), budget=1e-9)
    split = left.value + right.value
    assert abs(whole.value - split) <= whole.abs_error + left.abs_error + right.abs_error


def test_isometry_invariance():
    # a Lorentz boost of the realization must not change the volume
    G = gram_matrix(parse_diagram(IDEAL_TRIANGLE))
    r = realize(G)
    enumerate_vertices(r)
    base = polytope_volume(to_klein(r), 1e-3)

    ch, sh = math.cosh(0.41), math.sinh(0.41)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    r2 = realize(G)
    r2.normals = r2.normals @ boost.T
    enumerate_vertices(r2)
    moved = polytope_volume(to_klein(r2), 1e-3)
    assert abs(base.value - moved.value) <= base.abs_error + moved.abs_error


COMPACT_3D = np.array([[0.0, 0.0, 0.0], [0.55, 0.05, 0.0], [0.1, 0.5, 0.1],
                       [0.15, 0.1, 0.45]])
CUSP_2D = np.array([[1.0, 0.0], [0.0, 0.3], [-0.2, -0.1]])


def test_convergence_order():
    # the rule converges exponentially: at a budget of 1e-13 the cap alone
    # sets the last order, p = 5 at 2^5 nodes and p = 8 at 2^6 (p^2 per
    # piece), and those three orders cut the error a thousandfold
    ref = simplex_volume(COMPACT_3D, budget=1e-15).value
    errors = [abs(simplex_volume(COMPACT_3D, budget=1e-13, max_log2_samples=cap).value - ref)
              for cap in (5, 6)]
    assert errors[0] > 0
    assert errors[1] <= errors[0] / 1000


def test_target_below_the_rounding_floor_is_nonconvergent():
    # float64 cannot meet a relative target below 1e-14, which also floors
    # every bar; no order is raised in vain
    kp = klein_polytope(TRIANGLE_245)
    assert polytope_volume(kp, 1e-13).abs_error >= 1e-14 * math.pi / 20
    with pytest.raises(NonConvergent, match="rounding floor"):
        polytope_volume(kp, 1e-17)


def count_evaluations(monkeypatch):
    """(pieces, nodes) of every kernel call made while the test runs."""
    calls = []
    kernel = integration._kernel

    def counting(YT, a, T):
        calls.append((len(YT), T.shape[1]))
        return kernel(YT, a, T)

    monkeypatch.setattr(integration, "_kernel", counting)
    return calls


@pytest.mark.parametrize("pts, pieces", [(COMPACT_3D, 4), (CUSP_2D, 2)], ids=["compact", "cusp"])
def test_simplex_volume_draws_each_point_once(pts, pieces, monkeypatch):
    # samples counts each node of each order once per piece: one piece per
    # facet, but for the facet opposite an ideal vertex, where the centre
    # is; the pieces are of one kind, so each order is one stacked call
    calls = count_evaluations(monkeypatch)
    est = simplex_volume(pts, budget=1e-9)
    d = pts.shape[1] - 1
    last = 1 + len(calls)
    assert last >= 5
    assert calls == [(pieces, p ** d) for p in range(2, last + 1)]
    assert sum(k * m for k, m in calls) == est.samples


def count_builds(monkeypatch):
    """(events, builds): in order, ("pieces", K) for every stacked build of
    K pieces and ("rule", order, alpha) for every Gauss-Jacobi rule built
    while the test runs, and the stacks of each build."""
    events, builds = [], []
    make, gauss = integration._pieces, integration._gauss_jacobi

    def pieces(kp):
        stacks = make(kp)
        events.append(("pieces", sum(len(scale) for _, _, scale in stacks)))
        builds.append(stacks)
        return stacks

    def rule(p, alpha):
        events.append(("rule", p, alpha))
        return gauss(p, alpha)

    monkeypatch.setattr(integration, "_pieces", pieces)
    monkeypatch.setattr(integration, "_gauss_jacobi", rule)
    return events, builds


@pytest.mark.parametrize("pts, pieces", [(COMPACT_3D, 4), (CUSP_2D, 2)], ids=["compact", "cusp"])
def test_simplex_volume_builds_each_replicate_engine_once(pts, pieces, monkeypatch):
    # every piece is built once, in one stacked build before the orders, and
    # each order builds one Gauss-Jacobi rule per collapsed coordinate, which
    # serves every piece
    events, builds = count_builds(monkeypatch)
    est = simplex_volume(pts, budget=1e-9)
    d = pts.shape[1] - 1
    assert events[0] == ("pieces", pieces) and len(builds) == 1
    rules = events[1:]
    last = rules[-1][1]
    assert rules == [("rule", p, d - 1 - i) for p in range(2, last + 1) for i in range(d)]
    assert est.samples == pieces * sum(p ** d for p in range(2, last + 1))


@pytest.mark.parametrize("cap", [0, 3, 8, 10])
def test_sample_cap_is_never_exceeded(cap, monkeypatch):
    # no order takes more than 2^cap nodes per piece; fewer than four orders
    # give fewer than three changes, hence no bar
    orders = []
    rule = integration._simplex_rule
    monkeypatch.setattr(integration, "_simplex_rule", lambda d, p: orders.append(p ** d) or rule(d, p))
    if cap < 4:
        with pytest.raises(NonConvergent, match="did not shrink"):
            simplex_volume(COMPACT_3D, budget=1e-13, max_log2_samples=cap)
    else:
        est = simplex_volume(COMPACT_3D, budget=1e-12, max_log2_samples=cap)
        assert est.samples == 4 * sum(orders)
    assert all(size <= 2 ** cap for size in orders)


def test_capped_rule_is_flagged():
    # the cap stops the 5D rule at 2^10 nodes per piece with its bar above the
    # budget; the bar stands, flagged, and a run that meets its budget is not
    kp = klein_polytope(POLYTOPE_5D)
    capped = polytope_volume(kp, 1e-9, max_log2_samples=10)
    assert capped.capped and capped.rel_error > 1e-9
    met = polytope_volume(kp, 1e-4)
    assert not met.capped and met.rel_error <= 1e-4


def test_integrand_calls_hold_at_most_one_block(monkeypatch):
    # an order of p^d nodes is evaluated in blocks of at most _BATCH
    # (piece, node) pairs, so memory grows with neither p nor the number of
    # pieces; here 4 pieces of up to 5^2 = 25 nodes in blocks of 8
    monkeypatch.setattr(integration, "_BATCH", 8)
    calls = count_evaluations(monkeypatch)
    est = simplex_volume(COMPACT_3D, budget=1e-13, max_log2_samples=5)
    assert max(k * m for k, m in calls) == 8
    assert sum(k * m for k, m in calls) == est.samples == 4 * (4 + 9 + 16 + 25)


def test_integrand_calls_hold_whole_replicates(monkeypatch):
    # a block of nodes is evaluated over as many pieces as fit in _BATCH
    # pairs, at least one: orders 2 to 5 of 4, 9, 16 and 25 nodes come in
    # aligned blocks of 8 nodes, the last one partial, and the 4 pieces in
    # chunks of 8 // nodes
    monkeypatch.setattr(integration, "_BATCH", 8)
    calls = count_evaluations(monkeypatch)
    simplex_volume(COMPACT_3D, budget=1e-13, max_log2_samples=5)
    blocks = [[4], [8, 1], [8, 8], [8, 8, 8, 1]]
    assert calls == [(min(4, 8 // m), m) for order in blocks for m in order
                     for _ in range(0, 4, 8 // m)]


def triangle_pieces():
    kp = klein_polytope(IDEAL_TRIANGLE)
    pieces = []
    for simplex in kp.simplices:
        pieces.extend(_split_multi_ideal(simplex_points(kp, simplex),
                                         [k >= 0 and kp.ideal_flags[k] for k in simplex]))
    return kp, pieces


def test_polytope_volume_builds_each_piece_engines_once(monkeypatch):
    # each piece of the split fan is built once, in one stacked build before
    # the orders; one rule per order (d = 1) serves all of them.  The three
    # sides form one orbit, so one side's cone, split at its ideal-ideal
    # edge, is integrated: two cusp pieces, each coned from its ideal vertex
    events, builds = count_builds(monkeypatch)
    kp, pieces = triangle_pieces()
    est = polytope_volume(kp, 1e-3)
    assert kp.weights == [3]
    assert len(builds) == 1 and len(pieces) == 2
    (compact, _, _), (YT, a, _) = builds[0]
    assert len(compact) == 0 and len(YT) == len(a) == 2
    for base, (points, ideal) in zip(YT, pieces):
        expected = (np.delete(points, ideal, axis=0) - points[ideal]).T
        np.testing.assert_allclose(base, expected, rtol=0, atol=1e-15)
    assert events[0] == ("pieces", 2)
    rules = events[1:]
    last = rules[-1][1]
    assert rules == [("rule", p, 0) for p in range(2, last + 1)]
    assert est.samples == len(pieces) * sum(range(2, last + 1))


def test_polytope_volume_5d_quick():
    # quick accuracy check against the externally computed high-precision value
    kp = klein_polytope(POLYTOPE_5D)
    est = polytope_volume(kp, 2e-3)
    assert abs(est.value - VOLUME_5D) / VOLUME_5D < 2e-3
    assert abs(est.value - VOLUME_5D) <= est.abs_error


def relabeled_klein(text, seed):
    d = parse_diagram(text)
    perm = list(range(d.facets))
    np.random.default_rng(seed).shuffle(perm)
    r = realize(gram_matrix(relabeled(d, perm)))
    enumerate_vertices(r)
    return to_klein(r)


def bar_over_deviation(text, exact, relabelings, targets):
    """The least bar/|dev| over seeded relabelings, each with its own facet
    orbits and triangulation, at every target, each of which must be met."""
    ratios = []
    for seed in range(relabelings):
        kp = relabeled_klein(text, seed)
        for target in targets:
            est = polytope_volume(kp, target)
            assert est.rel_error <= target, (seed, target)
            dev = abs(est.value - exact)
            ratios.append(est.abs_error / dev if dev else math.inf)
    return min(ratios)


def test_5d_bars_cover_the_reference_volume():
    # 20 relabelings from 1e-3 to 1e-9, the bench's 1e-4 among them
    worst = bar_over_deviation(POLYTOPE_5D, VOLUME_5D, 20, (1e-3, 1e-4, 1e-6, 1e-9))
    assert worst >= 1, f"minimum bar/|dev| {worst:.3g}"


def test_7d_bars_cover_the_reference_volume():
    worst = bar_over_deviation(POLYTOPE_7D, VOLUME_7D, 5, (1e-3, 1e-4))
    assert worst >= 1, f"minimum bar/|dev| {worst:.3g}"


def triangle(p, q, r):
    lines = ["n 2", "facets 3"]
    for (i, j), m in zip(((0, 1), (1, 2), (0, 2)), (p, q, r)):
        if m != 2:
            lines.append(f"edge {i} {j} {m}")
    return "\n".join(lines) + "\n"


def chain(n, *labels):
    """The linear diagram [labels] of an n-simplex."""
    return f"n {n}\nfacets {n + 1}\n" + "".join(
        f"edge {i} {i + 1} {m}\n" for i, m in enumerate(labels))


# noncompact 5-simplices over Q with delta = 1, so T = zeta(3), and their
# multipliers: the volumes 7 zeta(3) / q of Johnson, Kellerhals, Ratcliffe
# and Tschantz (Transform. Groups 4, 1999)
ZETA_SIMPLICES = {
    "[3,3,3,4,3]": (chain(5, 3, 3, 3, 4, 3), Fraction(7, 46080)),
    "[3,3,4,3,3]": (chain(5, 3, 3, 4, 3, 3), Fraction(7, 9216)),
    "[3,4,3,3,4]": (chain(5, 3, 4, 3, 3, 4), Fraction(7, 4608)),
}
# tetrahedra over Q, where T = |D|^(3/2) L(2, chi_D), and their multipliers
TETRAHEDRA = {
    "[3,3,6]": (chain(3, 3, 3, 6), Fraction(1, 96)),
    "[6,3,3]": (chain(3, 6, 3, 3), Fraction(1, 96)),
    "[3,4,4]": (chain(3, 3, 4, 4), Fraction(1, 96)),
    "[4,4,3]": (chain(3, 4, 4, 3), Fraction(1, 96)),
    "[4,4,4]": (chain(3, 4, 4, 4), Fraction(1, 32)),
    "[3,6,3]": (chain(3, 3, 6, 3), Fraction(1, 24)),
    "[6,3,6]": (chain(3, 6, 3, 6), Fraction(1, 16)),
    "[4,3,6]": (chain(3, 4, 3, 6), Fraction(5, 192)),
    "ideal tetrahedron": (IDEAL_TETRAHEDRON, Fraction(1, 4)),
}


def exact_cases():
    """(name, diagram, exact volume, targets): the 44 hyperbolic triangles
    with labels 2-6 and inf (area pi (1 - 1/p - 1/q - 1/r)), [5,3,3,4], the
    regular ideal tetrahedron (3 L(pi/3) = 3/2 Cl_2(2 pi/3)), the three
    zeta(3) simplices and 5D."""
    def angle(m):
        return Fraction(0) if m == "inf" else Fraction(1, m)

    cases = []
    for labels in itertools.combinations_with_replacement([2, 3, 4, 5, 6, "inf"], 3):
        share = sum(map(angle, labels))
        if share < 1:
            cases.append((labels, triangle(*labels), math.pi * float(1 - share), (1e-3, 1e-6, 1e-10)))
    assert len(cases) == 44
    cases.append(("[5,3,3,4]", SIMPLEX_5334, 17 * math.pi ** 2 / 21600, (1e-3, 1e-6, 1e-10)))
    tetrahedron = float(3 * mpmath.clsin(2, 2 * mpmath.pi / 3) / 2)
    assert tetrahedron == pytest.approx(1.01494160640965, rel=1e-14)
    cases.append(("ideal tetrahedron", IDEAL_TETRAHEDRON, tetrahedron, (1e-3, 1e-6, 1e-10)))
    for name, (text, multiplier) in ZETA_SIMPLICES.items():
        exact = float(multiplier.numerator * mpmath.zeta(3) / multiplier.denominator)
        cases.append((name, text, exact, (1e-3, 1e-6, 1e-10)))
    cases.append(("5D", POLYTOPE_5D, VOLUME_5D, (1e-4,)))
    return cases


def test_bars_cover_exact_volumes():
    # every bar covers the true deviation and meets its target
    worst = (math.inf, None)
    for name, text, exact, targets in exact_cases():
        kp = klein_polytope(text)
        for target in targets:
            est = polytope_volume(kp, target)
            assert est.rel_error <= target, (name, target)
            dev = abs(est.value - exact)
            ratio = est.abs_error / dev if dev else math.inf
            worst = min(worst, (ratio, f"{name} at {target:g}"))
    assert worst[0] >= 1, f"minimum bar/|dev| {worst[0]:.3g} on {worst[1]}"


@pytest.mark.parametrize("name", ZETA_SIMPLICES)
def test_zeta_simplices_recognize_their_multipliers(name):
    # the zeta branch of T end to end, from the integrator's own volume
    text, multiplier = ZETA_SIMPLICES[name]
    report = analyze(text, target_rel_err=1e-10)
    assert (report.prediction.case, report.prediction.delta) == ("rational-field", 1)
    rec = report.recognition
    assert (rec.fraction, rec.method) == (multiplier, "continued-fraction")


def test_zeta_simplex_text_report():
    # render_text's rational-field lines, from an assumed 30-digit volume
    text, multiplier = ZETA_SIMPLICES["[3,3,3,4,3]"]
    with mpmath.workdps(40):
        volume = mpmath.nstr(multiplier.numerator * mpmath.zeta(3) / multiplier.denominator, 30)
        T = mpmath.nstr(mpmath.zeta(3), 25)
    out = render_text(analyze(text, assume_volume=volume, assume_err=1e-28))
    assert "covolume is a rational multiple of T = zeta(3)" in out
    assert f"T = {T}" in out
    assert "volume = 7/46080 * T" in out


@pytest.mark.parametrize("target", [1e-12, 1e-9, 1e-6, 1e-4, 1e-3])
def test_tetrahedra_recognize_their_multipliers(target):
    # T fits dimension 3: all nine multipliers by convergents, within a
    # second; [5,3,6], over Q(sqrt 5), still has no prediction
    t0 = time.perf_counter()
    found = {name: analyze(text, target_rel_err=target).recognition
             for name, (text, _) in TETRAHEDRA.items()}
    assert time.perf_counter() - t0 < 1.0
    assert {name: (rec.fraction, rec.method) for name, rec in found.items()} == {
        name: (multiplier, "continued-fraction") for name, (_, multiplier) in TETRAHEDRA.items()}
    skipped = analyze(chain(3, 5, 3, 6), target_rel_err=target)
    assert (skipped.prediction, skipped.prediction_skipped) == (None, "field of definition is not Q")


def test_ideal_tetrahedron_factor_is_the_clausen_value():
    # 3 L(pi/3) = (3 sqrt 3 / 4) L(2, chi_-3) (Milnor, Bull. AMS 6, 1982), and
    # 3 L(pi/3) = (3/2) Cl_2(2 pi/3): so T/4 = (3/2) Cl_2(2 pi/3)
    pred = transcendental_factor(3, -3)
    assert (pred.case, pred.discriminant) == ("quadratic-field", -3)
    with mpmath.workdps(40):
        clausen = 3 * mpmath.clsin(2, 2 * mpmath.pi / 3) / 2
        assert abs(as_mpf(pred.factor) / 4 - clausen) < mpmath.mpf("1e-25")


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_compact_integrand_matches_power_formula(n):
    # the closed radial integral h(c) against quadrature of
    # r^(n-1) (1 - c r^2)^(-(n+1)/2), on both sides of the series switch
    with mpmath.workdps(30):
        for c in (0.0, 1e-9, 1e-3, 0.1, 0.2999999, 0.3, 0.3000001, 0.6, 0.9, 0.999):
            exact = mpmath.quad(lambda r: r ** (n - 1) * (1 - c * r * r) ** (-mpmath.mpf(n + 1) / 2), [0, 1])
            assert _radial(np.array([c]), n)[0] == pytest.approx(float(exact), rel=1e-13, abs=0), c


def ball_points(n, ideal):
    pts = np.random.default_rng(n).uniform(-0.3, 0.3, (n + 1, n))
    if ideal:
        pts[0] = np.eye(n)[0]
    return pts


CUSP_PIECES = [CUSP_2D, ball_points(3, ideal=True), ball_points(5, ideal=True)]


@pytest.mark.parametrize("pts", CUSP_PIECES, ids=["CUSP_2D", "3d", "5d"])
def test_cusp_integrand_matches_power_formula(pts):
    # the closed radial form 2 / ((n-1) a.t (a.t - |tY|^2)^((n-1)/2)) against
    # quadrature of s^(n-1) (1 - |v + s tY|^2)^(-(n+1)/2) over s in [0, 1]
    n = pts.shape[1]
    (YT,), (a,), (det,) = built_pieces([pts], ideal=True)
    v, Y = pts[0], pts[1:] - pts[0]
    assert det == pytest.approx(abs(np.linalg.det(Y)), rel=1e-14)
    T = np.random.default_rng(n).dirichlet(np.ones(n), size=5).T
    with mpmath.workdps(30):
        for t, value in zip(T.T, _kernel(YT[None], a[None], T)[0]):
            x = [mpmath.mpf(c) for c in t @ Y]
            exact = mpmath.quad(lambda s: s ** (n - 1) * (1 - sum((vi + s * xi) ** 2 for vi, xi in zip(v, x)))
                                ** (-mpmath.mpf(n + 1) / 2), [0, 1])
            assert value == pytest.approx(float(exact), rel=1e-12, abs=0)


@pytest.mark.parametrize("text", [POLYTOPE_5D, POLYTOPE_7D, IDEAL_TRIANGLE],
                         ids=["5d", "7d", "ideal-triangle"])
def test_stacked_build_matches_each_piece_alone(text):
    # the stacked build against one piece at a time, in fan order within
    # each kind: a compact piece's base matrix is its points but the origin,
    # a cusp piece's its other points less the ideal one, and the scale is
    # |det| times the weight; the gathered bases are exact, the rest within
    # a few ulps of a product's rounding
    kp = klein_polytope(text)
    alone = [[], []]
    for s, weight in zip(kp.simplices, kp.weights):
        for points, ideal in _split_multi_ideal(simplex_points(kp, s),
                                                [k >= 0 and kp.ideal_flags[k] for k in s]):
            if ideal is None:
                YT, a = points[:-1].T, None
            else:
                YT = (np.delete(points, ideal, axis=0) - points[ideal]).T
                a = -2.0 * points[ideal] @ YT
            alone[ideal is not None].append((YT, a, weight * abs(np.linalg.det(YT))))
    for (YT, a, scale), pieces in zip(_pieces(kp), alone):
        assert len(YT) == len(pieces)
        for k, (base, coefficients, size) in enumerate(pieces):
            if coefficients is None:
                assert a is None
                np.testing.assert_array_equal(YT[k], base)
            else:
                np.testing.assert_allclose(YT[k], base, rtol=0, atol=1e-15)
                np.testing.assert_allclose(a[k], coefficients, rtol=1e-14, atol=1e-15)
            assert scale[k] == pytest.approx(size, rel=1e-14, abs=0)


@pytest.mark.parametrize("ideal", [False, True], ids=["compact", "cusp"])
def test_stacked_kernel_matches_each_piece_alone(ideal):
    # a stack of pieces gives each piece's values as if it were alone, up to
    # the length of the power series, which follows the stack's largest c
    n = 5
    rng = np.random.default_rng(5)
    point_sets = []
    for reach in (0.1, 0.3, 0.4):
        pts = rng.uniform(-reach, reach, (n + 1, n))
        pts[0 if ideal else n] = np.eye(n)[0] if ideal else 0.0
        point_sets.append(pts)
    YT, a, _ = built_pieces(point_sets, ideal)
    assert len(YT) == 3
    T = rng.dirichlet(np.ones(n), size=7).T
    stacked = _kernel(YT, a, T)
    for k in range(len(YT)):
        alone = _kernel(YT[k:k + 1], None if a is None else a[k:k + 1], T)[0]
        np.testing.assert_allclose(stacked[k], alone, rtol=1e-15, atol=0)


def test_import_leaves_scipy_stats_unloaded():
    # hypvol never imports scipy; test_prediction checks an integrated run and the CLI
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hypvol; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
    # nor dataclasses and its inspect: -S keeps site's .pth imports out of the check
    code = "import sys, hypvol, hypvol.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


EXACT_LAYERS_ONLY = """
import json, sys
import hypvol
from hypvol.polytopes import POLYTOPE_5D

def loaded():
    return sorted({'hypvol.geometry', 'hypvol.integration'} & set(sys.modules))

seen = [loaded()]
rec = hypvol.analyze(POLYTOPE_5D, assume_volume="0.0241330687945822699990",
                     assume_err=1e-19).recognition
seen.append([rec.denominator, loaded()])
rec = hypvol.analyze(POLYTOPE_5D, target_rel_err=1e-4).recognition
seen.append([rec.numerator, rec.denominator, loaded()])
print(json.dumps(seen))
"""


def test_import_compiles_only_the_exact_layers():
    # geometry and integration load at the first integrated analysis, not
    # with the package nor with an analysis of an assumed volume
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", EXACT_LAYERS_ONLY], env=env,
                         capture_output=True, text=True, check=True).stdout
    both = ["hypvol.geometry", "hypvol.integration"]
    assert json.loads(out) == [[], [23040, []], [1, 23040, both]]
    # the CLI still imports integration for its --max-samples default, and so
    # geometry: the benchmark's tracer looks both modules up in sys.modules
    # right after importing hypvol.cli
    code = "import sys, hypvol.cli; print(sorted(m for m in sys.modules if m in %r))" % both
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == str(both)
