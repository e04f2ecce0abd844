import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypvol import integration
from hypvol.diagram import gram_matrix, parse_diagram
from hypvol.errors import NonConvergent
from hypvol.geometry import enumerate_vertices, realize, to_klein
from hypvol.integration import (
    _DIRECTIONS,
    _POLY,
    _VINIT,
    VolumeEstimate,
    _Sobol,
    _compact_integrand,
    _cusp_integrand,
    _split_multi_ideal,
    _uniform_simplex,
    polytope_volume,
    simplex_volume,
)
from hypvol.polytopes import IDEAL_TRIANGLE, POLYTOPE_5D


@pytest.fixture
def qmc():
    """scipy's QMC module, the oracle for the in-repo Sobol generator."""
    return pytest.importorskip("scipy.stats").qmc


def klein_polytope(text):
    r = realize(gram_matrix(parse_diagram(text)))
    enumerate_vertices(r)
    return to_klein(r)


TRIANGLE_444 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 4\nedge 0 2 4\n"
# angles pi/4, pi/5, pi/2: the smallest compact triangle labels {3,4,5,6} allow
TRIANGLE_245 = "n 2\nfacets 3\nedge 0 1 4\nedge 1 2 5\n"


def test_uniform_simplex_map_properties():
    rng = np.random.default_rng(0)
    U = rng.random((2000, 4))
    t = _uniform_simplex(U.T.copy()).T
    assert (t >= 0).all()
    assert (t.sum(axis=1) <= 1 + 1e-12).all()
    # barycenter of the uniform simplex is 1/(d+1) per coordinate
    assert np.allclose(t.mean(axis=0), 1 / 5, atol=0.02)


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
    est = polytope_volume(klein_polytope(TRIANGLE_444), 1e-4, seed=5)
    ref = math.pi / 4
    assert abs(est.value - ref) / ref < 1e-4
    assert abs(est.value - ref) <= est.abs_error


def test_gauss_bonnet_237_triangle():
    # the (2,4,5) triangle: area pi - pi/2 - pi/4 - pi/5 = pi/20
    est = polytope_volume(klein_polytope(TRIANGLE_245), 1e-4, seed=5)
    ref = math.pi / 20
    assert abs(est.value - ref) / ref < 1e-4


def test_ideal_triangle_area_pi():
    est = polytope_volume(klein_polytope(IDEAL_TRIANGLE), 1e-3, seed=5)
    assert abs(est.value - math.pi) / math.pi < 1e-3
    assert abs(est.value - math.pi) <= est.abs_error


def test_volume_estimate_add():
    a = VolumeEstimate(1.0, 0.1, 10)
    b = VolumeEstimate(2.0, 0.2, 20)
    c = a + b
    assert (c.value, c.abs_error, c.samples) == (3.0, 0.30000000000000004, 30)
    assert c.rel_error == c.abs_error / 3.0


def test_simplex_volume_validates_shape():
    with pytest.raises(ValueError):
        simplex_volume(np.zeros((3, 3)))


def test_simplex_volume_rejects_two_ideal():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.1, 0.1]])
    with pytest.raises(ValueError):
        simplex_volume(pts)


def test_cusp_estimate_detects_misclassified_vertex():
    # base vertex beyond the tangent plane at the "ideal" point: the shell
    # bound cannot shrink and the input is declared misclassified
    pts = np.array([[1.0, 0.0], [1.5, 0.5], [1.2, -0.3]])
    with pytest.raises(NonConvergent):
        simplex_volume(pts, ideal_index=0)


def test_seeded_determinism():
    kp = klein_polytope(IDEAL_TRIANGLE)
    a = polytope_volume(kp, 1e-3, seed=42)
    b = polytope_volume(kp, 1e-3, seed=42)
    assert a.value == b.value and a.abs_error == b.abs_error
    c = polytope_volume(kp, 1e-3, seed=43)
    assert c.value != a.value  # different scrambling


def test_additivity_under_bisection():
    # split a compact simplex at an edge midpoint: volumes must agree
    pts = np.array([[0.0, 0.0], [0.6, 0.1], [0.2, 0.55]])
    whole = simplex_volume(pts, budget=1e-9, seed=1)
    mid = (pts[0] + pts[1]) / 2
    left = simplex_volume(np.array([pts[0], mid, pts[2]]), budget=1e-9, seed=2)
    right = simplex_volume(np.array([mid, pts[1], pts[2]]), budget=1e-9, seed=3)
    split_total = left + right
    assert abs(whole.value - split_total.value) <= whole.abs_error + split_total.abs_error


def test_isometry_invariance():
    # a Lorentz boost of the realization must not change the volume
    G = gram_matrix(parse_diagram(IDEAL_TRIANGLE))
    r = realize(G)
    enumerate_vertices(r)
    base = polytope_volume(to_klein(r), 1e-3, seed=9)

    ch, sh = math.cosh(0.41), math.sinh(0.41)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    r2 = realize(G)
    r2.normals = r2.normals @ boost.T
    enumerate_vertices(r2)
    moved = polytope_volume(to_klein(r2), 1e-3, seed=9)
    assert abs(base.value - moved.value) <= base.abs_error + moved.abs_error


def test_convergence_order():
    # quadrupling the sample count should cut the observed error at least in half
    pts = np.array([[0.0, 0.0, 0.0], [0.55, 0.05, 0.0], [0.1, 0.5, 0.1],
                    [0.15, 0.1, 0.45]])
    ref = simplex_volume(pts, budget=0.0, seed=77, max_log2_samples=17).value
    errors = []
    for log2 in (9, 11, 13):
        est = simplex_volume(pts, budget=0.0, seed=31, max_log2_samples=log2)
        errors.append(abs(est.value - ref))
    assert errors[0] > 0
    assert errors[1] <= errors[0] / 2
    assert errors[2] <= errors[1] / 2


@pytest.fixture
def sobol_rows(monkeypatch):
    """Points generated by each Sobol generator built while the test runs."""
    rows = []

    class CountingSobol(_Sobol):
        def __init__(self, *args):
            super().__init__(*args)
            self.index = len(rows)
            rows.append(0)

        def points(self, *args):
            U = super().points(*args)
            rows[self.index] += U.shape[1] * U.shape[2]
            return U

    monkeypatch.setattr(integration, "_Sobol", CountingSobol)
    return rows


COMPACT_3D = np.array([[0.0, 0.0, 0.0], [0.55, 0.05, 0.0], [0.1, 0.5, 0.1],
                       [0.15, 0.1, 0.45]])
CUSP_2D = np.array([[1.0, 0.0], [0.0, 0.3], [-0.2, -0.1]])


@pytest.mark.parametrize("pts", [COMPACT_3D, CUSP_2D], ids=["compact", "cusp"])
def test_simplex_volume_builds_each_replicate_engine_once(pts, sobol_rows):
    # budget 0 runs all three rounds: 2^7, 2^9 and 2^11 points per replicate;
    # one generator serves all 8 replicates
    simplex_volume(pts, budget=0.0, max_log2_samples=11)
    assert len(sobol_rows) == 1


@pytest.mark.parametrize("pts", [COMPACT_3D, CUSP_2D], ids=["compact", "cusp"])
def test_simplex_volume_draws_each_point_once(pts, sobol_rows):
    est = simplex_volume(pts, budget=0.0, max_log2_samples=11)
    assert est.samples == 8 * 2**11
    assert sum(sobol_rows) == est.samples


def test_extended_sequences_match_fresh_draws(qmc):
    # scrambled Sobol sequences are nested, so extending each replicate by
    # doubling evaluates the points of one fresh draw of the final size
    integrand, _ = _compact_integrand(COMPACT_3D, 3)
    fresh = [integrand(qmc.Sobol(3, scramble=True, seed=31 + r).random_base2(11).T.copy()).mean()
             for r in range(8)]
    est = simplex_volume(COMPACT_3D, budget=0.0, seed=31, max_log2_samples=11)
    assert est.value == pytest.approx(np.mean(fresh), rel=1e-14, abs=0)


def test_polytope_volume_5d_quick():
    # quick accuracy check against the externally computed high-precision value
    kp = klein_polytope(POLYTOPE_5D)
    est = polytope_volume(kp, 2e-3, seed=11)
    ref = 0.0241330687945822699990
    assert abs(est.value - ref) / ref < 2e-3
    assert abs(est.value - ref) <= est.abs_error


# Reference integrands: one row per point and numpy's general power, the
# straightforward form of the formulas the column kernels must reproduce.
def rowwise_uniform_simplex(U):
    m, d = U.shape
    t = np.empty_like(U)
    rem = np.ones(m)
    for i in range(d):
        frac = 1.0 - U[:, i] ** (1.0 / (d - i))
        t[:, i] = rem * frac
        rem = rem * (1.0 - frac)
    return t


def rowwise_compact(points, n, U):
    # (1 - |x|^2)^(-(n+1)/2) through numpy's general power, row by row
    v0 = points[0]
    Y = points[1:] - v0
    x = v0 + rowwise_uniform_simplex(U) @ Y
    scale = abs(np.linalg.det(Y)) / math.factorial(n)
    return scale * (1.0 - np.einsum("ij,ij->i", x, x)) ** (-(n + 1) / 2)


def rowwise_cusp(points, ideal_index, n, tail_target, U):
    # the same shells as _cusp_integrand, each as s^n (s*at - s^2*dd)^(-(n+1)/2)
    v = points[ideal_index]
    Y = np.delete(points, ideal_index, axis=0) - v
    det = abs(np.linalg.det(Y))
    a = -2.0 * (Y @ v)
    a_min, b_max = a.min(), (Y * Y).sum(axis=1).max()

    def tail_bound(k):
        c = 0.5 ** k * a_min - 0.25 ** k * b_max
        return (math.inf if c <= 0 else det * 0.5 ** (k * n) * c ** (-(n + 1) / 2) * 2.0
                / ((n - 1) * math.factorial(n - 1)))

    shells = 1
    while 0.5 ** shells * a_min - 0.25 ** shells * b_max <= 0:
        shells += 1
    while tail_bound(shells) > tail_target:
        shells += 1
    T = 0.5 * (1.0 + U[:, 0])
    parts = rowwise_uniform_simplex(U[:, 1:])
    t = T[:, None] * np.hstack([parts, 1.0 - parts.sum(axis=1, keepdims=True)])
    at, tY = t @ a, t @ Y
    dd = np.einsum("ij,ij->i", tY, tY)
    total = np.zeros(len(U))
    for k in range(shells):
        s = 0.5 ** k
        total += s ** n * (s * at - s * s * dd) ** (-(n + 1) / 2)
    return det * 0.5 / math.factorial(n - 1) * T ** (n - 1) * total


def ball_points(n, ideal):
    pts = np.random.default_rng(n).uniform(-0.3, 0.3, (n + 1, n))
    if ideal:
        pts[0] = np.eye(n)[0]
    return pts


@pytest.mark.parametrize("n", [2, 3, 5])
def test_compact_integrand_matches_power_formula(n, qmc):
    pts = ball_points(n, ideal=False)
    U = qmc.Sobol(n, scramble=True, seed=7).random_base2(10)
    integrand, tail = _compact_integrand(pts, n)
    assert tail == 0.0
    np.testing.assert_allclose(integrand(U.T.copy()), rowwise_compact(pts, n, U),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("pts", [CUSP_2D, ball_points(3, ideal=True), ball_points(5, ideal=True)],
                         ids=["CUSP_2D", "3d", "5d"])
def test_cusp_integrand_matches_power_formula(pts, qmc):
    n = pts.shape[1]
    U = qmc.Sobol(n, scramble=True, seed=7).random_base2(10)
    integrand, _ = _cusp_integrand(pts, 0, n, 1e-9)
    np.testing.assert_allclose(integrand(U.T.copy()), rowwise_cusp(pts, 0, n, 1e-9, U),
                               rtol=1e-13, atol=0)


def triangle_pieces():
    kp = klein_polytope(IDEAL_TRIANGLE)
    pieces = []
    for simplex in kp.simplices:
        pts = np.array([[float(c) for c in p] for p in kp.simplex_points(simplex)])
        pieces.extend(_split_multi_ideal(pts, [k >= 0 and kp.ideal_flags[k] for k in simplex]))
    return kp, pieces


def test_polytope_volume_builds_each_piece_engines_once(sobol_rows):
    kp, pieces = triangle_pieces()
    polytope_volume(kp, 1e-3, seed=5)
    assert len(sobol_rows) == len(pieces)


def test_polytope_volume_refine_pass_redraws_sizing_points():
    # reset engines give the points of fresh ones: the sum of independent
    # simplex_volume calls with the same seeds and budgets is the total
    kp, pieces = triangle_pieces()
    seeds = [5 + 7919 * k for k in range(len(pieces))]
    first = [simplex_volume(p, math.inf, ideal_index=i, seed=s, max_log2_samples=7)
             for (p, i), s in zip(pieces, seeds)]
    rough = sum(e.value for e in first)
    total = VolumeEstimate(0.0, 0.0, 0)
    for (p, i), s, e in zip(pieces, seeds, first):
        share = max(e.value / rough, 1.0 / (16 * len(pieces)))
        total = total + simplex_volume(p, 1e-3 * rough * share, ideal_index=i, seed=s)
    est = polytope_volume(kp, 1e-3, seed=5)
    assert (est.value, est.abs_error, est.samples) == (total.value, total.abs_error, total.samples)


def test_import_leaves_scipy_stats_unloaded():
    # hypvol never imports scipy; test_prediction checks an integrated run and the CLI
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hypvol; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 11, 21])
def test_sobol_points_match_scipy_bit_for_bit(d, qmc):
    # block 0 at 2^7 and every doubling up to 2^13, for replicate groups of 1, 2 and 8
    blocks = [(0, 128)] + [(1 << k, 2 << k) for k in range(7, 13)]
    for seed in (0, 7, 20240):
        engines = [qmc.Sobol(d, scramble=True, seed=seed + r) for r in range(8)]
        expected = [[e.random_base2((stop - start).bit_length() - 1) for start, stop in blocks]
                    for e in engines]
        sobol = _Sobol(d, seed)
        for group in (1, 2, 8):
            for r in range(0, 8, group):
                for b, (start, stop) in enumerate(blocks):
                    U = sobol.points(start, stop, slice(r, r + group))
                    assert U.shape == (d, group, stop - start)
                    for i in range(group):
                        assert np.array_equal(U[:, i].T, expected[r + i][b])


def test_sobol_direction_table_matches_scipy_npz():
    stats = pytest.importorskip("scipy.stats")
    table = np.load(Path(stats.__file__).parent / "_sobol_direction_numbers.npz")
    assert tuple(table["poly"][:len(_POLY)]) == _POLY
    for row, init in zip(table["vinit"], _VINIT):
        assert tuple(row[:len(init)]) == init
    # v_j = m_j 2^(29-j) with m_j odd and below 2^(j+1), starting from the table's m_j
    assert _DIRECTIONS.shape == (21, 30)
    m = _DIRECTIONS >> np.arange(29, -1, -1, dtype=np.uint32)
    assert (m & 1 == 1).all() and (m < 2 << np.arange(30)).all()
    assert (_DIRECTIONS == m << np.arange(29, -1, -1, dtype=np.uint32)).all()
    for row, init in zip(m[1:], _VINIT[1:]):
        assert tuple(row[:len(init)]) == init


def test_sobol_blocks_stratify_every_coordinate():
    # each 2^k-point block of a replicate puts exactly one point in every
    # interval [i/2^k, (i+1)/2^k) of every coordinate
    for d, seed in ((2, 3), (5, 20240), (21, 9)):
        sobol = _Sobol(d, seed)
        for start, stop in [(0, 128), (0, 1024)] + [(1 << k, 2 << k) for k in range(11)]:
            U = sobol.points(start, stop, slice(0, 8))
            cells = np.sort(np.floor(U * (stop - start)).astype(np.int64), axis=-1)
            assert (cells == np.arange(stop - start)).all()


def test_sobol_replicate_means_are_unbiased():
    # f = sum x_i^2 * prod x_j integrates to 5 * 1/4 * (1/2)^4 = 5/64 over
    # the unit 5-cube; each scrambled replicate mean is an unbiased estimate
    means = []
    for seed in range(0, 200_000, 1000):
        x = _Sobol(5, seed).points(0, 128, slice(0, 8))
        means.append(((x ** 2).sum(axis=0) * x.prod(axis=0)).mean(axis=-1))
    means = np.concatenate(means)
    se = means.std(ddof=1) / math.sqrt(means.size)
    assert abs(means.mean() - 5 / 64) < 4 * se


def test_sobol_rejects_untabulated_dimension():
    with pytest.raises(ValueError, match="dimension 21"):
        simplex_volume(np.zeros((23, 22)))


@pytest.mark.parametrize("cap", [0, 3, 8, 10])
def test_sample_cap_is_never_exceeded(cap):
    # budget 0 runs every round, so each replicate draws exactly the cap
    est = simplex_volume(COMPACT_3D, budget=0.0, max_log2_samples=cap)
    assert est.samples == 8 * 2**cap


def test_integrand_calls_hold_whole_replicates(monkeypatch):
    # blocks of 2^7, 2^7, 2^8, 2^9 and 2^10 points, each for all 8 replicates in one call
    calls = []

    def counting(points, n):
        integrand, tail = _compact_integrand(points, n)
        return (lambda U: calls.append(U.shape[1]) or integrand(U)), tail

    monkeypatch.setattr(integration, "_compact_integrand", counting)
    simplex_volume(COMPACT_3D, budget=0.0, max_log2_samples=11)
    assert calls == [8 << 7, 8 << 7, 8 << 8, 8 << 9, 8 << 10]
    # past 2^11 points a block, fewer replicates go per call, never over 2^14 points
    calls.clear()
    est = simplex_volume(COMPACT_3D, budget=0.0, max_log2_samples=15)
    assert calls[5:] == [1 << 14] * (1 + 2 + 4 + 8)
    assert sum(calls) == est.samples
