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
    split = left.value + right.value
    assert abs(whole.value - split) <= whole.abs_error + left.abs_error + right.abs_error


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
    # the pilot (2^9 points per replicate) and the final pass (2^11 at budget
    # 0) build one generator each, which serves all 8 replicates
    simplex_volume(pts, budget=0.0, max_log2_samples=11)
    assert sobol_rows == [8 * 2**9, 8 * 2**11]


@pytest.mark.parametrize("pts", [COMPACT_3D, CUSP_2D], ids=["compact", "cusp"])
def test_simplex_volume_draws_each_point_once(pts, sobol_rows):
    # samples counts the pilot's points too
    est = simplex_volume(pts, budget=0.0, max_log2_samples=11)
    assert est.samples == 8 * (2**9 + 2**11)
    assert sum(sobol_rows) == est.samples


def final_pass_streams(seed):
    """The replicate seeds of a one-piece integration's final pass."""
    _pilot, final = np.random.SeedSequence(seed).spawn(1)[0].spawn(2)
    return final.spawn(8)


def test_extended_sequences_match_fresh_draws(qmc):
    # the final pass draws 2^15 points per replicate in aligned blocks of
    # 2^14, which are the points of one fresh draw of that size; the value
    # comes from the final pass alone
    integrand, _ = _compact_integrand(COMPACT_3D, 3)
    fresh = [integrand(qmc.Sobol(3, scramble=True, seed=np.random.default_rng(child))
                       .random_base2(15).T.copy())[0].mean()
             for child in final_pass_streams(31)]
    est = simplex_volume(COMPACT_3D, budget=0.0, seed=31, max_log2_samples=15)
    assert est.value == pytest.approx(np.mean(fresh), rel=1e-14, abs=0)


def test_ideal_triangle_mean_deviation_is_unbiased():
    # 200 independent seeds at 1e-3: every bar covers pi, and the mean signed
    # deviation lies within 3 of its standard errors of zero
    kp = klein_polytope(IDEAL_TRIANGLE)
    estimates = [polytope_volume(kp, 1e-3, seed=seed) for seed in range(200)]
    dev = np.array([e.value - math.pi for e in estimates])
    t = dev.mean() / (dev.std(ddof=1) / math.sqrt(dev.size))
    assert abs(t) <= 3, f"mean deviation {dev.mean():.3g}, t = {t:.2f}"
    assert all(abs(d) <= e.abs_error for d, e in zip(dev, estimates))


VOLUME_5D = 0.0241330687945822699990   # README: vol(P5) from the L-series identity


def test_5d_bars_cover_the_reference_volume():
    kp = klein_polytope(POLYTOPE_5D)
    estimates = [polytope_volume(kp, 1e-3, seed=seed) for seed in range(20)]
    ratios = [e.abs_error / abs(e.value - VOLUME_5D) for e in estimates]
    assert min(ratios) >= 1, f"minimum bar/|dev| {min(ratios):.3g}"


def test_polytope_volume_5d_quick():
    # quick accuracy check against the externally computed high-precision value
    kp = klein_polytope(POLYTOPE_5D)
    est = polytope_volume(kp, 2e-3, seed=11)
    assert abs(est.value - VOLUME_5D) / VOLUME_5D < 2e-3
    assert abs(est.value - VOLUME_5D) <= est.abs_error


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


def rowwise_cusp(points, ideal_index, n, shells, U):
    """(shell sum, low, high): shells 0..shells-1, each as
    s^n (s*at - s^2*dd)^(-(n+1)/2), and the two bounds on all the others."""
    v = points[ideal_index]
    Y = np.delete(points, ideal_index, axis=0) - v
    det = abs(np.linalg.det(Y))
    a = -2.0 * (Y @ v)
    T = 0.5 * (1.0 + U[:, 0])
    parts = rowwise_uniform_simplex(U[:, 1:])
    t = T[:, None] * np.hstack([parts, 1.0 - parts.sum(axis=1, keepdims=True)])
    at, tY = t @ a, t @ Y
    dd = np.einsum("ij,ij->i", tY, tY)
    total = np.zeros(len(U))
    for k in range(shells):
        s = 0.5 ** k
        total += s ** n * (s * at - s * s * dd) ** (-(n + 1) / 2)
    # shell k >= shells is w_k f(2^-k), w_k = 2^(-k(n-1)/2), f(s) = (at - s dd)^(-(n+1)/2),
    # and f(0) + f'(0) s <= f(s) <= f(0) + s (f(2^-shells) - f(0)) 2^shells
    far = range(shells, 4000)
    flat = sum(0.5 ** (k * (n - 1) / 2) for k in far)
    linear = sum(0.5 ** (k * (n + 1) / 2) for k in far)
    f0 = at ** (-(n + 1) / 2)
    tangent = (n + 1) / 2 * dd * at ** (-(n + 3) / 2)
    chord = ((at - 0.5 ** shells * dd) ** (-(n + 1) / 2) - f0) * 2.0 ** shells
    factor = det * 0.5 / math.factorial(n - 1) * T ** (n - 1)
    return factor * total, factor * (flat * f0 + linear * tangent), factor * (flat * f0 + linear * chord)


def tail_bound(points, ideal_index, n, k):
    """Closed-form bound on the shells k, k+1, ... of a cusp simplex: the
    simplex scaled by 2^-k toward the cusp, with 1 - |x|^2 >= T * c there."""
    v = points[ideal_index]
    Y = np.delete(points, ideal_index, axis=0) - v
    a = -2.0 * (Y @ v)
    c = 0.5 ** k * a.min() - 0.25 ** k * (Y * Y).sum(axis=1).max()
    return (math.inf if c <= 0 else abs(np.linalg.det(Y)) * 0.5 ** (k * n) * c ** (-(n + 1) / 2)
            * 2.0 / ((n - 1) * math.factorial(n - 1)))


def ball_points(n, ideal):
    pts = np.random.default_rng(n).uniform(-0.3, 0.3, (n + 1, n))
    if ideal:
        pts[0] = np.eye(n)[0]
    return pts


@pytest.mark.parametrize("n", [2, 3, 5])
def test_compact_integrand_matches_power_formula(n, qmc):
    pts = ball_points(n, ideal=False)
    U = qmc.Sobol(n, scramble=True, seed=7).random_base2(10)
    integrand, shells = _compact_integrand(pts, n)
    values, widths = integrand(U.T.copy())
    assert shells == 0 and widths == 0.0
    np.testing.assert_allclose(values, rowwise_compact(pts, n, U), rtol=1e-13, atol=0)


CUSP_PIECES = [CUSP_2D, ball_points(3, ideal=True), ball_points(5, ideal=True)]


@pytest.mark.parametrize("pts", CUSP_PIECES, ids=["CUSP_2D", "3d", "5d"])
def test_cusp_integrand_matches_power_formula(pts, qmc):
    n = pts.shape[1]
    U = qmc.Sobol(n, scramble=True, seed=7).random_base2(10)
    integrand, shells = _cusp_integrand(pts, 0, n, 9)
    values, widths = integrand(U.T.copy())
    total, low, high = rowwise_cusp(pts, 0, n, 9, U)
    assert shells == 9
    # the bracket's ends: midpoint -+ half-width
    np.testing.assert_allclose(values - widths, total + low, rtol=1e-13, atol=0)
    np.testing.assert_allclose(values + widths, total + high, rtol=1e-13, atol=0)


@pytest.mark.parametrize("pts", CUSP_PIECES, ids=["CUSP_2D", "3d", "5d"])
def test_cusp_bracket_holds_the_shells_left_out(pts):
    # every point's midpoint lies within its half-width of the sum over 80
    # shells, and one more shell shrinks every half-width by 2^(-(n+3)/2) at
    # least (the shell term and its derivative are convex in 2^-k), which is
    # how the number of shells is chosen
    n = pts.shape[1]
    U = np.random.default_rng(n).random((n, 4096))
    deep, _ = _cusp_integrand(pts, 0, n, 80)[0](U.copy())
    for shells in (1, 4, 7):
        values, widths = _cusp_integrand(pts, 0, n, shells)[0](U.copy())
        assert (np.abs(values - deep) <= widths * (1 + 1e-9) + 1e-15 * deep).all()
        _, narrower = _cusp_integrand(pts, 0, n, shells + 1)[0](U.copy())
        assert (narrower <= widths * 0.5 ** ((n + 3) / 2) * (1 + 1e-6)).all()


@pytest.mark.parametrize("pts", CUSP_PIECES, ids=["CUSP_2D", "3d", "5d"])
def test_cusp_remainder_stays_below_closed_form_tail_bound(pts, qmc):
    # the closed-form bound of the shells left out checks the bracket: the
    # integrated upper end stays below it wherever it is finite
    n = pts.shape[1]
    U = qmc.Sobol(n, scramble=True, seed=3).random_base2(12)
    for shells in range(1, 12):
        _, low, high = rowwise_cusp(pts, 0, n, shells, U)
        assert 0 < low.mean() <= high.mean() <= tail_bound(pts, 0, n, shells)


def triangle_pieces():
    kp = klein_polytope(IDEAL_TRIANGLE)
    pieces = []
    for simplex in kp.simplices:
        pts = np.array([[float(c) for c in p] for p in kp.simplex_points(simplex)])
        pieces.extend(_split_multi_ideal(pts, [k >= 0 and kp.ideal_flags[k] for k in simplex]))
    return kp, pieces


def test_polytope_volume_builds_each_piece_engines_once(sobol_rows):
    # one generator for each piece's pilot and one for its final pass
    kp, pieces = triangle_pieces()
    est = polytope_volume(kp, 1e-3, seed=5)
    assert len(sobol_rows) == 2 * len(pieces)
    assert sum(sobol_rows) == est.samples


def test_polytope_volume_passes_draw_disjoint_streams(monkeypatch):
    # every replicate of every pass, for seeds 5 and 6, has its own scramble:
    # no two of the 2 * 2 * pieces * 8 random shifts agree
    shifts = []

    class RecordingSobol(_Sobol):
        def __init__(self, *args):
            super().__init__(*args)
            shifts.extend(self._shift[0].tolist())

    monkeypatch.setattr(integration, "_Sobol", RecordingSobol)
    kp, pieces = triangle_pieces()
    polytope_volume(kp, 1e-3, seed=5)
    polytope_volume(kp, 1e-3, seed=6)
    assert len(shifts) == 2 * 2 * len(pieces) * 8
    assert len(set(shifts)) == len(shifts)


@pytest.mark.parametrize("nu", [7, 7.5, 13.2, 41, 120, 938, 1e5])
def test_t_quantile_matches_scipy(nu):
    stats = pytest.importorskip("scipy.stats")
    assert integration._t_quantile(nu) == pytest.approx(stats.t.isf(5e-5, nu), rel=1e-12)


def test_import_leaves_scipy_stats_unloaded():
    # hypvol never imports scipy; test_prediction checks an integrated run and the CLI
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hypvol; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 11, 21])
def test_sobol_points_match_scipy_bit_for_bit(d, qmc):
    # block 0 at 2^7, every doubling up to 2^13 and aligned blocks in between,
    # for replicate groups of 1, 2 and 8; replicate r is scipy's engine on
    # the r-th child of the pass's seed sequence
    blocks = ([(0, 128)] + [(1 << k, 2 << k) for k in range(7, 13)]
              + [(384, 512), (5 << 10, 6 << 10), (3 << 11, 4 << 11)])
    for seed in (0, 7, 20240):
        fresh = [qmc.Sobol(d, scramble=True, seed=np.random.default_rng(child)).random_base2(13)
                 for child in np.random.SeedSequence(seed).spawn(8)]
        sobol = _Sobol(d, np.random.SeedSequence(seed))
        for group in (1, 2, 8):
            for r in range(0, 8, group):
                for start, stop in blocks:
                    U = sobol.points(start, stop, slice(r, r + group))
                    assert U.shape == (d, group, stop - start)
                    for i in range(group):
                        assert np.array_equal(U[:, i].T, fresh[r + i][start:stop])


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
        sobol = _Sobol(d, np.random.SeedSequence(seed))
        for start, stop in ([(0, 128), (0, 1024), (768, 1024)]
                            + [(1 << k, 2 << k) for k in range(11)]):
            U = sobol.points(start, stop, slice(0, 8))
            cells = np.sort(np.floor(U * (stop - start)).astype(np.int64), axis=-1)
            assert (cells == np.arange(stop - start)).all()


def test_sobol_replicate_means_are_unbiased():
    # f = sum x_i^2 * prod x_j integrates to 5 * 1/4 * (1/2)^4 = 5/64 over
    # the unit 5-cube; each scrambled replicate mean is an unbiased estimate
    means = []
    for seed in range(0, 200_000, 1000):
        x = _Sobol(5, np.random.SeedSequence(seed)).points(0, 128, slice(0, 8))
        means.append(((x ** 2).sum(axis=0) * x.prod(axis=0)).mean(axis=-1))
    means = np.concatenate(means)
    se = means.std(ddof=1) / math.sqrt(means.size)
    assert abs(means.mean() - 5 / 64) < 4 * se


def test_sobol_rejects_untabulated_dimension():
    with pytest.raises(ValueError, match="dimension 21"):
        simplex_volume(np.zeros((23, 22)))


@pytest.mark.parametrize("cap", [0, 3, 8, 10])
def test_sample_cap_is_never_exceeded(cap, sobol_rows):
    # the pilot draws 2^9 points per replicate, or the cap if smaller, and at
    # budget 0 the final pass draws exactly the cap
    est = simplex_volume(COMPACT_3D, budget=0.0, max_log2_samples=cap)
    assert sobol_rows == [8 * 2**min(9, cap), 8 * 2**cap]
    assert est.samples == sum(sobol_rows)


def test_integrand_calls_hold_whole_replicates(monkeypatch):
    # the pilot's 2^9 and the final pass's 2^11 points, each for all 8
    # replicates in one call
    calls = []

    def counting(points, n):
        integrand, shells = _compact_integrand(points, n)
        return (lambda U: calls.append(U.shape[1]) or integrand(U)), shells

    monkeypatch.setattr(integration, "_compact_integrand", counting)
    simplex_volume(COMPACT_3D, budget=0.0, max_log2_samples=11)
    assert calls == [8 << 9, 8 << 11]
    # past 2^11 points a replicate, a call takes an aligned block of 2^14
    # points of one replicate
    calls.clear()
    est = simplex_volume(COMPACT_3D, budget=0.0, max_log2_samples=15)
    assert calls[1:] == [1 << 14] * 16
    assert sum(calls) == est.samples
