"""Quasi-Monte-Carlo hyperbolic volume over a Klein-model triangulation.

The hyperbolic volume element in the Klein ball is

    dV = (1 - |x|^2)^(-(n+1)/2) dx,

so each simplex is integrated in barycentric coordinates through a smooth
measure-preserving map from the unit cube, with scrambled Sobol points and
replicate spread as the error estimate.  A simplex with an ideal vertex is
cut into geometric shells toward the cusp (ratio 1/2); shell contributions
shrink like 2^(-k(n-1)/2) and the remaining tail is bounded in closed form,
so the reported error is the replicate spread plus a rigorous tail bound.

Each piece gets 8 scrambled Sobol engines, built once per analysis:
``polytope_volume``'s sizing pass draws from them, resets them, and its
refine pass draws the same points again.  One replicate loop extends their
sequences each round, adding only the new points to each replicate's
running sum.  Scrambled Sobol sequences are nested (Owen 1995), so an
extended sequence equals a fresh draw of the same size.

The integrands hold points as (n, m) arrays, one contiguous row per
coordinate, and for odd n raise 1 - |x|^2 to the power -(n+1)/2 as a
product of reciprocals, which is cheaper than numpy's general power.
``scipy.stats.qmc`` is imported when the first engines are built, since it
costs most of ``import hypvol`` and only integration needs it.

Simplices with several ideal vertices are split on ideal-ideal edge
midpoints first, so every integrated piece has at most one cusp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent
from .geometry import KleinPolytope

DEFAULT_SEED = 20240
_REPLICATES = 8
_MIN_LOG2 = 7          # smallest per-replicate sample count: 2^7
_MAX_LOG2 = 18         # largest per-replicate sample count: 2^18
_IDEAL_NORM_TOL = 1e-9


@dataclass(frozen=True)
class VolumeEstimate:
    """Numeric volume with an honest absolute error estimate."""

    value: float
    abs_error: float
    samples: int
    strategy: str = "QMC"

    @property
    def rel_error(self) -> float:
        return self.abs_error / self.value if self.value else math.inf

    def __add__(self, other: "VolumeEstimate") -> "VolumeEstimate":
        return VolumeEstimate(
            self.value + other.value,
            self.abs_error + other.abs_error,
            self.samples + other.samples,
            self.strategy,
        )


def _uniform_simplex(U: np.ndarray) -> np.ndarray:
    """Smooth map from the unit cube onto {t >= 0, sum t <= 1}.

    Stick-breaking with power transforms; measure preserving up to the
    constant 1/d!, and smooth, which keeps the Sobol advantage (a sorting
    map would be measure preserving too but wrecks the convergence rate).
    Works on one contiguous row per coordinate and returns the (m, d)
    transposed view of those rows.
    """
    m, d = U.shape
    t = U.T.copy()
    rem = np.ones(m)
    for i, row in enumerate(t):
        np.power(row, 1.0 / (d - i), out=row)
        np.subtract(1.0, row, out=row)
        keep = 1.0 - row
        row *= rem
        rem *= keep
    return t.T


def _split_multi_ideal(points: np.ndarray, ideal: list[bool]) -> list[tuple[np.ndarray, int | None]]:
    """Split until each simplex has at most one ideal vertex.

    An ideal-ideal edge midpoint is strictly inside the ball, so replacing
    either endpoint by it halves the simplex and lowers the ideal count.
    """
    idx = [k for k, f in enumerate(ideal) if f]
    if len(idx) <= 1:
        return [(points, idx[0] if idx else None)]
    a, b = idx[0], idx[1]
    mid = (points[a] + points[b]) / 2.0
    out = []
    for drop in (a, b):
        pts = points.copy()
        pts[drop] = mid
        flags = list(ideal)
        flags[drop] = False
        out.extend(_split_multi_ideal(pts, flags))
    return out


def _inverse_power(x: np.ndarray, n: int) -> np.ndarray:
    """x ** (-(n+1)/2), overwriting x; odd n multiplies the reciprocal."""
    if n % 2 == 0:
        return np.power(x, -(n + 1) / 2, out=x)
    r = np.reciprocal(x, out=x)
    if n == 1:
        return r
    p = r * r
    for _ in range((n - 3) // 2):
        p *= r
    return p


def _density(X: np.ndarray, n: int) -> np.ndarray:
    """(1 - |x|^2)^(-(n+1)/2) for the columns x of an (n, m) array."""
    x = np.einsum("ij,ij->j", X, X)
    return _inverse_power(np.subtract(1.0, x, out=x), n)


def _compact_integrand(points, n):
    """Per-point volume integrand of a simplex without ideal vertices.

    Returns (integrand, tail), with tail 0, or None for a flat simplex.
    """
    v0 = points[0]
    Y = points[1:] - v0
    det = abs(np.linalg.det(Y))
    if det == 0.0:
        return None
    scale = det / math.factorial(n)
    v0 = v0[:, None]
    YT = Y.T.copy()
    return (lambda U: scale * _density(YT @ _uniform_simplex(U).T + v0, n)), 0.0


def _cusp_integrand(points, ideal_index, n, tail_target):
    """Telescoping shells toward the ideal vertex, summed per point.

    Band k is shell 0 scaled by 2^-k toward the cusp, so one band point
    serves every shell.  1 - |x|^2 is evaluated from the anchored expansion
    around the cusp to avoid cancellation deep in the shells.  Returns
    (integrand, tail) with tail half the rigorous bound on the shells left
    out, or None for a flat simplex.
    """
    v = points[ideal_index]
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > _IDEAL_NORM_TOL:
        raise NonConvergent(f"designated ideal vertex is off the sphere by {norm - 1.0:.2e}")
    v = v / norm
    Y = np.delete(points, ideal_index, axis=0) - v
    det = abs(np.linalg.det(Y))
    if det == 0.0:
        return None
    a = -2.0 * (Y @ v)
    a_min = a.min()
    b_max = (Y * Y).sum(axis=1).max()
    if a_min <= 0:
        raise NonConvergent("cusp shells cannot shrink: a base vertex touches "
                            "the sphere at the ideal point")

    def tail_bound(k: int) -> float:
        # remaining integral over the simplex scaled by 2^-k toward the cusp,
        # using 1 - |x|^2 >= T * (2^-k a_min - 4^-k b_max) there
        c = 0.5 ** k * a_min - 0.25 ** k * b_max
        if c <= 0:
            return math.inf
        return float(det * 0.5 ** (k * n) * c ** (-(n + 1) / 2) * 2.0
                     / ((n - 1) * math.factorial(n - 1)))

    anchor = 1
    while 0.5 ** anchor * a_min - 0.25 ** anchor * b_max <= 0:
        anchor += 1
        if anchor > 600:
            raise NonConvergent("cusp shells cannot shrink")
    # with no finite budget (sizing pass) stop once the tail is negligible
    # relative to an upper bound for the whole cusp contribution
    target = tail_target if math.isfinite(tail_target) else tail_bound(anchor) * 1e-7
    shells = anchor
    while tail_bound(shells) > target:
        shells += 1
        if shells > 600:
            raise NonConvergent("cusp tail bound refuses to drop below target")
    scale = det * 0.5 / math.factorial(n - 1)

    YT = Y.T.copy()
    # shell k at scale s = 2^-k: s^n (s*at - s^2*dd)^(-(n+1)/2), written as
    # s^((n-1)/2) (at - s*dd)^(-(n+1)/2) so each shell is one power
    weights = [0.5 ** (k * (n - 1) / 2) for k in range(shells)]

    def integrand(U):
        T = 0.5 * (1.0 + U[:, 0])
        t = np.empty((n, len(U)))
        t[:-1] = _uniform_simplex(U[:, 1:]).T
        t[-1] = 1.0 - t[:-1].sum(axis=0)
        t *= T
        at = a @ t
        tY = YT @ t
        dd = np.einsum("ij,ij->j", tY, tY)
        total = np.zeros(len(U))
        shell = np.empty(len(U))
        for k, w in enumerate(weights):
            np.multiply(dd, -0.5 ** k, out=shell)
            shell += at
            total += w * _inverse_power(shell, n)
        return scale * T ** (n - 1) * total

    return integrand, tail_bound(shells) / 2.0


def _sobol_engines(n: int, seed: int) -> list:
    """The 8 scrambled Sobol engines of one piece, seeded seed + r."""
    from scipy.stats import qmc

    return [qmc.Sobol(n, scramble=True, seed=seed + r) for r in range(_REPLICATES)]


def _replicates(pts, ideal_index, budget, engines, max_log2_samples) -> VolumeEstimate:
    """The replicate loop: one piece's volume from its engines.

    Each replicate starts at 2^7 points and is extended (never redrawn) to
    4 times as many per round, until the replicate-spread error estimate
    fits the absolute budget or the sample cap is reached; only the new
    points of a round are evaluated.
    """
    n = pts.shape[1]
    piece = (_compact_integrand(pts, n) if ideal_index is None
             else _cusp_integrand(pts, ideal_index, n, tail_target=budget / 8.0))
    if piece is None:
        return VolumeEstimate(0.0, 0.0, 0)
    integrand, tail = piece

    sums = np.zeros(_REPLICATES)
    log2_pts = _MIN_LOG2
    while True:
        for r, engine in enumerate(engines):
            # extend by doubling: every total stays a power of two
            while (drawn := engine.num_generated) < 1 << log2_pts:
                U = engine.random_base2(drawn.bit_length() - 1 if drawn else log2_pts)
                sums[r] += integrand(U).sum()
        means = sums / (1 << log2_pts)
        err = 3.0 * float(np.std(means, ddof=1)) / math.sqrt(_REPLICATES) + tail
        if err <= budget or log2_pts >= max_log2_samples:
            return VolumeEstimate(float(np.mean(means)) + tail, err, _REPLICATES << log2_pts)
        log2_pts += 2


def simplex_volume(
    points,
    budget: float = 1e-7,
    *,
    ideal_index: int | None = None,
    seed: int = DEFAULT_SEED,
    max_log2_samples: int = _MAX_LOG2,
) -> VolumeEstimate:
    """Hyperbolic volume of one Klein simplex to roughly the given budget.

    ``points`` is an (n+1) x n array-like; at most one vertex may be ideal
    (on the unit sphere), and ``ideal_index=None`` detects it.  The 8
    replicate engines are seeded ``seed + r``; see ``_replicates``.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[1]
    if pts.shape[0] != n + 1:
        raise ValueError("need n+1 points in dimension n")
    if ideal_index is None:
        norms = np.linalg.norm(pts, axis=1)
        on_sphere = np.where(np.abs(norms - 1.0) <= _IDEAL_NORM_TOL)[0]
        if len(on_sphere) > 1:
            raise ValueError("more than one ideal vertex; split the simplex first")
        if len(on_sphere) == 1:
            ideal_index = int(on_sphere[0])
    return _replicates(pts, ideal_index, budget, _sobol_engines(n, seed), max_log2_samples)


def polytope_volume(
    kp: KleinPolytope,
    target_rel_err: float = 1e-3,
    *,
    seed: int = DEFAULT_SEED,
    max_log2_samples: int = _MAX_LOG2,
) -> VolumeEstimate:
    """Total volume of the triangulated polytope.

    A cheap first pass sizes every piece, then absolute error budgets are
    allocated proportionally to the first-pass estimates and each piece is
    refined independently.  Piece k's engines are seeded seed + 7919 k and
    built once: the refine pass resets them and draws the first pass's
    points again.  The result carries the summed error, so a miss of the
    target still reports an honest bound.
    """
    pieces: list[tuple[np.ndarray, int | None]] = []
    for simplex in kp.simplices:
        pts = np.array(
            [[float(c) for c in p] for p in kp.simplex_points(simplex)], dtype=np.float64
        )
        flags = [kp.ideal_flags[k] if k >= 0 else False for k in simplex]
        pieces.extend(_split_multi_ideal(pts, flags))

    engines = [_sobol_engines(pts.shape[1], seed + 7919 * k)
               for k, (pts, _) in enumerate(pieces)]
    first = [_replicates(pts, ideal_idx, math.inf, engines[k], _MIN_LOG2)
             for k, (pts, ideal_idx) in enumerate(pieces)]
    rough_total = sum(e.value for e in first) or 1.0
    budget_total = target_rel_err * rough_total

    total = VolumeEstimate(0.0, 0.0, 0, "QMC")
    for k, (pts, ideal_idx) in enumerate(pieces):
        share = max(first[k].value / rough_total, 1.0 / (16 * len(pieces)))
        for engine in engines[k]:
            engine.reset()
        total = total + _replicates(pts, ideal_idx, budget_total * share, engines[k],
                                    max_log2_samples)
    return total
