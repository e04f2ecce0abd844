"""Quasi-Monte-Carlo hyperbolic volume over a Klein-model triangulation.

The hyperbolic volume element in the Klein ball is

    dV = (1 - |x|^2)^(-(n+1)/2) dx,

so each simplex is integrated in barycentric coordinates through a smooth
measure-preserving map from the unit cube, with scrambled Sobol points and
replicate spread as the error estimate.  A simplex with an ideal vertex is
cut into geometric shells toward the cusp (ratio 1/2); shell contributions
shrink like 2^(-k(n-1)/2) and the remaining tail is bounded in closed form,
so the reported error is the replicate spread plus a rigorous tail bound.

The points are scipy's, bit for bit, from an in-repo generator: replicate
r of a piece is ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed + r)``,
that is Joe-Kuo direction numbers (Joe & Kuo, SIAM J. Sci. Comput. 30,
2008) in 30 bits under a random linear matrix scramble and a digital shift
(Matousek 1998), drawn from ``numpy.random.default_rng(seed + r)``.  Point
k is the shift XOR the scrambled direction numbers over the bits of the
Gray code of k, so each block [2^k, 2^(k+1)) doubles out of its start point
with one uint32 XOR pass and one float conversion, and there is no engine
state: ``polytope_volume``'s refine pass asks for its sizing pass's points
again.  One replicate loop extends each replicate's sequence each round,
adding only the new points to its running sum.  Scrambled Sobol sequences
are nested (Owen 1995), so an extended sequence equals a fresh draw of the
same size.

Points come as (n, replicates, m) arrays, one contiguous row per coordinate,
and one integrand call evaluates as many whole replicates as fit in 2^14
points, the largest single draw of a 5D analysis; a larger block goes one
replicate per call, so no array outgrows one replicate's block.  The
integrands raise 1 - |x|^2 to the power -(n+1)/2 as a product of
reciprocals for odd n, which is cheaper than numpy's general power.

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
_MIN_LOG2 = 7          # per-replicate sample count of the first round: 2^7
DEFAULT_MAX_LOG2 = 19  # default per-replicate sample cap: 2^19
_IDEAL_NORM_TOL = 1e-9
_BATCH = 1 << 14       # points per integrand call, in whole replicates
_BITS = 30             # Sobol points are 30-bit fractions, as scipy's
# Joe-Kuo primitive polynomials and initial direction numbers m_1..m_deg for
# the first 21 dimensions (scipy's table, ``_sobol_direction_numbers.npz``)
_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109,
         115, 131, 137)
_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
          (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1),
          (1, 1, 1, 3, 11), (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49),
          (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
          (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
          (1, 3, 7, 13, 13, 15, 69))


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
    Overwrites the (d, m) array U, one row per coordinate, and returns it.
    """
    d, m = U.shape
    rem = np.ones(m)
    for i, row in enumerate(U):
        np.power(row, 1.0 / (d - i), out=row)
        np.subtract(1.0, row, out=row)
        keep = 1.0 - row
        row *= rem
        rem *= keep
    return U


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
    return (lambda U: scale * _density(YT @ _uniform_simplex(U) + v0, n)), 0.0


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
        m = U.shape[1]
        T = 0.5 * (1.0 + U[0])
        t = np.empty((n, m))
        t[:-1] = _uniform_simplex(U[1:])
        t[-1] = 1.0 - t[:-1].sum(axis=0)
        t *= T
        at = a @ t
        tY = YT @ t
        dd = np.einsum("ij,ij->j", tY, tY)
        total = np.zeros(m)
        shell = np.empty(m)
        for k, w in enumerate(weights):
            np.multiply(dd, -0.5 ** k, out=shell)
            shell += at
            total += w * _inverse_power(shell, n)
        return scale * T ** (n - 1) * total

    return integrand, tail_bound(shells) / 2.0


def _direction_numbers() -> np.ndarray:
    """The (21, 30) Sobol direction numbers v_j, left-aligned in 30 bits.

    Dimension 0 is v_j = 2^(29-j); the others extend their initial numbers
    by v_j = v_(j-m) ^ (v_(j-m) >> m) ^ XOR of a_k v_(j-k), where m is the
    degree of the primitive polynomial and a_k its inner coefficients.
    """
    table = [[1 << (_BITS - 1 - j) for j in range(_BITS)]]
    for poly, init in zip(_POLY[1:], _VINIT[1:]):
        m = poly.bit_length() - 1
        v = [x << (_BITS - 1 - j) for j, x in enumerate(init)]
        for j in range(m, _BITS):
            new = v[j - m] ^ (v[j - m] >> m)
            for k in range(1, m):
                if poly >> (m - k) & 1:
                    new ^= v[j - k]
            v.append(new)
        table.append(v)
    return np.array(table, dtype=np.uint32)


_DIRECTIONS = _direction_numbers()
_MSB_SHIFT = np.arange(_BITS - 1, -1, -1, dtype=np.uint32)   # shift of MSB-first bit p


class _Sobol:
    """The scrambled Sobol points of the 8 replicates of one piece.

    Replicate r equals ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed + r)``
    point for point.  Its bits come from ``numpy.random.default_rng(seed + r)``
    in scipy's order: the shift bits, then a lower-triangular matrix whose
    diagonal is set to 1.  Scrambled v_j has, at MSB-first bit p, the parity
    of row p of the matrix AND v_j.
    """

    def __init__(self, d: int, seed: int):
        if d > len(_POLY):
            raise ValueError(f"Sobol points are tabulated up to dimension {len(_POLY)}, not {d}")
        shift, ltm = [], []
        for r in range(_REPLICATES):
            rng = np.random.default_rng(seed + r)
            shift.append(rng.integers(2, size=(d, _BITS), dtype=np.uint32))
            ltm.append(rng.integers(2, size=(d, _BITS, _BITS), dtype=np.uint32))
        j = np.arange(_BITS, dtype=np.uint32)
        self._shift = (np.array(shift) << j).sum(axis=2, dtype=np.uint32).T     # (d, R)
        # float products of 0/1 entries are exact and go through BLAS
        ltm = np.tril(np.array(ltm, dtype=np.float64))
        ltm[..., j, j] = 1.0
        bits = (_DIRECTIONS[:d, :, None] >> _MSB_SHIFT & 1).astype(np.float64)  # [i, k, p]
        parity = (bits @ ltm.swapaxes(2, 3)).astype(np.uint32) & 1             # [r, i, k, p]
        v = (parity << _MSB_SHIFT).sum(axis=3, dtype=np.uint32).transpose(1, 0, 2)
        # step k = v_k ^ v_(k-1) moves point i to point 2^k + i
        self._step = v.copy()
        self._step[..., 1:] ^= v[..., :-1]                                      # (d, R, 30)

    def points(self, start: int, stop: int, replicates: slice) -> np.ndarray:
        """Points start..stop-1 as a (d, replicates, stop - start) float array.

        [start, stop) is [0, 2^k) or [2^k, 2^(k+1)).  Point i is the shift
        XOR the scrambled v_k over the bits of the Gray code i ^ (i >> 1), so
        point 2^k + i is point i XOR step k: the block doubles out of its
        start point, and point 0 is the shift.
        """
        shift, step = self._shift[:, replicates], self._step[:, replicates]
        x = np.empty(shift.shape + (stop - start,), np.uint32)
        x[..., 0] = shift ^ step[..., start.bit_length() - 1] if start else shift
        size = 1
        for k in range((stop - start).bit_length() - 1):
            np.bitwise_xor(x[..., :size], step[..., k, None], out=x[..., size:2 * size])
            size *= 2
        return x * 2.0 ** -_BITS


def _replicates(pts, ideal_index, budget, sobol, max_log2_samples) -> VolumeEstimate:
    """The replicate loop: one piece's volume from its Sobol points.

    Each replicate starts at 2^7 points and is extended (never redrawn) to
    4 times as many per round, until the replicate-spread error estimate
    fits the absolute budget or the sample cap 2^max_log2_samples is
    reached; every round is clamped to the cap, so no replicate draws more.
    Only the new points of a round are evaluated, as many whole replicates
    per integrand call as fit in 2^14 points.
    """
    n = pts.shape[1]
    piece = (_compact_integrand(pts, n) if ideal_index is None
             else _cusp_integrand(pts, ideal_index, n, tail_target=budget / 8.0))
    if piece is None:
        return VolumeEstimate(0.0, 0.0, 0)
    integrand, tail = piece

    sums = np.zeros(_REPLICATES)
    cap = min(max_log2_samples, _BITS)
    drawn, log2_pts = 0, min(_MIN_LOG2, cap)
    while True:
        # extend by doubling: every total stays a power of two
        while drawn < 1 << log2_pts:
            stop = 2 * drawn if drawn else 1 << log2_pts
            group = max(1, _BATCH // (stop - drawn))
            for r in range(0, _REPLICATES, group):
                U = sobol.points(drawn, stop, slice(r, r + group))
                values = integrand(U.reshape(n, -1)).reshape(-1, stop - drawn)
                # a row sum is the same pairwise sum as a replicate's own 1-D sum
                sums[r:r + len(values)] += values.sum(axis=1)
            drawn = stop
        means = sums / (1 << log2_pts)
        err = 3.0 * float(np.std(means, ddof=1)) / math.sqrt(_REPLICATES) + tail
        if err <= budget or log2_pts >= cap:
            return VolumeEstimate(float(np.mean(means)) + tail, err, _REPLICATES << log2_pts)
        log2_pts = min(log2_pts + 2, cap)


def simplex_volume(
    points,
    budget: float = 1e-7,
    *,
    ideal_index: int | None = None,
    seed: int = DEFAULT_SEED,
    max_log2_samples: int = DEFAULT_MAX_LOG2,
) -> VolumeEstimate:
    """Hyperbolic volume of one Klein simplex to roughly the given budget.

    ``points`` is an (n+1) x n array-like; at most one vertex may be ideal
    (on the unit sphere), and ``ideal_index=None`` detects it; n is at most
    21.  The 8 replicates are seeded ``seed + r``; see ``_Sobol``.
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
    return _replicates(pts, ideal_index, budget, _Sobol(n, seed), max_log2_samples)


def polytope_volume(
    kp: KleinPolytope,
    target_rel_err: float = 1e-3,
    *,
    seed: int = DEFAULT_SEED,
    max_log2_samples: int = DEFAULT_MAX_LOG2,
) -> VolumeEstimate:
    """Total volume of the triangulated polytope.

    A cheap first pass sizes every piece, then absolute error budgets are
    allocated proportionally to the first-pass estimates and each piece is
    refined independently.  Piece k's replicates are seeded seed + 7919 k
    + r, and the refine pass evaluates the first pass's points again.  The
    result carries the summed error, so a miss of the target still reports
    an honest bound.
    """
    pieces: list[tuple[np.ndarray, int | None]] = []
    for simplex in kp.simplices:
        pts = kp.simplex_points(simplex)
        flags = [kp.ideal_flags[k] if k >= 0 else False for k in simplex]
        pieces.extend(_split_multi_ideal(pts, flags))

    sobol = [_Sobol(pts.shape[1], seed + 7919 * k) for k, (pts, _) in enumerate(pieces)]
    first = [_replicates(pts, ideal_idx, math.inf, sobol[k], _MIN_LOG2)
             for k, (pts, ideal_idx) in enumerate(pieces)]
    rough_total = sum(e.value for e in first) or 1.0
    budget_total = target_rel_err * rough_total

    total = VolumeEstimate(0.0, 0.0, 0, "QMC")
    for k, (pts, ideal_idx) in enumerate(pieces):
        share = max(first[k].value / rough_total, 1.0 / (16 * len(pieces)))
        total = total + _replicates(pts, ideal_idx, budget_total * share, sobol[k],
                                    max_log2_samples)
    return total
