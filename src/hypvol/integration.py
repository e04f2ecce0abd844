"""Quasi-Monte-Carlo hyperbolic volume over a Klein-model triangulation.

The hyperbolic volume element in the Klein ball is

    dV = (1 - |x|^2)^(-(n+1)/2) dx,

so each simplex is integrated in barycentric coordinates through a smooth
measure-preserving map from the unit cube, with 8 replicates of scrambled
Sobol points.  A simplex with an ideal vertex is cut into geometric shells
toward the cusp (ratio 1/2).  The first K shells are summed per point; the
shells left out are bracketed per point between two closed-form sums, and the
bracket's midpoint joins the value while its integrated half-width joins the
error bar.  Simplices with several ideal vertices are split on ideal-ideal
edge midpoints first, so every integrated piece has at most one cusp.

One design sizes every integration, ``simplex_volume`` being its one-piece
case:

1. pilot: 2^9 points per replicate on every piece, which give each piece's
   spread sigma_k and pick its K;
2. allocation (Neyman, JRSS 97, 1934): at the Monte Carlo rate, N_k points
   per replicate with N_k proportional to sigma_k minimize the total subject
   to 3 sqrt(sum se_k^2) fitting the budget the half-widths leave; each N_k
   is rounded up to a power of two between the pilot's size and the cap
   2^max_log2_samples;
3. final pass: one fixed-size pass per piece on fresh seeds, with no
   stopping rule, which alone gives the value;
4. bar: q sqrt(sum se_k^2) plus the summed half-widths, with se_k the final
   pass's replicate standard error and q the Student-t quantile of two-sided
   tail 1e-4 at the Welch-Satterthwaite degrees of freedom.

Scrambled nets beat the N^-1/2 rate on smooth integrands (Owen, Ann.
Statist. 25, 1997), so the measured se_k lie well below the allocation's
prediction and the t quantile costs no samples.  The final pass is never
smaller than the pilot: below it the Monte Carlo rate would overstate what
fewer points achieve.

Piece k's pilot and final pass take the two children of
``numpy.random.SeedSequence(seed).spawn(pieces)[k]``, and each pass's 8
replicates the children of its own.  The points are scipy's, bit for bit,
from an in-repo generator (see ``_Sobol``): Joe-Kuo direction numbers (Joe &
Kuo, SIAM J. Sci. Comput. 30, 2008) in 30 bits under a random linear matrix
scramble and a digital shift (Matousek 1998).  Point k is the shift XOR the
scrambled direction numbers over the bits of the Gray code of k, so every
aligned block of 2^j points doubles out of its start point with one uint32
XOR pass and one float conversion.

Points come as (n, replicates, m) arrays, one contiguous row per coordinate,
and one integrand call evaluates 2^14 points: as many whole replicates as
fit, or one aligned block of one replicate.  The integrands raise 1 - |x|^2
to the power -(n+1)/2 as a product of reciprocals for odd n, which is
cheaper than numpy's general power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import NonConvergent
from .geometry import KleinPolytope

DEFAULT_SEED = 20240
_REPLICATES = 8
_PILOT_LOG2 = 9        # per-replicate points of the pilot pass: 2^9
DEFAULT_MAX_LOG2 = 19  # default per-replicate cap of a pass: 2^19
_COVERAGE = 3.0        # MC-rate standard errors the allocation fits in the budget
_TAIL = 1e-4           # two-sided tail probability of the bar's t quantile
_Z_BELOW = 3.89        # below its normal quantile 3.8906, so below every t quantile
_PILOT_SHELLS = 4      # cusp shells summed per point in the pilot
_REMAINDER_SHARE = 1e-3  # share of the budget left to the cusp remainders' half-widths
_EPS = 2.0 ** -52      # half-widths below this share of a piece's value are exact enough
_IDEAL_NORM_TOL = 1e-9
_BATCH = 1 << 14       # points per integrand call
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

    Returns (integrand, 0): the integrand maps a (n, m) array of cube points
    to (values, 0.0), as it leaves no remainder; or None for a flat simplex.
    """
    v0 = points[0]
    Y = points[1:] - v0
    det = abs(np.linalg.det(Y))
    if det == 0.0:
        return None
    scale = det / math.factorial(n)
    v0 = v0[:, None]
    YT = Y.T.copy()
    return (lambda U: (scale * _density(YT @ _uniform_simplex(U) + v0, n), 0.0)), 0


def _cusp_integrand(points, ideal_index, n, shells):
    """Telescoping shells toward the ideal vertex, summed per point.

    Band k is shell 0 scaled by s = 2^-k toward the cusp, so one band point
    serves every shell: shell k is w_k f(s), with w_k = s^((n-1)/2) and
    f(s) = (at - s dd)^(-(n+1)/2).  1 - |x|^2 = s (at - s dd) comes from the
    anchored expansion around the cusp, which avoids cancellation deep in
    the shells.  Shells 0..shells-1 are summed.  f is convex with convex
    derivative, so for the shells k >= K = shells left out,
    f(0) + f'(0) s <= f(s) <= f(0) + s (f(2^-K) - f(0)) / 2^-K, and their
    sum is bracketed by sums of w_k and w_k 2^-k in closed form.  The
    integrand maps a (n, m) array of cube points to (values, half-widths),
    the bracket's midpoint being in the value.  Returns (integrand, shells),
    or None for a flat simplex.
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
    if a.min() <= 0:
        raise NonConvergent("cusp shells cannot shrink: a base vertex touches "
                            "the sphere at the ideal point")
    scale = det * 0.5 / math.factorial(n - 1)
    YT = Y.T.copy()
    weights = [0.5 ** (k * (n - 1) / 2) for k in range(shells)]
    last = 0.5 ** shells
    # sums over k >= shells of w_k and (halved, for midpoint and half-width) w_k 2^-k
    flat = 0.5 ** (shells * (n - 1) / 2) / (1.0 - 0.5 ** ((n - 1) / 2))
    linear = 0.5 ** (shells * (n + 1) / 2) / (1.0 - 0.5 ** ((n + 1) / 2)) / 2.0

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
        np.multiply(dd, -last, out=shell)
        shell += at
        chord = _inverse_power(shell, n)          # f(2^-K), then the chord's slope
        tangent = dd / at                         # then f'(0)
        f0 = _inverse_power(at, n)
        tangent *= (n + 1) / 2 * f0
        chord -= f0
        chord /= last
        total += flat * f0 + linear * (chord + tangent)
        factor = scale * T ** (n - 1)
        return factor * total, factor * linear * (chord - tangent)

    return integrand, shells


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
_STRICT_LOWER = np.tri(_BITS, k=-1, dtype=np.uint32)
_UNIT = np.eye(_BITS, dtype=np.uint32)


class _Sobol:
    """The scrambled Sobol points of the 8 replicates of one pass.

    Replicate r is ``scipy.stats.qmc.Sobol(d, scramble=True,
    seed=numpy.random.default_rng(child))`` point for point, where child is
    the r-th of ``seed.spawn(8)``.  scipy's engine spawns a generator of its
    own from the one it is given, so the bits come from
    ``default_rng(child.spawn(1)[0])``, in scipy's order: the shift bits,
    then a lower-triangular matrix whose diagonal is set to 1.  Scrambled
    v_j has, at MSB-first bit p, the parity of row p of the matrix AND v_j.
    """

    def __init__(self, d: int, seed: np.random.SeedSequence):
        if d > len(_POLY):
            raise ValueError(f"Sobol points are tabulated up to dimension {len(_POLY)}, not {d}")
        # one draw per replicate: numpy's integers(2) takes one 32-bit output
        # per value, so this is scipy's two draws back to back
        drawn = np.array([np.random.default_rng(child.spawn(1)[0]).integers(
            2, size=d * _BITS * (_BITS + 1), dtype=np.uint32) for child in seed.spawn(_REPLICATES)])
        shift = drawn[:, :d * _BITS].reshape(_REPLICATES, d, _BITS)
        self._shift = (shift << np.arange(_BITS, dtype=np.uint32)).sum(axis=2, dtype=np.uint32).T
        # lower-triangular with a unit diagonal; float products of 0/1 entries
        # are exact and go through BLAS
        ltm = drawn[:, d * _BITS:].reshape(_REPLICATES, d, _BITS, _BITS) & _STRICT_LOWER | _UNIT
        ltm = ltm.astype(np.float64)
        bits = (_DIRECTIONS[:d, :, None] >> _MSB_SHIFT & 1).astype(np.float64)  # [i, k, p]
        parity = (bits @ ltm.swapaxes(2, 3)).astype(np.uint32) & 1             # [r, i, k, p]
        v = (parity << _MSB_SHIFT).sum(axis=3, dtype=np.uint32).transpose(1, 0, 2)
        # step k = v_k ^ v_(k-1) moves point i to point 2^k + i
        self._step = v.copy()
        self._step[..., 1:] ^= v[..., :-1]                                      # (d, R, 30)

    def points(self, start: int, stop: int, replicates: slice) -> np.ndarray:
        """Points start..stop-1 as a (d, replicates, stop - start) float array.

        [start, stop) is an aligned block: its length 2^k divides start.
        Point i is the shift XOR the scrambled v_k over the bits of the Gray
        code i ^ (i >> 1), that is the shift XOR step k over the bits of i,
        so point start + i is point start XOR step k over the bits of i < 2^k:
        the block doubles out of its start point.
        """
        shift, step = self._shift[:, replicates], self._step[:, replicates]
        x = np.empty(shift.shape + (stop - start,), np.uint32)
        x[..., 0] = shift
        for k in range(start.bit_length()):
            if start >> k & 1:
                x[..., 0] ^= step[..., k]
        size = 1
        for k in range((stop - start).bit_length() - 1):
            np.bitwise_xor(x[..., :size], step[..., k, None], out=x[..., size:2 * size])
            size *= 2
        return x * 2.0 ** -_BITS


def _pass(integrand, n: int, sobol: _Sobol, log2_pts: int) -> tuple[np.ndarray, float]:
    """One fixed-size pass of 2^log2_pts points per replicate.

    Returns the 8 replicate means and the mean remainder half-width.  Each
    integrand call takes 2^14 points, or all of a smaller pass: as many
    whole replicates as fit, or one aligned block of one replicate.
    """
    m = 1 << log2_pts
    block = min(m, _BATCH)
    group = max(1, _BATCH // m)
    sums = np.zeros(_REPLICATES)
    width = 0.0
    for r in range(0, _REPLICATES, group):
        for start in range(0, m, block):
            U = sobol.points(start, start + block, slice(r, r + group))
            values, widths = integrand(U.reshape(n, -1))
            # a row sum is the same pairwise sum as a replicate's own 1-D sum
            sums[r:r + group] += values.reshape(-1, block).sum(axis=1)
            width += float(np.sum(widths))
    return sums / m, width / (_REPLICATES * m)


def _t_quantile(nu: float) -> float:
    """q with P(|T| > q) = 1e-4 for Student's t with nu degrees of freedom.

    The two-sided tail is 1 - I_x(1/2, nu/2) at x = q^2 / (nu + q^2), the
    regularized incomplete beta function (mpmath).  It is convex and falls
    in q, so Newton's method from below q climbs to q monotonically; it
    starts from the first Cornish-Fisher correction z + (z^3 + z) / (4 nu)
    at a z below the normal quantile, which every later term would raise.
    """
    z = _Z_BELOW
    q = z + (z ** 3 + z) / (4.0 * nu)
    log_density = (math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)
                   - math.log(nu * math.pi) / 2)
    for _ in range(50):
        tail = float(1 - mpmath.betainc(0.5, nu / 2, 0, q * q / (nu + q * q), regularized=True))
        step = (tail - _TAIL) / (2.0 * math.exp(log_density - (nu + 1) / 2 * math.log1p(q * q / nu)))
        q += step
        if step <= 1e-12 * q:
            return q
    raise NonConvergent(f"t quantile at {nu} degrees of freedom did not converge")


def _integrand(pts, ideal, shells):
    """The piece's (integrand, shells), or None for a flat simplex."""
    n = pts.shape[1]
    return _compact_integrand(pts, n) if ideal is None else _cusp_integrand(pts, ideal, n, shells)


def _volume(pieces, budget, seed: int, max_log2_samples: int) -> VolumeEstimate:
    """Pilot, Neyman allocation and one final pass over the pieces.

    ``pieces`` are (points, ideal vertex index or None); ``budget`` maps the
    pilot's total volume to the absolute error budget.  Piece k's pilot and
    final pass are the two children of ``SeedSequence(seed).spawn(...)[k]``.
    """
    cap = min(max_log2_samples, _BITS)
    pilot_log2 = min(_PILOT_LOG2, cap)
    live, samples, pilot_total, cusps = [], 0, 0.0, 0
    for (pts, ideal), piece_seed in zip(pieces, np.random.SeedSequence(seed).spawn(len(pieces))):
        n = pts.shape[1]
        pilot_seed, final_seed = piece_seed.spawn(2)
        sobol = _Sobol(n, pilot_seed)   # first: an untabulated dimension fails even if flat
        made = _integrand(pts, ideal, _PILOT_SHELLS)
        if made is None:
            continue
        integrand, shells = made
        means, width = _pass(integrand, n, sobol, pilot_log2)
        samples += _REPLICATES << pilot_log2
        pilot_total += float(np.mean(means))
        cusps += ideal is not None
        live.append((pts, ideal, final_seed, shells, means, width))

    total_budget = budget(pilot_total)
    plans, predicted, sigma_sum = [], 0.0, 0.0
    for pts, ideal, final_seed, shells, means, width in live:
        # each further shell shrinks every point's half-width by 2^(-(n+3)/2)
        # at least, since f' is convex too
        target = max(_REMAINDER_SHARE * total_budget / max(cusps, 1),
                     _EPS * abs(float(np.mean(means))))
        rate = (pts.shape[1] + 3) / 2
        if width > target > 0:
            extra = math.ceil(math.log2(width / target) / rate)
            shells += extra
            width *= 0.5 ** (extra * rate)
        predicted += width
        sigma = float(np.std(means, ddof=1)) * math.sqrt(1 << pilot_log2)
        sigma_sum += sigma
        plans.append((pts, ideal, final_seed, shells, sigma))

    # Neyman: N_k = sigma_k sum(sigma) / (R s^2) minimizes sum N_k subject to
    # sum sigma_k^2 / (R N_k) <= s^2, with s the standard error the budget leaves
    spread = (total_budget - predicted) / _COVERAGE
    value = widths = 0.0
    variances = []
    for pts, ideal, final_seed, shells, sigma in plans:
        n = pts.shape[1]
        wanted = sigma * sigma_sum / (_REPLICATES * spread ** 2) if spread > 0 else math.inf
        log2_pts = max(pilot_log2, math.ceil(math.log2(min(max(wanted, 1.0), 2.0 ** cap))))
        integrand, _ = _integrand(pts, ideal, shells)
        means, width = _pass(integrand, n, _Sobol(n, final_seed), log2_pts)
        samples += _REPLICATES << log2_pts
        value += float(np.mean(means))
        variances.append(float(np.var(means, ddof=1)) / _REPLICATES)
        widths += width
    variance = sum(variances)
    bar = 0.0
    if variance > 0:
        # Welch-Satterthwaite degrees of freedom of the summed variance
        nu = (_REPLICATES - 1) / sum((v / variance) ** 2 for v in variances)
        bar = _t_quantile(nu) * math.sqrt(variance)
    return VolumeEstimate(value, bar + widths, samples)


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
    21.  This is ``polytope_volume``'s design on one piece with an absolute
    budget.
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
    return _volume([(pts, ideal_index)], lambda _: budget, seed, max_log2_samples)


def polytope_volume(
    kp: KleinPolytope,
    target_rel_err: float = 1e-3,
    *,
    seed: int = DEFAULT_SEED,
    max_log2_samples: int = DEFAULT_MAX_LOG2,
) -> VolumeEstimate:
    """Total volume of the triangulated polytope.

    Simplices with several ideal vertices are split first; the budget is
    ``target_rel_err`` times the pilot's total.  A miss of the target (at
    the sample cap) still reports an honest bar.
    """
    pieces: list[tuple[np.ndarray, int | None]] = []
    for simplex in kp.simplices:
        pts = kp.simplex_points(simplex)
        flags = [kp.ideal_flags[k] if k >= 0 else False for k in simplex]
        pieces.extend(_split_multi_ideal(pts, flags))
    return _volume(pieces, lambda total: target_rel_err * abs(total), seed, max_log2_samples)
