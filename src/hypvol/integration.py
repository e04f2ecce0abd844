"""Quasi-Monte-Carlo hyperbolic volume over a Klein-model triangulation.

The hyperbolic volume element in the Klein ball is

    dV = (1 - |x|^2)^(-(n+1)/2) dx,

so each simplex is integrated in barycentric coordinates through a smooth
measure-preserving map from the unit cube, with scrambled Sobol points and
replicate spread as the error estimate.  A simplex with an ideal vertex is
cut into geometric shells toward the cusp (ratio 1/2); shell contributions
shrink like 2^(-k(n-1)/2) and the remaining tail is bounded in closed form,
so the reported error is the replicate spread plus a rigorous tail bound.

Simplices with several ideal vertices are split on ideal-ideal edge
midpoints first, so every integrated piece has at most one cusp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

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
    """
    m, d = U.shape
    t = np.empty_like(U)
    rem = np.ones(m)
    for i in range(d):
        frac = 1.0 - U[:, i] ** (1.0 / (d - i))
        t[:, i] = rem * frac
        rem = rem * (1.0 - frac)
    return t


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


def _density(x: np.ndarray, n: int) -> np.ndarray:
    return (1.0 - np.einsum("ij,ij->i", x, x)) ** (-(n + 1) / 2)


def _compact_estimate(points, n, log2_pts, seed):
    v0 = points[0]
    Y = points[1:] - v0
    det = abs(np.linalg.det(Y))
    if det == 0.0:
        return np.zeros(_REPLICATES), 0.0, 0
    vals = np.empty(_REPLICATES)
    for r in range(_REPLICATES):
        sob = qmc.Sobol(n, scramble=True, seed=seed + r)
        U = sob.random_base2(log2_pts)
        t = _uniform_simplex(U)
        f = _density(v0 + t @ Y, n)
        vals[r] = det * f.mean() / math.factorial(n)
    return vals, 0.0, _REPLICATES << log2_pts


def _cusp_estimate(points, ideal_index, n, log2_pts, seed, tail_target):
    """Telescoping shells toward the ideal vertex.

    Band k is shell 0 scaled by 2^-k toward the cusp, so one batch of band
    points serves every shell.  1 - |x|^2 is evaluated from the anchored
    expansion around the cusp to avoid cancellation deep in the shells.
    """
    v = points[ideal_index]
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > _IDEAL_NORM_TOL:
        raise NonConvergent(f"designated ideal vertex is off the sphere by {norm - 1.0:.2e}")
    v = v / norm
    base = np.array([points[k] for k in range(len(points)) if k != ideal_index])
    Y = base - v
    det = abs(np.linalg.det(Y))
    if det == 0.0:
        return np.zeros(_REPLICATES), 0.0, 0
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
        return det * 0.5 ** (k * n) * c ** (-(n + 1) / 2) * 2.0 / ((n - 1) * math.factorial(n - 1))

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
    tail = tail_bound(shells)

    vals = np.empty(_REPLICATES)
    for r in range(_REPLICATES):
        sob = qmc.Sobol(n, scramble=True, seed=seed + r)
        U = sob.random_base2(log2_pts)
        T = 0.5 * (1.0 + U[:, 0])
        if n == 1:
            sigma = np.ones((len(U), 1))
        else:
            parts = _uniform_simplex(U[:, 1:])
            sigma = np.hstack([parts, 1.0 - parts.sum(axis=1, keepdims=True)])
        t = T[:, None] * sigma
        at = t @ a
        dd = np.einsum("ij,ij->i", t @ Y, t @ Y)
        weight = T ** (n - 1)
        total = 0.0
        for k in range(shells):
            scale = 0.5 ** k
            one_minus = scale * at - scale * scale * dd
            f = one_minus ** (-(n + 1) / 2)
            total += det * scale ** n * 0.5 / math.factorial(n - 1) * float(np.mean(weight * f))
        vals[r] = total + tail / 2.0
    return vals, tail / 2.0, _REPLICATES << log2_pts


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
    (on the unit sphere), and ``ideal_index=None`` detects it.
    Per-replicate sample counts double until the replicate-spread error
    estimate fits the absolute budget or the sample cap is reached.
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

    log2_pts = _MIN_LOG2
    while True:
        if ideal_index is None:
            vals, extra, samples = _compact_estimate(pts, n, log2_pts, seed)
        else:
            vals, extra, samples = _cusp_estimate(
                pts, ideal_index, n, log2_pts, seed, tail_target=budget / 8.0
            )
        value = float(np.mean(vals))
        spread = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        err = 3.0 * spread / math.sqrt(len(vals)) + extra
        if err <= budget or log2_pts >= max_log2_samples:
            return VolumeEstimate(value, err, samples)
        log2_pts += 2


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
    refined independently.  The result carries the summed error, so a miss
    of the target still reports an honest bound.
    """
    pieces: list[tuple[np.ndarray, int | None]] = []
    for simplex in kp.simplices:
        pts = np.array(
            [[float(c) for c in p] for p in kp.simplex_points(simplex)], dtype=np.float64
        )
        flags = [kp.ideal_flags[k] if k >= 0 else False for k in simplex]
        for piece_pts, ideal_idx in _split_multi_ideal(pts, flags):
            if ideal_idx is not None:
                u = piece_pts[ideal_idx]
                piece_pts = piece_pts.copy()
                piece_pts[ideal_idx] = u / np.linalg.norm(u)
            pieces.append((piece_pts, ideal_idx))

    first = []
    for k, (pts, ideal_idx) in enumerate(pieces):
        first.append(
            simplex_volume(pts, budget=math.inf, ideal_index=ideal_idx,
                           seed=seed + 7919 * k, max_log2_samples=_MIN_LOG2)
        )
    rough_total = sum(e.value for e in first) or 1.0
    budget_total = target_rel_err * rough_total

    total = VolumeEstimate(0.0, 0.0, 0, "QMC")
    for k, (pts, ideal_idx) in enumerate(pieces):
        share = max(first[k].value / rough_total, 1.0 / (16 * len(pieces)))
        est = simplex_volume(
            pts,
            budget=budget_total * share,
            ideal_index=ideal_idx,
            seed=seed + 7919 * k,
            max_log2_samples=max_log2_samples,
        )
        total = total + est
    return total
