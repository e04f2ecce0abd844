"""Gauss-Jacobi cubature of the hyperbolic volume over a Klein-model fan.

The volume element in the Klein ball is (1 - |x|^2)^(-(n+1)/2) dx.  In the
centred frame (``geometry.centring_boost``) each piece of the fan is a cone,
|det Y| times a simplex integral of a closed radial integral:

* no ideal vertex, coned from the origin over base points y(t) = sum t_i y_i:
  h(|y(t)|^2) with h(c) = int_0^1 r^(n-1) (1 - c r^2)^(-(n+1)/2) dr;
* one ideal vertex v, coned from v over base points v + tY: since
  1 - |v + s tY|^2 = s (a.t - s |tY|^2) with a = -2 Y v, and
  int_0^1 s^k (A - B s)^(-k-2) ds = 1 / ((k+1) A (A - B)^(k+1)), it is
  2 / ((n-1) a.t (a.t - |tY|^2)^((n-1)/2)).

Simplices with several ideal vertices are split on ideal-ideal edge
midpoints first.  A piece counts with its simplex's weight, the size of the
facet orbit whose cone it helps triangulate (``geometry.facet_orbits``), so
Q_k below is the piece's weighted value.  Both integrands are analytic on
the closed simplex, so a tensor Gauss rule converges exponentially:
collapsed coordinates t_i = u_i prod_(j<i) (1 - u_j) carry the Jacobian
prod (1 - u_i)^(d-1-i), the Gauss-Jacobi weight of u_i (Stroud,
Approximate Calculation of Multiple Integrals, 1971; nodes by Golub &
Welsch, Math. Comp. 23, 1969), built once per order and exponent.  One
order p serves every piece, raised from 2, and the bar is the weighted sum
sum_k |Q_k,p - Q_k,p-1|: once the last two such changes each shrank by at
least half, the change bounds the error left in Q_p.  A float64 rounding
floor of 1e-14 of the volume bounds the bar from below.  ``samples``
counts the nodes evaluated, each piece's once per order.

The pieces are built and evaluated in bulk: the base matrices of the
pieces without cusp are gathered into one (K, n, d+1) array, those of the
cusp pieces and their a likewise, with one stacked determinant per kind,
and each order's rule runs over a whole stack at once, in blocks of at
most _BATCH (piece, node) pairs, so that neither the order nor the number
of pieces grows the memory of a block.  numpy is imported by the functions
that use it, so that only an integrated analysis loads it.  ``analyze``
imports this module only when it integrates, so the result's record,
``VolumeEstimate``, lives in ``hypvol.prediction``, which builds one for an
assumed volume too.
"""

from __future__ import annotations

import functools

from .errors import NonConvergent
from .geometry import KleinPolytope, centring_boost
from .prediction import VolumeEstimate

DEFAULT_MAX_LOG2 = 19  # default cap of 2^19 nodes per piece and order
_IDEAL_NORM_TOL = 1e-9
_BATCH = 1 << 14       # (piece, node) pairs per evaluation block
_SERIES_BELOW = 0.3    # h(c) by its power series below this c
_ROUNDING = 1e-14      # relative float64 error of the cubature: a floor under the bar


@functools.lru_cache(maxsize=1024)
def _gauss_jacobi(p: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the p-point Gauss rule for (1 - u)^alpha on [0, 1]:
    by Golub-Welsch, the eigenvalues x of the Jacobi matrix of (1 - x)^alpha
    on [-1, 1] give u = (1 + x) / 2, and the squared first eigenvector
    components times the mass 1 / (alpha + 1) the weights.  Cached, so the
    arrays are read-only."""
    import numpy as np
    k = np.arange(1, p, dtype=np.float64)
    s = 2.0 * k + alpha
    diag = np.concatenate([[-alpha / (alpha + 2.0)], -alpha * alpha / (s * (s + 2.0))])
    off = 2.0 * k * (k + alpha) / (s * np.sqrt(s * s - 1.0))
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    rule = (1.0 + x) / 2.0, V[0] ** 2 / (alpha + 1.0)
    for array in rule:
        array.flags.writeable = False
    return rule


def _simplex_rule(d: int, p: int):
    """The p^d-node rule on the standard d-simplex, in blocks of _BATCH
    nodes: (T, w), T the (d + 1, m) barycentric coordinates of m nodes and w
    their weights, which sum to 1/d! over all blocks."""
    import numpy as np
    rules = [_gauss_jacobi(p, d - 1 - i) for i in range(d)]
    for start in range(0, p ** d, _BATCH):
        index = np.arange(start, min(start + _BATCH, p ** d))
        T = np.empty((d + 1, len(index)))
        T[d], w = 1.0, 1.0
        for i, (nodes, weights) in enumerate(rules):
            digit = index // p ** (d - 1 - i) % p
            T[i] = nodes[digit] * T[d]
            T[d] -= T[i]
            w = w * weights[digit]
        yield T, w


def _half_power(x: np.ndarray, m: int) -> np.ndarray:
    """x ** (m / 2) for a non-negative integer m: products and one root."""
    import numpy as np
    out = np.sqrt(x) if m % 2 else np.ones_like(x)
    for _ in range(m // 2):
        out = out * x
    return out


def _radial(c: np.ndarray, n: int) -> np.ndarray:
    """h(c) = int_0^1 r^(n-1) (1 - c r^2)^(-(n+1)/2) dr for 0 <= c < 1, which
    is c^(-n/2) F_(n-1)(artanh sqrt c) with F_k = int_0 sinh^k."""
    import numpy as np
    out = np.empty_like(c)
    small = c < _SERIES_BELOW
    x = c[small]
    # Euler's transformation of h = 2F1((n+1)/2, n/2; n/2 + 1; c) / n is
    # (1 - c)^((1-n)/2) / n * sum b_k c^k, b_k = (1/2)_k / (n/2 + 1)_k: a
    # series of positive terms, summed by Horner's rule
    b, top = [1.0 / n], float(x.max(initial=0.0))
    while b[-1] * top ** len(b) > 1e-17 / n:
        b.append(b[-1] * (len(b) - 0.5) / (len(b) + n / 2))
    total = np.full_like(x, b[-1])
    for coefficient in reversed(b[:-1]):
        total *= x
        total += coefficient
    out[small] = total / _half_power(1.0 - x, n - 1)
    x = c[~small]
    root = np.sqrt(x)
    cosh = 1.0 / np.sqrt(1.0 - x)
    sinh = root * cosh
    # F_(j+2) = (sinh^(j+1) cosh - (j+1) F_j) / (j+2) up to j = n - 1, from
    # F_0 = R = artanh sqrt c or F_1 = cosh - 1
    j = 1 - n % 2
    F = sinh * sinh / (cosh + 1.0) if j else np.arctanh(root)
    lead = sinh ** (j + 1) * cosh
    for j in range(j, n - 1, 2):
        F = (lead - (j + 1) * F) / (j + 2)
        lead *= sinh * sinh
    out[~small] = F / _half_power(x, n)
    return out


def _split_multi_ideal(points: np.ndarray, ideal: list[bool]) -> list[tuple[np.ndarray, int | None]]:
    """Split until each simplex has at most one ideal vertex: an ideal-ideal
    edge midpoint is inside the ball, and putting it in place of either end
    halves the simplex."""
    idx = [k for k, f in enumerate(ideal) if f]
    if len(idx) <= 1:
        return [(points, idx[0] if idx else None)]
    out = []
    for drop in idx[:2]:
        pts = points.copy()
        pts[drop] = (points[idx[0]] + points[idx[1]]) / 2.0
        out.extend(_split_multi_ideal(pts, [f and k != drop for k, f in enumerate(ideal)]))
    return out


def _pieces(kp: KleinPolytope) -> list[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
    """The fan's pieces of nonzero volume, stacked by kind, without cusp
    and with one: per kind (YT, a, scale), the (K, n, n) base matrices, the
    (K, n) a of the cusp pieces or None, and each piece's |det Y| times its
    simplex's weight.  A simplex without ideal vertex ends with the origin,
    its apex, and its base matrix is gathered from the vertices; the others
    are split first, and each piece is coned from its ideal vertex."""
    import numpy as np
    n = kp.dimension
    S = np.array(kp.simplices, dtype=np.intp).reshape(-1, n + 1)
    weights = np.array(kp.weights, dtype=np.float64)
    points = np.vstack([kp.vertices, np.zeros((1, n))])[S]    # -1, the origin, is the last row
    flags = np.append(kp.ideal_flags, False)[S]
    cusp = flags.any(axis=1)
    split = [(piece, ideal, weight) for P, f, weight in zip(points[cusp], flags[cusp], weights[cusp])
             for piece, ideal in _split_multi_ideal(P, list(f))]
    cones = np.array([piece for piece, _, _ in split]).reshape(-1, n + 1, n)
    ideal = np.array([i for _, i, _ in split], dtype=np.intp)
    v = cones[np.arange(len(cones)), ideal]
    norm = np.linalg.norm(v, axis=1)
    off = np.abs(norm - 1.0) > _IDEAL_NORM_TOL
    if off.any():
        raise NonConvergent("designated ideal vertex is off the sphere by "
                            f"{norm[off.argmax()] - 1.0:.2e}")
    u = v / norm[:, None]
    rest = cones[np.arange(n + 1) != ideal[:, None]].reshape(-1, n, n)
    cusp_YT = (rest - u[:, None]).transpose(0, 2, 1)
    kinds = [(points[~cusp, :-1].transpose(0, 2, 1), None, weights[~cusp]),
             (cusp_YT, -2.0 * (u[:, None] @ cusp_YT)[:, 0], np.array([w for _, _, w in split]))]
    out = []
    for YT, a, weight in kinds:
        det = np.abs(np.linalg.det(YT))
        solid = det > 0
        if a is not None and (a[solid] <= 0).any():
            raise NonConvergent("a base vertex touches the sphere at the ideal point, "
                                "so the cusp's radial integral diverges")
        out.append((np.ascontiguousarray(YT[solid]), None if a is None else a[solid],
                    weight[solid] * det[solid]))
    return out


def _kernel(YT: np.ndarray, a: np.ndarray | None, T: np.ndarray) -> np.ndarray:
    """The radial integral at nodes T, (d + 1, m), for a stack of K pieces
    of one kind, (K, n, d + 1) base matrices and (K, d + 1) a or None:
    a (K, m) array."""
    import numpy as np
    n = YT.shape[1]
    y = YT @ T
    yy = np.einsum("kij,kij->kj", y, y)
    if a is None:
        return _radial(yy, n)
    at = a @ T
    return 2.0 / (n - 1) / (at * _half_power(at - yy, n - 1))


def _shrinking(changes: list[float]) -> bool:
    """Whether the last two changes each shrank by at least half."""
    return len(changes) >= 3 and 2 * changes[-1] <= changes[-2] and 2 * changes[-2] <= changes[-3]


def _volume(kp: KleinPolytope, budget, max_log2_samples: int) -> VolumeEstimate:
    """One order p over the fan's pieces, raised from 2 until the bar fits
    ``budget`` (total volume -> absolute budget) and is honest; at the cap
    of 2^max_log2_samples nodes per piece the bar reached stands, flagged
    ``capped``, if the changes shrank, and ``NonConvergent`` is raised
    otherwise."""
    import numpy as np
    stacks = _pieces(kp)
    scale = np.concatenate([scale for _, _, scale in stacks])
    d = kp.dimension - 1
    changes: list[float] = []
    previous, samples, p, capped = None, 0, 2, False
    while p ** d <= 2 ** max_log2_samples:
        parts = [np.zeros(len(YT)) for YT, _, _ in stacks]
        for T, w in _simplex_rule(d, p):
            chunk = max(1, _BATCH // len(w))    # pieces per block of (piece, node) pairs
            for values, (YT, a, _) in zip(parts, stacks):
                for start in range(0, len(YT), chunk):
                    part = slice(start, start + chunk)
                    values[part] += _kernel(YT[part], None if a is None else a[part], T) @ w
        values = np.concatenate(parts) * scale
        samples += len(scale) * p ** d
        floor, allowed = _ROUNDING * float(np.abs(values).sum()), budget(float(values.sum()))
        if floor > allowed:
            raise NonConvergent(f"the error budget {allowed:.2g} lies below the rounding floor {floor:.2g}")
        if previous is not None:
            changes.append(float(np.abs(values - previous).sum()))
            if _shrinking(changes) and changes[-1] <= allowed:
                break
        previous, p = values, p + 1
    else:
        if not _shrinking(changes):
            raise NonConvergent(f"the cubature's last changes {changes[-3:]} did not shrink "
                                f"by half twice within 2^{max_log2_samples} nodes per piece")
        values, capped = previous, True    # the bar stands above the budget
    return VolumeEstimate(float(values.sum()), max(changes[-1], floor), samples, capped=capped)


def simplex_volume(
    points,
    budget: float = 1e-7,
    *,
    max_log2_samples: int = DEFAULT_MAX_LOG2,
) -> VolumeEstimate:
    """Hyperbolic volume of one Klein simplex to roughly the given budget.

    ``points`` is an (n+1) x n array-like; at most one vertex may be ideal
    (on the unit sphere, within 1e-9).  The simplex is centred by
    ``geometry.centring_boost`` and its facets coned from the origin:
    ``polytope_volume``'s design with an absolute budget.
    """
    import numpy as np
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[1]
    if pts.shape[0] != n + 1:
        raise ValueError("need n+1 points in dimension n")
    on_sphere = np.flatnonzero(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= _IDEAL_NORM_TOL)
    if len(on_sphere) > 1:
        raise ValueError("more than one ideal vertex; split the simplex first")
    ideal_index = int(on_sphere[0]) if len(on_sphere) else None
    flags = [k == ideal_index for k in range(n + 1)]
    finite = np.logical_not(flags)
    gap = 1.0 - np.einsum("ij,ij->i", pts[finite], pts[finite])
    if (gap <= 0).any():
        raise NonConvergent("a vertex taken as finite is not inside the ball; "
                            "the ideal vertex is misclassified")
    lifted = np.hstack([np.ones((n + 1, 1)), pts])   # on the hyperboloid or the light cone
    lifted[finite] /= np.sqrt(gap)[:, None]
    X = lifted @ centring_boost(lifted[finite], []).T
    # with an ideal vertex, the centre lies on the facet opposite it
    facets = [[j for j in range(n + 1) if j != k] + [-1] for k in range(n + 1) if k != ideal_index]
    return _volume(KleinPolytope(n, X[:, 1:] / X[:, :1], flags, facets, [1] * len(facets)),
                   lambda _: budget, max_log2_samples)


def polytope_volume(
    kp: KleinPolytope,
    target_rel_err: float = 1e-3,
    max_log2_samples: int = DEFAULT_MAX_LOG2,
) -> VolumeEstimate:
    """Total volume of the fan-triangulated polytope; the budget is
    ``target_rel_err`` times the current total."""
    return _volume(kp, lambda total: target_rel_err * abs(total), max_log2_samples)
