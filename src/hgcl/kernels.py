"""Numpy kernels for the hot non-differentiable array paths.

Rowwise and pairwise closed forms for the Poincare ball and the hyperboloid,
all-pairs BFS graph distances, and the four-point (Gromov) scans. Curvature
``k`` is always the signed value (k < 0). Lorentz arrays are ambient, time
coordinate first; Poincare arrays are ball coordinates. All math is float64.

``MIN_NORM`` and ``ARTANH_CLIP`` are the package's clamp constants; every
other module imports them from here.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

MIN_NORM = 1e-15
ARTANH_CLIP = 1.0 - 1e-12


def backend_name():
    # Only one implementation exists; kept because benchmark run metadata
    # records it.
    return "numpy"


def _as2d(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x[None, :] if x.ndim == 1 else x


def artanh(x):
    return np.arctanh(np.clip(x, -ARTANH_CLIP, ARTANH_CLIP))


def acosh(x):
    return np.arccosh(np.maximum(x, 1.0))


# ---------------------------------------------------------------------------
# Poincare ball
# ---------------------------------------------------------------------------

def mobius_add(x, y, k):
    """Rowwise x (+) y for signed curvature k < 0."""
    x, y = _as2d(x), _as2d(y)
    x2 = np.sum(x * x, axis=1, keepdims=True)
    y2 = np.sum(y * y, axis=1, keepdims=True)
    xy = np.sum(x * y, axis=1, keepdims=True)
    num = (1.0 - 2.0 * k * xy - k * y2) * x + (1.0 + k * x2) * y
    den = 1.0 - 2.0 * k * xy + k * k * x2 * y2
    return num / np.maximum(den, MIN_NORM)


def poincare_dist_rows(x, y, k):
    x, y = _as2d(x), _as2d(y)
    sk = np.sqrt(-k)
    d2 = np.sum((x - y) ** 2, axis=1)
    a = np.maximum(1.0 + k * np.sum(x * x, axis=1), MIN_NORM)
    b = np.maximum(1.0 + k * np.sum(y * y, axis=1), MIN_NORM)
    arg = 1.0 - 2.0 * k * d2 / (a * b)
    return acosh(arg) / sk


def poincare_pairwise_dist(x, y, k):
    xs, ys = _as2d(x), _as2d(y)
    sk = np.sqrt(-k)
    x2 = np.sum(xs * xs, axis=1)
    y2 = np.sum(ys * ys, axis=1)
    d2 = np.maximum(x2[:, None] + y2[None, :] - 2.0 * (xs @ ys.T), 0.0)
    a = np.maximum(1.0 + k * x2, MIN_NORM)
    b = np.maximum(1.0 + k * y2, MIN_NORM)
    arg = 1.0 - 2.0 * k * d2 / (a[:, None] * b[None, :])
    d = acosh(arg) / sk
    if x is y:
        np.fill_diagonal(d, 0.0)
    return d


def poincare_exp0_rows(v, k):
    v = _as2d(v)
    sk = np.sqrt(-k)
    r = np.maximum(np.sqrt(np.sum(v * v, axis=1, keepdims=True)), MIN_NORM)
    return np.tanh(sk * r) / (sk * r) * v


def poincare_log0_rows(x, k):
    x = _as2d(x)
    sk = np.sqrt(-k)
    r = np.maximum(np.sqrt(np.sum(x * x, axis=1, keepdims=True)), MIN_NORM)
    return artanh(sk * r) / (sk * r) * x


# ---------------------------------------------------------------------------
# Lorentz (hyperboloid)
# ---------------------------------------------------------------------------

def lorentz_inner_rows(x, y):
    x, y = _as2d(x), _as2d(y)
    return np.sum(x[:, 1:] * y[:, 1:], axis=1) - x[:, 0] * y[:, 0]


def lorentz_dist_rows(x, y, k):
    x, y = _as2d(x), _as2d(y)
    sk = np.sqrt(-k)
    d = acosh(k * lorentz_inner_rows(x, y)) / sk
    # <x,x>_L cancels catastrophically far from the origin; identical rows
    # must still give an exact zero.
    same = np.all(x == y, axis=1)
    if np.any(same):
        d = np.where(same, 0.0, d)
    return d


def lorentz_pairwise_dist(x, y, k):
    xs, ys = _as2d(x), _as2d(y)
    sk = np.sqrt(-k)
    inner = xs[:, 1:] @ ys[:, 1:].T - np.outer(xs[:, 0], ys[:, 0])
    d = acosh(k * inner) / sk
    if x is y:
        np.fill_diagonal(d, 0.0)
    return d


def lorentz_exp0_rows(v_spatial, k):
    """Exp map at the origin; input is the spatial tangent block, output ambient."""
    v = _as2d(v_spatial)
    sk = np.sqrt(-k)
    r = np.maximum(np.sqrt(np.sum(v * v, axis=1, keepdims=True)), MIN_NORM)
    time = np.cosh(sk * r) / sk
    spatial = np.sinh(sk * r) / (sk * r) * v
    return np.concatenate([time, spatial], axis=1)


def lorentz_log0_rows(x, k):
    """Log map at the origin; input ambient, output the spatial tangent block."""
    x = _as2d(x)
    sk = np.sqrt(-k)
    c = np.maximum(sk * x[:, :1], 1.0)
    theta = np.arccosh(c)
    coef = theta / np.maximum(np.sinh(theta), MIN_NORM)
    return coef * x[:, 1:]


# ---------------------------------------------------------------------------
# Graph metric kernels
# ---------------------------------------------------------------------------

def bfs_all_pairs(indptr, indices, n):
    """All-pairs unweighted shortest paths; -1 marks unreachable pairs."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.shape != (n + 1,):
        raise ValueError(f"indptr has shape {indptr.shape}, expected ({n + 1},)")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"CSR indices must lie in [0, {n})")
    data = np.ones(len(indices), dtype=np.float64)
    g = csr_matrix((data, indices, indptr), shape=(n, n))
    d = shortest_path(g, method="D", unweighted=True, directed=False)
    out = np.where(np.isinf(d), -1.0, d)
    return out.astype(np.int32)


def four_point_delta_exact(dist):
    """Max (S1 - S2)/2 over every unordered quadruple of the metric ``dist``."""
    d = np.asarray(dist, dtype=np.float64)
    n = d.shape[0]
    best = 0.0
    for i in range(n - 3):
        di = d[i]
        for j in range(i + 1, n - 2):
            dj = d[j]
            # remaining indices k < l, both > j
            tail = slice(j + 1, n)
            s1 = d[i, j] + d[tail, tail]
            s2 = di[tail][:, None] + dj[tail][None, :]
            s3 = dj[tail][:, None] + di[tail][None, :]
            hi = np.maximum(np.maximum(s1, s2), s3)
            lo = np.minimum(np.minimum(s1, s2), s3)
            mid = s1 + s2 + s3 - hi - lo
            gap = hi - mid
            iu = np.triu_indices(gap.shape[0], k=1)
            if iu[0].size:
                m = float(np.max(gap[iu]))
                if m > best:
                    best = m
    return 0.5 * best


def four_point_delta_quads(dist, quads):
    """Max (S1 - S2)/2 over the given (q, 4) index array of quadruples."""
    d = np.asarray(dist, dtype=np.float64)
    q = np.asarray(quads, dtype=np.int64)
    if q.size == 0:
        return 0.0
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    s1 = d[w, x] + d[y, z]
    s2 = d[w, y] + d[x, z]
    s3 = d[w, z] + d[x, y]
    lo = np.minimum(np.minimum(s1, s2), s3)
    hi = np.maximum(np.maximum(s1, s2), s3)
    mid = s1 + s2 + s3 - lo - hi
    return 0.5 * float(np.max(hi - mid))
