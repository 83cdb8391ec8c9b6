"""Numpy graph scans and the package's clamp constants.

All-pairs BFS graph distances and the four-point (Gromov) scans, kept in
their own module so that the benchmark's tracer can wrap them by name. The
hyperbolic closed forms live in ``hgcl.manifolds``.

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
    """Max (S1 - S2)/2 over every quadruple i < j < k < l of the metric ``dist``."""
    n = np.shape(dist)[0]
    i, j = np.triu_indices(n, 1)
    # pair (i_a, j_a) before pair (i_b, j_b) with j_a < i_b: each quadruple once
    a, b = np.nonzero(j[:, None] < i[None, :])
    return four_point_delta_quads(dist, np.stack([i[a], j[a], i[b], j[b]], axis=1))


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
