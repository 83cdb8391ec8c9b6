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
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path

MIN_NORM = 1e-15
ARTANH_CLIP = 1.0 - 1e-12


def backend_name():
    # Only one implementation exists; kept because benchmark run metadata
    # records it.
    return "numpy"


# ---------------------------------------------------------------------------
# Graph metric kernels
# ---------------------------------------------------------------------------

# All-pairs BFS runs one level-synchronous pass per batch of sources while the
# level bound (``_level_bound``) is at most _FRONTIER_MAX_LEVELS, and scipy's
# Dijkstra otherwise. A frontier level costs one sparse-times-dense product
# over every node, so the pass grows with the depth; Dijkstra's cost per source
# does not. Measured on 2 vCPUs, BLAS on one thread, Dijkstra -> frontier: the
# n=3000 hub graph (diameter 7) 2.1 -> 0.29 s, synthetic_tree(2, 11) (22)
# 2.6 -> 0.77 s, 3-D grids of n=3000 (40, 47) 1.8 -> 1.0 s and 1.6 -> 1.1 s;
# a 30x33 grid (61) ties at 0.12 s, a 20x50 grid (68) takes 0.13 -> 0.23 s and
# a 3000-node path 0.32 -> 36 s. The bound lies between the diameter and twice
# it, so 48 sends only graphs of depth <= 48 to the frontier.
_FRONTIER_MAX_LEVELS = 48  # at most 126: distances are counted in int8
# Sources per pass: 64-128 measured fastest on those graphs; wider n x b
# blocks fall out of cache.
_FRONTIER_BATCH = 64


def bfs_all_pairs(indptr, indices, n):
    """All-pairs unweighted shortest paths of the undirected graph whose
    adjacency is the CSR ``(indptr, indices)``: an (n, n) int32 matrix, -1 for
    unreachable pairs.

    Shallow graphs take a level-synchronous BFS over batches of sources, each
    level one product of the float32 adjacency with a dense n x b frontier
    (Kepner & Gilbert, "Graph Algorithms in the Language of Linear Algebra",
    SIAM 2011); deep ones keep scipy's Dijkstra. Both give the same matrix.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.shape != (n + 1,):
        raise ValueError(f"indptr has shape {indptr.shape}, expected ({n + 1},)")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"CSR indices must lie in [0, {n})")
    g = csr_matrix((np.ones(len(indices), dtype=np.float32), indices, indptr), shape=(n, n))
    adj = (g + g.T).tocsr()
    if n == 0 or _level_bound(adj) > _FRONTIER_MAX_LEVELS:
        d = shortest_path(adj, method="D", unweighted=True, directed=False)
        return np.where(np.isinf(d), -1.0, d).astype(np.int32)
    return _frontier_all_pairs(adj)


def _level_bound(adj):
    """Twice the largest eccentricity of one source per component: at least
    every component's diameter, so no BFS needs more levels."""
    _, comp = connected_components(adj, directed=False)
    sources = np.unique(comp, return_index=True)[1]
    depth = dijkstra(adj, directed=False, indices=sources, unweighted=True, min_only=True)
    return 2 * int(depth.max())


def _frontier_all_pairs(adj):
    """BFS distances over the symmetric float32 ``adj``, one pass per batch of
    ``_FRONTIER_BATCH`` sources."""
    n = adj.shape[0]
    out = np.empty((n, n), dtype=np.int32)
    for s0 in range(0, n, _FRONTIER_BATCH):
        b = min(_FRONTIER_BATCH, n - s0)
        cols = np.arange(b)
        frontier = np.zeros((n, b), dtype=np.float32)
        frontier[s0 + cols, cols] = 1.0
        unseen = frontier == 0
        # A node still unseen after level k is farther than k from the source,
        # so the number of levels it stays unseen (counting level 0) is its
        # distance. int8 holds it: no pass runs more than
        # _FRONTIER_MAX_LEVELS + 1 levels.
        dist = unseen.astype(np.int8)
        new = np.empty((n, b), dtype=bool)
        while True:
            np.greater(adj @ frontier, 0, out=new)
            new &= unseen
            if not new.any():
                break
            unseen ^= new
            dist += unseen
            np.copyto(frontier, new)
        dist[unseen] = -1
        out[:, s0:s0 + b] = dist  # column s of an undirected metric is its row s
    return out


def four_point_delta_exact(dist):
    """Max (S1 - S2)/2 over every quadruple i < j < k < l of the metric ``dist``."""
    n = np.shape(dist)[0]
    i, j = np.triu_indices(n, 1)
    # pair (i_a, j_a) before pair (i_b, j_b) with j_a < i_b: each quadruple once
    a, b = np.nonzero(j[:, None] < i[None, :])
    return four_point_delta_quads(dist, np.stack([i[a], j[a], i[b], j[b]], axis=1))


def four_point_delta_quads(dist, quads):
    """Max (S1 - S2)/2 over the given (q, 4) index array of quadruples."""
    d = np.asarray(dist)
    q = np.asarray(quads, dtype=np.int64)
    if q.size == 0:
        return 0.0
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]

    def pair(a, b):  # only the gathered distances are cast, not the matrix
        return d[a, b].astype(np.float64)

    s1 = pair(w, x) + pair(y, z)
    s2 = pair(w, y) + pair(x, z)
    s3 = pair(w, z) + pair(x, y)
    lo = np.minimum(np.minimum(s1, s2), s3)
    hi = np.maximum(np.maximum(s1, s2), s3)
    mid = s1 + s2 + s3 - lo - hi
    return 0.5 * float(np.max(hi - mid))
