"""The numpy kernel module: exported names, input validation, exact cases."""

import itertools

import numpy as np
import pytest
from scipy import sparse

from hgcl import kernels


def _csr(edges, n):
    rows = np.array([e[0] for e in edges] + [e[1] for e in edges])
    cols = np.array([e[1] for e in edges] + [e[0] for e in edges])
    a = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return a.indptr.astype(np.int64), a.indices.astype(np.int64)


def test_identical_row_shortcircuit():
    rng = np.random.default_rng(3)
    k = -1.3
    hyp = kernels.lorentz_exp0_rows(rng.uniform(-2.0, 2.0, (64, 7)), k)
    assert np.max(kernels.lorentz_dist_rows(hyp, hyp.copy(), k)) == 0.0
    d = kernels.lorentz_pairwise_dist(hyp, hyp, k)
    assert np.max(np.abs(np.diag(d))) == 0.0


def test_exact_delta_matches_every_quadruple():
    edges = [(i, i + 1) for i in range(29)] + [(0, 15), (4, 22), (9, 27)]
    indptr, indices = _csr(edges, 30)
    d = kernels.bfs_all_pairs(indptr, indices, 30).astype(float)
    quads = np.array(list(itertools.combinations(range(30), 4)))
    exact = kernels.four_point_delta_exact(d)
    assert exact == kernels.four_point_delta_quads(d, quads)
    assert exact == 4.0


def test_bfs_rejects_bad_csr():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([5, 0], dtype=np.int64)  # node 5 out of range for n=2
    with pytest.raises(ValueError):
        kernels.bfs_all_pairs(indptr, indices, 2)
    with pytest.raises(ValueError):
        kernels.bfs_all_pairs(np.array([0, 1], dtype=np.int64), indices, 2)
    with pytest.raises(ValueError):
        kernels.bfs_all_pairs(indptr, np.array([1, -1], dtype=np.int64), 2)


def test_kernels_module_exposes_all_names():
    for name in ("mobius_add", "poincare_dist_rows", "poincare_pairwise_dist",
                 "poincare_exp0_rows", "poincare_log0_rows", "lorentz_inner_rows",
                 "lorentz_dist_rows", "lorentz_pairwise_dist", "lorentz_exp0_rows",
                 "lorentz_log0_rows", "bfs_all_pairs", "four_point_delta_exact",
                 "four_point_delta_quads"):
        assert callable(getattr(kernels, name))
    assert kernels.backend_name() == "numpy"
