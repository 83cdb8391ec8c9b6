"""The numpy kernel module: exported names, input validation, exact cases."""

import inspect
import itertools

import numpy as np
import pytest
from scipy import sparse

from hgcl import kernels
from hgcl import manifolds as mf


def _csr(edges, n):
    rows = np.array([e[0] for e in edges] + [e[1] for e in edges])
    cols = np.array([e[1] for e in edges] + [e[0] for e in edges])
    a = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return a.indptr.astype(np.int64), a.indices.astype(np.int64)


def test_identical_row_shortcircuit():
    rng = np.random.default_rng(3)
    man = mf.lorentz(7, -1.3)
    hyp = man.exp0(rng.uniform(-2.0, 2.0, (64, 7)))
    assert np.max(man.dist(hyp, hyp.copy())) == 0.0
    d = man.pairwise_dist(hyp)
    assert np.max(np.abs(np.diag(d))) == 0.0


def test_exact_delta_matches_every_quadruple():
    edges = [(i, i + 1) for i in range(29)] + [(0, 15), (4, 22), (9, 27)]
    indptr, indices = _csr(edges, 30)
    d = kernels.bfs_all_pairs(indptr, indices, 30).astype(float)
    quads = np.array(list(itertools.combinations(range(30), 4)))
    exact = kernels.four_point_delta_exact(d)
    assert exact == kernels.four_point_delta_quads(d, quads)
    assert exact == 4.0


def test_exact_delta_matches_a_pure_python_scan():
    rng = np.random.default_rng(8)
    for n in (3, 4, 7, 12):
        d = rng.integers(1, 20, size=(n, n))
        d = np.triu(d, 1) + np.triu(d, 1).T  # symmetric, zero diagonal
        best = 0
        for i, j, k, l in itertools.combinations(range(n), 4):
            sums = sorted([d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]])
            best = max(best, int(sums[2] - sums[1]))
        assert kernels.four_point_delta_exact(d) == best / 2


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
    own = {name for name, v in vars(kernels).items()
           if not name.startswith("_") and not inspect.ismodule(v)
           and getattr(v, "__module__", kernels.__name__) == kernels.__name__}
    assert own == {"MIN_NORM", "ARTANH_CLIP", "backend_name", "bfs_all_pairs",
                   "four_point_delta_exact", "four_point_delta_quads"}
    assert kernels.backend_name() == "numpy"
    assert callable(mf.mobius_add_rows) and callable(mf.lorentz_inner_rows)
