"""The numpy kernel module: exported names, input validation, exact cases."""

import collections
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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


def bfs_reference(n, edges):
    """All-pairs distances by a plain-Python queue BFS from every node; each
    (i, j) is an undirected edge."""
    nbrs = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    out = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        out[s, s] = 0
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if out[s, v] < 0:
                    out[s, v] = out[s, u] + 1
                    queue.append(v)
    return out


def one_way_csr(edges, n):
    """CSR holding each edge in one direction only, repeats kept."""
    rows = np.array([e[0] for e in edges], dtype=np.int64)
    a = sparse.csr_matrix((np.ones(rows.size), (rows, np.array([e[1] for e in edges],
                                                                dtype=np.int64))),
                          shape=(n, n))
    return a.indptr, a.indices


@st.composite
def bfs_graphs(draw):
    """Up to 150 nodes in shuffled order, cut into up to 7 components that are
    each a path, a random tree, random pairs or one isolated node; loose
    pairs, self-loops and repeats added on top."""
    n = draw(st.integers(1, 150))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
    edges = []
    for part in np.split(np.array(order, dtype=np.int64), cuts):
        part = part.tolist()
        style = draw(st.sampled_from(["path", "tree", "pairs", "isolated"]))
        if style == "path":
            edges += zip(part[:-1], part[1:])
        elif style == "tree":
            picks = draw(st.lists(st.integers(0, 10**6), min_size=len(part), max_size=len(part)))
            edges += [(part[k], part[picks[k] % k]) for k in range(1, len(part))]
        elif style == "pairs":
            node = st.sampled_from(part)
            edges += draw(st.lists(st.tuples(node, node), max_size=3 * len(part)))
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=4))
    return n, edges


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(bfs_graphs())
@example((1, []))
@example((5, []))
@example((65, [(0, k) for k in range(1, 65)]))
@example((100, [(k, k + 1) for k in range(99)]))
def test_bfs_matches_a_queue_reference(case):
    n, edges = case
    indptr, indices = one_way_csr(edges, n)
    d = kernels.bfs_all_pairs(indptr, indices, n)
    assert d.dtype == np.int32 and d.shape == (n, n)
    np.testing.assert_array_equal(d, bfs_reference(n, edges))


_STAR = [(0, k) for k in range(1, 100)]


@pytest.mark.parametrize("n, edges, frontier, sources", [
    pytest.param(1, [], True, None, id="1-edges0-True"),
    # three batches, isolated nodes
    pytest.param(130, _STAR, True, None, id="130-edges1-True"),
    # level bound 48
    pytest.param(49, [(k, k + 1) for k in range(24)], True, None, id="49-edges2-True"),
    # level bound 50
    pytest.param(50, [(k, k + 1) for k in range(25)], False, None, id="50-edges3-False"),
    pytest.param(120, [(k, k + 1) for k in range(119)], False, None, id="120-edges4-False"),
    # every node as a source, in reverse: three batches, unsorted
    pytest.param(130, _STAR, True, list(range(129, -1, -1)), id="130-sources-reversed-True"),
    # isolated sources and a star source whose row is -1 on the isolated nodes
    pytest.param(130, _STAR, True, [117, 3, 0, 129, 64, 3], id="130-sources-isolated-True"),
    pytest.param(50, [(k, k + 1) for k in range(25)], False, [40, 7, 25, 0, 49],
                 id="50-sources-isolated-False"),
])
def test_route_follows_the_level_bound(monkeypatch, n, edges, frontier, sources):
    calls = []
    real = kernels._frontier_bfs
    monkeypatch.setattr(kernels, "_frontier_bfs",
                        lambda adj, src: calls.append(1) or real(adj, src))
    indptr, indices = one_way_csr(edges, n)
    d = kernels.bfs_all_pairs(indptr, indices, n, sources)
    assert bool(calls) == frontier
    rows = slice(None) if sources is None else sources
    assert d.dtype == np.int32
    np.testing.assert_array_equal(d, bfs_reference(n, edges)[rows])


def test_bfs_rejects_sources_out_of_range():
    indptr, indices = one_way_csr([(0, 1)], 3)
    for sources in ([3], [0, -1]):
        with pytest.raises(ValueError, match="sources"):
            kernels.bfs_all_pairs(indptr, indices, 3, sources)
    assert kernels.bfs_all_pairs(indptr, indices, 3, []).shape == (0, 3)


@pytest.mark.parametrize("module, names", [
    (kernels, {"MIN_NORM", "ARTANH_CLIP", "backend_name", "bfs_all_pairs",
               "four_point_delta_exact", "four_point_delta_quads"}),
    # The numpy geometry is the row API alone: no single-point wrappers.
    (mf, {"MIN_NORM", "ARTANH_CLIP", "BALL_GUARD", "MAX_TANGENT_NORM", "GeometryError",
          "Model", "Manifold",
          "poincare", "lorentz", "lorentz_inner", "lorentz_inner_rows", "mobius_add_rows",
          "gyration_rows", "to_lorentz_rows", "to_poincare_rows", "transfer_rows",
          "transfer_scale"}),
], ids=["kernels", "manifolds"])
def test_kernels_module_exposes_all_names(module, names):
    own = {name for name, v in vars(module).items()
           if not name.startswith("_") and not inspect.ismodule(v)
           and getattr(v, "__module__", module.__name__) == module.__name__}
    assert own == names
    assert kernels.backend_name() == "numpy"
