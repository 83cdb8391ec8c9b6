"""Graph container, text-format loaders, splits, synthetic trees, the
four-point hyperbolicity estimator, and ``atomic_open``, the one writer every
artifact (datasets, metric streams, checkpoints, heatmaps) goes through.

On-disk format (one directory per dataset):

* ``edges.txt``    - two whitespace-separated integer ids per line, undirected;
  self-loops and repeated pairs (in either orientation) are dropped, as for
  every :class:`Graph`;
* ``features.csv`` - node id, then the feature values, comma-separated;
* ``labels.csv``   - node id, integer label >= 0, one line per id;
* ``splits.json``  - optional ``{"train": [...], "val": [...], "test": [...]}``.

Node ids must be contiguous 0..n-1; rows may come in any order.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import kernels


class DataError(ValueError):
    pass


@dataclass
class Graph:
    """An undirected graph with node features, labels and optional split masks.

    Edges are canonical from construction on, whatever their source: self-loops
    are dropped, each pair is oriented ``i < j``, repeats are kept once, and the
    rows are sorted lexicographically. The symmetric CSR adjacency built from
    them is cached and is the only adjacency: the sample plan's (anchor,
    neighbor) pairs and negative pools, the normalized adjacency and the BFS
    all read that one matrix.
    """

    n_nodes: int
    edges: np.ndarray            # (E, 2) int64, unique, i < j, sorted
    features: np.ndarray         # (n, d) float64
    labels: np.ndarray           # (n,) int64
    train_mask: np.ndarray | None = None
    val_mask: np.ndarray | None = None
    test_mask: np.ndarray | None = None
    _csr: sparse.csr_matrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.n_nodes or self.labels.shape[0] != self.n_nodes:
            raise DataError("features/labels row count does not match n_nodes")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            node = int(np.argmin(finite))
            raise DataError(f"features must be finite; node {node} has a nan or inf value")
        if self.labels.size and self.labels.min() < 0:
            node = int(np.argmin(self.labels))
            raise DataError(f"labels must be >= 0; node {node} has label {self.labels[node]}")
        if edges.size and (edges.min() < 0 or edges.max() >= self.n_nodes):
            raise DataError("edge endpoint out of range")
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        keep = lo != hi
        keys = np.sort(lo[keep] * self.n_nodes + hi[keep])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.edges = np.stack([keys // self.n_nodes, keys % self.n_nodes], axis=1)
        masks = [m for m in (self.train_mask, self.val_mask, self.test_mask) if m is not None]
        for m in masks:
            if m.shape != (self.n_nodes,):
                raise DataError("mask length mismatch")
        if len(masks) > 1:
            total = sum(m.astype(int) for m in masks)
            if np.any(total > 1):
                raise DataError("masks overlap")
        if self.train_mask is not None:
            present = set(np.unique(self.labels).tolist())
            in_train = set(np.unique(self.labels[self.train_mask]).tolist())
            if present - in_train:
                raise DataError(f"classes missing from train mask: {sorted(present - in_train)}")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def csr_adjacency(self) -> sparse.csr_matrix:
        """The cached symmetric 0/1 adjacency, sorted indices; do not modify."""
        if self._csr is None:
            n = self.n_nodes
            lo, hi = self.edges[:, 0], self.edges[:, 1]
            keys = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
            indptr = np.concatenate([[0], np.cumsum(np.bincount(self.edges.ravel(), minlength=n))])
            self._csr = sparse.csr_matrix((np.ones(keys.size), keys % n, indptr), shape=(n, n))
        return self._csr


def load_graph(directory, split_fractions=(0.6, 0.2, 0.2), split_seed: int = 0) -> Graph:
    """Load the text-format dataset; generate a stratified split when
    splits.json is absent.

    The three tables go through numpy's C parser (``np.loadtxt``), rows in
    any id order. Files it does not take whole go to the per-line parser,
    which accepts the same files and names the file and line of a fault.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DataError(f"no such dataset directory: {d}")
    try:
        pairs, features, labels = _read_tables(d)
    except (ValueError, OSError):
        pairs, features, labels = _read_lines(d)
    n = features.shape[0]
    if pairs.size and pairs.max() >= n:
        raise DataError(f"edge endpoint {pairs.max()} out of range for n={n}")

    graph = Graph(n, pairs, features, labels)
    edges = graph.edges
    split_file = d / "splits.json"
    if split_file.exists():
        with open(split_file) as fh:
            spl = json.load(fh)
        masks = {}
        for name in ("train", "val", "test"):
            m = np.zeros(n, dtype=bool)
            idx = np.asarray(spl.get(name, []), dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise DataError(f"splits.json: {name} id out of range")
            m[idx] = True
            masks[name] = m
        graph = Graph(n, edges, features, labels,
                      masks["train"], masks["val"], masks["test"])
    else:
        tr, va, te = split(graph, split_fractions, split_seed)
        graph = Graph(n, edges, features, labels, tr, va, te)
    return graph


def _loadtxt(path, dtype, delimiter, ndmin=2):
    with warnings.catch_warnings():  # an empty table is judged by the caller
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, dtype=dtype, delimiter=delimiter, comments=None, ndmin=ndmin)


def _id_order(ids: np.ndarray, n: int) -> np.ndarray:
    """The row order that sorts ``ids``; ValueError unless they are 0..n-1,
    each once, with n >= 1."""
    order = np.argsort(ids, kind="stable")
    if n == 0 or not np.array_equal(ids[order], np.arange(n)):
        raise ValueError("ids are not 0..n-1 once each")
    return order


def _read_tables(d: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges, features and labels of ``d`` through ``np.loadtxt``, rows in id
    order. Raises ValueError (or OSError) wherever the per-line parser must
    judge the files."""
    pairs = _loadtxt(d / "edges.txt", np.int64, None)
    if pairs.shape[0] == 0:
        pairs = pairs.reshape(0, 2)
    with open(d / "features.csv") as fh:
        width = fh.readline().count(",")
    rows = _loadtxt(d / "features.csv",
                    np.dtype([("id", np.int64), ("x", np.float64, (width,))]), ",", ndmin=1)
    label_rows = _loadtxt(d / "labels.csv", np.int64, ",")
    if pairs.shape[1] != 2 or label_rows.shape[1] != 2:
        raise ValueError("edges.txt and labels.csv take two columns")
    n = rows.shape[0]
    features = rows["x"][_id_order(rows["id"], n)]
    labels = label_rows[_id_order(label_rows[:, 0], n), 1]
    return pairs, features, labels


def _read_lines(d: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-line parser: the reference for what the format accepts, and
    the one that names the file and line of a fault."""
    pairs = []
    with open(d / "edges.txt") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                i, j = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                raise DataError(f"edges.txt line {ln}: expected two integer ids, got {line!r}")
            _check_int64("edges.txt", ln, i, j)
            pairs.append((i, j))

    feat_rows = {}
    with open(d / "features.csv") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                nid = int(parts[0])
                vals = [float(v) for v in parts[1:]]
            except ValueError:
                raise DataError(f"features.csv line {ln}: malformed row {line!r}")
            _check_int64("features.csv", ln, nid)
            if nid in feat_rows:
                raise DataError(f"features.csv line {ln}: duplicate id {nid}")
            feat_rows[nid] = vals

    label_rows = {}
    with open(d / "labels.csv") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                nid, lab = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                raise DataError(f"labels.csv line {ln}: malformed row {line!r}")
            _check_int64("labels.csv", ln, nid, lab)
            if nid in label_rows:
                raise DataError(f"labels.csv line {ln}: duplicate id {nid}")
            label_rows[nid] = lab

    n = len(feat_rows)
    ids = sorted(feat_rows)
    if ids != list(range(n)):
        raise DataError("node ids must be contiguous 0..n-1 (gap or stray id found)")
    if sorted(label_rows) != ids:
        raise DataError("labels.csv ids do not match features.csv ids")
    widths = {len(v) for v in feat_rows.values()}
    if len(widths) != 1:
        raise DataError(f"inconsistent feature widths: {sorted(widths)}")

    features = np.array([feat_rows[i] for i in range(n)], dtype=np.float64)
    labels = np.array([label_rows[i] for i in range(n)], dtype=np.int64)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), features, labels


def _check_int64(name: str, ln: int, *values: int) -> None:
    """DataError naming the file and line unless every value fits in int64."""
    for v in values:
        if not -2 ** 63 <= v < 2 ** 63:
            raise DataError(f"{name} line {ln}: integer {v} is outside int64")


@contextmanager
def atomic_open(path, mode: str = "w", **open_kwargs):
    """Open ``<name>.tmp`` for writing and rename it onto ``path`` on success,
    so a reader sees the old file or the whole new one. On error the temp
    file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_graph(directory, graph: Graph) -> None:
    """Write ``graph`` in the on-disk format, each file atomically. A feature
    value is written as its ``repr``, which parses back to the same double."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    with atomic_open(d / "edges.txt") as fh:
        fh.writelines(f"{i} {j}\n" for i, j in graph.edges.tolist())
    with atomic_open(d / "features.csv") as fh:
        cells = _repr_cells(graph.features)
        fh.writelines(f"{i},{','.join(row)}\n" for i, row in enumerate(cells))
    with atomic_open(d / "labels.csv") as fh:
        fh.writelines(f"{i},{lab}\n" for i, lab in enumerate(graph.labels.tolist()))
    if graph.train_mask is not None:
        spl = {
            "train": np.flatnonzero(graph.train_mask).tolist(),
            "val": np.flatnonzero(graph.val_mask).tolist(),
            "test": np.flatnonzero(graph.test_mask).tolist(),
        }
        with atomic_open(d / "splits.json") as fh:
            json.dump(spl, fh)


def _repr_cells(x: np.ndarray) -> list[list[str]]:
    """``repr`` of every value of the float64 matrix ``x``, as nested lists.
    Each distinct bit pattern is formatted once (so ``-0.0`` keeps its sign),
    which makes a bag-of-words matrix of 0.0/1.0 cost two ``repr`` calls."""
    bits, inverse = np.unique(np.ascontiguousarray(x).view(np.int64), return_inverse=True)
    table = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return table[inverse.reshape(x.shape)].tolist()


def split(graph: Graph, fractions=(0.6, 0.2, 0.2), seed: int = 0):
    """Stratified train/val/test masks; per-class counts are rounded to the
    nearest node of the requested fractions."""
    if sum(fractions) > 1.0 + 1e-9:
        raise DataError(f"fractions sum to {sum(fractions)} > 1")
    rng = np.random.default_rng(seed)
    train = np.zeros(graph.n_nodes, dtype=bool)
    val = np.zeros(graph.n_nodes, dtype=bool)
    test = np.zeros(graph.n_nodes, dtype=bool)
    for c in np.unique(graph.labels):
        ids = np.flatnonzero(graph.labels == c)
        rng.shuffle(ids)
        n_c = ids.size
        n_tr = int(round(fractions[0] * n_c))
        n_va = int(round(fractions[1] * n_c))
        n_te = int(round(fractions[2] * n_c))
        if n_tr < 1:
            raise DataError(f"class {c} has {n_c} nodes; train fraction rounds to zero")
        if n_tr + n_va + n_te > n_c:
            n_te = n_c - n_tr - n_va
            if n_te < 0:
                raise DataError(f"class {c} has too few nodes for the requested fractions")
        train[ids[:n_tr]] = True
        val[ids[n_tr:n_tr + n_va]] = True
        test[ids[n_tr + n_va:n_tr + n_va + n_te]] = True
    return train, val, test


def normalize_adjacency(graph: Graph) -> sparse.csr_matrix:
    """(A + I) with symmetric 1/sqrt(deg_i * deg_j) normalization, deg counting
    the self-loop: the cached adjacency with each diagonal entry inserted into
    its row's sorted columns."""
    a = graph.csr_adjacency()
    n = graph.n_nodes
    deg = np.diff(a.indptr)
    keys = np.repeat(np.arange(n, dtype=np.int64), deg) * n + a.indices
    loops = np.arange(n, dtype=np.int64) * (n + 1)
    keys = np.insert(keys, np.searchsorted(keys, loops), loops)
    rows, cols = keys // n, keys % n
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    indptr = a.indptr + np.arange(n + 1)
    return sparse.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], cols, indptr), shape=(n, n))


def synthetic_tree(branching: int, depth: int, d_feat: int = 16, noise: float = 0.1,
                   seed: int = 0) -> Graph:
    """Complete b-ary tree with `depth` levels below the root.

    The label of a node is the index of the depth-1 subtree containing it
    (the root gets class 0); features are the class one-hot plus Gaussian
    noise, so structure and features carry the same signal at noise=0.
    """
    if branching < 2 or depth < 2:
        raise DataError("need branching >= 2 and depth >= 2")
    n = (branching ** (depth + 1) - 1) // (branching - 1)
    if d_feat < branching:
        raise DataError(f"d_feat={d_feat} cannot one-hot encode {branching} classes")
    children = np.arange(1, n, dtype=np.int64)
    parents = (children - 1) // branching
    labels = np.zeros(n, dtype=np.int64)
    labels[1:branching + 1] = np.arange(branching)  # depth-1 nodes seed the classes
    first = branching + 1  # first node of depth 2; each level inherits its parents' labels
    while first < n:
        end = first * branching + 1
        labels[first:end] = labels[parents[first - 1:end - 1]]
        first = end
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, noise, size=(n, d_feat))
    features[np.arange(n), labels] += 1.0
    return Graph(n, np.stack([parents, children], axis=1), features, labels)


# ---------------------------------------------------------------------------
# Gromov hyperbolicity (four-point condition)
# ---------------------------------------------------------------------------

def _largest_component(graph: Graph) -> np.ndarray:
    n_comp, comp = csgraph.connected_components(graph.csr_adjacency(), directed=False)
    if n_comp == 1:
        return np.arange(graph.n_nodes)
    warnings.warn(f"graph has {n_comp} components; using the largest", stacklevel=3)
    sizes = np.bincount(comp)
    return np.flatnonzero(comp == np.argmax(sizes))


def _distance_matrix(graph: Graph, nodes: np.ndarray, sources=None) -> np.ndarray:
    """BFS distances among ``nodes``, int32 as the kernel returns them: from
    every node, or from the positions ``sources`` into ``nodes`` alone."""
    sub = graph.csr_adjacency()[nodes][:, nodes].tocsr()
    return kernels.bfs_all_pairs(sub.indptr, sub.indices, len(nodes), sources)


EXACT_LIMIT = 60


def sample_quadruples(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 4) rows of distinct indices in [0, n)."""
    if n < 4:
        raise DataError("need at least 4 nodes to form a quadruple")
    out = np.empty((count, 4), dtype=np.int64)
    filled = 0
    while filled < count:
        cand = rng.integers(0, n, size=(count - filled, 4))
        ok = (
            (cand[:, 0] != cand[:, 1]) & (cand[:, 0] != cand[:, 2]) & (cand[:, 0] != cand[:, 3])
            & (cand[:, 1] != cand[:, 2]) & (cand[:, 1] != cand[:, 3]) & (cand[:, 2] != cand[:, 3])
        )
        good = cand[ok]
        out[filled:filled + len(good)] = good
        filled += len(good)
    return out


class DeltaReport(NamedTuple):
    delta: float
    mode: str        # "exact" or "sampled"
    n_nodes: int     # size of the component the delta was computed on
    sources: int     # BFS sources the quadruples were drawn from (n_nodes unless sampled)


def gromov_delta_report(graph: Graph, num_quadruples: int | None = None, seed: int = 0,
                        exact: bool | None = None) -> DeltaReport:
    """Max (S1 - S2)/2 over quadruple pairwise-distance sums, on BFS shortest
    paths of the largest component, with the mode, component size and number
    of BFS sources used.

    Exact enumeration for n <= 60 (or on request) reads all n^2 distances.
    Otherwise the delta is a lower bound over ``num_quadruples`` (default
    50,000) random quadruples. Where the sample size s is below n, the
    seed's generator first draws s distinct nodes, BFS runs from those alone
    (an s x n matrix, never n x n) and the quadruples are drawn among them;
    where s = n, the quadruples are drawn among all n nodes. s is
    ``min(n, ceil(sqrt(12 * count)))``: each quadruple reads 6 pairs, so the
    sample's s^2 ordered pairs are about as many as the quadruples read.
    """
    if num_quadruples is not None and num_quadruples < 1:
        raise DataError(f"num_quadruples must be >= 1, got {num_quadruples}")
    nodes = _largest_component(graph)
    n = len(nodes)
    if n < 4:
        raise DataError(f"need at least 4 connected nodes, have {n}")
    if exact is None:
        exact = num_quadruples is None and n <= EXACT_LIMIT
    if exact and n > EXACT_LIMIT:
        raise DataError(
            f"exact enumeration is limited to n <= {EXACT_LIMIT} (got {n}); "
            "use sampling (num_quadruples)"
        )
    if exact:
        d = _distance_matrix(graph, nodes)
        return DeltaReport(float(kernels.four_point_delta_exact(d)), "exact", n, n)
    count = 50_000 if num_quadruples is None else int(num_quadruples)
    rng = np.random.default_rng(seed)
    s = min(n, math.isqrt(12 * count - 1) + 1)  # ceil(sqrt(12 * count))
    if s == n:
        d = _distance_matrix(graph, nodes)
    else:
        picks = rng.choice(n, size=s, replace=False)
        d = _distance_matrix(graph, nodes, picks)[:, picks]
    quads = sample_quadruples(s, count, rng)
    return DeltaReport(float(kernels.four_point_delta_quads(d, quads)), "sampled", n, s)


def gromov_delta(graph: Graph, num_quadruples: int | None = None, seed: int = 0,
                 exact: bool | None = None) -> float:
    """The delta of :func:`gromov_delta_report` alone."""
    return gromov_delta_report(graph, num_quadruples, seed, exact).delta
