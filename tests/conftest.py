import numpy as np
import pytest

from hgcl import checks
from hgcl import data as data_mod


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lift_calls(monkeypatch):
    """The feature arrays passed to ``hgcl.encoder.lift_features``, one per call."""
    import hgcl.encoder as enc_mod
    calls = []
    real = enc_mod.lift_features

    def counting(features, max_norm):
        calls.append(features)
        return real(features, max_norm)

    monkeypatch.setattr(enc_mod, "lift_features", counting)
    return calls


@pytest.fixture
def log0_calls(monkeypatch):
    """The manifolds passed to ``hgcl.diffgeo.log0``, one per call."""
    import hgcl.diffgeo as dg
    calls = []
    real = dg.log0

    def counting(man, h):
        calls.append(man)
        return real(man, h)

    monkeypatch.setattr(dg, "log0", counting)
    return calls


@pytest.fixture
def triangle_dir(tmp_path):
    d = tmp_path / "triangle"
    d.mkdir()
    (d / "edges.txt").write_text("0 1\n1 2\n2 0\n")
    (d / "features.csv").write_text("0,1.0,0.0\n1,0.0,1.0\n2,0.5,0.5\n")
    (d / "labels.csv").write_text("0,0\n1,1\n2,0\n")
    return d


@pytest.fixture
def path5():
    """Path graph 0-1-2-3-4."""
    edges = np.array([(i, i + 1) for i in range(4)])
    feats = np.eye(5)
    labels = np.array([0, 0, 1, 1, 1])
    return data_mod.Graph(5, edges, feats, labels)


@pytest.fixture
def ten_node_graph():
    """The gradient-check registry's ten-node graph (seed 7)."""
    return checks._ten_node_graph()


def masked(graph, fractions=(0.6, 0.2, 0.2), seed=0):
    tr, va, te = data_mod.split(graph, fractions, seed)
    return data_mod.Graph(graph.n_nodes, graph.edges, graph.features, graph.labels,
                          tr, va, te)


def bag_of_words_graph(n=60, width=400, words=3, seed=5):
    """A random connected graph with sparse binary features: ``words`` ones a
    row out of ``width``, so the encoder's first layer runs on CSR features."""
    rng = np.random.default_rng(seed)
    tree = np.stack([np.arange(1, n), rng.integers(0, np.arange(1, n))], axis=1)
    edges = np.concatenate([tree, rng.integers(0, n, size=(n // 2, 2))])
    labels = rng.integers(0, 2, size=n)
    features = np.zeros((n, width))
    features[np.arange(n)[:, None], rng.permuted(np.tile(np.arange(width), (n, 1)),
                                                 axis=1)[:, :words]] = 1.0
    return data_mod.Graph(n, edges, features, labels)
