import numpy as np
import pytest

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
    rng = np.random.default_rng(7)
    edges = [(i, i + 1) for i in range(9)] + [(0, 5), (2, 7)]
    feats = rng.standard_normal((10, 5))
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    return data_mod.Graph(10, np.array(edges), feats, labels)


def masked(graph, fractions=(0.6, 0.2, 0.2), seed=0):
    tr, va, te = data_mod.split(graph, fractions, seed)
    return data_mod.Graph(graph.n_nodes, graph.edges, graph.features, graph.labels,
                          tr, va, te)
