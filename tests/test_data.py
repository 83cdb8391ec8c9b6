"""Loaders, splits, adjacency normalization, synthetic trees, hyperbolicity."""

import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgcl import data as data_mod
from hgcl.data import DataError, Graph, gromov_delta, load_graph, normalize_adjacency, \
    save_graph, split, synthetic_tree
from hgcl.hpc import SamplingError, build_sample_plan


class TestLoadGraph:
    def test_triangle_fixture(self, triangle_dir):
        g = load_graph(triangle_dir)
        assert g.n_nodes == 3
        assert g.n_edges == 3
        assert g.features.shape == (3, 2)
        assert g.train_mask is not None  # generated split

    def test_duplicate_edges_and_self_loops_dropped(self, tmp_path):
        d = tmp_path / "dup"
        d.mkdir()
        (d / "edges.txt").write_text("0 1\n1 0\n0 1\n2 2\n1 2\n")
        (d / "features.csv").write_text("0,1.0\n1,2.0\n2,3.0\n")
        (d / "labels.csv").write_text("0,0\n1,0\n2,0\n")
        g = load_graph(d, split_fractions=(1.0, 0.0, 0.0))
        assert g.n_edges == 2  # {0,1} and {1,2}

    def test_malformed_edge_line_reports_number(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "edges.txt").write_text("0 1\nnot numbers\n")
        (d / "features.csv").write_text("0,1.0\n1,2.0\n")
        (d / "labels.csv").write_text("0,0\n1,1\n")
        with pytest.raises(DataError, match="line 2"):
            load_graph(d)

    def test_id_gap_rejected(self, tmp_path):
        d = tmp_path / "gap"
        d.mkdir()
        (d / "edges.txt").write_text("0 2\n")
        (d / "features.csv").write_text("0,1.0\n2,2.0\n")
        (d / "labels.csv").write_text("0,0\n2,1\n")
        with pytest.raises(DataError, match="contiguous"):
            load_graph(d)

    def test_duplicate_label_id_rejected(self, tmp_path):
        d = tmp_path / "duplab"
        d.mkdir()
        (d / "edges.txt").write_text("0 1\n")
        (d / "features.csv").write_text("0,1.0\n1,2.0\n")
        (d / "labels.csv").write_text("0,0\n1,1\n1,0\n")
        with pytest.raises(DataError, match="labels.csv line 3: duplicate id 1"):
            load_graph(d)

    def test_negative_label_rejected_at_load(self, tmp_path):
        d = tmp_path / "neglab"
        d.mkdir()
        (d / "edges.txt").write_text("0 1\n1 2\n")
        (d / "features.csv").write_text("0,1.0\n1,2.0\n2,3.0\n")
        (d / "labels.csv").write_text("0,0\n1,-1\n2,0\n")
        with pytest.raises(DataError, match="node 1 has label -1"):
            load_graph(d)

    @pytest.mark.parametrize("big", ["99999999999999999999", "9223372036854775808",
                                     "-9223372036854775809", "-99999999999999999999"])
    @pytest.mark.parametrize("name", ["edges.txt", "labels.csv"])
    def test_integer_beyond_int64_names_file_and_line(self, tmp_path, name, big):
        files = {"edges.txt": "0 1\n1 2\n", "features.csv": "0,1.0\n1,2.0\n2,3.0\n",
                 "labels.csv": "0,0\n1,1\n2,0\n"}
        files[name] = files[name].replace("1 2" if name == "edges.txt" else "1,1",
                                          f"1 {big}" if name == "edges.txt" else f"1,{big}")
        for fname, text in files.items():
            (tmp_path / fname).write_text(text)
        with pytest.raises(DataError, match=f"^{name} line 2: integer {big} is outside int64$"):
            load_graph(tmp_path)

    def test_int64_bounds_are_accepted(self, tmp_path):
        (tmp_path / "edges.txt").write_text("0 1\n")
        (tmp_path / "features.csv").write_text("0,1.0\n1,2.0\n")
        (tmp_path / "labels.csv").write_text("0,9223372036854775807\n1,9223372036854775807\n")
        for read in (data_mod._read_tables, data_mod._read_lines):
            assert read(tmp_path)[2].tolist() == [2 ** 63 - 1] * 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected_at_load(self, tmp_path, bad):
        d = tmp_path / "nonfinite"
        d.mkdir()
        (d / "edges.txt").write_text("0 1\n1 2\n")
        (d / "features.csv").write_text(f"0,1.0,0.0\n1,0.5,0.5\n2,0.0,{bad}\n")
        (d / "labels.csv").write_text("0,0\n1,1\n2,0\n")
        with pytest.raises(DataError, match="node 2 has a nan or inf"):
            load_graph(d)

    def test_save_load_round_trip_bit_exact(self, tmp_path, rng):
        g = synthetic_tree(2, 3, d_feat=4, noise=0.5, seed=9)
        tr, va, te = split(g, seed=1)
        g = Graph(g.n_nodes, g.edges, g.features, g.labels, tr, va, te)
        save_graph(tmp_path / "rt", g)
        g2 = load_graph(tmp_path / "rt")
        assert np.array_equal(g.edges, g2.edges)
        assert np.array_equal(g.features, g2.features)  # repr() round-trips floats
        assert np.array_equal(g.labels, g2.labels)
        for a, b in ((g.train_mask, g2.train_mask), (g.val_mask, g2.val_mask),
                     (g.test_mask, g2.test_mask)):
            assert np.array_equal(a, b)

    def test_splits_json_respected(self, triangle_dir):
        (triangle_dir / "splits.json").write_text(json.dumps(
            {"train": [0, 1], "val": [2], "test": []}))
        g = load_graph(triangle_dir)
        assert list(np.flatnonzero(g.train_mask)) == [0, 1]
        assert list(np.flatnonzero(g.val_mask)) == [2]


ODD_TOKENS = ["", "x", "1.0", "1_0", "1e0", "0x1p3", "١", " 3 ", "+1", "-0", "1,5", "#1",
              "9223372036854775807", "9223372036854775808", "-9223372036854775809",
              "99999999999999999999"]
ODD_KINDS = ["token", "value", "filler", "ids", "ragged", "stray", "endpoint", "empty"]


@st.composite
def dataset_files(draw):
    """The three files of a dataset with up to 6 nodes, rows in any id order,
    CRLF or LF ends. A drawn subset of the odd kinds is switched on at a drawn
    rate: odd tokens (non-integer ids such as ``1.0``, ``1_0``-style numbers,
    integers at and beyond the int64 bounds, surrounding whitespace),
    non-finite values, blank, whitespace and ``#`` lines, duplicate or missing
    ids, ragged rows, stray tokens, out-of-range endpoints, no nodes."""
    kinds = draw(st.sets(st.sampled_from(ODD_KINDS), max_size=2))
    rate = draw(st.sampled_from([5, 20, 60]))  # percent

    def odd(kind):
        return kind in kinds and draw(st.integers(0, 99)) < rate

    def token(good):
        if not odd("token"):
            return good
        return draw(st.sampled_from([good + " ", "\t" + good, "\xa0" + good] + ODD_TOKENS))

    def table(rows, sep):
        lines = [sep.join(r) for r in rows]
        for _ in range(draw(st.integers(0, 2))):
            filler = ["  ", "\t", "# note", "#"] if odd("filler") else [""]
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(filler)))
        end = draw(st.sampled_from(["\n", "\r\n"]))
        text = end.join(lines)
        return text + end if lines and draw(st.booleans()) else text

    n = 0 if odd("empty") else draw(st.integers(1, 6))
    width = draw(st.integers(0, 3))

    def id_list():
        ids = draw(st.permutations(range(n)))
        if n and odd("ids"):
            k = draw(st.integers(0, n - 1))
            ids = ids + [ids[k]] if draw(st.booleans()) else ids[:k] + ids[k + 1:]
        return ids

    finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(["0", "1.", ".5", "-0.0", "1e-400", "4.9e-324", "1E5"]))
    odd_value = st.sampled_from(["1e400", "1_0.5", "nan", "-inf", "Infinity"])

    def value():
        return draw(odd_value if odd("value") else finite)

    def stray():
        return [draw(st.sampled_from(["9", "x", ""]))] if odd("stray") else []

    def row_width():
        return width + (draw(st.sampled_from([1, -1] if width else [1])) if odd("ragged") else 0)

    feats = [[token(str(i))] + [value() for _ in range(row_width())] + stray() for i in id_list()]
    labels = [[token(str(i)), token(str(draw(st.integers(0, 2))))] + stray() for i in id_list()]

    def node():
        far = odd("endpoint") or not n
        return str(draw(st.sampled_from([-1, n]) if far else st.integers(0, n - 1)))

    edges = [[token(node()), token(node())] + stray() for _ in range(draw(st.integers(0, 8)))]
    return {"edges.txt": table(edges, draw(st.sampled_from([" ", "\t", "  "]))),
            "features.csv": table(feats, ","), "labels.csv": table(labels, ",")}


def outcome(fn):
    """``fn()``'s graph as comparable bytes, or its exception's type and text."""
    try:
        g = fn()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)
    arrays = (g.edges, g.features, g.labels, g.train_mask, g.val_mask, g.test_mask)
    return g.n_nodes, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestLoaderFastPath:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(dataset_files())
    @example({"edges.txt": "", "features.csv": "1,0.5\n0,-0.0\n", "labels.csv": "1,0\n0,1\n"})
    @example({"edges.txt": "0 1\n", "features.csv": "0,1\n1,2\n1.0,3\n", "labels.csv": "0,0\n"})
    @example({"edges.txt": "0 1 2\n", "features.csv": "0\n1\n", "labels.csv": "0,0\n1,1,5\n"})
    @example({"edges.txt": "0 99999999999999999999\n", "features.csv": "0,1\n1,2\n",
              "labels.csv": "0,0\n1,1\n"})
    @example({"edges.txt": "0 1\n", "features.csv": "0,1\n1,2\n",
              "labels.csv": "0,0\n1,-9223372036854775809\n"})
    def test_fast_path_agrees_with_the_per_line_parser(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for name, text in files.items():
                with open(d / name, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            try:
                fast = data_mod._read_tables(d)
            except (ValueError, OSError):
                fast = None
            if fast is not None:  # what the C parser takes, the per-line one takes the same
                for a, b in zip(fast, data_mod._read_lines(d)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            loaded = outcome(lambda: load_graph(d))
            if isinstance(loaded[0], type):  # a fault is a named DataError
                assert issubclass(loaded[0], DataError), loaded
            with mock.patch.object(data_mod, "_read_tables", side_effect=ValueError):
                assert loaded == outcome(lambda: load_graph(d))

    def test_rows_in_any_id_order_take_the_fast_path(self, tmp_path, monkeypatch):
        (tmp_path / "edges.txt").write_text("")
        (tmp_path / "features.csv").write_text("2,0.25,-0.0\n0,1e-300,3\n1,-2.5,7\n")
        (tmp_path / "labels.csv").write_text("1,1\n2,0\n0,0\n")
        monkeypatch.setattr(data_mod, "_read_lines", None)  # calling it would fail
        g = load_graph(tmp_path, split_fractions=(1.0, 0.0, 0.0))
        assert g.features.tolist() == [[1e-300, 3.0], [-2.5, 7.0], [0.25, -0.0]]
        assert np.signbit(g.features[2, 1])
        assert g.labels.tolist() == [0, 1, 0] and g.n_edges == 0


class TestAtomicOpen:
    def test_failed_write_keeps_the_previous_file_and_no_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        with data_mod.atomic_open(target, "w", newline="") as fh:
            fh.write("a,b\r\n")
        with pytest.raises(RuntimeError, match="disk gone"):
            with data_mod.atomic_open(target) as fh:
                fh.write("partial")
                raise RuntimeError("disk gone")
        assert target.read_bytes() == b"a,b\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_save_graph_round_trips_without_temp_files(self, tmp_path):
        g = synthetic_tree(2, 3, d_feat=4, noise=0.5, seed=9)
        tr, va, te = split(g, seed=1)
        g = Graph(g.n_nodes, g.edges, g.features, g.labels, tr, va, te)
        save_graph(tmp_path, synthetic_tree(2, 2))  # overwritten below
        save_graph(tmp_path, g)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "edges.txt", "features.csv", "labels.csv", "splits.json"]
        g2 = load_graph(tmp_path)
        assert np.array_equal(g.edges, g2.edges)
        assert np.array_equal(g.features, g2.features)
        assert np.array_equal(g.test_mask, g2.test_mask)


class TestSaveGraph:
    def test_bytes_match_the_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = np.where(rng.random((30, 6)) < 0.6, 0.0, rng.normal(size=(30, 6)))
        feats[0] = [-0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1]
        feats[1] = feats[0]  # repeated values, -0.0 apart from 0.0
        edges = rng.integers(0, 30, size=(50, 2))
        g = Graph(30, edges, feats[:, ::-1], rng.integers(0, 3, size=30))  # strided features
        save_graph(tmp_path, g)
        # the writer before vectorisation, kept as the reference
        assert (tmp_path / "edges.txt").read_text() == "".join(
            f"{i} {j}\n" for i, j in g.edges)
        assert (tmp_path / "features.csv").read_text() == "".join(
            f"{i},{','.join(repr(float(v)) for v in g.features[i])}\n" for i in range(30))
        assert (tmp_path / "labels.csv").read_text() == "".join(
            f"{i},{int(g.labels[i])}\n" for i in range(30))
        assert load_graph(tmp_path).features.tobytes() == g.features.tobytes()


class TestGraphInvariants:
    def test_edge_out_of_range(self):
        with pytest.raises(DataError):
            Graph(2, np.array([[0, 5]]), np.zeros((2, 1)), np.zeros(2, dtype=int))

    def test_negative_label_rejected(self):
        labels = np.where(np.arange(20) % 2 == 0, 0, -1)
        with pytest.raises(DataError, match="labels must be >= 0; node 1 has label -1"):
            Graph(20, np.empty((0, 2)), np.zeros((20, 1)), labels)

    def test_non_finite_features_name_the_first_bad_node(self):
        feats = np.zeros((6, 3))
        feats[4, 1] = np.inf
        feats[2, 0] = np.nan
        with pytest.raises(DataError, match="node 2 has a nan or inf"):
            Graph(6, np.empty((0, 2)), feats, np.zeros(6, dtype=int))

    def test_overlapping_masks_rejected(self):
        m = np.array([True, False])
        with pytest.raises(DataError):
            Graph(2, np.empty((0, 2)), np.zeros((2, 1)), np.zeros(2, dtype=int),
                  m, m.copy(), ~m)

    def test_class_missing_from_train_rejected(self):
        with pytest.raises(DataError, match="missing from train"):
            Graph(2, np.empty((0, 2)), np.zeros((2, 1)), np.array([0, 1]),
                  np.array([True, False]), np.array([False, False]),
                  np.array([False, True]))


def round_trip(g):
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(Path(tmp) / "g", g)
        return load_graph(Path(tmp) / "g")


def set_reference(n, pairs):
    """Canonical edges, dense adjacency and neighbor lists from Python sets."""
    undirected = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
    dense = np.zeros((n, n))
    nbrs = [set() for _ in range(n)]
    for i, j in undirected:
        dense[i, j] = dense[j, i] = 1.0
        nbrs[i].add(j)
        nbrs[j].add(i)
    return undirected, dense, [sorted(s) for s in nbrs]


@st.composite
def edge_lists(draw):
    """Up to 12 nodes and 40 raw pairs: reversed pairs, repeats and self-loops
    occur freely, and so do isolated nodes and several components."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=40))


class TestCanonicalAdjacency:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(edge_lists())
    @example((6, [(0, 1), (1, 0), (3, 3)]))
    @example((7, [(5, 4), (4, 5), (4, 5), (2, 2), (0, 1), (1, 2), (6, 6)]))
    def test_matches_set_reference_and_round_trip(self, case):
        n, pairs = case
        edges, dense, nbrs = set_reference(n, pairs)
        g = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)),
                  np.zeros(n, dtype=int))
        g2 = round_trip(g)
        inv = 1.0 / np.sqrt(dense.sum(axis=1) + 1.0)
        norm_ref = inv[:, None] * (dense + np.eye(n)) * inv[None, :]
        for graph in (g, g2):
            assert graph.edges.dtype == np.int64
            assert graph.edges.tolist() == [list(e) for e in edges]
            adj = graph.csr_adjacency()
            assert adj.has_sorted_indices
            np.testing.assert_array_equal(adj.toarray(), dense)
            np.testing.assert_allclose(normalize_adjacency(graph).toarray(), norm_ref,
                                       rtol=1e-15, atol=0)
        a, a2 = g.csr_adjacency(), g2.csr_adjacency()
        np.testing.assert_array_equal(a.indptr, a2.indptr)
        np.testing.assert_array_equal(a.indices, a2.indices)
        np.testing.assert_array_equal(normalize_adjacency(g).toarray(),
                                      normalize_adjacency(g2).toarray())

        anchor = [i for i in range(n) for _ in nbrs[i]]
        nbr = [j for i in range(n) for j in nbrs[i]]
        if any(len(nbrs[i]) == n - 1 for i in range(n)):  # an empty negative pool
            with pytest.raises(SamplingError):
                build_sample_plan(g, 1, np.random.default_rng(0))
            return
        for graph in (g, g2):
            plan = build_sample_plan(graph, 1, np.random.default_rng(0))
            assert plan.edge_anchor.tolist() == anchor
            assert plan.edge_nbr.tolist() == nbr
            assert plan.edge_anchor.dtype == plan.edge_nbr.dtype == np.int64

    def test_code_built_graph_equals_its_round_trip(self):
        # a reversed repeat and a self-loop: counted twice and weighted before
        g = Graph(6, np.array([(0, 1), (1, 0), (3, 3)]), np.zeros((6, 1)),
                  np.zeros(6, dtype=int))
        g2 = round_trip(g)
        for graph in (g, g2):
            a = graph.csr_adjacency()
            assert graph.edges.tolist() == [[0, 1]]
            assert a[0, 1] == a[1, 0] == 1.0
            assert a[3, 3] == 0.0
            plan = build_sample_plan(graph, 2, np.random.default_rng(0))
            assert plan.edge_anchor.tolist() == [0, 1]
            assert plan.edge_nbr.tolist() == [1, 0]
        np.testing.assert_array_equal(normalize_adjacency(g).toarray(),
                                      normalize_adjacency(g2).toarray())

    def test_readers_leave_the_cached_csr_unchanged(self):
        edges = np.array([(1, 0), (1, 2), (2, 3), (3, 4), (0, 4), (6, 5), (2, 2)])
        g = Graph(7, edges, np.zeros((7, 1)), np.zeros(7, dtype=int))
        a = g.csr_adjacency()
        before = (a.data.copy(), a.indices.copy(), a.indptr.copy())
        normalize_adjacency(g)
        with pytest.warns(UserWarning, match="largest"):
            assert gromov_delta(g, exact=True) == gromov_delta(round_trip(g), exact=True)
        build_sample_plan(g, 1, np.random.default_rng(0))
        assert g.csr_adjacency() is a
        for x, y in zip(before, (a.data, a.indices, a.indptr)):
            np.testing.assert_array_equal(x, y)


class TestSplit:
    def test_balanced_hundred_nodes(self):
        g = Graph(100, np.empty((0, 2)), np.zeros((100, 1)),
                  np.repeat([0, 1], 50))
        tr, va, te = split(g, (0.6, 0.2, 0.2), seed=0)
        assert (tr.sum(), va.sum(), te.sum()) == (60, 20, 20)
        for c in (0, 1):
            cls = g.labels == c
            assert (tr & cls).sum() == 30
            assert (va & cls).sum() == 10
            assert (te & cls).sum() == 10

    def test_deterministic(self):
        g = synthetic_tree(3, 3, d_feat=4, seed=0)
        a = split(g, seed=42)
        b = split(g, seed=42)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_proportions_within_one_node(self):
        g = synthetic_tree(3, 4, d_feat=4, seed=0)  # classes of size 41/40/40
        tr, va, te = split(g, (0.5, 0.25, 0.25), seed=3)
        for c in np.unique(g.labels):
            n_c = (g.labels == c).sum()
            assert abs((tr & (g.labels == c)).sum() - 0.5 * n_c) <= 1
            assert abs((va & (g.labels == c)).sum() - 0.25 * n_c) <= 1

    def test_tiny_class_rejected(self):
        g = Graph(3, np.empty((0, 2)), np.zeros((3, 1)), np.array([0, 0, 1]))
        with pytest.raises(DataError):
            split(g, (0.1, 0.2, 0.7), seed=0)

    def test_fraction_sum_checked(self):
        g = synthetic_tree(2, 2, d_feat=4)
        with pytest.raises(DataError):
            split(g, (0.8, 0.3, 0.2))


class TestNormalizeAdjacency:
    def test_isolated_node_self_loop(self):
        g = Graph(1, np.empty((0, 2)), np.zeros((1, 1)), np.zeros(1, dtype=int))
        a = normalize_adjacency(g)
        np.testing.assert_allclose(a.toarray(), [[1.0]])

    def test_pattern_symmetric(self, ten_node_graph):
        a = normalize_adjacency(ten_node_graph).toarray()
        np.testing.assert_allclose(a, a.T)
        assert np.all(a >= 0)

    def test_triangle_rows_sum_to_one(self):
        g = Graph(3, np.array([[0, 1], [1, 2], [0, 2]]), np.zeros((3, 1)),
                  np.zeros(3, dtype=int))
        a = normalize_adjacency(g).toarray()
        np.testing.assert_allclose(a.sum(axis=1), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(a, np.full((3, 3), 1.0 / 3.0))


class TestSyntheticTree:
    def test_binary_depth3_counts(self):
        g = synthetic_tree(2, 3, d_feat=4)
        assert g.n_nodes == 15
        assert g.n_edges == 14
        assert g.n_classes == 2

    def test_noiseless_features_linearly_separable(self):
        g = synthetic_tree(3, 3, d_feat=8, noise=0.0)
        onehot = np.zeros((g.n_nodes, 8))
        onehot[np.arange(g.n_nodes), g.labels] = 1.0
        assert np.array_equal(g.features, onehot)

    def test_connected_and_acyclic(self):
        g = synthetic_tree(4, 3, d_feat=8)
        assert g.n_edges == g.n_nodes - 1
        from scipy.sparse.csgraph import connected_components
        n_comp, _ = connected_components(g.csr_adjacency(), directed=False)
        assert n_comp == 1

    @pytest.mark.parametrize("b,h", [(2, 2), (3, 4), (5, 3)])
    def test_parents_and_labels_match_the_child_loop(self, b, h):
        g = synthetic_tree(b, h, d_feat=8)
        labels = np.zeros(g.n_nodes, dtype=np.int64)
        for child in range(1, g.n_nodes):
            parent = (child - 1) // b
            labels[child] = child - 1 if parent == 0 else labels[parent]
        assert g.edges.tolist() == [[(c - 1) // b, c] for c in range(1, g.n_nodes)]
        np.testing.assert_array_equal(g.labels, labels)

    def test_bit_reproducible(self):
        a = synthetic_tree(3, 4, d_feat=6, noise=0.7, seed=5)
        b = synthetic_tree(3, 4, d_feat=6, noise=0.7, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_feature_width_guard(self):
        with pytest.raises(DataError):
            synthetic_tree(5, 2, d_feat=3)


def cycle_graph(n):
    edges = np.array([(i, (i + 1) % n) for i in range(n)])
    return Graph(n, np.array(sorted(map(tuple, np.sort(edges, axis=1)))),
                 np.zeros((n, 1)), np.zeros(n, dtype=int))


def path_with_chords(n, n_edges, rng):
    """A path over n nodes plus random chords, n_edges edges in all."""
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < n_edges:
        i, j = sorted(rng.integers(0, n, 2).tolist())
        if i != j:
            edges.add((i, j))
    return Graph(n, np.array(sorted(edges)), np.zeros((n, 1)), np.zeros(n, dtype=int))


def four_point_by_hand(dist):
    """Independent enumeration of the four-point condition."""
    n = dist.shape[0]
    best = 0.0
    for w, x, y, z in itertools.combinations(range(n), 4):
        sums = sorted([dist[w, x] + dist[y, z], dist[w, y] + dist[x, z],
                       dist[w, z] + dist[x, y]], reverse=True)
        best = max(best, (sums[0] - sums[1]) / 2.0)
    return best


def hop_distances(g):
    from scipy.sparse.csgraph import shortest_path
    return shortest_path(g.csr_adjacency(), unweighted=True, directed=False)


class TestGromovDelta:
    @pytest.mark.parametrize("b,h", [(2, 3), (3, 3), (2, 4)])
    def test_trees_are_zero_hyperbolic(self, b, h):
        assert gromov_delta(synthetic_tree(b, h, d_feat=4)) == 0.0

    def test_path_graph_is_zero(self, path5):
        assert gromov_delta(path5) == 0.0

    def test_cycle6_matches_hand_enumeration(self):
        g = cycle_graph(6)
        expected = four_point_by_hand(hop_distances(g))
        assert expected == 1.0  # frozen from the independent oracle
        assert gromov_delta(g, exact=True) == expected

    @pytest.mark.parametrize("n", [7, 9])
    def test_cycles_match_hand_enumeration(self, n):
        g = cycle_graph(n)
        assert gromov_delta(g, exact=True) == four_point_by_hand(hop_distances(g))

    def test_sampled_is_lower_bound_of_exact(self, rng):
        for make in (lambda: cycle_graph(12), lambda: synthetic_tree(2, 4, d_feat=4)):
            g = make()
            exact = gromov_delta(g, exact=True)
            for count in (50, 500, 5000):
                assert gromov_delta(g, num_quadruples=count, seed=7) <= exact

    def test_sampled_bfs_runs_from_the_sample_alone(self, monkeypatch):
        from hgcl import kernels
        calls = []
        real = kernels.bfs_all_pairs

        def record(indptr, indices, n, sources=None):
            d = real(indptr, indices, n, sources)
            calls.append((n, None if sources is None else np.array(sources), d.shape))
            return d

        monkeypatch.setattr(kernels, "bfs_all_pairs", record)
        g = synthetic_tree(2, 6, d_feat=4)  # 127 nodes
        report = data_mod.gromov_delta_report(g, num_quadruples=100, seed=3)
        s = math.ceil(math.sqrt(12 * 100))  # 35
        assert report.sources == s and report.mode == "sampled" and report.n_nodes == 127
        [(n, sources, shape)] = calls
        assert n == 127 and shape == (s, 127)
        assert len(set(sources.tolist())) == s and 0 <= sources.min() and sources.max() < n
        assert report.delta == 0.0  # a tree

    def test_sampled_from_fewer_sources_is_lower_bound_of_exact(self):
        rng = np.random.default_rng(2)
        graphs = [cycle_graph(40), synthetic_tree(2, 4, d_feat=4),
                  path_with_chords(30, 42, rng), path_with_chords(55, 77, rng)]
        for g in graphs:
            exact = gromov_delta(g, exact=True)
            for count, seed in itertools.product((5, 20, 100), range(4)):
                report = data_mod.gromov_delta_report(g, num_quadruples=count, seed=seed)
                if report.sources == g.n_nodes:
                    continue  # the s = n path; pinned below
                assert report.sources == math.ceil(math.sqrt(12 * count)) < g.n_nodes
                assert report.delta <= exact

    def test_sample_covering_every_node_keeps_the_stream(self):
        # count = 201 gives s = ceil(sqrt(2412)) = 50 = n: the quadruples are drawn
        # among all nodes, from the same generator stream as before BFS sources
        # were sampled; the values below were read before that
        g = path_with_chords(50, 70, np.random.default_rng(11))
        reports = [data_mod.gromov_delta_report(g, num_quadruples=201, seed=s) for s in range(12)]
        assert {r.sources for r in reports} == {50}
        assert [r.delta for r in reports] == [2.0, 2.5, 2.5, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.5,
                                              2.0, 2.0]
        assert gromov_delta(g, exact=True) == 3.0

    def test_sampled_monotone_in_sample_superset(self):
        g = cycle_graph(14)
        d = hop_distances(g)
        rng = np.random.default_rng(0)
        quads = data_mod.sample_quadruples(14, 2000, rng)
        from hgcl import kernels
        small = kernels.four_point_delta_quads(d, quads[:200])
        big = kernels.four_point_delta_quads(d, quads)
        assert small <= big <= four_point_by_hand(d)

    def test_too_few_nodes_rejected(self):
        g = Graph(3, np.array([[0, 1], [1, 2]]), np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(DataError):
            gromov_delta(g)

    def test_exact_limit_enforced(self):
        g = synthetic_tree(2, 6, d_feat=4)  # 127 nodes
        with pytest.raises(DataError, match="sampling"):
            gromov_delta(g, exact=True)

    def test_disconnected_uses_largest_component_with_warning(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [5, 6]])
        g = Graph(7, edges, np.zeros((7, 1)), np.zeros(7, dtype=int))
        with pytest.warns(UserWarning, match="largest"):
            assert gromov_delta(g) == 0.0
