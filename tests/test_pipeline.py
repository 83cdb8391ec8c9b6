"""Decoder, combined objective, training loop, metrics, heatmap export."""

import csv
import io
import json
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import masked
from hgcl import autodiff as ad
from hgcl import data as data_mod
from hgcl import manifolds as mf
from hgcl import pipeline as pl
from hgcl.autodiff import Tensor
from hgcl.data import normalize_adjacency, synthetic_tree
from hgcl.encoder import DualEmbedding, EncoderError
from hgcl.hpc import HpcConfig, SamplingError
from hgcl.pipeline import (HgclModel, Metrics, PipelineError, TrainConfig, cross_entropy,
                           decode, evaluate, export_heatmap, total_loss, train)


def small_config(**kw):
    base = dict(hidden_dim=8, embed_dim=8, epochs=20, patience=20, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def tree_graph(b=2, h=4, noise=0.3, seed=1, fractions=(0.6, 0.2, 0.2)):
    g = synthetic_tree(b, h, d_feat=8, noise=noise, seed=seed)
    return masked(g, fractions, seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(PipelineError):
            TrainConfig(epochs=0)
        with pytest.raises(PipelineError):
            TrainConfig(lambda_contrast=-1.0)
        with pytest.raises(PipelineError):
            TrainConfig(epochs=10, patience=50)
        with pytest.raises(PipelineError):
            TrainConfig(ablation="nope")

    @pytest.mark.parametrize("field, value", [
        ("num_layers", 0), ("num_layers", -2), ("hidden_dim", 0), ("embed_dim", 0),
        ("lr", 0.0), ("lr", -0.01), ("grad_clip", 0.0), ("grad_clip", -1.0),
        ("max_feature_norm", 0.0), ("lr", math.nan),
    ])
    def test_out_of_range_option_rejected(self, field, value):
        with pytest.raises(PipelineError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("patience", 0), ("patience", -3),
        ("lambda_contrast", math.nan), ("lambda_contrast", math.inf),
    ])
    def test_value_that_breaks_training_rejected(self, field, value):
        with pytest.raises(PipelineError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    def test_round_trips_through_dict(self):
        cfg = small_config(ablation="no_dist", hpc=HpcConfig(lambda_neg=0.25))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_no_dist_swaps_similarity(self):
        cfg = small_config(ablation="no_dist")
        assert cfg.effective_hpc().similarity == "neg_dot"
        assert small_config().effective_hpc().similarity == "distance"


class TestDecode:
    def test_origin_embeddings_give_bias_logits(self):
        man_a, man_b = mf.poincare(4, -1.0), mf.lorentz(4, -0.5)
        emb = DualEmbedding(Tensor(np.zeros((6, 4))), Tensor(np.zeros((6, 4))),
                            man_a, man_b)
        w = Tensor(np.random.default_rng(0).standard_normal((8, 3)))
        b = Tensor(np.array([[0.3, -0.2, 1.0]]))
        logits = decode(emb, w, b)
        np.testing.assert_allclose(logits.value, np.tile(b.value, (6, 1)), atol=1e-12)

    def test_permutation_equivariance(self, rng):
        man_a, man_b = mf.poincare(3, -1.0), mf.lorentz(3, -1.0)
        ha = dg_internal(man_a, man_a.random_points(rng, 7, 2.0))
        hb = dg_internal(man_b, man_b.random_points(rng, 7, 2.0))
        w = Tensor(rng.standard_normal((6, 2)))
        b = Tensor(np.zeros((1, 2)))
        base = decode(DualEmbedding(Tensor(ha), Tensor(hb), man_a, man_b), w, b).value
        perm = rng.permutation(7)
        permuted = decode(DualEmbedding(Tensor(ha[perm]), Tensor(hb[perm]),
                                        man_a, man_b), w, b).value
        np.testing.assert_array_equal(permuted, base[perm])

    def test_decoder_weight_gradient(self, rng):
        man_a, man_b = mf.poincare(3, -1.0), mf.lorentz(3, -0.5)
        ha = dg_internal(man_a, man_a.random_points(rng, 6, 1.5))
        hb = dg_internal(man_b, man_b.random_points(rng, 6, 1.5))
        emb = DualEmbedding(Tensor(ha), Tensor(hb), man_a, man_b)
        w = ad.parameter(rng.standard_normal((6, 3)) * 0.4)
        b = ad.parameter(np.zeros((1, 3)))
        labels = np.array([0, 1, 2, 0, 1, 2])

        def f():
            return cross_entropy(decode(emb, w, b), labels, np.ones(6, dtype=bool))

        assert ad.grad_check(f, [w, b]) <= 1e-4


def dg_internal(man, pts):
    from hgcl import diffgeo as dg
    return dg.ambient_to_internal(man, pts)


class TestTotalLoss:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((8, 2)))
        labels = np.array([0, 1] * 4)
        mask = np.ones(8, dtype=bool)
        ce = total_loss(logits, labels, mask, None, 0.0)
        assert ce.item() == pytest.approx(math.log(2.0), abs=1e-12)
        logits3 = Tensor(np.full((6, 3), 0.37))
        ce3 = total_loss(logits3, np.array([0, 1, 2] * 2), np.ones(6, dtype=bool), None, 0.0)
        assert ce3.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_lambda_zero_equals_pure_ce(self, rng):
        logits = Tensor(rng.standard_normal((5, 3)))
        labels = np.array([0, 1, 2, 1, 0])
        mask = np.array([True, True, False, True, False])
        hpc_val = Tensor(np.array([[123.0]]))
        assert total_loss(logits, labels, mask, hpc_val, 0.0).item() == \
            cross_entropy(logits, labels, mask).item()

    def test_additivity(self, rng):
        logits = Tensor(rng.standard_normal((4, 2)))
        labels = np.array([0, 1, 0, 1])
        mask = np.ones(4, dtype=bool)
        ce = cross_entropy(logits, labels, mask).item()
        got = total_loss(logits, labels, mask, Tensor(np.array([[0.5]])), 1.0).item()
        assert got == pytest.approx(ce + 0.5, abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(PipelineError):
            cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(3, dtype=int),
                          np.zeros(3, dtype=bool))


class TestMetrics:
    def test_all_correct(self):
        pred = np.array([0, 1, 1, 0])
        assert pl.accuracy_score(pred, pred) == 1.0
        assert pl.macro_f1_score(pred, pred, 2) == 1.0

    def test_degenerate_single_class_prediction(self):
        pred = np.zeros(10, dtype=int)
        labels = np.repeat([0, 1], 5)
        assert pl.accuracy_score(pred, labels) == 0.5
        assert pl.macro_f1_score(pred, labels, 2) == pytest.approx(0.5 * (2.0 / 3.0))

    def test_invariant_under_node_reordering(self, rng):
        pred = rng.integers(0, 3, 30)
        labels = rng.integers(0, 3, 30)
        perm = rng.permutation(30)
        assert pl.accuracy_score(pred, labels) == pl.accuracy_score(pred[perm], labels[perm])
        assert pl.macro_f1_score(pred, labels, 3) == \
            pl.macro_f1_score(pred[perm], labels[perm], 3)

    def test_macro_f1_equals_the_per_class_loop(self, rng):
        def reference(pred, labels, n_classes):
            f1s = []
            for c in range(n_classes):
                tp = float(np.sum((pred == c) & (labels == c)))
                fp = float(np.sum((pred == c) & (labels != c)))
                fn = float(np.sum((pred != c) & (labels == c)))
                prec = tp / (tp + fp) if tp + fp > 0 else 0.0
                rec = tp / (tp + fn) if tp + fn > 0 else 0.0
                f1s.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
            return float(np.mean(f1s))

        absent = {"pred": 0, "labels": 0, "both": 0}
        for _ in range(500):
            n_classes = int(rng.integers(1, 8))
            size = int(rng.integers(1, 30))
            # drawing from random subsets leaves classes out of pred, labels or both
            pred = rng.choice(rng.choice(n_classes, int(rng.integers(1, n_classes + 1))), size)
            labels = rng.choice(rng.choice(n_classes, int(rng.integers(1, n_classes + 1))), size)
            in_pred, in_labels = set(pred.tolist()), set(labels.tolist())
            for c in range(n_classes):
                absent["pred"] += c not in in_pred and c in in_labels
                absent["labels"] += c in in_pred and c not in in_labels
                absent["both"] += c not in in_pred | in_labels
            assert pl.macro_f1_score(pred, labels, n_classes) == reference(pred, labels,
                                                                           n_classes)
        assert min(absent.values()) > 0

    def test_metrics_range_validated(self):
        with pytest.raises(PipelineError):
            Metrics(accuracy=1.4, macro_f1=0.0)


class TestTrain:
    def test_same_seed_identical_history(self):
        g = tree_graph()
        r1 = train(g, small_config())
        r2 = train(g, small_config())
        assert [rec.to_json() for rec in r1.history] == [rec.to_json() for rec in r2.history]
        assert r1.test_metrics == r2.test_metrics

    def test_tree_training_reaches_095_train_accuracy(self):
        for seed in range(5):
            g = tree_graph(b=2, h=5, noise=0.1, seed=seed)
            cfg = TrainConfig(hidden_dim=8, embed_dim=8, epochs=200, patience=200,
                              seed=seed, checkpoint="last")
            res = train(g, cfg)
            acc = evaluate(res.model, g, g.train_mask).accuracy
            assert acc >= 0.95, f"seed {seed}: train accuracy {acc:.3f}"

    def test_no_hpc_skips_plan_construction(self):
        g = tree_graph()
        res = train(g, small_config(ablation="no_hpc"))
        assert res.plan_builds == 0
        res_full = train(g, small_config())
        assert res_full.plan_builds == res_full.epochs_run

    def test_lambda_zero_matches_no_hpc_bitwise(self):
        g = tree_graph()
        a = train(g, small_config(lambda_contrast=0.0,
                                  hpc=HpcConfig(lambda_neg=9.9, bias=0.1)))
        b = train(g, small_config(lambda_contrast=0.0,
                                  hpc=HpcConfig(num_negatives=7, temperature=3.0)))
        c = train(g, small_config(ablation="no_hpc"))
        assert [r.to_json() for r in a.history] == [r.to_json() for r in b.history] \
            == [r.to_json() for r in c.history]

    def test_missing_masks_rejected(self):
        g = synthetic_tree(2, 3, d_feat=8)
        with pytest.raises(PipelineError):
            train(g, small_config())

    def test_early_stopping_respects_patience(self):
        g = tree_graph()
        res = train(g, small_config(epochs=200, patience=5))
        assert res.epochs_run <= 200
        assert res.best_epoch <= res.epochs_run - 1

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_features_are_lifted_once_per_view(self, lift_calls, epochs):
        g = tree_graph()
        res = train(g, small_config(epochs=epochs, patience=epochs))
        assert res.epochs_run == epochs
        assert len(lift_calls) == 2
        assert all(f is g.features for f in lift_calls)
        assert res.model.encoder_alpha._memo is None
        assert res.model.encoder_beta._memo is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_encoder_failure_names_epoch_and_stage(self):
        g = masked(synthetic_tree(3, 4, noise=1.0), seed=0)
        cfg = TrainConfig(epochs=30, patience=30, lr=100.0, grad_clip=1e9)
        with pytest.raises(PipelineError, match=r"^epoch 0, validation: layer 1: non-finite "
                                                r"values produced by 'sinh'") as info:
            train(g, cfg)
        assert isinstance(info.value.__cause__, EncoderError)

    def test_training_step_failure_names_epoch_and_stage(self, monkeypatch):
        real, calls = pl.hpc_loss, []

        def failing_on_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise ad.NonFiniteError("non-finite values produced by 'log'")
            return real(*args)

        monkeypatch.setattr(pl, "hpc_loss", failing_on_third)
        with pytest.raises(PipelineError, match=r"^epoch 2, training step: non-finite") as info:
            train(tree_graph(), small_config())
        assert isinstance(info.value.__cause__, ad.NonFiniteError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_pair_distance_names_epoch_and_stage(self, monkeypatch):
        # Both views on one ball, so transfer0 is the identity and the first op
        # to see the blown-up rows is the fused pair primitive, whose clamped
        # sigma would otherwise turn d = inf into a finite loss.
        real, calls = pl.hpc_loss, []

        def blown_up_on_third(emb, *rest):
            calls.append(None)
            if len(calls) == 3:
                emb = DualEmbedding(ad.scalar_mul(emb.alpha, 1e200), emb.beta,
                                    emb.manifold_alpha, emb.manifold_beta)
            return real(emb, *rest)

        monkeypatch.setattr(pl, "hpc_loss", blown_up_on_third)
        cfg = small_config(kind_beta="poincare", curvature_beta=-1.0)
        with pytest.raises(PipelineError, match=r"^epoch 2, training step: non-finite values "
                                                r"produced by 'pair_log_probs'") as info:
            train(tree_graph(), cfg)
        assert isinstance(info.value.__cause__, ad.NonFiniteError)

    def test_evaluate_empty_mask_rejected(self):
        g = tree_graph()
        res = train(g, small_config())
        with pytest.raises(PipelineError):
            evaluate(res.model, g, np.zeros(g.n_nodes, dtype=bool))


@st.composite
def small_datasets(draw):
    """Up to 16 nodes cut into up to 5 parts, each a random tree with extra
    pairs or a run of isolated nodes; 1-3 classes, 1-4 features, any ablation."""
    n = draw(st.integers(1, 16))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    edges = []
    for part in np.split(np.array(order, dtype=np.int64), cuts):
        part = part.tolist()
        if len(part) > 1 and draw(st.booleans()):
            picks = draw(st.lists(st.integers(0, 10**6), min_size=len(part), max_size=len(part)))
            edges += [(part[k], part[picks[k] % k]) for k in range(1, len(part))]
            node = st.sampled_from(part)
            edges += draw(st.lists(st.tuples(node, node), max_size=len(part)))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    width = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(-2, 2), min_size=n * width, max_size=n * width))
    return (data_mod.Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                           np.array(values).reshape(n, width), np.array(labels)),
            draw(st.sampled_from(pl.ABLATIONS)), draw(st.integers(0, 3)))


class TestSmallRandomGraphs:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_datasets())
    def test_trains_or_fails_before_the_first_step(self, case):
        graph, ablation, seed = case
        with tempfile.TemporaryDirectory() as tmp:
            data_mod.save_graph(tmp, graph)
            try:
                graph = data_mod.load_graph(tmp, split_seed=seed)
            except data_mod.DataError:
                return  # a named error at load time
        steps, real_step = [], pl.Adam.step

        def counting_step(opt):
            steps.append(None)
            return real_step(opt)

        cfg = small_config(hidden_dim=4, embed_dim=4, epochs=3, patience=3, seed=seed,
                           ablation=ablation)
        with mock.patch.object(pl.Adam, "step", counting_step):
            try:
                result = train(graph, cfg)
            except (SamplingError, PipelineError) as exc:
                assert not steps, f"failed after {len(steps)} training steps: {exc}"
                return
        assert len(steps) == result.epochs_run == len(result.history) >= 1
        assert all(math.isfinite(rec.total_loss) for rec in result.history)


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        g = tree_graph()
        res = train(g, small_config())
        path = tmp_path / "model.npz"
        res.model.save(path)
        again = HgclModel.load(path)
        a_norm = normalize_adjacency(g)
        np.testing.assert_array_equal(pl.predictions(res.model, g, a_norm),
                                      pl.predictions(again, g, a_norm))
        assert again.config == res.model.config


class TestHeatmap:
    def test_matrix_properties_and_csv(self, tmp_path):
        g = tree_graph()
        res = train(g, small_config())
        ids = pl.default_heatmap_nodes(g, per_class=5, n_classes=2)
        out = tmp_path / "heat.csv"
        dist = export_heatmap(res.model, g, ids, "alpha", out)
        assert np.max(np.abs(np.diag(dist))) == 0.0
        assert np.max(np.abs(dist - dist.T)) <= 1e-9
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "id" and header[-1] == "label"
        assert len(rows) == len(ids) + 1
        first = rows[1].split(",")
        assert first[-1] in {"0", "1"}

    def test_csv_bytes_match_csv_writer_and_no_temp_file(self, tmp_path):
        g = tree_graph()
        res = train(g, small_config(epochs=3, patience=3))
        ids = np.array([4, 0, 7, 3, 12])
        out = tmp_path / "heat.csv"
        out.write_text("stale contents that must be replaced\n")
        dist = export_heatmap(res.model, g, ids, "beta", out)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)  # reference: one f-string per cell, csv.writer rows
        writer.writerow(["id"] + [str(i) for i in ids] + ["label"])
        for row_i, nid in enumerate(ids):
            writer.writerow([str(nid)] + [f"{d:.12g}" for d in dist[row_i]]
                            + [str(int(g.labels[nid]))])
        assert out.read_bytes() == ref.getvalue().encode()
        assert [p.name for p in tmp_path.iterdir()] == ["heat.csv"]

    def test_unknown_node_id_rejected(self, tmp_path):
        g = tree_graph()
        res = train(g, small_config())
        with pytest.raises(PipelineError):
            export_heatmap(res.model, g, [0, 9999], "alpha", tmp_path / "x.csv")

    def test_view_selection(self, tmp_path):
        g = tree_graph()
        res = train(g, small_config())
        ids = np.arange(6)
        d_a = export_heatmap(res.model, g, ids, "alpha", tmp_path / "a.csv")
        d_b = export_heatmap(res.model, g, ids, "beta", tmp_path / "b.csv")
        assert np.max(np.abs(d_a - d_b)) > 1e-6  # genuinely different views
