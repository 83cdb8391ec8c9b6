"""Decoder, combined objective, training loop, metrics, heatmap export."""

import csv
import gc
import io
import json
import math
import tempfile
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bag_of_words_graph, masked
from hgcl import autodiff as ad
from hgcl import data as data_mod
from hgcl import diffgeo as dg
from hgcl import encoder as enc_mod
from hgcl import manifolds as mf
from hgcl import pipeline as pl
from hgcl.autodiff import Tensor
from hgcl.data import normalize_adjacency, synthetic_tree
from hgcl.encoder import VIEWS, DualEmbedding, EncoderError
from hgcl.hpc import HpcConfig, SamplingError
from hgcl.pipeline import (HgclModel, Metrics, PipelineError, TrainConfig, cross_entropy,
                           decode, evaluate, export_heatmap, total_loss, train)


DATA = Path(__file__).parent / "data"


def small_config(**kw):
    base = dict(hidden_dim=8, embed_dim=8, epochs=20, patience=20, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def tree_graph(b=2, h=4, noise=0.3, seed=1, fractions=(0.6, 0.2, 0.2)):
    g = synthetic_tree(b, h, d_feat=8, noise=noise, seed=seed)
    return masked(g, fractions, seed=seed)


def fresh_logits(model, graph):
    """Class logits of an untaped forward of ``model`` on ``graph``."""
    emb = model.embed(graph, normalize_adjacency(graph))
    return decode(emb, model.dec_weight, model.dec_bias).value


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

    def test_negative_seed_rejected(self):
        with pytest.raises(PipelineError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    def test_round_trips_through_dict(self):
        cfg = small_config(ablation="no_dist", hpc=HpcConfig(lambda_neg=0.25))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_no_dist_swaps_similarity(self):
        cfg = small_config(ablation="no_dist")
        assert cfg.effective_hpc().similarity == "neg_dot"
        assert small_config().effective_hpc().similarity == "distance"


def load_edited_state(edit):
    model = HgclModel(small_config(), 8, 2)
    model.load_state_arrays(edit(model.state_arrays()))


@pytest.mark.parametrize("call, message", [
    (lambda: small_config(eval_metric="auc"), "unknown eval_metric 'auc'"),
    (lambda: small_config(checkpoint="first"), "checkpoint must be 'best' or 'last', got 'first'"),
    (lambda: load_edited_state(lambda arrays: arrays[:-1]),
     "checkpoint parameter count mismatch"),
    (lambda: load_edited_state(lambda arrays: [np.zeros((1, 1))] + arrays[1:]),
     "checkpoint shape mismatch"),
], ids=["eval-metric", "checkpoint", "state-count", "state-shape"])
def test_named_pipeline_errors(call, message):
    with pytest.raises(PipelineError) as info:
        call()
    assert info.type is PipelineError and str(info.value) == message


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
        ce, _ = total_loss(logits, labels, mask, None, 0.0)
        assert ce.item() == pytest.approx(math.log(2.0), abs=1e-12)
        logits3 = Tensor(np.full((6, 3), 0.37))
        ce3, _ = total_loss(logits3, np.array([0, 1, 2] * 2), np.ones(6, dtype=bool), None, 0.0)
        assert ce3.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_lambda_zero_equals_pure_ce(self, rng):
        logits = Tensor(rng.standard_normal((5, 3)))
        labels = np.array([0, 1, 2, 1, 0])
        mask = np.array([True, True, False, True, False])
        hpc_val = Tensor(np.array([[123.0]]))
        assert total_loss(logits, labels, mask, hpc_val, 0.0)[0].item() == \
            cross_entropy(logits, labels, mask).item()

    def test_additivity(self, rng):
        logits = Tensor(rng.standard_normal((4, 2)))
        labels = np.array([0, 1, 0, 1])
        mask = np.ones(4, dtype=bool)
        ce = cross_entropy(logits, labels, mask).item()
        got, ce_term = total_loss(logits, labels, mask, Tensor(np.array([[0.5]])), 1.0)
        assert got.item() == pytest.approx(ce + 0.5, abs=1e-12)
        assert ce_term.item() == ce

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
            acc = evaluate(g, g.train_mask, fresh_logits(res.model, g)).accuracy
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

    def test_lambda_neg_zero_metric_stream_is_unchanged(self):
        # Recorded when lambda_neg = 0 still drew m negatives per anchor and
        # dropped them from the pools: sampling none must not move it.
        res = train(tree_graph(), small_config(epochs=5, patience=5,
                                               hpc=HpcConfig(lambda_neg=0.0)))
        assert [rec.to_json() for rec in res.history] == [
            '{"epoch": 0, "hpc_loss": 0.580458962, "task_loss": 0.7011118318, '
            '"total_loss": 1.2815707938, "val_metric": 0.6666666667}',
            '{"epoch": 1, "hpc_loss": 0.5271913865, "task_loss": 0.6816619952, '
            '"total_loss": 1.2088533817, "val_metric": 1.0}',
            '{"epoch": 2, "hpc_loss": 0.4875432229, "task_loss": 0.6654338449, '
            '"total_loss": 1.1529770678, "val_metric": 1.0}',
            '{"epoch": 3, "hpc_loss": 0.4599041412, "task_loss": 0.6516015825, '
            '"total_loss": 1.1115057236, "val_metric": 0.8333333333}',
            '{"epoch": 4, "hpc_loss": 0.443841506, "task_loss": 0.6390739302, '
            '"total_loss": 1.0829154361, "val_metric": 0.8333333333}',
        ]

    def test_lambda_neg_zero_draws_no_negatives(self, monkeypatch):
        # A star's hub has no non-neighbour, so m = 5 draws would fail before
        # the first step; at lambda_neg = 0 nothing scores a negative, none is
        # drawn, and the star trains.
        n = 12
        g = masked(data_mod.Graph(n, np.array([(0, j) for j in range(1, n)]),
                                  np.random.default_rng(0).standard_normal((n, 4)),
                                  np.arange(n) % 2))
        plans, real_build = [], pl.build_sample_plan

        def recording_build(*args):
            plans.append(real_build(*args))
            return plans[-1]

        monkeypatch.setattr(pl, "build_sample_plan", recording_build)
        res = train(g, small_config(epochs=3, patience=3, hpc=HpcConfig(lambda_neg=0.0)))
        assert len(plans) == res.epochs_run == 3
        assert all(p.neg_intra.size == p.neg_inter.size == 0 for p in plans)

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
    def test_features_are_lifted_once_per_train_call(self, monkeypatch, lift_calls, epochs):
        messages, real = [], pl.encode_views

        def recording(message, *rest):
            messages.append(message)
            return real(message, *rest)

        monkeypatch.setattr(pl, "encode_views", recording)
        g = tree_graph()
        res = train(g, small_config(epochs=epochs, patience=epochs))
        assert res.epochs_run == epochs
        assert len(lift_calls) == 1 and lift_calls[0] is g.features
        assert len(messages) == epochs + 1  # one per forward, both views read it
        assert all(m is messages[0] for m in messages)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_encoder_failure_names_epoch_and_stage(self):
        g = masked(synthetic_tree(3, 4, noise=1.0), seed=0)
        cfg = TrainConfig(epochs=30, patience=30, lr=100.0, grad_clip=1e9)
        with pytest.raises(PipelineError, match=r"^epoch 0, validation: layer 1: non-finite "
                                                r"values produced by 'exp0'") as info:
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
            evaluate(g, np.zeros(g.n_nodes, dtype=bool), fresh_logits(res.model, g))


class TestFirstLayerInput:
    def test_ball_at_k_minus_4_reads_the_clamped_features_exactly(self):
        # On the ball at K = -4, tanh saturates at tangent norm 8 and artanh
        # clips, so a log0(exp0(.)) round trip reads a clamped row ~11% short.
        g = tree_graph()
        feats = g.features.copy()
        feats[3] *= 20.0 / np.linalg.norm(feats[3])
        g = data_mod.Graph(g.n_nodes, g.edges, feats, g.labels,
                           g.train_mask, g.val_mask, g.test_mask)
        model = HgclModel(small_config(num_layers=1, curvature_alpha=-4.0),
                          feats.shape[1], g.n_classes)
        a_norm = normalize_adjacency(g)
        cap = model.config.max_feature_norm
        norms = np.sqrt(np.sum(feats * feats, axis=1, keepdims=True))
        clamped = feats * np.where(norms > cap, cap / norms, 1.0)
        w, b = model.encoder_alpha.parameters()
        expect = ad.affine(Tensor(np.asarray(a_norm @ clamped)), w, b)
        emb = model.embed(g, a_norm)
        assert np.array_equal(emb.tangent("alpha").value, expect.value)
        assert np.array_equal(emb.alpha.value, dg.exp0(emb.manifold_alpha, expect).value)

    def test_tree_metric_stream_is_unchanged(self):
        # The metric stream perfbench compares, recorded before the CSR route
        # existed: tree features keep the dense message, so it must not move.
        g = tree_graph()
        assert not enc_mod.csr_route(g.features, normalize_adjacency(g))
        res = train(g, small_config(epochs=5, patience=5))
        assert [rec.to_json() for rec in res.history] == [
            '{"epoch": 0, "hpc_loss": 8.3066822154, "task_loss": 0.7011118318, '
            '"total_loss": 9.0077940472, "val_metric": 0.5}',
            '{"epoch": 1, "hpc_loss": 7.8943504702, "task_loss": 0.6874612133, '
            '"total_loss": 8.5818116835, "val_metric": 0.6666666667}',
            '{"epoch": 2, "hpc_loss": 7.444248658, "task_loss": 0.6706292155, '
            '"total_loss": 8.1148778735, "val_metric": 0.8333333333}',
            '{"epoch": 3, "hpc_loss": 6.9934436362, "task_loss": 0.6508775472, '
            '"total_loss": 7.6443211834, "val_metric": 1.0}',
            '{"epoch": 4, "hpc_loss": 6.4647562838, "task_loss": 0.6282314579, '
            '"total_loss": 7.0929877418, "val_metric": 1.0}',
        ]

    def test_csr_route_history_matches_the_dense_route(self, monkeypatch):
        g = masked(bag_of_words_graph())
        assert enc_mod.csr_route(g.features, normalize_adjacency(g))
        cfg = small_config(epochs=8, patience=8)
        sparse_run = train(g, cfg)
        monkeypatch.setattr(enc_mod, "csr_route", lambda x, a_norm: False)
        dense_run = train(g, cfg)
        fields = ("task_loss", "hpc_loss", "total_loss", "val_metric")
        got = np.array([[getattr(r, f) for f in fields] for r in sparse_run.history])
        want = np.array([[getattr(r, f) for f in fields] for r in dense_run.history])
        assert got.shape == (8, 4)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)
        assert sparse_run.test_metrics == dense_run.test_metrics

    @pytest.mark.parametrize("graph", [tree_graph, lambda: masked(bag_of_words_graph())],
                             ids=["dense", "csr"])
    def test_feature_width_mismatch_named_before_any_forward(self, monkeypatch, tmp_path,
                                                             graph):
        g = graph()
        model = HgclModel(small_config(), g.features.shape[1] + 4, g.n_classes)
        monkeypatch.setattr(pl, "encode_views", mock.Mock(side_effect=AssertionError))
        width = g.features.shape[1]
        message = f"the model takes {width + 4}-wide features, the graph has {width}-wide"
        for run in (lambda: model.embed(g, normalize_adjacency(g)),
                    lambda: pl.predictions(model, g),
                    lambda: export_heatmap(model, g, [0, 1], "alpha", tmp_path / "h.csv")):
            with pytest.raises(PipelineError, match=message):
                run()
        assert not (tmp_path / "h.csv").exists()

    def test_short_negative_pool_named_before_any_forward(self, monkeypatch):
        n = 12  # a star: hub 0 has no non-neighbour, so no m=5 negatives
        g = masked(data_mod.Graph(n, np.array([(0, j) for j in range(1, n)]),
                                  np.random.default_rng(0).standard_normal((n, 4)),
                                  np.arange(n) % 2))
        monkeypatch.setattr(pl, "encode_views", mock.Mock(side_effect=AssertionError))
        with pytest.raises(SamplingError, match="^anchor 0: negative pool has 0 nodes < m=5; "
                                                "1 of 12 anchors are short$"):
            train(g, small_config(epochs=2, patience=2))


class TestOneForwardPerWeightState:
    """``train`` forwards each weight state once, on a tape: the forward after
    epoch e's step is epoch e's validation pass and epoch e + 1's input."""

    @pytest.mark.parametrize("checkpoint, epochs, patience", [
        ("best", 12, 12), ("last", 12, 12), ("best", 200, 3), ("last", 200, 3),
    ])
    def test_forwards_are_epochs_run_plus_one(self, monkeypatch, checkpoint, epochs, patience):
        calls, real = [], pl.decode

        def counting_decode(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(pl, "decode", counting_decode)
        res = train(tree_graph(), small_config(epochs=epochs, patience=patience,
                                               checkpoint=checkpoint))
        if patience < epochs:
            assert res.epochs_run < epochs  # early stopping did cut the run
        assert len(calls) == res.epochs_run + 1

    @pytest.mark.parametrize("checkpoint", ["best", "last"])
    def test_final_metrics_equal_a_fresh_forward(self, checkpoint):
        g = tree_graph()
        res = train(g, small_config(epochs=60, patience=5, checkpoint=checkpoint))
        logits = fresh_logits(res.model, g)
        assert res.val_metrics == evaluate(g, g.val_mask, logits)
        assert res.test_metrics == evaluate(g, g.test_mask, logits)

    def test_evaluate_with_logits_equals_without(self):
        # evaluate scores given logits; predictions runs its own forward
        g = tree_graph()
        res = train(g, small_config(epochs=5, patience=5))
        pred, logits = pl.predictions(res.model, g), fresh_logits(res.model, g)
        for mask in (g.train_mask, g.val_mask, g.test_mask):
            assert evaluate(g, mask, logits) == Metrics(
                accuracy=pl.accuracy_score(pred[mask], g.labels[mask]),
                macro_f1=pl.macro_f1_score(pred[mask], g.labels[mask], g.n_classes))

    @pytest.mark.parametrize("failing_call, where", [
        (1, "epoch 0, training step"), (2, "epoch 0, validation"), (3, "epoch 1, validation"),
    ])
    def test_non_finite_forward_names_epoch_and_stage(self, monkeypatch, failing_call, where):
        calls, steps, real = [], [], pl.decode
        real_step = pl.Adam.step

        def blown_up(*args):
            calls.append(None)
            out = real(*args)
            return ad.scalar_mul(out, math.inf) if len(calls) == failing_call else out

        def counting_step(opt):
            steps.append(None)
            return real_step(opt)

        monkeypatch.setattr(pl, "decode", blown_up)
        monkeypatch.setattr(pl.Adam, "step", counting_step)
        with pytest.raises(PipelineError, match=f"^{where}: non-finite values produced by "
                                                "'scalar_mul'") as info:
            train(tree_graph(), small_config())
        assert isinstance(info.value.__cause__, ad.NonFiniteError)
        assert len(steps) == failing_call - 1

    def test_each_step_graph_is_freed_before_the_next_forward(self, monkeypatch):
        # Tensors have __slots__ and take no weak reference; the step's Tape
        # and its loss value array do.
        stepped, real_loss, real_decode = [], pl.total_loss, pl.decode

        def recording_loss(*args):
            loss, task = real_loss(*args)
            stepped.extend([weakref.ref(ad.Tape.current()), weakref.ref(loss.value)])
            return loss, task

        def checking_decode(*args):
            assert all(ref() is None for ref in stepped), "an earlier step's graph is alive"
            return real_decode(*args)

        monkeypatch.setattr(pl, "total_loss", recording_loss)
        monkeypatch.setattr(pl, "decode", checking_decode)
        gc.disable()  # reference counting alone must free the graph
        try:
            res = train(tree_graph(), small_config(epochs=4, patience=4))
        finally:
            gc.enable()
        assert len(stepped) == 2 * res.epochs_run == 8


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


class TestTapeSize:
    """One training step on ``synthetic_tree(3, 5)``: each dense encoder
    layer is one ``affine`` node, each view takes one ``exp0`` and no
    ``log0``, and the decoder and the contrastive term read the tangent the
    encoder carries."""

    @pytest.mark.parametrize("ablation, n_exp0, n_log0, n_nodes", [
        ("full", 4, 0, 21),  # 2 encoder exp0 + 2 transfers
        ("no_hpc", 2, 0, 11),
        ("no_dist", 2, 0, 19),  # the pool nodes scale the moved tangents themselves
    ])
    def test_one_step(self, monkeypatch, log0_calls, ablation, n_exp0, n_log0, n_nodes):
        stage, tangents, before_ce = [None], [], []
        real_tangent, real_ce = DualEmbedding.tangent, pl.cross_entropy

        def within(name, fn):
            def wrapped(*args, **kwargs):
                stage.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stage.pop()
            return wrapped

        def recording_tangent(self, view):
            out = real_tangent(self, view)
            if ad.Tape.current() is not None:
                tangents.append((ad.Tape.current(), stage[-1], view, out))
            return out

        def counting_ce(*args):
            before_ce.append((ad.Tape.current(), list(ad.Tape.current().nodes)))
            return real_ce(*args)

        monkeypatch.setattr(DualEmbedding, "tangent", recording_tangent)
        monkeypatch.setattr(pl, "decode", within("decode", pl.decode))
        monkeypatch.setattr(pl, "hpc_loss", within("hpc_loss", pl.hpc_loss))
        monkeypatch.setattr(pl, "cross_entropy", counting_ce)
        train(masked(synthetic_tree(3, 5)), TrainConfig(epochs=1, patience=1, ablation=ablation))

        [(tape, nodes)] = before_ce
        ops = Counter(node._op for node in nodes)
        assert (ops["exp0"], len(log0_calls), len(nodes)) == (n_exp0, n_log0, n_nodes)
        assert (ops["affine"], ops["tanh"]) == (4, 0)  # 2 layers x 2 views
        readers = {"decode", "hpc_loss"} if ablation != "no_hpc" else {"decode"}
        for view in ("alpha", "beta"):
            # the post-step forward records its own decode tangents on a new tape
            seen = [(where, t) for on, where, v, t in tangents if v == view and on is tape]
            assert {where for where, _ in seen} == readers
            assert all(t is seen[0][1] for _, t in seen)
            assert any(node is seen[0][1] for node in nodes)  # the encoder's own node

    def test_csr_route_step(self, monkeypatch):
        # On CSR features the first layer is one affine node on the operator
        # a_norm · X, like every dense layer; only the second layers aggregate.
        before_ce, real_ce = [], pl.cross_entropy

        def counting_ce(*args):
            before_ce.append(list(ad.Tape.current().nodes))
            return real_ce(*args)

        monkeypatch.setattr(pl, "cross_entropy", counting_ce)
        g = masked(bag_of_words_graph())
        assert enc_mod.csr_route(g.features, normalize_adjacency(g))
        train(g, small_config(epochs=1, patience=1))
        ops = Counter(node._op for node in before_ce[0])
        assert (ops["affine"], ops["aggregate"], ops["tanh"], ops["exp0"]) == (4, 2, 0, 4)
        assert ops["scalar_mul"] == 1  # the loss scale; the transfers fold theirs in

    @pytest.mark.parametrize("ablation, n_bytes", [
        ("full", 604_696),
        ("no_hpc", 511_432),
        ("no_dist", 511_512),
    ])
    def test_node_output_bytes(self, monkeypatch, ablation, n_bytes):
        # The bytes of every node output a step's backward reads, cross-entropy
        # included; the fused nodes' own backward arrays are not counted.
        seen, real = [], ad.Tape.backward

        def counting(tape, loss):
            seen.append(sum(node.value.nbytes for node in tape.nodes))
            return real(tape, loss)

        monkeypatch.setattr(ad.Tape, "backward", counting)
        train(masked(synthetic_tree(3, 5)), TrainConfig(epochs=1, patience=1, ablation=ablation))
        assert seen == [n_bytes]

    @pytest.mark.parametrize("ablation", ["full", "no_dist"])
    def test_backward_leaves_no_closure(self, monkeypatch, ablation):
        # What a node keeps for its backward is freed once the walk passes it.
        tapes, real = [], ad.Tape.backward

        def recording(tape, loss):
            tapes.append(tape)
            return real(tape, loss)

        monkeypatch.setattr(ad.Tape, "backward", recording)
        train(masked(synthetic_tree(3, 5)), TrainConfig(epochs=1, patience=1, ablation=ablation))
        [tape] = tapes
        assert Counter(node._op for node in tape.nodes)["pair_log_probs"] == 4
        assert all(node._backward_fn is None and node.grad is None for node in tape.nodes)


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

    def test_bare_name_gets_the_npz_suffix(self, tmp_path):
        g = tree_graph()
        model = HgclModel(small_config(), g.features.shape[1], g.n_classes)
        model.save(tmp_path / "model")
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        again = HgclModel.load(tmp_path / "model.npz")
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.state_arrays(), model.state_arrays()))

    def test_a_checkpoint_written_with_the_origin_round_trip_loads_and_predicts(self):
        # Written by the encoder whose layers mapped each hidden output through
        # exp0 and back through log0, from train(tree_graph(), small_config()):
        # per encoder each layer's W and b, then the decoder's, in the order of
        # HgclModel.parameters(). The predictions are the ones that version made.
        g = tree_graph()
        model = HgclModel.load(DATA / "tree_checkpoint_exp0_log0_layers.npz")
        assert [p.value.shape for p in model.parameters()] == (
            [(8, 8), (1, 8), (8, 8), (1, 8)] * 2 + [(16, 2), (1, 2)])
        assert pl.predictions(model, g).tolist() == [
            1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0,
            0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def g12_text(values) -> bytes:
    """``pl._format_g12`` of ``values``, spaces removed as the CSV does."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((values.size, 22), dtype=np.uint8)
    pl._format_g12(values, out)
    return out.tobytes().translate(None, b" ")


def g12_reference(values) -> bytes:
    return b"".join(b"%-21.12g," % v for v in values).translate(None, b" ")


def listed_g12_edges() -> list[float]:
    powers = [10.0 ** k for k in range(-5, 13)] + [float(f"1e{k}") for k in range(-5, 13)]
    # Decimals with a 5 in the 13th significant digit: the doubles nearest
    # them sit within one rounding of a 12-digit tie.
    ties = [float("9.9999999999995"), float("0.0001234567890125"),
            float("99999999999.99995"), float("0.00099999999999995"),
            float("1.0000000000005"), float("12345678901.25")]
    ties += [float(f"{d}5e{e}") for d in (100000000000, 314159265358, 999999999999)
             for e in range(-17, 0)]
    near = powers + ties
    return ([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
             -1.5, 1e-4 / 2, 1e11 * 3]
            + near + [np.nextafter(v, 0.0) for v in near] + [np.nextafter(v, math.inf)
                                                            for v in near])


class TestFormatG12:
    """The heatmap's array formatter against ``%-21.12g``: the same bytes
    once the padding spaces are removed."""

    def test_listed_edges(self):
        values = listed_g12_edges()
        assert g12_text(values) == g12_reference(values)

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponent_estimate_is_corrected_both_ways(self, monkeypatch, shift):
        # A log10 that rounds the other way near a power of ten gives an
        # exponent one too low or too high; shifting it by half a decade
        # does that to every value.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v) + shift)
        values = listed_g12_edges() + np.geomspace(1e-4, 1e11, 400).tolist()
        assert g12_text(values) == g12_reference(values)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 1e11), st.floats(0.0, 50.0)),
                    min_size=1, max_size=40))
    def test_any_doubles(self, values):
        assert g12_text(values) == g12_reference(values)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(10**11, 10**12 - 1), st.integers(-16, -1), st.integers(-2, 2))
    def test_near_ties(self, digits, exp, ulps):
        # the double nearest digits.5 * 10**exp, and its neighbours
        v = float(f"{digits}5e{exp}")
        for _ in range(abs(ulps)):
            v = np.nextafter(v, math.copysign(math.inf, ulps))
        assert g12_text([v]) == g12_reference([v])


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
        out = tmp_path / "heat.csv"
        # 0, 1 and 2 nodes, a repeated id (an off-diagonal cell of one node)
        for ids in ([4, 0, 7, 3, 12], [], [5], [9, 2], [6, 1, 6, 0]):
            ids = np.array(ids, dtype=np.int64)
            for view in VIEWS:
                out.write_text("stale contents that must be replaced\n")
                dist = export_heatmap(res.model, g, ids, view, out)
                assert dist.shape == (len(ids), len(ids))
                np.testing.assert_array_equal(dist, dist.T)
                ref = io.StringIO(newline="")
                writer = csv.writer(ref)  # reference: one f-string per cell, csv.writer rows
                writer.writerow(["id"] + [str(i) for i in ids] + ["label"])
                for row_i, nid in enumerate(ids):
                    writer.writerow([str(nid)] + [f"{d:.12g}" for d in dist[row_i]]
                                    + [str(int(g.labels[nid]))])
                assert out.read_bytes() == ref.getvalue().encode()
                assert [p.name for p in tmp_path.iterdir()] == ["heat.csv"]

    def test_only_the_exported_nodes_are_validated(self, tmp_path):
        # At K = -1000 the ball's radius is 0.0316: after 30 epochs 286 of
        # the tree's 364 alpha points round onto its boundary.
        g = masked(synthetic_tree(3, 5, noise=1.0))
        res = train(g, TrainConfig(curvature_alpha=-1000.0, epochs=30, patience=30))
        emb = res.model.embed(g, normalize_adjacency(g))
        with pytest.raises(mf.GeometryError) as info:
            emb.points("alpha")
        bad = info.value.rows
        good = np.setdiff1d(np.arange(g.n_nodes), bad)[:5]
        assert bad.size == 286 and good.size == 5
        dist = export_heatmap(res.model, g, good, "alpha", tmp_path / "good.csv")
        # ball points are their training coordinates
        assert np.array_equal(dist, emb.manifold_alpha.pairwise_dist(emb.alpha.value[good]))
        node = int(bad[3])
        with pytest.raises(mf.GeometryError, match=rf"^view 'alpha': 1 point\(s\) outside the "
                                                   rf"open ball .*; node ids {node}$") as info:
            export_heatmap(res.model, g, [int(good[0]), node], "alpha", tmp_path / "bad.csv")
        assert info.value.rows.tolist() == [node]
        assert not (tmp_path / "bad.csv").exists()

    def test_unknown_node_id_rejected(self, tmp_path):
        g = tree_graph()
        res = train(g, small_config())
        with pytest.raises(PipelineError):
            export_heatmap(res.model, g, [0, 9999], "alpha", tmp_path / "x.csv")

    def test_unknown_view_rejected_before_the_forward(self, tmp_path, monkeypatch):
        g = tree_graph()
        model = HgclModel(small_config(), g.features.shape[1], g.n_classes)
        monkeypatch.setattr(HgclModel, "embed", mock.Mock(side_effect=AssertionError))
        with pytest.raises(PipelineError, match="view must be one of .*'gamma'"):
            export_heatmap(model, g, [0, 1], "gamma", tmp_path / "x.csv")
        assert not HgclModel.embed.called
        assert list(tmp_path.iterdir()) == []

    def test_view_selection(self, tmp_path):
        g = tree_graph()
        res = train(g, small_config())
        ids = np.arange(6)
        d_a = export_heatmap(res.model, g, ids, "alpha", tmp_path / "a.csv")
        d_b = export_heatmap(res.model, g, ids, "beta", tmp_path / "b.csv")
        assert np.max(np.abs(d_a - d_b)) > 1e-6  # genuinely different views
