"""Feature lifting and the two-view tangent-space GNN encoders."""

from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator

from conftest import bag_of_words_graph
from hgcl import autodiff as ad
from hgcl import checks
from hgcl import diffgeo as dg
from hgcl import encoder as enc_mod
from hgcl import manifolds as mf
from hgcl.autodiff import Tensor
from hgcl.data import normalize_adjacency, synthetic_tree
from hgcl.encoder import (DualEmbedding, Encoder, EncoderError, HgnnLayer, csr_route,
                          encode_views, first_message, lift_features)
from hgcl.pipeline import TrainConfig

MAX_NORM = TrainConfig.max_feature_norm


def message(features, a_norm):
    return first_message(features, a_norm, MAX_NORM)[0]


class TestLiftFeatures:
    """Feature rows are origin tangents: the points they stand for are their
    ``exp0``, which the first layer's ``log0`` would map straight back."""

    def test_zero_row_goes_to_origin(self):
        man = mf.lorentz(3, -1.0)
        lifted, clamped = lift_features(np.zeros((2, 3)), MAX_NORM)
        assert clamped == 0
        assert not np.any(lifted)
        pts = dg.internal_to_ambient(man, dg.exp0(man, Tensor(lifted)).value)
        np.testing.assert_allclose(pts, man.origin_rows(2), atol=1e-12)

    @pytest.mark.parametrize("man", [mf.poincare(6, -1.0), mf.lorentz(6, -0.5)],
                             ids=["poincare", "lorentz"])
    def test_outputs_satisfy_model_constraints(self, rng, man):
        x = rng.standard_normal((50, 6)) * 2.0
        lifted, _ = lift_features(x, MAX_NORM)
        man.check_points(dg.internal_to_ambient(man, dg.exp0(man, Tensor(lifted)).value))

    def test_oversize_rows_rescaled_and_counted(self, rng):
        x = rng.standard_normal((10, 4))
        x[3] *= 100.0
        x[7] *= 50.0
        lifted, clamped = lift_features(x, max_norm=5.0)
        assert clamped == 2
        np.testing.assert_allclose(np.linalg.norm(lifted[[3, 7]], axis=1), 5.0, rtol=1e-15)
        np.testing.assert_allclose(lifted[3], x[3] * 5.0 / np.linalg.norm(x[3]), rtol=1e-15)
        keep = np.ones(10, dtype=bool)
        keep[[3, 7]] = False
        assert np.array_equal(lifted[keep], x[keep])

    def test_row_whose_square_overflows_lands_on_the_clamp(self):
        # |x|^2 of these finite rows overflows; they must still be scaled onto
        # the clamp, not to the origin, and the other rows stay bitwise.
        lifted, clamped = lift_features([[1e200, 0.0]], 8.0)
        assert clamped == 1 and np.array_equal(lifted, [[8.0, 0.0]])
        x = np.array([[3e300, -4e300], [0.0, 0.0], [30.0, 40.0], [0.3, 0.4]])
        lifted, clamped = lift_features(x, 5.0)
        assert clamped == 2
        np.testing.assert_allclose(lifted[:3:2], [[3.0, -4.0], [3.0, 4.0]], rtol=1e-15)
        assert np.array_equal(lifted[2], x[2] * (5.0 / 50.0))
        assert np.array_equal(lifted[[1, 3]], x[[1, 3]])

    def test_lorentz_lift_distance_equals_tangent_norm(self, rng):
        man = mf.lorentz(5, -1.3)
        x = rng.standard_normal((30, 5))
        lifted, _ = lift_features(x, max_norm=1e9)
        pts = dg.internal_to_ambient(man, dg.exp0(man, Tensor(lifted)).value)
        d = man.dist(man.origin_rows(30), pts)
        np.testing.assert_allclose(d, np.linalg.norm(x, axis=1), atol=1e-9)

    def test_non_finite_features_rejected(self):
        with pytest.raises(EncoderError):
            lift_features(np.array([[np.nan, 0.0]]), MAX_NORM)


class TestFirstMessage:
    """``first_message`` is ``aggregate(a_norm, clamp(features))``: the
    ``log0(exp0(.))`` round trip it replaces is the identity in exact
    arithmetic (and saturates at large |K|; see ``test_pipeline``)."""

    @pytest.mark.parametrize("man", [mf.poincare(4, -1.0), mf.lorentz(4, -0.5)],
                             ids=["poincare", "lorentz"])
    def test_matches_the_exp0_log0_route_at_the_default_curvatures(self, ten_node_graph, man):
        g = ten_node_graph
        a_norm = normalize_adjacency(g)
        msg, clamped = first_message(g.features, a_norm, MAX_NORM)
        assert clamped == 0
        x = Tensor(lift_features(g.features, MAX_NORM)[0])
        old = ad.aggregate(a_norm, dg.log0(man, dg.exp0(man, x)))
        np.testing.assert_allclose(msg.value, old.value, rtol=0, atol=1e-12)

    def test_clamped_rows_counted(self, ten_node_graph):
        g = ten_node_graph
        feats = g.features.copy()
        feats[[2, 6]] *= 100.0
        a_norm = normalize_adjacency(g)
        msg, clamped = first_message(feats, a_norm, MAX_NORM)
        assert clamped == 2
        assert np.array_equal(msg.value, np.asarray(a_norm @ lift_features(feats, MAX_NORM)[0]))
        assert not msg.requires_grad


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestCsrRoute:
    """Wide sparse features take the CSR first layer ``a_norm @ (x @ W)``,
    which agrees with the dense message's ``(a_norm @ x) @ W`` to rounding."""

    def test_rule_keeps_tree_features_dense_and_sends_words_to_csr(self):
        tree = synthetic_tree(3, 4)
        a_tree = normalize_adjacency(tree)
        assert not csr_route(tree.features, a_tree)
        assert isinstance(message(tree.features, a_tree), Tensor)
        words = bag_of_words_graph()
        a_words = normalize_adjacency(words)
        assert csr_route(words.features, a_words)
        assert isinstance(message(words.features, a_words), LinearOperator)

    def test_rule_boundary(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        assert a_norm.nnz == 32
        x = np.zeros((10, 64))
        x.flat[:48] = 1.0  # 8 * (48 + 32) == 10 * 64
        assert csr_route(x, a_norm)
        x.flat[48] = 1.0
        assert not csr_route(x, a_norm)

    def test_csr_factor_is_scipys_conversion_bit_for_bit(self, rng):
        words = bag_of_words_graph().features
        scattered = rng.normal(size=(9, 7)) * (rng.random((9, 7)) < 0.3)
        scattered[2] = 0.0  # an empty row
        scattered[4, 1] = -0.0  # dropped, as an exact zero
        for x in (words, np.asfortranarray(words), scattered, np.zeros((3, 4))):
            ref, got = sparse.csr_matrix(x), enc_mod._csr_rows(x)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(ref, name), getattr(got, name)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_views_and_gradients_match_the_dense_message(self, monkeypatch):
        g = bag_of_words_graph()
        feats = g.features.copy()
        feats[4] *= 50.0  # norm 87: the clamp applies before the CSR conversion
        a_norm = normalize_adjacency(g)
        sparse_msg, clamped = first_message(feats, a_norm, MAX_NORM)
        assert isinstance(sparse_msg, LinearOperator) and clamped == 1
        a_factor, x_factor = (op.A for op in sparse_msg.args)
        assert a_factor is a_norm
        assert np.array_equal(x_factor.toarray(), lift_features(feats, MAX_NORM)[0])
        monkeypatch.setattr(enc_mod, "csr_route", lambda x, a_norm: False)
        dense_msg, _ = first_message(feats, a_norm, MAX_NORM)
        assert isinstance(dense_msg, Tensor)

        def views_and_grads(msg):
            enc_a = Encoder(mf.poincare(4, -1.0), 400, [8, 4], "tanh", np.random.default_rng(1))
            enc_b = Encoder(mf.lorentz(4, -0.5), 400, [8, 4], "tanh", np.random.default_rng(2))
            with ad.Tape() as tape:
                emb = encode_views(msg, a_norm, enc_a, enc_b)
                tape.backward(ad.add(ad.reduce_sum(ad.square(emb.tangent("alpha"))),
                                     ad.reduce_sum(ad.square(emb.tangent("beta")))))
            return [emb.alpha.value, emb.beta.value] + [
                p.grad for p in enc_a.parameters() + enc_b.parameters()]

        got, want = views_and_grads(sparse_msg), views_and_grads(dense_msg)
        assert len(got) == 10
        for a, b in zip(got, want):
            assert rel_err(a, b) <= 1e-13

    def test_operator_affine_is_bitwise_the_aggregate_chain(self):
        # The CSR message as one affine node against the chain it replaced:
        # aggregate(a_norm, aggregate(X, W)), add the bias, tanh.
        g = bag_of_words_graph()
        a_norm = normalize_adjacency(g)
        msg, _ = first_message(g.features, a_norm, MAX_NORM)
        a_factor, x_factor = (op.A for op in msg.args)
        rng = np.random.default_rng(3)
        w0 = rng.uniform(-0.1, 0.1, (g.features.shape[1], 8))
        b0, seed = rng.standard_normal((1, 8)), rng.standard_normal((g.n_nodes, 8))

        def value_and_grads(layer):
            w, b = ad.parameter(w0.copy()), ad.parameter(b0.copy())
            with ad.Tape() as tape:
                out = layer(w, b)
                tape.backward(ad.reduce_sum(ad.mul(out, Tensor(seed))))
            return out.value, w.grad, b.grad

        fused = value_and_grads(lambda w, b: ad.affine(msg, w, b, "tanh"))
        chain = value_and_grads(lambda w, b: ad.tanh(
            ad.add(ad.aggregate(a_factor, ad.aggregate(x_factor, w)), b)))
        assert all(np.array_equal(f, c) for f, c in zip(fused, chain))

    def test_gradcheck_registry_covers_the_csr_route(self, monkeypatch):
        messages, real = [], checks.first_message

        def recording(*args):
            out = real(*args)
            messages.append(out[0])
            return out

        monkeypatch.setattr(checks, "first_message", recording)
        names = [c.name for c in checks.gradient_check_cases(scope="encoder")]
        assert "encoder:sparse-first-layer" in names
        assert [isinstance(m, LinearOperator) for m in messages] == [False, True, False]


class TestLayerForward:
    def test_identity_configuration_is_identity(self, rng):
        man = mf.poincare(4, -1.0)
        layer = HgnnLayer(Tensor(np.eye(4)), Tensor(np.zeros((1, 4))), "none")
        h = Tensor(man.random_points(rng, 12, 2.0))
        out = layer.forward(h, sparse.identity(12, format="csr"))
        np.testing.assert_allclose(out.value, h.value, atol=1e-9)

    def test_common_point_is_fixed_under_row_stochastic_aggregation(self, rng, ten_node_graph):
        # any aggregation whose rows sum to 1 leaves a shared tangent fixed
        man = mf.lorentz(4, -1.0)
        a = ten_node_graph.csr_adjacency().toarray() + np.eye(10)
        a_row = sparse.csr_matrix(a / a.sum(axis=1, keepdims=True))
        p = man.random_points(rng, 1, 1.5)
        h = Tensor(np.repeat(dg.ambient_to_internal(man, p), 10, axis=0))
        layer = HgnnLayer(Tensor(np.eye(4)), Tensor(np.zeros((1, 4))), "none")
        out = layer.forward(h, a_row).value
        spread = np.max(np.abs(out - out[0]))
        assert spread <= 1e-9

    def test_weight_gradient_passes_fd(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        enc = Encoder(mf.poincare(4, -1.0), 5, [4], "none", np.random.default_rng(0))
        msg = message(ten_node_graph.features, a_norm)

        def f():
            return ad.reduce_sum(ad.square(enc.encode(msg, a_norm)[1]))

        assert ad.grad_check(f, enc.parameters()) <= 1e-4

    def test_all_zero_weight_degenerate_net_stays_finite(self, ten_node_graph):
        # every embedding collapses to the origin, yet loss and grads are finite
        a_norm = normalize_adjacency(ten_node_graph)
        msg = message(ten_node_graph.features, a_norm)
        for man in (mf.poincare(4, -1.0), mf.lorentz(4, -0.5)):
            enc = Encoder(man, 5, [4, 4], "tanh", np.random.default_rng(0))
            for p in enc.parameters():
                p.value[:] = 0.0
            with ad.Tape() as tape:
                out = ad.reduce_sum(ad.square(enc.encode(msg, a_norm)[1]))
                tape.backward(out)
            assert np.isfinite(out.item())
            assert all(p.grad is None or np.all(np.isfinite(p.grad))
                       for p in enc.parameters())
            err = ad.grad_check(
                lambda: ad.reduce_sum(ad.square(enc.encode(msg, a_norm)[1])),
                enc.parameters())
            assert np.isfinite(err)


class TestEncodeViews:
    def make_encoders(self, seed=0):
        ss = np.random.SeedSequence(seed).spawn(2)
        enc_a = Encoder(mf.poincare(3, -1.0), 5, [4, 3], "tanh",
                        np.random.default_rng(ss[0]))
        enc_b = Encoder(mf.lorentz(3, -0.5), 5, [4, 3], "tanh",
                        np.random.default_rng(ss[1]))
        return enc_a, enc_b

    def test_deterministic_under_fixed_seed(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        msg = message(ten_node_graph.features, a_norm)
        e1 = encode_views(msg, a_norm, *self.make_encoders(3))
        e2 = encode_views(msg, a_norm, *self.make_encoders(3))
        assert np.array_equal(e1.alpha.value, e2.alpha.value)
        assert np.array_equal(e1.beta.value, e2.beta.value)

    def test_views_live_on_their_manifolds(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        msg = message(ten_node_graph.features, a_norm)
        emb = encode_views(msg, a_norm, *self.make_encoders(1))
        emb.manifold_alpha.check_points(emb.points("alpha"))
        emb.manifold_beta.check_points(emb.points("beta"))

    def test_independent_inits_give_different_views(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        ss = np.random.SeedSequence(0).spawn(2)
        man = mf.poincare(3, -1.0)
        enc_a = Encoder(man, 5, [4, 3], "tanh", np.random.default_rng(ss[0]))
        enc_b = Encoder(man, 5, [4, 3], "tanh", np.random.default_rng(ss[1]))
        emb = encode_views(message(ten_node_graph.features, a_norm), a_norm, enc_a, enc_b)
        assert np.max(np.abs(emb.alpha.value - emb.beta.value)) > 1e-3

    def test_permutation_equivariance_exact(self, rng, ten_node_graph):
        g = ten_node_graph
        a_norm = normalize_adjacency(g)
        enc_a, enc_b = self.make_encoders(5)
        emb = encode_views(message(g.features, a_norm), a_norm, enc_a, enc_b)
        perm = rng.permutation(g.n_nodes)
        p = np.eye(g.n_nodes)[perm]
        a_perm = sparse.csr_matrix(p @ a_norm.toarray() @ p.T)
        emb_p = encode_views(message(g.features[perm], a_perm), a_perm, enc_a, enc_b)
        # permuting columns reorders the float sums inside the sparse matmul,
        # so equality holds to the last couple of ulps rather than bitwise
        np.testing.assert_allclose(emb_p.alpha.value, emb.alpha.value[perm],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(emb_p.beta.value, emb.beta.value[perm],
                                   rtol=0, atol=1e-12)

    def test_unknown_activation_rejected(self):
        with pytest.raises(EncoderError):
            Encoder(mf.poincare(3, -1.0), 5, [3], "gelu", np.random.default_rng(0))

    def test_forward_only_evaluation_is_thread_safe(self, ten_node_graph):
        from concurrent.futures import ThreadPoolExecutor
        a_norm = normalize_adjacency(ten_node_graph)
        enc_a, enc_b = self.make_encoders(4)
        msg = message(ten_node_graph.features, a_norm)
        ref = encode_views(msg, a_norm, enc_a, enc_b)

        def job(_):
            emb = encode_views(msg, a_norm, enc_a, enc_b)
            return emb.alpha.value, emb.beta.value

        with ThreadPoolExecutor(max_workers=4) as pool:
            for alpha, beta in pool.map(job, range(8)):
                assert np.array_equal(alpha, ref.alpha.value)
                assert np.array_equal(beta, ref.beta.value)


class TestSharedTangent:
    """``DualEmbedding.tangent``: the tangent the encoder carries, whose
    ``exp0`` the points are, or ``log0`` of the points for an embedding built
    from points alone."""

    def embedding(self, rng):
        man_a, man_b = mf.poincare(3, -1.0), mf.lorentz(3, -0.5)
        ha = ad.parameter(man_a.random_points(rng, 7, 2.0))
        hb = ad.parameter(dg.ambient_to_internal(man_b, man_b.random_points(rng, 7, 2.0)))
        return DualEmbedding(ha, hb, man_a, man_b)

    def encoders(self):
        return (Encoder(mf.poincare(3, -1.0), 5, [4, 3], "tanh", np.random.default_rng(0)),
                Encoder(mf.lorentz(3, -0.5), 5, [4, 3], "tanh", np.random.default_rng(1)))

    def encoded(self, graph, encoders):
        a_norm = normalize_adjacency(graph)
        return encode_views(message(graph.features, a_norm), a_norm, *encoders)

    def test_one_node_per_view_under_a_tape(self, ten_node_graph):
        # one exp0 per view maps its last tangent to points; no log0 is taken,
        # and reading a tangent records nothing
        encoders = self.encoders()
        with ad.Tape() as tape:
            emb = self.encoded(ten_node_graph, encoders)
            recorded = len(tape.nodes)
            tangents = {v: emb.tangent(v) for v in ("alpha", "beta")}
        assert len(tape.nodes) == recorded
        ops = Counter(node._op for node in tape.nodes)
        assert (ops["exp0"], ops["log0"]) == (2, 0)
        assert tangents["alpha"] is emb.tangent_alpha and tangents["beta"] is emb.tangent_beta
        for view, t in tangents.items():
            man, h = emb.view(view)
            np.testing.assert_array_equal(h.value, dg.exp0(man, t).value)

    def test_each_tape_gets_its_own_node(self, ten_node_graph):
        encoders = self.encoders()
        with ad.Tape():
            old = self.encoded(ten_node_graph, encoders).tangent("alpha")
        with ad.Tape() as tape:
            new = self.encoded(ten_node_graph, encoders).tangent("alpha")
            tape.backward(ad.reduce_sum(new))
        assert new is not old and any(node is new for node in tape.nodes)
        assert all(p.grad is not None for p in encoders[0].parameters())

    def test_points_alone_take_log0_on_each_read(self, rng):
        emb = self.embedding(rng)
        with ad.Tape() as tape:
            first, again = emb.tangent("alpha"), emb.tangent("alpha")
        assert [node._op for node in tape.nodes] == ["log0", "log0"]
        np.testing.assert_array_equal(first.value, again.value)
        np.testing.assert_array_equal(first.value,
                                      dg.log0(emb.manifold_alpha, emb.alpha).value)

    def test_no_tape_recomputes_and_sees_edits(self, rng):
        emb = self.embedding(rng)
        before = emb.tangent("beta")
        emb.beta.value[0, 0] += 0.1
        after = emb.tangent("beta")
        assert after is not before
        assert not np.array_equal(after.value, before.value)

    def test_unknown_view_rejected(self, rng):
        with pytest.raises(ValueError, match="view must be"):
            self.embedding(rng).tangent("gamma")
