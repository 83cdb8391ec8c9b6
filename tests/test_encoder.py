"""Feature lifting and the two-view tangent-space GNN encoders."""

import numpy as np
import pytest
from scipy import sparse

from hgcl import autodiff as ad
from hgcl import diffgeo as dg
from hgcl import manifolds as mf
from hgcl.autodiff import Tensor
from hgcl.data import normalize_adjacency
from hgcl.encoder import (DualEmbedding, Encoder, EncoderError, HgnnLayer, encode_views,
                          lift_features)


class TestLiftFeatures:
    def test_zero_row_goes_to_origin(self):
        man = mf.lorentz(3, -1.0)
        x = np.zeros((2, 3))
        lifted, clamped = lift_features(man, x)
        assert clamped == 0
        pts = dg.internal_to_ambient(man, lifted.value)
        np.testing.assert_allclose(pts, man.origin_rows(2), atol=1e-12)

    @pytest.mark.parametrize("man", [mf.poincare(6, -1.0), mf.lorentz(6, -0.5)],
                             ids=["poincare", "lorentz"])
    def test_outputs_satisfy_model_constraints(self, rng, man):
        x = rng.standard_normal((50, 6)) * 2.0
        lifted, _ = lift_features(man, x)
        man.check_points(dg.internal_to_ambient(man, lifted.value))

    def test_oversize_rows_rescaled_and_counted(self, rng):
        man = mf.poincare(4, -1.0)
        x = rng.standard_normal((10, 4))
        x[3] *= 100.0
        x[7] *= 50.0
        lifted, clamped = lift_features(man, x, max_norm=5.0)
        assert clamped == 2
        man.check_points(lifted.value)

    def test_lorentz_lift_distance_equals_tangent_norm(self, rng):
        man = mf.lorentz(5, -1.3)
        x = rng.standard_normal((30, 5))
        lifted, _ = lift_features(man, x, max_norm=1e9)
        pts = dg.internal_to_ambient(man, lifted.value)
        d = man.dist(man.origin_rows(30), pts)
        np.testing.assert_allclose(d, np.linalg.norm(x, axis=1), atol=1e-9)

    def test_non_finite_features_rejected(self):
        man = mf.poincare(2, -1.0)
        with pytest.raises(EncoderError):
            lift_features(man, np.array([[np.nan, 0.0]]))


class TestLayerForward:
    def test_identity_configuration_is_identity(self, rng):
        man = mf.poincare(4, -1.0)
        layer = HgnnLayer(Tensor(np.eye(4)), Tensor(np.zeros((1, 4))), man, "none")
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
        layer = HgnnLayer(Tensor(np.eye(4)), Tensor(np.zeros((1, 4))), man, "none")
        out = layer.forward(h, a_row).value
        spread = np.max(np.abs(out - out[0]))
        assert spread <= 1e-9

    def test_weight_gradient_passes_fd(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        enc = Encoder(mf.poincare(4, -1.0), 5, [4], "none", np.random.default_rng(0))

        def f():
            return ad.reduce_sum(ad.square(enc.encode(ten_node_graph.features, a_norm)))

        assert ad.grad_check(f, enc.parameters()) <= 1e-4

    def test_all_zero_weight_degenerate_net_stays_finite(self, ten_node_graph):
        # every embedding collapses to the origin, yet loss and grads are finite
        a_norm = normalize_adjacency(ten_node_graph)
        for man in (mf.poincare(4, -1.0), mf.lorentz(4, -0.5)):
            enc = Encoder(man, 5, [4, 4], "tanh", np.random.default_rng(0))
            for p in enc.parameters():
                p.value[:] = 0.0
            with ad.Tape() as tape:
                out = ad.reduce_sum(ad.square(enc.encode(ten_node_graph.features, a_norm)))
                tape.backward(out)
            assert np.isfinite(out.item())
            assert all(p.grad is None or np.all(np.isfinite(p.grad))
                       for p in enc.parameters())
            err = ad.grad_check(
                lambda: ad.reduce_sum(ad.square(enc.encode(ten_node_graph.features,
                                                           a_norm))),
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
        e1 = encode_views(ten_node_graph.features, a_norm, *self.make_encoders(3))
        e2 = encode_views(ten_node_graph.features, a_norm, *self.make_encoders(3))
        assert np.array_equal(e1.alpha.value, e2.alpha.value)
        assert np.array_equal(e1.beta.value, e2.beta.value)

    def test_views_live_on_their_manifolds(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        emb = encode_views(ten_node_graph.features, a_norm, *self.make_encoders(1))
        emb.manifold_alpha.check_points(emb.points("alpha"))
        emb.manifold_beta.check_points(emb.points("beta"))

    def test_independent_inits_give_different_views(self, ten_node_graph):
        a_norm = normalize_adjacency(ten_node_graph)
        ss = np.random.SeedSequence(0).spawn(2)
        man = mf.poincare(3, -1.0)
        enc_a = Encoder(man, 5, [4, 3], "tanh", np.random.default_rng(ss[0]))
        enc_b = Encoder(man, 5, [4, 3], "tanh", np.random.default_rng(ss[1]))
        emb = encode_views(ten_node_graph.features, a_norm, enc_a, enc_b)
        assert np.max(np.abs(emb.alpha.value - emb.beta.value)) > 1e-3

    def test_permutation_equivariance_exact(self, rng, ten_node_graph):
        g = ten_node_graph
        a_norm = normalize_adjacency(g)
        enc_a, enc_b = self.make_encoders(5)
        emb = encode_views(g.features, a_norm, enc_a, enc_b)
        perm = rng.permutation(g.n_nodes)
        p = np.eye(g.n_nodes)[perm]
        a_perm = sparse.csr_matrix(p @ a_norm.toarray() @ p.T)
        emb_p = encode_views(g.features[perm], a_perm, enc_a, enc_b)
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
        ref = encode_views(ten_node_graph.features, a_norm, enc_a, enc_b)

        def job(_):
            emb = encode_views(ten_node_graph.features, a_norm, enc_a, enc_b)
            return emb.alpha.value, emb.beta.value

        with ThreadPoolExecutor(max_workers=4) as pool:
            for alpha, beta in pool.map(job, range(8)):
                assert np.array_equal(alpha, ref.alpha.value)
                assert np.array_equal(beta, ref.beta.value)


class TestFirstStageMemo:
    """``Encoder.memoized``: one lift and neighbor average per scope, bitwise
    equal to recomputing them."""

    def encoder(self, seed=0, max_feature_norm=8.0):
        return Encoder(mf.lorentz(3, -0.5), 5, [4, 3], "tanh",
                       np.random.default_rng(seed), max_feature_norm)

    def test_weight_change_inside_scope_matches_uncached_encode(self, ten_node_graph,
                                                                lift_calls):
        g = ten_node_graph
        a_norm = normalize_adjacency(g)
        enc, ref = self.encoder(1), self.encoder(1)
        with enc.memoized(g.features, a_norm):
            first = enc.encode(g.features, a_norm).value
            for p, q in zip(enc.parameters(), ref.parameters()):
                p.value = p.value * 1.5 + 0.25
                q.value = p.value.copy()
            cached = enc.encode(g.features, a_norm).value
        assert len(lift_calls) == 1
        uncached = ref.encode(g.features, a_norm).value
        assert len(lift_calls) == 2
        assert not np.array_equal(first, cached)
        assert np.array_equal(cached, uncached)

    @pytest.mark.parametrize("swap", ["features", "a_norm"])
    def test_other_objects_miss_the_memo(self, ten_node_graph, lift_calls, swap):
        g = ten_node_graph
        a_norm = normalize_adjacency(g)
        enc = self.encoder(2)
        with enc.memoized(g.features, a_norm):
            same = enc.encode(g.features, a_norm).value
            assert len(lift_calls) == 1
            if swap == "features":
                copy = enc.encode(g.features.copy(), a_norm).value
                other = enc.encode(g.features * 2.0, a_norm).value
            else:
                copy = enc.encode(g.features, a_norm.copy()).value
                other = enc.encode(g.features, a_norm * 0.5).value
            assert len(lift_calls) == 3
        if swap == "features":
            uncached = enc.encode(g.features * 2.0, a_norm).value
        else:
            uncached = enc.encode(g.features, a_norm * 0.5).value
        assert np.array_equal(copy, same)
        assert np.array_equal(other, uncached)
        assert not np.array_equal(other, same)

    def test_memo_is_dropped_on_exit_and_on_error(self, ten_node_graph, lift_calls):
        g = ten_node_graph
        a_norm = normalize_adjacency(g)
        enc = self.encoder(3)
        with enc.memoized(g.features, a_norm):
            assert enc._memo is not None
        assert enc._memo is None
        with pytest.raises(RuntimeError, match="boom"):
            with enc.memoized(g.features, a_norm):
                raise RuntimeError("boom")
        assert enc._memo is None
        n = len(lift_calls)
        enc.encode(g.features, a_norm)
        assert len(lift_calls) == n + 1

    def test_clamped_rows_reported_on_cached_encodes(self, ten_node_graph):
        g = ten_node_graph
        a_norm = normalize_adjacency(g)
        feats = g.features.copy()
        feats[4] *= 100.0
        enc = self.encoder(4, max_feature_norm=5.0)
        uncached = enc.encode(feats, a_norm).value
        assert enc.clamped_rows == 1
        enc.clamped_rows = -1
        with enc.memoized(feats, a_norm):
            for _ in range(2):
                cached = enc.encode(feats, a_norm).value
                assert enc.clamped_rows == 1
                enc.clamped_rows = -1
        assert np.array_equal(cached, uncached)


class TestSharedTangent:
    """``DualEmbedding.tangent``: one ``log0`` per view and tape, equal to
    ``dg.log0`` bit for bit."""

    def embedding(self, rng):
        man_a, man_b = mf.poincare(3, -1.0), mf.lorentz(3, -0.5)
        ha = ad.parameter(man_a.random_points(rng, 7, 2.0))
        hb = ad.parameter(dg.ambient_to_internal(man_b, man_b.random_points(rng, 7, 2.0)))
        return DualEmbedding(ha, hb, man_a, man_b)

    def test_one_node_per_view_under_a_tape(self, rng):
        emb = self.embedding(rng)
        with ad.Tape() as tape:
            first = {v: emb.tangent(v) for v in ("alpha", "beta")}
            again = {v: emb.tangent(v) for v in ("alpha", "beta")}
        assert all(first[v] is again[v] for v in first)
        assert [node._op for node in tape.nodes] == ["log0", "log0"]
        np.testing.assert_array_equal(first["alpha"].value,
                                      dg.log0(emb.manifold_alpha, emb.alpha).value)
        np.testing.assert_array_equal(first["beta"].value,
                                      dg.log0(emb.manifold_beta, emb.beta).value)

    def test_each_tape_gets_its_own_node(self, rng):
        emb = self.embedding(rng)
        with ad.Tape():
            old = emb.tangent("alpha")
        with ad.Tape() as tape:
            new = emb.tangent("alpha")
            tape.backward(ad.reduce_sum(new))
        assert new is not old and tape.nodes[0] is new
        assert emb.alpha.grad is not None

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
