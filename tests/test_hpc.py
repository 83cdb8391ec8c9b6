"""Contrastive loss: sampler, discriminator, MI terms, full objective."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hgcl import autodiff as ad
from hgcl import diffgeo as dg
from hgcl import manifolds as mf
from hgcl.autodiff import Tape, Tensor
from hgcl.data import Graph, synthetic_tree
from hgcl.encoder import DualEmbedding
from hgcl.hpc import (HpcConfig, SamplePlan, SamplingError, build_sample_plan,
                      discriminator, hpc_loss, mi_consistency, mi_tolerance, pair_log_probs,
                      pair_probs)


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))


def star_graph(leaves=5):
    edges = np.array([(0, i) for i in range(1, leaves + 1)])
    n = leaves + 1
    return Graph(n, edges, np.zeros((n, 1)), np.zeros(n, dtype=int))


def path_graph(n=5):
    return Graph(n, np.array([(i, i + 1) for i in range(n - 1)]),
                 np.zeros((n, 1)), np.zeros(n, dtype=int))


def same_view_embedding(coords, man):
    t = Tensor(coords)
    return DualEmbedding(t, Tensor(coords.copy()), man, man)


def ray_points(man, radii, rng=None):
    """Points along one geodesic ray from the origin (pairwise distances are
    radius differences)."""
    direction = np.zeros((1, man.dim))
    direction[0, 0] = 1.0
    u = direction * np.asarray(radii)[:, None]
    if man.kind is mf.Model.POINCARE:
        u = u / 2.0  # metric norm of a ball tangent is 2||u||
    return dg.ambient_to_internal(man, man.exp0(u))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HpcConfig(temperature=0.0)
        with pytest.raises(ValueError):
            HpcConfig(num_negatives=0)
        with pytest.raises(ValueError):
            HpcConfig(lambda_neg=-0.1)
        with pytest.raises(ValueError):
            HpcConfig(similarity="cosine")

    @pytest.mark.parametrize("field, value", [
        ("bias", math.nan), ("bias", math.inf), ("bias", -math.inf),
        ("temperature", math.nan), ("temperature", math.inf),
        ("lambda_neg", math.nan), ("lambda_neg", math.inf),
    ])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            HpcConfig(**{field: value})


class TestDiscriminator:
    def test_distance_equal_to_bias_gives_half(self, rng):
        man = mf.poincare(3, -1.0)
        cfg = HpcConfig(bias=2.0, temperature=1.0)
        a = ray_points(man, [0.0])
        b = ray_points(man, [2.0])  # d(a, b) = 2 = bias
        assert pair_probs(man, Tensor(a), Tensor(b), cfg).item() == pytest.approx(0.5, abs=1e-12)

    def test_zero_distance_closed_form(self, rng):
        man = mf.lorentz(4, -1.0)
        cfg = HpcConfig(bias=2.0, temperature=1.0)
        x = dg.ambient_to_internal(man, man.random_points(rng, 1, 2.0))
        got = pair_probs(man, Tensor(x), Tensor(x.copy()), cfg).item()
        assert got == pytest.approx(sigmoid(2.0), abs=1e-9)
        assert got == pytest.approx(0.880797, abs=1e-6)

    def test_strictly_decreasing_in_distance(self, rng):
        man = mf.poincare(3, -1.0)
        cfg = HpcConfig(bias=2.0, temperature=0.7)
        radii = np.sort(rng.uniform(0.0, 6.0, 1000))
        pts = ray_points(man, radii)
        anchor = Tensor(np.zeros((1000, 3)))
        probs = pair_probs(man, anchor, Tensor(pts), cfg).value[:, 0]
        d = man.dist(man.origin_rows(1000), man.exp0(pts * 0 + pts))  # sanity only
        order = np.argsort(radii)
        assert np.all(np.diff(probs[order]) < 0)

    def test_point_api_checks_manifolds(self, rng):
        m1, m2 = mf.poincare(3, -1.0), mf.poincare(3, -2.0)
        p = mf.Point(m1.random_points(rng, 1, 1.0)[0], m1)
        q = mf.Point(m2.random_points(rng, 1, 1.0)[0], m2)
        with pytest.raises(ValueError):
            discriminator(p, q)
        val = discriminator(p, mf.Point(m1.random_points(rng, 1, 1.0)[0], m1))
        assert 0.0 < val < 1.0


@pytest.fixture(scope="module")
def pool6_draws():
    """6,000 draws of m=3 negatives for anchor 4 of the path 0-..-8, whose
    pool {0, 1, 2, 6, 7, 8} has p=6 nodes."""
    g = path_graph(9)
    rng = np.random.default_rng(2024)
    return [tuple(build_sample_plan(g, 3, rng).neg_intra[4]) for _ in range(6_000)]


class TestSamplePlan:
    def test_star_hub_has_empty_pool(self):
        g = star_graph(5)
        with pytest.raises(SamplingError, match="anchor 0"):
            build_sample_plan(g, 1, np.random.default_rng(0))

    def test_path_anchor2_negatives_from_ends(self):
        g = path_graph(5)
        for seed in range(20):
            plan = build_sample_plan(g, 1, np.random.default_rng(seed))
            assert set(plan.neg_intra[2]) <= {0, 4}
            assert set(plan.neg_inter[2]) <= {0, 4}

    def test_negatives_exclude_anchor_and_neighbors(self, ten_node_graph):
        plan = build_sample_plan(ten_node_graph, 3, np.random.default_rng(1))
        adj = ten_node_graph.csr_adjacency()
        for i in range(10):
            banned = {i, *adj.indices[adj.indptr[i]:adj.indptr[i + 1]].tolist()}
            assert not (set(plan.neg_intra[i]) & banned)
            assert not (set(plan.neg_inter[i]) & banned)

    def test_deterministic_under_seed(self, ten_node_graph):
        a = build_sample_plan(ten_node_graph, 2, np.random.default_rng(9))
        b = build_sample_plan(ten_node_graph, 2, np.random.default_rng(9))
        assert np.array_equal(a.neg_intra, b.neg_intra)
        assert np.array_equal(a.neg_inter, b.neg_inter)

    def test_empirical_uniformity_three_sigma(self, path5):
        # anchor 2 of the path: pool = {0, 4}, m=1 -> Bernoulli(1/2)
        counts = {0: 0, 4: 0}
        draws = 10_000
        rng = np.random.default_rng(123)
        for _ in range(draws):
            plan = build_sample_plan(path5, 1, rng)
            counts[int(plan.neg_intra[2][0])] += 1
        sigma = math.sqrt(draws * 0.5 * 0.5)
        assert abs(counts[0] - draws / 2) <= 3 * sigma

    def test_marginal_uniformity_pool6_m3(self, pool6_draws):
        draws = pool6_draws
        counts = Counter(j for row in draws for j in row)
        assert set(counts) == {0, 1, 2, 6, 7, 8}
        q = 3 / 6  # each pool id is in the draw with probability m/p
        sigma = math.sqrt(len(draws) * q * (1 - q))
        for j, c in counts.items():
            assert abs(c - len(draws) * q) <= 3 * sigma, (j, c)

    def test_subset_uniformity_pool6_m3(self, pool6_draws):
        draws = pool6_draws
        counts = Counter(draws)
        subsets = set(itertools.combinations((0, 1, 2, 6, 7, 8), 3))
        assert set(counts) == subsets  # rows come out sorted
        q = 1 / len(subsets)
        sigma = math.sqrt(len(draws) * q * (1 - q))
        for subset in subsets:
            assert abs(counts[subset] - len(draws) * q) <= 3 * sigma, subset

    def test_pool_of_exactly_m_is_taken_whole(self):
        g = path_graph(7)  # anchor 3: pool {0, 1, 5, 6}; ends: pool of 5
        for seed in range(10):
            plan = build_sample_plan(g, 4, np.random.default_rng(seed))
            assert plan.neg_intra[3].tolist() == [0, 1, 5, 6]
            assert plan.neg_inter[3].tolist() == [0, 1, 5, 6]

    def test_isolated_nodes_and_components(self):
        # triangle {0,1,2}, path 3-4-5, isolated 6 and 7, edge 8-9
        edges = np.array([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (8, 9)])
        g = Graph(10, edges, np.zeros((10, 1)), np.zeros(10, dtype=int))
        adj = g.csr_adjacency()
        nbrs = np.split(adj.indices, adj.indptr[1:-1])
        for seed in range(50):
            plan = build_sample_plan(g, 5, np.random.default_rng(seed))
            for neg in (plan.neg_intra, plan.neg_inter):
                assert neg.shape == (10, 5) and neg.dtype == np.int64
                for i in range(10):
                    row = neg[i].tolist()
                    assert row == sorted(set(row))  # distinct and sorted
                    assert not set(row) & {i, *nbrs[i].tolist()}
                    assert 0 <= row[0] and row[-1] < 10
        assert plan.edge_anchor.tolist() == np.repeat(np.arange(10), [2, 2, 2, 1, 2, 1,
                                                                      0, 0, 1, 1]).tolist()
        assert plan.edge_nbr.tolist() == np.concatenate(nbrs).tolist()

    def test_every_short_anchor_is_named(self):
        # two stars of 4 leaves joined hub to hub: each hub has pool 10 - 1 - 5 = 4
        edges = [(0, j) for j in range(1, 5)] + [(5, j) for j in range(6, 10)] + [(0, 5)]
        g = Graph(10, np.array(edges), np.zeros((10, 1)), np.zeros(10, dtype=int))
        with pytest.raises(SamplingError) as err:
            build_sample_plan(g, 5, np.random.default_rng(0))
        assert str(err.value) == ("anchor 0: negative pool has 4 nodes < m=5; "
                                  "2 of 10 anchors are short (others: 5)")
        build_sample_plan(g, 4, np.random.default_rng(0))


def clique_pair_fixture(d_between=6.0, m=2):
    """Two 5-cliques; every positive pair at distance 0, every negative at
    d_between. Both views identical on the same manifold."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    g = Graph(10, np.array(edges), np.zeros((10, 1)), np.zeros(10, dtype=int))
    man = mf.poincare(3, -1.0)
    a = ray_points(man, [0.0])
    b = ray_points(man, [d_between])
    coords = np.concatenate([np.repeat(a, 5, axis=0), np.repeat(b, 5, axis=0)])
    return g, man, coords


class TestMiTerms:
    def test_consistency_closed_form_identical_views(self, rng):
        man = mf.poincare(3, -1.0)
        cfg = HpcConfig(bias=2.0, temperature=1.0, lambda_neg=0.0)
        coords = dg.ambient_to_internal(man, man.random_points(rng, 6, 2.0))
        emb = same_view_embedding(coords, man)
        plan = build_sample_plan(path_graph(6), 1, np.random.default_rng(0))
        got = mi_consistency(0, emb, plan, cfg)
        assert got == pytest.approx(math.log(sigmoid(2.0)), abs=1e-9)
        assert got == pytest.approx(-0.126928, abs=1e-6)

    def test_lambda_zero_ignores_negative_ids(self, rng):
        man = mf.lorentz(3, -1.0)
        cfg = HpcConfig(lambda_neg=0.0, num_negatives=2)
        coords = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        emb = same_view_embedding(coords, man)
        g = path_graph(8)
        p1 = build_sample_plan(g, 2, np.random.default_rng(0))
        p2 = build_sample_plan(g, 2, np.random.default_rng(99))
        for i in range(8):
            assert mi_consistency(i, emb, p1, cfg) == mi_consistency(i, emb, p2, cfg)

    def test_pushing_negative_away_increases_value(self):
        man = mf.poincare(2, -1.0)
        cfg = HpcConfig(bias=2.0, temperature=1.0, lambda_neg=0.5, num_negatives=1)
        g = path_graph(4)
        plan = build_sample_plan(g, 1, np.random.default_rng(3))
        plan.neg_inter[0][0] = 3  # fix the negative id for anchor 0
        vals = []
        for d_neg in (0.1, 3.0):
            coords = ray_points(man, [0.0, 1.0, 2.0, d_neg])
            emb = same_view_embedding(coords, man)
            vals.append(mi_consistency(0, emb, plan, cfg))
        assert vals[1] > vals[0]

    def test_tolerance_isolated_anchor_is_zero(self):
        g = Graph(5, np.array([[1, 2], [2, 3], [3, 4]]), np.zeros((5, 1)),
                  np.zeros(5, dtype=int))  # node 0 isolated
        man = mf.poincare(2, -1.0)
        cfg = HpcConfig(lambda_neg=0.0)
        coords = ray_points(man, [0.5, 1.0, 1.5, 2.0, 2.5])
        emb = same_view_embedding(coords, man)
        plan = build_sample_plan(g, 1, np.random.default_rng(0))
        assert mi_tolerance(0, emb, plan, cfg) == 0.0

    def test_tolerance_single_neighbor_closed_form(self):
        g = path_graph(4)
        man = mf.poincare(2, -1.0)
        cfg = HpcConfig(bias=1.5, temperature=1.0, lambda_neg=0.0)
        coords = ray_points(man, [0.0, 0.0, 2.0, 3.0])  # anchor 0, neighbor 1 at d=0
        emb = same_view_embedding(coords, man)
        plan = build_sample_plan(g, 1, np.random.default_rng(0))
        assert mi_tolerance(0, emb, plan, cfg) == pytest.approx(
            math.log(sigmoid(1.5)), abs=1e-9)

    def test_tolerance_decreases_as_neighbor_moves_away(self):
        g = path_graph(4)
        man = mf.lorentz(2, -1.0)
        cfg = HpcConfig(lambda_neg=0.5, num_negatives=1)
        plan = build_sample_plan(g, 1, np.random.default_rng(5))
        vals = []
        for d_nbr in (0.5, 2.5):
            coords = ray_points(man, [0.0, d_nbr, 4.0, 6.0])
            emb = same_view_embedding(coords, man)
            vals.append(mi_tolerance(0, emb, plan, cfg))
        assert vals[1] < vals[0]

    @pytest.mark.parametrize("view", ["alpha", "beta"])
    def test_tolerance_reads_unsorted_hand_built_pairs(self, rng, view):
        man_a, man_b = mf.poincare(2, -1.0), mf.lorentz(2, -0.5)
        emb = DualEmbedding(
            Tensor(dg.ambient_to_internal(man_a, man_a.random_points(rng, 6, 2.0))),
            Tensor(dg.ambient_to_internal(man_b, man_b.random_points(rng, 6, 2.0))),
            man_a, man_b)
        cfg = HpcConfig(lambda_neg=0.3, num_negatives=2)
        nbrs = {0: [1, 2, 5], 1: [0], 2: [0, 3], 3: [2], 4: [], 5: [0]}
        negs = np.array([[3, 4], [2, 3], [1, 5], [0, 1], [0, 1], [1, 2]])
        anchor = np.array([i for i in nbrs for _ in nbrs[i]])
        nbr = np.array([j for i in nbrs for j in nbrs[i]])
        order = np.random.default_rng(7).permutation(anchor.size)
        plan = SamplePlan(negs, negs.copy(), anchor[order], nbr[order])
        own = emb.alpha if view == "alpha" else emb.beta
        man = man_a if view == "alpha" else man_b

        def prob(i, j):  # the per-pair reference
            return pair_probs(man, ad.gather_rows(own, [i]), ad.gather_rows(own, [j]),
                              cfg).item()

        for i in range(6):
            pos = math.fsum(math.log(prob(i, j)) for j in nbrs[i])
            neg = math.fsum(math.log(1.0 - prob(i, j)) for j in negs[i])
            assert mi_tolerance(i, emb, plan, cfg, view) == pos + cfg.lambda_neg * neg


class TestHpcLoss:
    def test_matches_per_anchor_term_sum(self, rng):
        man_a, man_b = mf.poincare(3, -1.0), mf.lorentz(3, -0.5)
        g = path_graph(7)
        plan = build_sample_plan(g, 2, np.random.default_rng(2))
        cfg = HpcConfig(num_negatives=2)
        emb = DualEmbedding(
            Tensor(dg.ambient_to_internal(man_a, man_a.random_points(rng, 7, 2.0))),
            Tensor(dg.ambient_to_internal(man_b, man_b.random_points(rng, 7, 2.0))),
            man_a, man_b)
        total = sum(
            mi_consistency(i, emb, plan, cfg, "alpha")
            + mi_consistency(i, emb, plan, cfg, "beta")
            + mi_tolerance(i, emb, plan, cfg, "alpha")
            + mi_tolerance(i, emb, plan, cfg, "beta")
            for i in range(7))
        expected = -total / (2 * 7)
        assert hpc_loss(emb, plan, cfg).item() == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    @pytest.mark.parametrize("include_tolerance", [True, False])
    def test_matches_mi_sums_with_hub_isolated_node_and_two_components(
            self, rng, similarity, include_tolerance):
        # hub 0 with leaves 1-6, leaf chain 6-7; path 8-9-10-11; node 12 isolated
        edges = [(0, j) for j in range(1, 7)] + [(6, 7), (8, 9), (9, 10), (10, 11)]
        g = Graph(13, np.array(edges), np.zeros((13, 1)), np.zeros(13, dtype=int))
        man_a, man_b = mf.poincare(3, -1.3), mf.lorentz(3, -0.7)
        cfg = HpcConfig(num_negatives=3, lambda_neg=0.8, similarity=similarity)
        plan = build_sample_plan(g, 3, np.random.default_rng(4))
        emb = DualEmbedding(
            Tensor(dg.ambient_to_internal(man_a, man_a.random_points(rng, 13, 2.5))),
            Tensor(dg.ambient_to_internal(man_b, man_b.random_points(rng, 13, 2.5))),
            man_a, man_b)
        terms = [mi_consistency] + ([mi_tolerance] if include_tolerance else [])
        total = math.fsum(term(i, emb, plan, cfg, view) for term in terms
                          for view in ("alpha", "beta") for i in range(13))
        got = hpc_loss(emb, plan, cfg, include_tolerance=include_tolerance).item()
        assert got == pytest.approx(-total / (2 * 13), abs=1e-10)

    def test_infimum_closed_form_on_clique_pair(self):
        g, man, coords = clique_pair_fixture(d_between=40.0)
        cfg = HpcConfig(bias=2.0, temperature=1.0, lambda_neg=0.5, num_negatives=2)
        emb = same_view_embedding(coords, man)
        plan = build_sample_plan(g, 2, np.random.default_rng(0))
        got = hpc_loss(emb, plan, cfg).item()
        # positives at d=0, negatives at distance 40 -> D clamps to 1e-7,
        # so each negative term contributes log(1 - 1e-7)
        deg = 4
        log_pos = math.log(sigmoid(2.0))
        log_neg = math.log(1.0 - 1e-7)
        per_anchor = 2 * (1 + deg) * log_pos + 4 * cfg.lambda_neg * cfg.num_negatives * log_neg
        expected = -per_anchor / 2.0  # identical anchors; (1/2n) * n cancels
        assert got == pytest.approx(expected, abs=1e-9)

    def test_aligned_views_beat_permuted_views(self):
        rng_master = np.random.default_rng(0)
        man = mf.poincare(4, -1.0)
        cfg = HpcConfig()
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            n = 30
            edges = set()
            while len(edges) < 45:
                i, j = rng.integers(0, n, 2)
                if i != j:
                    edges.add((min(i, j), max(i, j)))
            g = Graph(n, np.array(sorted(edges)), np.zeros((n, 1)), np.zeros(n, dtype=int))
            coords = dg.ambient_to_internal(man, man.random_points(rng, n, 2.5))
            plan = build_sample_plan(g, cfg.num_negatives, np.random.default_rng(trial))
            aligned = hpc_loss(same_view_embedding(coords, man), plan, cfg).item()
            perm = rng.permutation(n)
            shuffled = DualEmbedding(Tensor(coords), Tensor(coords[perm]), man, man)
            permuted = hpc_loss(shuffled, plan, cfg).item()
            wins += aligned < permuted
        assert wins == 20

    def test_invariant_to_negative_order(self, rng, ten_node_graph):
        man = mf.lorentz(3, -1.0)
        cfg = HpcConfig(num_negatives=3)
        coords = dg.ambient_to_internal(man, man.random_points(rng, 10, 2.0))
        emb = same_view_embedding(coords, man)
        plan = build_sample_plan(ten_node_graph, 3, np.random.default_rng(0))
        base = hpc_loss(emb, plan, cfg).item()
        shuffled = SamplePlan(plan.neg_intra[:, ::-1].copy(),
                              plan.neg_inter[:, ::-1].copy(), plan.edge_anchor,
                              plan.edge_nbr)
        assert hpc_loss(emb, shuffled, cfg).item() == pytest.approx(base, abs=1e-12)

    def test_lambda_zero_bit_identical_across_negative_reseeds(self, rng, ten_node_graph):
        man = mf.poincare(3, -1.0)
        cfg = HpcConfig(lambda_neg=0.0)
        coords = dg.ambient_to_internal(man, man.random_points(rng, 10, 2.0))
        emb = same_view_embedding(coords, man)
        vals = {hpc_loss(emb, build_sample_plan(ten_node_graph, 5,
                                                np.random.default_rng(s)), cfg).item()
                for s in range(5)}
        assert len(vals) == 1

    def test_finite_at_extreme_separations(self):
        g, man, coords = clique_pair_fixture(d_between=30.0)
        cfg = HpcConfig()
        emb = same_view_embedding(coords, man)
        plan = build_sample_plan(g, 2, np.random.default_rng(0))
        assert math.isfinite(hpc_loss(emb, plan, cfg).item())

    def test_gradient_wrt_embeddings(self, ten_node_graph):
        rng = np.random.default_rng(4)
        man_a, man_b = mf.poincare(4, -1.0), mf.lorentz(4, -0.5)
        ha = ad.parameter(dg.ambient_to_internal(man_a, man_a.random_points(rng, 10, 1.5)))
        hb = ad.parameter(dg.ambient_to_internal(man_b, man_b.random_points(rng, 10, 1.5)))
        plan = build_sample_plan(ten_node_graph, 2, np.random.default_rng(0))
        cfg = HpcConfig(num_negatives=2)

        def f():
            return hpc_loss(DualEmbedding(ha, hb, man_a, man_b), plan, cfg)

        assert ad.grad_check(f, [ha, hb]) <= 1e-3

    def test_no_pos_flag_drops_tolerance_terms(self, rng, ten_node_graph):
        man = mf.poincare(3, -1.0)
        cfg = HpcConfig(lambda_neg=0.0)
        coords = dg.ambient_to_internal(man, man.random_points(rng, 10, 2.0))
        emb = same_view_embedding(coords, man)
        plan = build_sample_plan(ten_node_graph, 1, np.random.default_rng(0))
        full = hpc_loss(emb, plan, cfg, include_tolerance=True).item()
        no_pos = hpc_loss(emb, plan, cfg, include_tolerance=False).item()
        cons_only = sum(mi_consistency(i, emb, plan, cfg, v)
                        for i in range(10) for v in ("alpha", "beta"))
        assert no_pos == pytest.approx(-cons_only / 20.0, abs=1e-12)
        assert full != no_pos


def composed_log_probs(man, own, ia, cand, ib, cfg, negative):
    """The reference route: gather both sides, score with ``pair_probs``, log, sum."""
    probs = pair_probs(man, ad.gather_rows(own, ia), ad.gather_rows(cand, ib), cfg)
    return ad.reduce_sum(ad.log(ad.sub(1.0, probs) if negative else probs))


def value_and_grads(route, man, x, y, ia, ib, cfg, negative, same):
    own = ad.parameter(x.copy())
    cand = own if same else ad.parameter(y.copy())
    with Tape() as tape:
        out = route(man, own, ia, cand, ib, cfg, negative)
        tape.backward(out)
    return out.value, [own.grad] if same else [own.grad, cand.grad]


MODELS = [mf.poincare(4, -1.0), mf.lorentz(4, -0.5)]
# Unsorted anchors, a repeated pair, every row used on both sides.
PAIR_IA = np.array([3, 0, 0, 5, 2, 2, 7, 1, 6, 4])
PAIR_IB = np.array([1, 4, 4, 0, 3, 6, 2, 7, 5, 0])


class TestPairLogProbs:
    @pytest.mark.parametrize("negative", [False, True], ids=["pos", "neg"])
    @pytest.mark.parametrize("same", [False, True], ids=["two-tensors", "own-is-cand"])
    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    @pytest.mark.parametrize("man", MODELS, ids=lambda m: m.kind.value)
    def test_matches_composed_route(self, man, similarity, same, negative):
        rng = np.random.default_rng(7)
        x = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        y = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        cfg = HpcConfig(bias=1.5, temperature=0.8, similarity=similarity)
        args = (man, x, y, PAIR_IA, PAIR_IB, cfg, negative, same)
        fused, fused_grads = value_and_grads(pair_log_probs, *args)
        ref, ref_grads = value_and_grads(composed_log_probs, *args)
        assert np.array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("negative", [False, True], ids=["pos", "neg"])
    @pytest.mark.parametrize("man", MODELS, ids=lambda m: m.kind.value)
    def test_zero_distance_pairs(self, man, negative):
        # Identical rows on both sides and repeated rows within one tensor: the
        # consistency positives of identical views sit exactly here.
        rng = np.random.default_rng(3)
        x = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        y = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        y[:4] = x[:4]
        x[7] = x[0]
        ia, ib = np.array([0, 1, 2, 3, 7, 0, 5]), np.array([0, 1, 2, 3, 0, 6, 5])
        cfg = HpcConfig(bias=2.0, temperature=1.0)
        for same in (False, True):
            args = (man, x, y, ia, ib, cfg, negative, same)
            fused, fused_grads = value_and_grads(pair_log_probs, *args)
            ref, ref_grads = value_and_grads(composed_log_probs, *args)
            assert np.array_equal(fused, ref)
            # On the hyperboloid the acosh argument rounds to 1 +- 1 ulp at d = 0,
            # and above 1 its clamped slope 1/sqrt(MIN_NORM) ~ 3e7 turns rounding
            # noise into the gradient of both routes, so only the ball's compare.
            if man.kind is mf.Model.POINCARE:
                for got, want in zip(fused_grads, ref_grads):
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                only_zero = pair_log_probs(man, Tensor(x), ia[:4], Tensor(y), ib[:4], cfg,
                                           negative)
                d0 = math.log(1.0 - sigmoid(2.0)) if negative else math.log(sigmoid(2.0))
                assert only_zero.item() == pytest.approx(4 * d0, abs=1e-15)

    @pytest.mark.parametrize("negative", [False, True], ids=["pos", "neg"])
    def test_rows_on_the_ball_boundary_keep_the_conformal_floor(self, negative):
        # tanh(r) rounds to 1 for r > ~19, so exp0 can put rows on the boundary,
        # where 1 + k|x|^2 <= 0 is floored at MIN_NORM with zero slope. A high
        # temperature keeps those pairs off the probability clamp.
        man = MODELS[0]
        rng = np.random.default_rng(11)
        x = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        x[2] = x[2] / np.linalg.norm(x[2])
        x[5] = 1.000001 * x[5] / np.linalg.norm(x[5])
        cfg = HpcConfig(bias=2.0, temperature=20.0)
        for same in (False, True):
            args = (man, x, x[::-1].copy(), PAIR_IA, PAIR_IB, cfg, negative, same)
            fused, fused_grads = value_and_grads(pair_log_probs, *args)
            ref, ref_grads = value_and_grads(composed_log_probs, *args)
            assert np.array_equal(fused, ref)
            for got, want in zip(fused_grads, ref_grads):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    @pytest.mark.parametrize("man", MODELS, ids=lambda m: m.kind.value)
    def test_empty_pools_sum_to_zero(self, man, similarity):
        x = dg.ambient_to_internal(man, man.random_points(np.random.default_rng(0), 5, 1.0))
        empty = np.empty(0, dtype=np.int64)
        cfg = HpcConfig(similarity=similarity)
        for negative in (False, True):
            args = (man, x, x, empty, empty, cfg, negative, False)
            fused, fused_grads = value_and_grads(pair_log_probs, *args)
            ref, ref_grads = value_and_grads(composed_log_probs, *args)
            assert fused.shape == (1, 1) and fused[0, 0] == 0.0 and np.array_equal(fused, ref)
            for got, want in zip(fused_grads, ref_grads):
                assert not np.any(got) and not np.any(want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_distance_behind_the_clamp_is_rejected(self):
        # |x|^2 overflows, so d = inf; sigma clamps it to a finite loss, and
        # only the per-pair check sees it.
        man = MODELS[0]
        far = Tensor(np.array([[1e200, 0.0, 0.0, 0.0]]))
        origin = Tensor(np.zeros((1, 4)))
        for negative in (False, True):
            with pytest.raises(ad.NonFiniteError, match="'pair_log_probs'"):
                pair_log_probs(man, far, [0], origin, [0], HpcConfig(), negative)

    def test_hpc_loss_records_one_node_per_pool(self, ten_node_graph):
        rng = np.random.default_rng(5)
        man_a, man_b = MODELS
        ha = ad.parameter(dg.ambient_to_internal(man_a, man_a.random_points(rng, 10, 1.5)))
        hb = ad.parameter(dg.ambient_to_internal(man_b, man_b.random_points(rng, 10, 1.5)))
        plan = build_sample_plan(ten_node_graph, 2, np.random.default_rng(0))
        with Tape() as tape:
            hpc_loss(DualEmbedding(ha, hb, man_a, man_b), plan, HpcConfig(num_negatives=2))
        ops = Counter(node._op for node in tape.nodes)
        assert ops["pair_log_probs"] == 8  # 4 pools x 2 views
        assert ops["gather_rows"] == 0
        assert len(tape.nodes) <= 50

    def test_neg_dot_maps_each_view_through_log0_once(self):
        # Four view tensors (alpha, beta and their transfers), each mapped once;
        # the two transfers hold one log0 each as well.
        graph = synthetic_tree(3, 5)
        rng = np.random.default_rng(5)
        man_a, man_b = MODELS
        ha = ad.parameter(dg.ambient_to_internal(
            man_a, man_a.random_points(rng, graph.n_nodes, 1.5)))
        hb = ad.parameter(dg.ambient_to_internal(
            man_b, man_b.random_points(rng, graph.n_nodes, 1.5)))
        plan = build_sample_plan(graph, 5, np.random.default_rng(0))
        with Tape() as tape:
            hpc_loss(DualEmbedding(ha, hb, man_a, man_b), plan,
                     HpcConfig(num_negatives=5, similarity="neg_dot"))
        ops = Counter(node._op for node in tape.nodes)
        assert ops["artanh"] + ops["acosh"] == 6
        assert ops["pair_log_probs"] == 8
        assert len(tape.nodes) <= 75
