"""Contrastive loss: sampler, pair probability, MI terms, full objective."""

import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hgcl import autodiff as ad
from hgcl import diffgeo as dg
from hgcl import hpc as hpc_mod
from hgcl import manifolds as mf
from hgcl.autodiff import Tape, Tensor
from hgcl.data import Graph, synthetic_tree
from hgcl.encoder import DualEmbedding
from hgcl.hpc import (HpcConfig, Pool, SamplePlan, SamplingError, build_sample_plan,
                      hpc_loss, mi_consistency, mi_tolerance, pair_probs, pool_log_probs)


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
        order = np.argsort(radii)
        assert np.all(np.diff(probs[order]) < 0)


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

    def test_later_draws_keep_the_rng_stream(self):
        # One generator across three plans: the second and third draw what the
        # sampler drew when every plan rebuilt its graph constants.
        g = Graph(8, np.array([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6)]),
                  np.zeros((8, 1)), np.zeros(8, dtype=int))
        rng = np.random.default_rng(11)
        plans = [build_sample_plan(g, 3, rng) for _ in range(3)]
        assert plans[1].neg_intra.tolist() == [[2, 5, 6], [3, 4, 6], [5, 6, 7], [1, 4, 7],
                                               [1, 2, 3], [0, 1, 2], [1, 2, 3], [1, 4, 6]]
        assert plans[1].neg_inter.tolist() == [[4, 5, 6], [3, 5, 7], [0, 6, 7], [1, 6, 7],
                                               [2, 6, 7], [1, 2, 7], [3, 4, 7], [0, 1, 2]]
        assert plans[2].neg_intra.tolist() == [[2, 6, 7], [3, 4, 6], [0, 4, 7], [1, 4, 5],
                                               [0, 1, 6], [0, 1, 3], [0, 3, 4], [1, 3, 5]]
        assert plans[2].neg_inter.tolist() == [[4, 5, 7], [3, 5, 7], [0, 6, 7], [1, 5, 7],
                                               [0, 2, 6], [0, 1, 7], [0, 1, 3], [0, 1, 3]]
        assert g.plan_frames[3] is hpc_mod.plan_frame(g, 3)  # built once, on the first plan

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

    @pytest.mark.parametrize("anchor, nbr, named", [
        ([1], [0], "(1, 0) has no reverse (0, 1)"),
        ([2], [2], "(2, 2) is a self-pair"),
        ([0, 1, 3, 2, 2], [1, 0, 2, 3, 2], "(2, 2) is a self-pair"),
        ([0, 3, 1, 2], [1, 2, 0, 1], "(3, 2) has no reverse (2, 3)"),
        ([0, 0, 1], [1, 1, 0], "(0, 1) appears 2 times and its reverse (1, 0) 1"),
        ([1, 0, 1, 2, 3], [0, 1, 0, 3, 2], "(1, 0) appears 2 times and its reverse (0, 1) 1"),
    ], ids=["one-way", "self", "self-after-both-ways", "first-of-two-one-way",
            "doubled-one-way", "doubled-first"])
    def test_hand_built_pairs_must_come_both_ways(self, anchor, nbr, named):
        # The intra pool keeps each edge from its lower end at weight 2, so a
        # one-way pair or a self-pair would be scored unlike the mi_* sums.
        negs = np.array([[2], [3], [0], [1]])
        with pytest.raises(SamplingError, match=f"^hand-made pair {re.escape(named)};"):
            SamplePlan(negs, negs.copy(), np.array(anchor), np.array(nbr))

    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    def test_hand_built_pairs_in_any_order(self, rng, similarity):
        # The shuffled pairs of test_tolerance_reads_unsorted_hand_built_pairs:
        # a plan made by hand orders its own pairs, so it scores what the plan
        # with sorted pairs scores.
        man_a, man_b = mf.poincare(2, -1.0), mf.lorentz(2, -0.5)
        emb = DualEmbedding(
            Tensor(dg.ambient_to_internal(man_a, man_a.random_points(rng, 6, 2.0))),
            Tensor(dg.ambient_to_internal(man_b, man_b.random_points(rng, 6, 2.0))),
            man_a, man_b)
        cfg = HpcConfig(lambda_neg=0.3, num_negatives=2, similarity=similarity)
        nbrs = {0: [1, 2, 5], 1: [0], 2: [0, 3], 3: [2], 4: [], 5: [0]}
        negs = np.array([[3, 4], [2, 3], [1, 5], [0, 1], [0, 1], [1, 2]])
        anchor = np.array([i for i in nbrs for _ in nbrs[i]])
        nbr = np.array([j for i in nbrs for j in nbrs[i]])
        order = np.random.default_rng(7).permutation(anchor.size)
        shuffled = SamplePlan(negs, negs.copy(), anchor[order], nbr[order])
        got = hpc_loss(emb, shuffled, cfg).item()
        assert got == hpc_loss(emb, SamplePlan(negs, negs.copy(), anchor, nbr), cfg).item()
        total = math.fsum(term(i, emb, shuffled, cfg, view)
                          for term in (mi_consistency, mi_tolerance)
                          for view in ("alpha", "beta") for i in range(6))
        assert got == pytest.approx(-total / (2 * 6), abs=1e-10)

    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    @pytest.mark.parametrize("include_tolerance", [True, False])
    def test_matches_mi_sums_with_hub_isolated_node_and_two_components(
            self, rng, monkeypatch, similarity, include_tolerance):
        # hub 0 with leaves 1-6, leaf chain 6-7; path 8-9-10-11; node 12 isolated
        edges = [(0, j) for j in range(1, 7)] + [(6, 7), (8, 9), (9, 10), (10, 11)]
        g = Graph(13, np.array(edges), np.zeros((13, 1)), np.zeros(13, dtype=int))
        man_a, man_b = mf.poincare(3, -1.3), mf.lorentz(3, -0.7)
        emb = DualEmbedding(
            Tensor(dg.ambient_to_internal(man_a, man_a.random_points(rng, 13, 2.5))),
            Tensor(dg.ambient_to_internal(man_b, man_b.random_points(rng, 13, 2.5))),
            man_a, man_b)
        gathered = []  # (candidate rows, of which negative) per pair_log_probs node
        real_node = hpc_mod.pool_log_probs

        def counting_node(man, own, cand, pool, cfg, *args):
            gathered.append((pool.ids.size, int(np.sum(pool.negative))))
            return real_node(man, own, cand, pool, cfg, *args)

        monkeypatch.setattr(hpc_mod, "pool_log_probs", counting_node)
        terms = [mi_consistency] + ([mi_tolerance] if include_tolerance else [])
        # train samples m = 0 at lambda_neg = 0, so that case gathers no negative row
        for lambda_neg, m in ((0.8, 3), (0.0, 0)):
            plan = build_sample_plan(g, m, np.random.default_rng(4))
            cfg = HpcConfig(num_negatives=3, lambda_neg=lambda_neg, similarity=similarity)
            total = math.fsum(term(i, emb, plan, cfg, view) for term in terms
                              for view in ("alpha", "beta") for i in range(13))
            gathered.clear()
            got = hpc_loss(emb, plan, cfg, include_tolerance=include_tolerance).item()
            assert got == pytest.approx(-total / (2 * 13), abs=1e-10)
            per_view = [(13 * (1 + m), 13 * m)]
            if include_tolerance:
                per_view.append((len(edges) + 13 * m, 13 * m))  # each edge once
            assert gathered == per_view * 2

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


def scored_pool(man, own, cand, pool, cfg):
    """The pool node on rows in scoring form: ``log0`` tangents of the points
    for ``neg_dot``, as the composed ``pair_probs`` route reads them."""
    if cfg.similarity == "neg_dot":
        own_t = dg.log0(man, own)
        cand = own_t if cand is own else dg.log0(man, cand)
        own = own_t
    return pool_log_probs(man, own, cand, pool, cfg)


def composed_pool(man, own, cand, pool, cfg):
    """The reference route of a pool: each pair's rows gathered in the pool's
    order, scored by ``pair_probs`` and logged, the logs weighted by sign."""
    rows = np.repeat(np.arange(pool.ids.shape[0]) if pool.anchors is None else pool.anchors,
                     pool.ids.shape[1])
    negative = pool.negative.ravel()
    probs = pair_probs(man, ad.gather_rows(own, rows), ad.gather_rows(cand, pool.ids.ravel()),
                       cfg)
    logs = ad.log(ad.add(ad.mul(probs, np.where(negative, -1.0, 1.0)[:, None]),
                         negative.astype(float)[:, None]))
    weights = np.where(negative, pool.neg_weight, pool.pos_weight)
    return ad.reduce_sum(ad.mul(logs, weights[:, None]))


def value_and_grads(route, man, x, y, pool, cfg, same):
    own = ad.parameter(x.copy())
    cand = own if same else ad.parameter(y.copy())
    with Tape() as tape:
        out = route(man, own, cand, pool, cfg)
        tape.backward(out)
    return out.value, [own.grad] if same else [own.grad, cand.grad]


def pool_of(pos, neg=None, neg_weight=1.0):
    """A hand-built CSR pool in which own row i scores the candidates
    ``pos[i]`` as positives, then ``neg[i]`` as negatives."""
    neg = [[] for _ in pos] if neg is None else neg
    rows = [list(p) + list(q) for p, q in zip(pos, neg)]
    ids = np.array([j for row in rows for j in row], dtype=np.int64)
    negative = np.array([k >= len(p) for p, row in zip(pos, rows) for k in range(len(row))],
                        dtype=bool)
    deg = np.array([len(row) for row in rows], dtype=np.int64)
    return Pool(ids[:, None], negative[:, None], np.concatenate([[0], np.cumsum(deg)]),
                neg_weight, anchors=np.repeat(np.arange(len(rows)), deg))


def flat_pool(ia, ib, negative, n):
    """The pairs (ia_p, ib_p) as a CSR pool over n own rows, in anchor order
    (a stable sort, so repeated anchors keep their pairs' order)."""
    rows = [list(np.asarray(ib)[np.asarray(ia) == i]) for i in range(n)]
    empty = [[] for _ in rows]
    return pool_of(empty, rows) if negative else pool_of(rows)


MODELS = [mf.poincare(4, -1.0), mf.lorentz(4, -0.5)]
# Unsorted anchors, a repeated pair, every row used on both sides.
PAIR_IA = np.array([3, 0, 0, 5, 2, 2, 7, 1, 6, 4])
PAIR_IB = np.array([1, 4, 4, 0, 3, 6, 2, 7, 5, 0])


class TestPairLogProbs:
    """The pool node on hand-built CSR pools against the composed route,
    whose value it matches bit for bit when both take the pairs in the
    pool's order."""

    @pytest.mark.parametrize("negative", [False, True], ids=["pos", "neg"])
    @pytest.mark.parametrize("same", [False, True], ids=["two-tensors", "own-is-cand"])
    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    @pytest.mark.parametrize("man", MODELS, ids=lambda m: m.kind.value)
    def test_matches_composed_route(self, man, similarity, same, negative):
        rng = np.random.default_rng(7)
        x = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        y = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        cfg = HpcConfig(bias=1.5, temperature=0.8, similarity=similarity)
        args = (man, x, y, flat_pool(PAIR_IA, PAIR_IB, negative, 8), cfg, same)
        fused, fused_grads = value_and_grads(scored_pool, *args)
        ref, ref_grads = value_and_grads(composed_pool, *args)
        assert np.array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("man", MODELS, ids=lambda m: m.kind.value)
    def test_mixed_signs_and_an_empty_row(self, man):
        # One pool holding both signs, weighted negatives and an own row with
        # no pair, as hpc_loss's merged pools do.
        rng = np.random.default_rng(8)
        x = dg.ambient_to_internal(man, man.random_points(rng, 6, 2.0))
        y = dg.ambient_to_internal(man, man.random_points(rng, 6, 2.0))
        pool = pool_of([[4, 4], [], [3], [1], [0, 5], [2]],
                       [[1], [], [0, 5], [2], [3], [4, 4]], neg_weight=0.3)
        cfg = HpcConfig(bias=1.5, temperature=0.8)
        for same in (False, True):
            fused, fused_grads = value_and_grads(pool_log_probs, man, x, y, pool, cfg, same)
            ref, ref_grads = value_and_grads(composed_pool, man, x, y, pool, cfg, same)
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
            args = (man, x, y, flat_pool(ia, ib, negative, 8), cfg, same)
            fused, fused_grads = value_and_grads(pool_log_probs, *args)
            ref, ref_grads = value_and_grads(composed_pool, *args)
            assert np.array_equal(fused, ref)
            # On the hyperboloid the acosh argument rounds to 1 +- 1 ulp at d = 0,
            # and above 1 its clamped slope 1/sqrt(MIN_NORM) ~ 3e7 turns rounding
            # noise into the gradient of both routes, so only the ball's compare.
            if man.kind is mf.Model.POINCARE:
                for got, want in zip(fused_grads, ref_grads):
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                only_zero = pool_log_probs(man, Tensor(x), Tensor(y),
                                           flat_pool(ia[:4], ib[:4], negative, 8), cfg)
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
        pool = flat_pool(PAIR_IA, PAIR_IB, negative, 8)
        for same in (False, True):
            args = (man, x, x[::-1].copy(), pool, cfg, same)
            fused, fused_grads = value_and_grads(pool_log_probs, *args)
            ref, ref_grads = value_and_grads(composed_pool, *args)
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
            args = (man, x, x, flat_pool(empty, empty, negative, 5), cfg, False)
            fused, fused_grads = value_and_grads(scored_pool, *args)
            ref, ref_grads = value_and_grads(composed_pool, *args)
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
                pool_log_probs(man, far, origin, flat_pool([0], [0], negative, 1), HpcConfig())

    def test_hpc_loss_records_one_node_per_pool(self, ten_node_graph):
        # The embedding carries its tangents, as encode_views builds it.
        rng = np.random.default_rng(5)
        man_a, man_b = MODELS
        ta = ad.parameter(man_a.random_tangents0(rng, 10, 1.5))
        tb = ad.parameter(man_b.random_tangents0(rng, 10, 1.5))
        plan = build_sample_plan(ten_node_graph, 2, np.random.default_rng(0))
        with Tape() as tape:
            emb = DualEmbedding(dg.exp0(man_a, ta), dg.exp0(man_b, tb), man_a, man_b, ta, tb)
            hpc_loss(emb, plan, HpcConfig(num_negatives=2))
        ops = Counter(node._op for node in tape.nodes)
        assert ops["pair_log_probs"] == 4  # 2 merged pools x 2 views
        assert ops["gather_rows"] == 0
        assert len(tape.nodes) <= 14

    def test_neg_dot_scores_the_carried_tangents(self, log0_calls):
        # neg_dot scores the tangents the embedding carries, the moved views as
        # transfer_scale · tangent, so it takes no origin map; built from the
        # points alone, the views' log0 gives the same loss up to the round trip.
        graph = synthetic_tree(3, 5)
        rng = np.random.default_rng(5)
        man_a, man_b = MODELS
        ta = ad.parameter(man_a.random_tangents0(rng, graph.n_nodes, 1.5))
        tb = ad.parameter(man_b.random_tangents0(rng, graph.n_nodes, 1.5))
        ha, hb = dg.exp0(man_a, ta), dg.exp0(man_b, tb)
        plan = build_sample_plan(graph, 5, np.random.default_rng(0))
        cfg = HpcConfig(num_negatives=5, similarity="neg_dot")
        with Tape() as tape:
            carried = hpc_loss(DualEmbedding(ha, hb, man_a, man_b, ta, tb), plan, cfg)
        ops = Counter(node._op for node in tape.nodes)
        assert (len(log0_calls), ops["exp0"], ops["pair_log_probs"]) == (0, 0, 4)
        assert len(tape.nodes) <= 12
        from_points = hpc_loss(DualEmbedding(ha, hb, man_a, man_b), plan, cfg)
        assert carried.item() == pytest.approx(from_points.item(), rel=1e-13, abs=0)

    @pytest.mark.parametrize("intra", [False, True], ids=["inter", "intra"])
    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    @pytest.mark.parametrize("man", MODELS, ids=lambda m: m.kind.value)
    def test_keeps_16_bytes_per_pair_for_its_backward(self, man, similarity, intra):
        # After its forward, the node holds its sigmoids and pair_dist's state
        # (none for neg_dot), 8 bytes each per pair; the 8 KiB slack covers its
        # tensor, closure and block tuples. The node terms are read again by
        # index in the backward, not kept per pair.
        graph = synthetic_tree(3, 7)
        plan = build_sample_plan(graph, 5, np.random.default_rng(0))
        rng = np.random.default_rng(9)
        x, y = (ad.parameter(dg.ambient_to_internal(man, man.random_points(rng, graph.n_nodes)))
                for _ in range(2))
        cand = x if intra else y
        pool = plan.intra_pool(0.5) if intra else plan.inter_pool(0.5)
        terms = man.node_terms(x.value), man.node_terms(cand.value)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = pool_log_probs(man, x, cand, pool, HpcConfig(similarity=similarity),
                                     terms)
                added = tracemalloc.get_traced_memory()[0] - before - out.value.nbytes
        finally:
            if started:
                tracemalloc.stop()
        assert len(pool.blocks()) == 2 and tape.nodes == [out]
        assert added <= 16 * pool.ids.size + 8192


# hub 0 with leaves 1-4, path 5-6; node 7 isolated
POOL_GRAPH = Graph(8, np.array([(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)]),
                   np.zeros((8, 1)), np.zeros(8, dtype=int))


class TestMergedPools:
    """Each view scores two pools: the consistency positive with the inter
    negatives as one block, the tolerance pairs with the intra negatives as
    one CSR."""

    def test_inter_pool_is_the_anchor_then_its_negatives(self):
        plan = build_sample_plan(POOL_GRAPH, 2, np.random.default_rng(0))
        pool = plan.inter_pool(0.3)
        assert pool.anchors is None and pool.neg_weight == 0.3
        assert np.array_equal(pool.ids, np.column_stack([np.arange(8), plan.neg_inter]))
        assert pool.negative[:, 1:].all()
        assert not np.any(pool.negative[:, 0])
        assert np.array_equal(pool.indptr, np.arange(0, 25, 3))

    def test_intra_pool_is_the_csr_rows_then_their_negatives(self):
        plan = build_sample_plan(POOL_GRAPH, 2, np.random.default_rng(0))
        csr = POOL_GRAPH.csr_adjacency()
        pool = plan.intra_pool(0.3)
        assert (pool.pos_weight, pool.neg_weight) == (2.0, 0.3)
        upper = [csr.indices[csr.indptr[i]:csr.indptr[i + 1]] for i in range(8)]
        upper = [nbrs[nbrs > i] for i, nbrs in enumerate(upper)]
        assert np.array_equal(np.diff(pool.indptr), [len(nbrs) + 2 for nbrs in upper])
        for i, nbrs in enumerate(upper):
            row = slice(pool.indptr[i], pool.indptr[i + 1])
            assert np.array_equal(pool.ids[row, 0], np.concatenate([nbrs, plan.neg_intra[i]]))
            assert np.array_equal(pool.negative[row, 0], np.arange(len(nbrs) + 2) >= len(nbrs))
            assert np.all(pool.anchors[row] == i)

    @pytest.mark.parametrize("graph", [POOL_GRAPH, synthetic_tree(3, 4)], ids=["pool", "tree"])
    def test_intra_pool_scores_each_edge_once_at_weight_two(self, graph):
        plan = build_sample_plan(graph, 2, np.random.default_rng(3))
        for lambda_neg in (0.3, 0.0):
            pool = plan.intra_pool(lambda_neg)
            pos = ~pool.negative[:, 0]
            pairs = np.column_stack([pool.anchors[pos], pool.ids[pos, 0]])
            assert pool.pos_weight == 2.0
            assert np.array_equal(pairs, graph.edges)  # (min, max), each edge once, sorted

    def test_intra_negative_slots_hold_the_plans_negatives(self):
        # Each row's last m slots are its intra negatives, in the plan's order,
        # as they were when the pool held both directions of every edge.
        plan = build_sample_plan(POOL_GRAPH, 2, np.random.default_rng(0))
        pool = plan.intra_pool(0.3)
        ends = pool.indptr[1:, None] - 2 + np.arange(2)
        assert np.array_equal(pool.ids[ends, 0], plan.neg_intra)
        assert pool.negative[ends, 0].all() and pool.negative.sum() == plan.neg_intra.size
        again = build_sample_plan(POOL_GRAPH, 2, np.random.default_rng(1)).intra_pool(0.3)
        assert np.array_equal(again.indptr, pool.indptr)  # the layout is per graph
        assert np.array_equal(again.ids[~again.negative], pool.ids[~pool.negative])

    def test_lambda_zero_pools_hold_no_negatives(self):
        plan = build_sample_plan(POOL_GRAPH, 0, np.random.default_rng(0))  # as train draws it
        inter, intra = plan.inter_pool(0.0), plan.intra_pool(0.0)
        assert np.array_equal(inter.ids, np.arange(8)[:, None]) and not np.any(inter.negative)
        upper = plan.edge_nbr > plan.edge_anchor
        assert np.array_equal(intra.ids[:, 0], plan.edge_nbr[upper]) and not np.any(intra.negative)
        assert np.array_equal(intra.indptr, np.concatenate(
            [[0], np.cumsum(np.bincount(plan.edge_anchor[upper], minlength=8))]))

    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    def test_lambda_zero_scores_drawn_negatives_at_weight_zero(self, similarity):
        # A plan with m >= 1 scored at lambda_neg = 0 (one made by hand, or a
        # direct hpc_loss call) adds exact zeros: the gradients are those of
        # the m = 0 plan bit for bit, and only the loss's sum order moves.
        rng = np.random.default_rng(2)
        man_a, man_b = MODELS
        ha = ad.parameter(dg.ambient_to_internal(man_a, man_a.random_points(rng, 8, 2.0)))
        hb = ad.parameter(dg.ambient_to_internal(man_b, man_b.random_points(rng, 8, 2.0)))
        cfg = HpcConfig(lambda_neg=0.0, similarity=similarity)
        results = []
        for m in (2, 0):
            plan = build_sample_plan(POOL_GRAPH, m, np.random.default_rng(0))
            ha.grad = hb.grad = None
            with Tape() as tape:
                loss = hpc_loss(DualEmbedding(ha, hb, man_a, man_b), plan, cfg)
                tape.backward(loss)
            results.append((loss.item(), ha.grad.copy(), hb.grad.copy()))
        (drawn, *drawn_grads), (none, *none_grads) = results
        assert drawn == pytest.approx(none, rel=1e-15)
        assert all(np.array_equal(a, b) for a, b in zip(drawn_grads, none_grads))

    @pytest.mark.parametrize("intra", [False, True], ids=["inter-block", "intra-csr"])
    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    @pytest.mark.parametrize("man", MODELS, ids=lambda m: m.kind.value)
    def test_matches_composed_route(self, man, similarity, intra):
        rng = np.random.default_rng(9)
        plan = build_sample_plan(POOL_GRAPH, 2, np.random.default_rng(1))
        cfg = HpcConfig(bias=1.5, temperature=0.8, lambda_neg=0.6, similarity=similarity)
        pool = plan.intra_pool(0.6) if intra else plan.inter_pool(0.6)
        x = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        y = dg.ambient_to_internal(man, man.random_points(rng, 8, 2.0))
        results = []
        for route in (scored_pool, composed_pool):
            own = ad.parameter(x.copy())
            cand = own if intra else ad.parameter(y.copy())
            with Tape() as tape:
                out = route(man, own, cand, pool, cfg)
                tape.backward(out)
            results.append((out.item(), [own.grad] if intra else [own.grad, cand.grad]))
        (fused, fused_grads), (ref, ref_grads) = results
        assert fused == pytest.approx(ref, rel=1e-14)
        for got, want in zip(fused_grads, ref_grads):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("similarity", ["distance", "neg_dot"])
    def test_pair_chunks_leave_the_bits_unchanged(self, monkeypatch, similarity):
        graph = synthetic_tree(3, 4)
        rng = np.random.default_rng(5)
        man_a, man_b = MODELS
        ha = ad.parameter(dg.ambient_to_internal(
            man_a, man_a.random_points(rng, graph.n_nodes, 1.5)))
        hb = ad.parameter(dg.ambient_to_internal(
            man_b, man_b.random_points(rng, graph.n_nodes, 1.5)))
        plan = build_sample_plan(graph, 3, np.random.default_rng(0))
        cfg = HpcConfig(num_negatives=3, similarity=similarity)

        def run():
            ha.grad = hb.grad = None
            with Tape() as tape:
                loss = hpc_loss(DualEmbedding(ha, hb, man_a, man_b), plan, cfg)
                tape.backward(loss)
            return loss.item(), ha.grad.copy(), hb.grad.copy()

        whole = run()
        monkeypatch.setattr(hpc_mod, "PAIR_CHUNK", 7)  # blocks of 1-7 rows, ragged at the end
        chunked = run()
        assert whole[0] == chunked[0]
        assert all(np.array_equal(a, b) for a, b in zip(whole[1:], chunked[1:]))
