"""Hyperbolic position consistency loss.

Positives for an anchor are the same node in the other view (consistency)
plus its one-hop neighbors in the same view (tolerance); negatives are m
uniform draws per anchor from the nodes that are neither the anchor nor its
neighbors, drawn independently for the intra-view and inter-view pools.
Pair similarity runs through a distance-aware discriminator
sigma((b - d)/tau), clamped away from {0, 1} before any log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeo as dg
from .autodiff import Tensor
from .encoder import DualEmbedding
from .manifolds import Manifold, Point

PROB_CLAMP = 1e-7


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class HpcConfig:
    """Knobs of the contrastive term (negative weight, draws, discriminator)."""

    lambda_neg: float = 0.5
    num_negatives: int = 5
    bias: float = 2.0
    temperature: float = 1.0
    similarity: str = "distance"  # "neg_dot" swaps in the tangent inner product

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {self.num_negatives}")
        if self.lambda_neg < 0:
            raise ValueError(f"lambda_neg must be >= 0, got {self.lambda_neg}")
        if self.similarity not in ("distance", "neg_dot"):
            raise ValueError(f"unknown similarity {self.similarity!r}")


@dataclass
class SamplePlan:
    """Per-anchor positive/negative ids for one epoch of contrastive terms."""

    neighbors: list[np.ndarray]
    neg_intra: np.ndarray  # (n, m)
    neg_inter: np.ndarray  # (n, m)
    edge_anchor: np.ndarray  # flattened (anchor, neighbor) pairs, both directions
    edge_nbr: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.neighbors)

    @property
    def num_negatives(self) -> int:
        return self.neg_intra.shape[1]


def build_sample_plan(graph, m: int, rng: np.random.Generator) -> SamplePlan:
    """Draw m intra-view and m inter-view negatives per anchor, excluding the
    anchor and its one-hop neighborhood, uniformly without replacement.

    O(n*m) array passes: every pool is checked up front, ranks are drawn with
    a vectorised Floyd step, and one ``searchsorted`` maps ranks to node ids.
    """
    n = graph.n_nodes
    adj = graph.csr_adjacency()
    deg = np.diff(adj.indptr).astype(np.int64)
    edge_anchor = np.repeat(np.arange(n, dtype=np.int64), deg)
    edge_nbr = adj.indices.astype(np.int64)

    # Excluded set of anchor i = {i} + neighbors, sorted, as a CSR segment.
    # Key i*(n+1) + e keeps the segments apart in one flat sorted array; the
    # graph's edges are canonical (no self-loops or repeats), so keys are unique.
    stride = n + 1
    keys = np.sort(np.concatenate([np.arange(n, dtype=np.int64) * (stride + 1),
                                   edge_anchor * stride + edge_nbr]))
    seg_row = keys // stride
    excluded = deg + 1  # the anchor and its neighbors
    start = np.cumsum(excluded) - excluded
    pool = n - excluded
    short = np.flatnonzero(pool < m)
    if short.size:
        i = int(short[0])
        msg = (f"anchor {i}: negative pool has {int(pool[i])} nodes < m={m}"
               f"; {short.size} of {n} anchors are short")
        if short.size > 1:
            others = ", ".join(str(int(j)) for j in short[1:9])
            msg += f" (others: {others}{', ...' if short.size > 9 else ''})"
        raise SamplingError(msg)
    # The k-th excluded id e_k of a segment skips every rank r >= e_k - k, so
    # rank r maps to r + #{k : e_k - k <= r}.
    rank_keys = keys - np.arange(keys.size) + start[seg_row]
    row_keys = np.arange(n, dtype=np.int64)[:, None] * stride

    def draw() -> np.ndarray:
        """(n, m) sorted ids: m distinct uniform ranks in [0, pool_i) per row
        (Floyd's algorithm, one array pass per column), mapped to node ids."""
        ranks = np.empty((n, m), dtype=np.int64)
        for k in range(m):
            top = pool - m + k
            pick = rng.integers(0, top + 1)
            seen = np.any(ranks[:, :k] == pick[:, None], axis=1)
            ranks[:, k] = np.where(seen, top, pick)
        ranks.sort(axis=1)
        skipped = np.searchsorted(rank_keys, row_keys + ranks, side="right") - start[:, None]
        return ranks + skipped

    return SamplePlan(graph.neighbor_lists(), draw(), draw(), edge_anchor, edge_nbr)


# ---------------------------------------------------------------------------
# Discriminator
# ---------------------------------------------------------------------------

def pair_probs(man: Manifold, a: Tensor, b: Tensor, cfg: HpcConfig) -> Tensor:
    """Rowwise pair probability sigma((b - similarity)/tau) in (clamp, 1-clamp)."""
    if cfg.similarity == "distance":
        score = dg.dist_rows(man, a, b)
    else:
        score = ad.scalar_mul(dg.tangent_dot_rows(man, man, a, b), -1.0)
    z = ad.scalar_mul(ad.sub(cfg.bias, score), 1.0 / cfg.temperature)
    return ad.clip(ad.sigmoid(z), PROB_CLAMP, 1.0 - PROB_CLAMP)


def discriminator(x: Point, y: Point, cfg: HpcConfig = HpcConfig()) -> float:
    """Probability that the pair (x, y) is a positive; decreasing in distance."""
    if x.manifold != y.manifold:
        raise ValueError(f"manifold mismatch: {x.manifold} vs {y.manifold}")
    man = x.manifold
    ai = dg.ambient_to_internal(man, x.coords[None, :])
    bi = dg.ambient_to_internal(man, y.coords[None, :])
    return pair_probs(man, Tensor(ai), Tensor(bi), cfg).item()


# ---------------------------------------------------------------------------
# Per-anchor mutual-information terms (evaluation path)
# ---------------------------------------------------------------------------

def _views(emb: DualEmbedding, view: str):
    if view == "alpha":
        return emb.alpha, emb.beta, emb.manifold_alpha, emb.manifold_beta
    return emb.beta, emb.alpha, emb.manifold_beta, emb.manifold_alpha


def mi_consistency(i: int, emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
                   view: str = "alpha") -> float:
    """log D(anchor, transferred same-id node) + lambda_n * sum log(1 - D(negatives))."""
    own, other, man_own, man_other = _views(emb, view)
    transferred = dg.transfer0(man_other, man_own, other)
    anchor = ad.gather_rows(own, [i])
    pos = math.log(pair_probs(man_own, anchor, ad.gather_rows(transferred, [i]), cfg).item())
    if cfg.lambda_neg == 0.0:
        return pos
    negs = [
        math.log(1.0 - pair_probs(man_own, anchor, ad.gather_rows(transferred, [j]), cfg).item())
        for j in plan.neg_inter[i]
    ]
    return pos + cfg.lambda_neg * math.fsum(negs)


def mi_tolerance(i: int, emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
                 view: str = "alpha") -> float:
    """sum over one-hop neighbors of log D + lambda_n * sum log(1 - D(intra negatives))."""
    own, _, man_own, _ = _views(emb, view)
    anchor = ad.gather_rows(own, [i])
    pos = math.fsum(
        math.log(pair_probs(man_own, anchor, ad.gather_rows(own, [j]), cfg).item())
        for j in plan.neighbors[i]
    )
    if cfg.lambda_neg == 0.0:
        return pos
    negs = [
        math.log(1.0 - pair_probs(man_own, anchor, ad.gather_rows(own, [j]), cfg).item())
        for j in plan.neg_intra[i]
    ]
    return pos + cfg.lambda_neg * math.fsum(negs)


# ---------------------------------------------------------------------------
# Full loss (vectorized, differentiable)
# ---------------------------------------------------------------------------

def hpc_loss(emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
             include_tolerance: bool = True) -> Tensor:
    """-(1/2n) sum_i [consistency(alpha) + consistency(beta)
    + tolerance(alpha) + tolerance(beta)], differentiable in both views."""
    n = plan.n_nodes
    man_a, man_b = emb.manifold_alpha, emb.manifold_beta
    beta_in_alpha = dg.transfer0(man_b, man_a, emb.beta)
    alpha_in_beta = dg.transfer0(man_a, man_b, emb.alpha)
    anchors = np.repeat(np.arange(n), plan.num_negatives)

    def negative_term(man, own, candidates, neg_ids):
        """sum over all (anchor, negative) pairs of log(1 - D), one gather each."""
        probs = pair_probs(man, ad.gather_rows(own, anchors),
                           ad.gather_rows(candidates, neg_ids.ravel()), cfg)
        return ad.reduce_sum(ad.log(ad.sub(1.0, probs)))

    total = ad.reduce_sum(ad.log(pair_probs(man_a, emb.alpha, beta_in_alpha, cfg)))
    total = ad.add(total, ad.reduce_sum(ad.log(pair_probs(man_b, emb.beta, alpha_in_beta, cfg))))
    if cfg.lambda_neg > 0.0:
        neg_sum = ad.add(negative_term(man_a, emb.alpha, beta_in_alpha, plan.neg_inter),
                         negative_term(man_b, emb.beta, alpha_in_beta, plan.neg_inter))
        total = ad.add(total, ad.scalar_mul(neg_sum, cfg.lambda_neg))

    if include_tolerance:
        if plan.edge_anchor.size:
            ta = ad.reduce_sum(ad.log(pair_probs(
                man_a, ad.gather_rows(emb.alpha, plan.edge_anchor),
                ad.gather_rows(emb.alpha, plan.edge_nbr), cfg)))
            tb = ad.reduce_sum(ad.log(pair_probs(
                man_b, ad.gather_rows(emb.beta, plan.edge_anchor),
                ad.gather_rows(emb.beta, plan.edge_nbr), cfg)))
            total = ad.add(total, ad.add(ta, tb))
        if cfg.lambda_neg > 0.0:
            neg_sum = ad.add(negative_term(man_a, emb.alpha, emb.alpha, plan.neg_intra),
                             negative_term(man_b, emb.beta, emb.beta, plan.neg_intra))
            total = ad.add(total, ad.scalar_mul(neg_sum, cfg.lambda_neg))

    return ad.scalar_mul(total, -1.0 / (2.0 * n))
