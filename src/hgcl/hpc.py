"""Hyperbolic position consistency loss.

Positives for an anchor are the same node in the other view (consistency)
plus its one-hop neighbors in the same view (tolerance); negatives are m
uniform draws per anchor from the nodes that are neither the anchor nor its
neighbors, drawn independently for the intra-view and inter-view pools.
Pair similarity is the distance-aware probability ``pair_probs``,
sigma((b - d)/tau), clamped away from {0, 1} before any log.

Training scores every pool with one fused tape primitive,
``pair_log_probs``: it runs the float ops of the composed ``pair_probs``
route on gathered rows, and its backward is closed form (a sparse n x n
product per view, no n·m x d tensors on the tape). The distance and its
slopes come from ``Manifold.pair_dist``. ``pair_probs`` stays as the
composed reference that the per-anchor ``mi_*`` sums and the parity tests
run. The cross-view positives move each view through the origin tangent
space with the fused ``dg.exp0``/``dg.log0`` nodes, starting from the
tangent that the decoder shares (``DualEmbedding.tangent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import diffgeo as dg
from .autodiff import Tensor
from .encoder import DualEmbedding
from .manifolds import Manifold, transfer_scale

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
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {self.num_negatives}")
        if not 0 <= self.lambda_neg < math.inf:
            raise ValueError(f"lambda_neg must be finite and >= 0, got {self.lambda_neg}")
        if not math.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias}")
        if self.similarity not in ("distance", "neg_dot"):
            raise ValueError(f"unknown similarity {self.similarity!r}")


@dataclass
class SamplePlan:
    """One epoch of contrastive ids: m negatives per anchor for each pool, and
    the tolerance positives as flat (anchor, neighbor) pairs."""

    neg_intra: np.ndarray  # (n, m)
    neg_inter: np.ndarray  # (n, m)
    edge_anchor: np.ndarray  # flattened (anchor, neighbor) pairs, both directions
    edge_nbr: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.neg_intra.shape[0]

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

    return SamplePlan(draw(), draw(), edge_anchor, edge_nbr)


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


def _pair_matrix(w: np.ndarray, ia: np.ndarray, ib: np.ndarray, shape) -> sp.csr_matrix:
    """Sparse matrix with w_p at (ia_p, ib_p), repeats summed by its products.
    The pools' anchors come in CSR order already, so they need no sort."""
    if ia.size > 1 and np.any(ia[1:] < ia[:-1]):
        order = np.argsort(ia, kind="stable")
        w, ia, ib = w[order], ia[order], ib[order]
    indptr = np.searchsorted(ia, np.arange(shape[0] + 1))
    return sp.csr_matrix((w, ib, indptr), shape=shape)


def pair_log_probs(man: Manifold, own: Tensor, ia, cand: Tensor, ib, cfg: HpcConfig,
                   negative: bool) -> Tensor:
    """Sum over pairs p of log D(own[ia_p], cand[ib_p]), or of log(1 - D) if
    ``negative``, as one tape node.

    The value is bitwise that of ``pair_probs`` on gathered rows followed by
    ``log`` and ``reduce_sum``. The backward is closed form, through the
    slopes of ``Manifold.pair_dist``, and keeps each masked zero slope of the
    composed route: the probability clamp, acosh at arg <= 1 and the
    conformal factor's floor. For ``neg_dot`` both views go through
    ``dg.log0`` on the tape first. ``own is cand`` (the intra-view pools)
    accumulates both sides into the one tensor.
    """
    if cfg.similarity == "neg_dot":
        own_log = dg.log0(man, own)
        cand = own_log if cand is own else dg.log0(man, cand)
        own = own_log
    return _pool_log_probs(man, own, ia, cand, ib, cfg, negative)


def _pool_log_probs(man: Manifold, own: Tensor, ia, cand: Tensor, ib, cfg: HpcConfig,
                    negative: bool) -> Tensor:
    """The node of :func:`pair_log_probs` on rows already in scoring form:
    points for ``distance``, ``log0`` tangent rows for ``neg_dot``."""
    same = own is cand
    x, y = own.value, cand.value
    ia = np.asarray(ia, dtype=np.int64).ravel()
    ib = np.asarray(ib, dtype=np.int64).ravel()
    if cfg.similarity == "neg_dot":  # x, y are already log0 rows
        score = np.sum(np.take(x, ia, axis=0) * np.take(y, ib, axis=0), axis=1) * -1.0

        def slopes(gs):
            return -gs, np.zeros(x.shape[0]), np.zeros(y.shape[0])
    else:
        tx = man.node_terms(x)
        score, slopes = man.pair_dist(x, tx, ia, y, tx if same else man.node_terms(y), ib)
    if not np.all(np.isfinite(score)):  # the clamp below would hide an inf
        raise ad.NonFiniteError("non-finite values produced by 'pair_log_probs'")
    sig = ad.stable_sigmoid((cfg.bias - score) * (1.0 / cfg.temperature))
    prob = np.clip(sig, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = np.sum(np.log(1.0 - prob if negative else prob)).reshape(1, 1)

    def backward(g):
        g = g.item()
        d_prob = -g / (1.0 - prob) if negative else g / prob
        live = (sig >= PROB_CLAMP) & (sig <= 1.0 - PROB_CLAMP)
        gs = -(d_prob * live * (sig * (1.0 - sig)) * (1.0 / cfg.temperature))
        w, u_own, u_cand = slopes(gs)
        pairs = _pair_matrix(w, ia, ib, (x.shape[0], y.shape[0]))
        if same:
            own.accumulate((u_own + u_cand)[:, None] * x + pairs @ y + pairs.T @ x)
            return
        if own.requires_grad:
            own.accumulate(u_own[:, None] * x + pairs @ y)
        if cand.requires_grad:
            cand.accumulate(u_cand[:, None] * y + pairs.T @ x)

    return ad.record("pair_log_probs", value, (own,) if same else (own, cand), backward)


# ---------------------------------------------------------------------------
# Per-anchor mutual-information terms (evaluation path)
# ---------------------------------------------------------------------------

def _views(emb: DualEmbedding, view: str):
    if view == "alpha":
        return emb.alpha, emb.beta, emb.manifold_alpha, emb.manifold_beta
    return emb.beta, emb.alpha, emb.manifold_beta, emb.manifold_alpha


def _anchor_term(man: Manifold, own: Tensor, i: int, cand: Tensor, pos_ids, neg_ids,
                 cfg: HpcConfig) -> float:
    """sum over pos_ids of log D(own[i], cand[j]) + lambda_n * sum over neg_ids of
    log(1 - D(own[i], cand[j])). Each pool is one composed ``pair_probs`` call
    on gathered rows; its logs are ``math.log``'s, which ``np.log`` can miss
    by an ulp."""
    def log_sum(ids, negative):
        ids = np.asarray(ids, dtype=np.int64)
        prob = pair_probs(man, ad.gather_rows(own, np.full(ids.size, i)),
                          ad.gather_rows(cand, ids), cfg).value[:, 0]
        return math.fsum(map(math.log, (1.0 - prob if negative else prob).tolist()))

    pos = log_sum(pos_ids, False)
    return pos if cfg.lambda_neg == 0.0 else pos + cfg.lambda_neg * log_sum(neg_ids, True)


def mi_consistency(i: int, emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
                   view: str = "alpha") -> float:
    """log D(anchor, transferred same-id node) + lambda_n * sum log(1 - D(negatives))."""
    own, other, man_own, man_other = _views(emb, view)
    transferred = dg.transfer0(man_other, man_own, other)
    return _anchor_term(man_own, own, i, transferred, [i], plan.neg_inter[i], cfg)


def mi_tolerance(i: int, emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
                 view: str = "alpha") -> float:
    """sum over one-hop neighbors of log D + lambda_n * sum log(1 - D(intra negatives)).
    The neighbors are the plan's pairs anchored at i, in any order."""
    own, _, man_own, _ = _views(emb, view)
    nbrs = plan.edge_nbr[plan.edge_anchor == i]
    return _anchor_term(man_own, own, i, own, nbrs, plan.neg_intra[i], cfg)


# ---------------------------------------------------------------------------
# Full loss (vectorized, differentiable)
# ---------------------------------------------------------------------------

def hpc_loss(emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
             include_tolerance: bool = True) -> Tensor:
    """-(1/2n) sum_i [consistency(alpha) + consistency(beta)
    + tolerance(alpha) + tolerance(beta)], differentiable in both views.

    Each pool of each view is one ``pair_log_probs`` node. Each view moves
    into the other's model as ``exp0(target, transfer_scale · tangent)``, the
    float ops of ``dg.transfer0``, from the view's shared ``emb.tangent``,
    which ``decode`` reads as well; ``neg_dot`` scores the own-view rows on
    that tangent too and adds one ``log0`` per transferred view."""
    n = plan.n_nodes
    man_a, man_b = emb.manifold_alpha, emb.manifold_beta

    def moved(view: str, target: Manifold) -> Tensor:
        """The view in ``target``'s model (the view itself on its own model)."""
        source, h = emb.view(view)
        if source == target:
            return h
        return dg.exp0(target, ad.scalar_mul(emb.tangent(view),
                                             transfer_scale(source, target)))

    beta_in_alpha, alpha_in_beta = moved("beta", man_a), moved("alpha", man_b)
    if cfg.similarity == "neg_dot":
        alpha, beta_in_alpha = emb.tangent("alpha"), dg.log0(man_a, beta_in_alpha)
        beta, alpha_in_beta = emb.tangent("beta"), dg.log0(man_b, alpha_in_beta)
    else:
        alpha, beta = emb.alpha, emb.beta
    nodes = np.arange(n)
    anchors = np.repeat(nodes, plan.num_negatives)

    def both_views(ia, ib, negative, intra):
        """Pool sum of the alpha view plus that of the beta view."""
        return ad.add(
            _pool_log_probs(man_a, alpha, ia, alpha if intra else beta_in_alpha,
                            ib, cfg, negative),
            _pool_log_probs(man_b, beta, ia, beta if intra else alpha_in_beta,
                            ib, cfg, negative))

    total = both_views(nodes, nodes, False, intra=False)
    if cfg.lambda_neg > 0.0:
        neg_sum = both_views(anchors, plan.neg_inter, True, intra=False)
        total = ad.add(total, ad.scalar_mul(neg_sum, cfg.lambda_neg))

    if include_tolerance:
        total = ad.add(total, both_views(plan.edge_anchor, plan.edge_nbr, False, intra=True))
        if cfg.lambda_neg > 0.0:
            neg_sum = both_views(anchors, plan.neg_intra, True, intra=True)
            total = ad.add(total, ad.scalar_mul(neg_sum, cfg.lambda_neg))

    return ad.scalar_mul(total, -1.0 / (2.0 * n))
