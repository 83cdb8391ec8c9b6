"""Hyperbolic position consistency loss.

Positives for an anchor are the same node in the other view (consistency)
plus its one-hop neighbors in the same view (tolerance); negatives are m
uniform draws per anchor from the nodes that are neither the anchor nor its
neighbors, drawn independently for the intra-view and inter-view pools.
Pair similarity is the distance-aware probability ``pair_probs``,
sigma((b - d)/tau), clamped away from {0, 1} before any log.

Training scores each view with two ``pair_log_probs`` tape nodes, one per
:class:`Pool`, built once per plan for both views: the consistency positive
with the inter-view negatives, as one (n, m + 1) block ``[i, neg_inter[i]]``
against the other view (``SamplePlan.inter_pool``), and the tolerance pairs
with the intra-view negatives, as one CSR against the view itself
(``SamplePlan.intra_pool``). The intra pool holds each edge once, from its
lower end, at weight 2: the distance and the ``neg_dot`` score are
symmetric bit for bit, so the loss is that of both directions up to the
order of its sums. Each pair carries its sign and its weight (1 or 2 for
positives, ``lambda_neg`` for negatives). What a plan reads of its pairs is
one :class:`PlanFrame`, the two pools' skeletons included, built once per
graph and m (:func:`plan_frame`), or from its own pairs by a plan made by
hand; an epoch only draws the negative ids and writes them into copies of
the skeletons.
:func:`pool_log_probs` is the node, and the only fused route: it takes rows
in scoring form, works through the pairs in blocks of ``PAIR_CHUNK``,
gathers each side of a block once and takes the distance and its slopes
from ``Manifold.pair_dist``; ``hpc_loss`` computes each scored view's node
terms once and hands them to both nodes that read it. The node's value
runs the float ops of the composed ``pair_probs`` route, and its backward
is closed form: one sparse n x n product per side from the pool's row
pointer, no n·m x d tensors on the tape. ``pair_probs`` stays as the
composed reference that the per-anchor ``mi_*`` sums and the parity tests
run. The cross-view positives move each view into the other's model with
``dg.transfer0``, one ``exp0`` node, from the origin tangent the encoder
carries (``DualEmbedding.tangent``), which the decoder reads too.
``neg_dot`` scores those tangents directly, and the pool node multiplies a
moved view's dot products by ``transfer_scale``, so a ``neg_dot`` step
takes no ``log0`` and records no scaled copy of a view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import diffgeo as dg
from .autodiff import Tensor
from .encoder import DualEmbedding
from .manifolds import Manifold, transfer_scale

PROB_CLAMP = 1e-7
PAIR_CHUNK = 16384  # pairs a pool node scores at a time, so each block stays in cache


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


@dataclass(frozen=True)
class Pool:
    """The pairs one ``pair_log_probs`` node scores, in anchor order.

    Row r of ``ids`` lists the candidates of own row ``anchors[r]``, or of own
    row r when ``anchors`` is None (a block: one row of ``ids`` per own row, no
    anchor gather). ``indptr`` is the CSR row pointer of the own rows into
    ``ids.ravel()``. ``negative`` marks the pairs scored as log(1 - D), whose
    logs are weighted by ``neg_weight`` (``lambda_neg`` in ``hpc_loss``); the
    others, scored as log D, by ``pos_weight`` (2 where each pair stands for
    itself and its reverse). A :class:`PlanFrame` holds each pool as a
    skeleton whose negative ids are not yet written, which :meth:`filled`
    completes."""

    ids: np.ndarray  # (rows, c) candidate ids
    negative: np.ndarray  # bool, ids' shape
    indptr: np.ndarray  # (n_own + 1,)
    neg_weight: float = 1.0
    anchors: np.ndarray | None = None  # (rows,) own row of each row of ids
    pos_weight: float = 1.0

    def blocks(self) -> list[slice]:
        """Consecutive rows of ``ids`` holding about ``PAIR_CHUNK`` pairs each."""
        step = max(1, PAIR_CHUNK // self.ids.shape[1])
        return [slice(lo, lo + step) for lo in range(0, self.ids.shape[0], step)]

    def filled(self, negatives: np.ndarray, lambda_neg: float) -> "Pool":
        """This skeleton with the (n_own, m) ``negatives`` written into its
        negative slots, row by row, and weighted by ``lambda_neg``; with its
        positives alone when ``lambda_neg`` is 0."""
        if lambda_neg > 0.0:
            ids = self.ids.copy()
            ids[self.negative] = negatives.ravel()
            return replace(self, ids=ids, neg_weight=lambda_neg)
        keep = ~self.negative
        return Pool(self.ids[keep][:, None], self.negative[keep][:, None],
                    self.indptr - negatives.shape[1] * np.arange(self.indptr.size), 0.0,
                    None if self.anchors is None else self.anchors[keep.ravel()],
                    self.pos_weight)


@dataclass(frozen=True)
class PlanFrame:
    """What a plan with m negatives per anchor reads of its (anchor, neighbor)
    pairs, none of which changes from epoch to epoch: the pairs in (anchor,
    neighbor) order, each anchor's negative pool size, the keys that map a
    rank in that pool to a node id, and the two pools' skeletons: ``inter``,
    the (n, m + 1) block ``[i, ·]``, and ``intra``, the CSR whose row i holds
    the neighbors j > i of i at weight 2, then m negative slots. Built by
    :meth:`build`; :func:`plan_frame` caches a graph's."""

    edge_anchor: np.ndarray
    edge_nbr: np.ndarray
    pool: np.ndarray  # (n,) nodes that are neither the anchor nor its neighbors
    start: np.ndarray  # (n,) offset of each anchor's excluded ids in rank_keys
    rank_keys: np.ndarray
    row_keys: np.ndarray  # (n, 1)
    inter: Pool  # negative ids not yet written
    intra: Pool

    @classmethod
    def build(cls, edge_anchor: np.ndarray, edge_nbr: np.ndarray, n: int, m: int) -> "PlanFrame":
        # Key i*(n+1) + j orders the pairs by (anchor, neighbor). With the
        # anchors' own keys i*(n+2), it lists the excluded set of anchor i,
        # {i} + neighbors, as one sorted segment of a flat array.
        stride = n + 1
        pair_keys = np.sort(np.asarray(edge_anchor, dtype=np.int64) * stride + edge_nbr)
        edge_anchor, edge_nbr = np.divmod(pair_keys, stride)
        keys = np.sort(np.concatenate([np.arange(n, dtype=np.int64) * (stride + 1), pair_keys]))
        excluded = np.bincount(edge_anchor, minlength=n) + 1  # the anchor and its neighbors
        start = np.cumsum(excluded) - excluded
        # The k-th excluded id e_k of a segment skips every rank r >= e_k - k, so
        # rank r maps to r + #{k : e_k - k <= r}; a graph's canonical edges keep
        # the keys unique.
        rank_keys = keys - np.arange(keys.size) + start[keys // stride]

        inter = Pool(np.pad(np.arange(n)[:, None], ((0, 0), (0, m))),
                     np.tile(np.arange(m + 1) > 0, (n, 1)), np.arange(0, n * (m + 1) + 1, m + 1))
        upper = edge_nbr > edge_anchor
        deg = np.bincount(edge_anchor[upper], minlength=n)
        indptr = np.concatenate([[0], np.cumsum(deg + m)])
        anchors = np.repeat(np.arange(n), deg + m)
        negative = np.arange(anchors.size) >= indptr[1:][anchors] - m  # each row's last m
        ids = np.zeros(anchors.size, dtype=np.int64)
        ids[~negative] = edge_nbr[upper]
        intra = Pool(ids[:, None], negative[:, None], indptr, anchors=anchors, pos_weight=2.0)
        return cls(edge_anchor, edge_nbr, n - excluded, start, rank_keys,
                   np.arange(n, dtype=np.int64)[:, None] * stride, inter, intra)


@dataclass
class SamplePlan:
    """One epoch of contrastive ids: m negatives per anchor for each pool, and
    the tolerance positives as flat (anchor, neighbor) pairs, each edge in
    both directions.

    ``frame`` is the :class:`PlanFrame` of these pairs: ``build_sample_plan``
    passes its graph's, shared by every plan of that graph, and a plan made
    by hand builds its own, so its pairs may come in any order. The intra
    pool scores each edge once, from its lower end, at weight 2, so a plan
    made by hand must list every pair in both directions, as often one way
    as the other, and no self-pair; it raises ``SamplingError`` naming the first pair that breaks this."""

    neg_intra: np.ndarray  # (n, m)
    neg_inter: np.ndarray  # (n, m)
    edge_anchor: np.ndarray  # flattened (anchor, neighbor) pairs, both directions
    edge_nbr: np.ndarray
    frame: PlanFrame | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.frame is None:
            anchor = np.asarray(self.edge_anchor, dtype=np.int64)
            nbr = np.asarray(self.edge_nbr, dtype=np.int64)
            # The pairs come both ways, each as often as its reverse, when
            # their keys and their reversed keys sort alike.
            stride = self.n_nodes + 1
            fwd, back = anchor * stride + nbr, nbr * stride + anchor
            keys = np.sort(fwd)
            if np.any(anchor == nbr) or not np.array_equal(keys, np.sort(back)):
                n_fwd, n_back = (np.searchsorted(keys, k, "right") - np.searchsorted(keys, k)
                                 for k in (fwd, back))
                p = np.flatnonzero((anchor == nbr) | (n_fwd != n_back))[0]
                i, j = int(anchor[p]), int(nbr[p])
                if i == j:
                    why = "is a self-pair"
                elif n_back[p] == 0:
                    why = f"has no reverse ({j}, {i})"
                else:
                    why = f"appears {n_fwd[p]} times and its reverse ({j}, {i}) {n_back[p]}"
                raise SamplingError(f"hand-made pair ({i}, {j}) {why}; a plan made by "
                                    f"hand lists each edge in both directions, as often "
                                    f"one way as the other, and no self-pair")
            self.frame = PlanFrame.build(self.edge_anchor, self.edge_nbr,
                                         self.n_nodes, self.num_negatives)

    @property
    def n_nodes(self) -> int:
        return self.neg_intra.shape[0]

    @property
    def num_negatives(self) -> int:
        return self.neg_intra.shape[1]

    def inter_pool(self, lambda_neg: float) -> Pool:
        """Each node against [itself, its inter negatives] in the other view:
        one (n, m + 1) block, the negatives dropped when ``lambda_neg`` is 0."""
        return self.frame.inter.filled(self.neg_inter, lambda_neg)

    def intra_pool(self, lambda_neg: float) -> Pool:
        """Each node against its neighbors above it, at weight 2, then its
        intra negatives, in its own view: one CSR whose rows are the upper
        half of the adjacency's plus m slots each, the negatives dropped when
        ``lambda_neg`` is 0."""
        return self.frame.intra.filled(self.neg_intra, lambda_neg)


def plan_frame(graph, m: int) -> PlanFrame:
    """The graph's :class:`PlanFrame` for m negatives per anchor, built on
    first use and cached on the graph, like its CSR adjacency. Raises
    ``SamplingError`` naming the first anchor whose pool holds fewer than m
    nodes, and how many are short."""
    frame = graph.plan_frames.get(m)
    if frame is not None:
        return frame
    n, adj = graph.n_nodes, graph.csr_adjacency()
    frame = PlanFrame.build(np.repeat(np.arange(n), np.diff(adj.indptr)), adj.indices, n, m)
    short = np.flatnonzero(frame.pool < m)
    if short.size:
        i = int(short[0])
        msg = (f"anchor {i}: negative pool has {int(frame.pool[i])} nodes < m={m}"
               f"; {short.size} of {n} anchors are short")
        if short.size > 1:
            others = ", ".join(str(int(j)) for j in short[1:9])
            msg += f" (others: {others}{', ...' if short.size > 9 else ''})"
        raise SamplingError(msg)
    graph.plan_frames[m] = frame
    return frame


def build_sample_plan(graph, m: int, rng: np.random.Generator) -> SamplePlan:
    """Draw m intra-view and m inter-view negatives per anchor, excluding the
    anchor and its one-hop neighborhood, uniformly without replacement.

    O(n*m) array passes on the graph's cached :func:`plan_frame`: ranks are
    drawn with a vectorised Floyd step, and one ``searchsorted`` maps ranks
    to node ids.
    """
    frame = plan_frame(graph, m)
    n, pool, start = graph.n_nodes, frame.pool, frame.start

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
        skipped = (np.searchsorted(frame.rank_keys, frame.row_keys + ranks, side="right")
                   - start[:, None])
        return ranks + skipped

    return SamplePlan(draw(), draw(), frame.edge_anchor, frame.edge_nbr, frame)


# ---------------------------------------------------------------------------
# Discriminator
# ---------------------------------------------------------------------------

def pair_probs(man: Manifold, a: Tensor, b: Tensor, cfg: HpcConfig) -> Tensor:
    """Rowwise pair probability sigma((b - similarity)/tau) in (clamp, 1-clamp)."""
    if cfg.similarity == "distance":
        score = dg.dist_rows(man, a, b)
    else:
        score = ad.scalar_mul(dg.tangent_dot_rows(man, a, b), -1.0)
    z = ad.scalar_mul(ad.sub(cfg.bias, score), 1.0 / cfg.temperature)
    return ad.clip(ad.sigmoid(z), PROB_CLAMP, 1.0 - PROB_CLAMP)


def pool_log_probs(man: Manifold, own: Tensor, cand: Tensor, pool: Pool, cfg: HpcConfig,
                   terms: tuple[np.ndarray, np.ndarray] | None = None,
                   cand_scale: float = 1.0) -> Tensor:
    """Sum over the pool's pairs of weight · log D(own row, candidate row), or
    log(1 - D) for its negative pairs, as one ``pair_log_probs`` tape node.

    ``own`` and ``cand`` are rows in scoring form: points for ``distance``,
    origin tangents for ``neg_dot``. ``terms`` are the ``Manifold.node_terms``
    of own and cand, read for ``distance`` and computed here when not given; for
    ``neg_dot``, ``cand_scale`` multiplies the candidate rows, so the node
    scores a moved view from its own tangent (the scale is a power of 2, so
    the bits are those of scaling the rows). The node scores the pool
    ``PAIR_CHUNK`` pairs at a time, forward and backward: each side of a
    block of pairs is gathered once, and the block's per-pair arrays stay in
    cache. Its value runs the float ops of ``pair_probs`` on gathered rows
    followed by ``log``. The backward is closed form, through the slopes of
    ``Manifold.pair_dist``, and keeps each masked zero slope of the composed
    route: the probability clamp, acosh at arg <= 1 and the conformal
    factor's floor. ``own is cand`` (the intra-view pools) accumulates both
    sides into the one tensor."""
    same = own is cand
    x, y = own.value, cand.value
    if cfg.similarity == "distance":
        if terms is None:
            tx = man.node_terms(x)
            terms = tx, tx if same else man.node_terms(y)
        tx, ty = terms
    ids, anchors = pool.ids, pool.anchors
    logs = np.empty(ids.shape)
    blocks = []  # (rows, sig, slopes) of each block, for the backward
    for r in pool.blocks():
        own_rows = x[r] if anchors is None else np.take(x, anchors[r], axis=0)
        cand_rows = np.take(y, ids[r].ravel(), axis=0).reshape(-1, ids.shape[1], y.shape[1])
        if cfg.similarity == "neg_dot":
            score = np.einsum("nd,ncd->nc", own_rows, cand_rows) * -cand_scale
            slopes = _dot_slopes(cand_scale)
        else:
            t_own = tx[r] if anchors is None else np.take(tx, anchors[r])
            score, slopes = man.pair_dist(own_rows, t_own, cand_rows, np.take(ty, ids[r]))
        if not np.all(np.isfinite(score)):  # the clamp below would hide an inf
            raise ad.NonFiniteError("non-finite values produced by 'pair_log_probs'")
        sig = ad.stable_sigmoid((cfg.bias - score) * (1.0 / cfg.temperature))
        prob = np.clip(sig, PROB_CLAMP, 1.0 - PROB_CLAMP)
        negative = pool.negative[r]
        logs[r] = (np.log(np.where(negative, 1.0 - prob, prob))
                   * np.where(negative, pool.neg_weight, pool.pos_weight))
        blocks.append((r, sig, slopes))

    def backward(g):
        w, u_rows, v = np.empty(ids.shape), np.empty(ids.shape[0]), np.empty(ids.shape)
        scale = g.item() / cfg.temperature
        for r, sig, slopes in blocks:
            # dL/dscore: d log(sig) and d log(1 - sig) times sigma' = sig(1 - sig),
            # times dz/dscore = -1/tau; zero where the probability is clamped.
            live = (sig >= PROB_CLAMP) & (sig <= 1.0 - PROB_CLAMP)
            gs = np.where(pool.negative[r], pool.neg_weight * sig, pool.pos_weight * (sig - 1.0))
            gs *= live * scale
            w[r], u, v[r] = slopes(gs)
            u_rows[r] = np.sum(u, axis=1)
        u_own = u_rows if anchors is None else np.bincount(anchors, u_rows, x.shape[0])
        u_cand = np.bincount(ids.ravel(), v.ravel(), y.shape[0])
        # (own, cand) matrix of the pair weights; a repeated pair's weights sum
        # in its products.
        pairs = sp.csr_matrix((w.ravel(), ids.ravel(), pool.indptr),
                              shape=(x.shape[0], y.shape[0]))
        if same:
            own.accumulate((u_own + u_cand)[:, None] * x + pairs @ y + pairs.T @ x)
            return
        if own.requires_grad:
            own.accumulate(u_own[:, None] * x + pairs @ y)
        if cand.requires_grad:
            cand.accumulate(u_cand[:, None] * y + pairs.T @ x)

    return ad.record("pair_log_probs", np.sum(logs).reshape(1, 1),
                     (own,) if same else (own, cand), backward)


def _dot_slopes(cand_scale: float):
    """``slopes`` of the ``neg_dot`` score -s·x·y: pair weight -s, no node weight."""
    def slopes(gs):
        return gs * -cand_scale, np.zeros_like(gs), np.zeros_like(gs)
    return slopes


# ---------------------------------------------------------------------------
# Per-anchor mutual-information terms (evaluation path)
# ---------------------------------------------------------------------------

def _points_in(emb: DualEmbedding, view: str, target: Manifold) -> Tensor:
    """One view's points in ``target``'s model: its own points when it lives
    there, else ``dg.transfer0`` of its origin tangent."""
    source, h = emb.view(view)
    return h if source == target else dg.transfer0(source, target, emb.tangent(view))


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
    man_own, own = emb.view(view)
    moved = _points_in(emb, "beta" if view == "alpha" else "alpha", man_own)
    return _anchor_term(man_own, own, i, moved, [i], plan.neg_inter[i], cfg)


def mi_tolerance(i: int, emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
                 view: str = "alpha") -> float:
    """sum over one-hop neighbors of log D + lambda_n * sum log(1 - D(intra negatives)).
    The neighbors are the plan's pairs anchored at i, in any order."""
    man_own, own = emb.view(view)
    nbrs = plan.edge_nbr[plan.edge_anchor == i]
    return _anchor_term(man_own, own, i, own, nbrs, plan.neg_intra[i], cfg)


# ---------------------------------------------------------------------------
# Full loss (vectorized, differentiable)
# ---------------------------------------------------------------------------

def hpc_loss(emb: DualEmbedding, plan: SamplePlan, cfg: HpcConfig,
             include_tolerance: bool = True) -> Tensor:
    """-(1/2n) sum_i [consistency(alpha) + consistency(beta)
    + tolerance(alpha) + tolerance(beta)], differentiable in both views.

    Each view is two ``pair_log_probs`` nodes over the plan's two pools,
    built once for both views: ``SamplePlan.inter_pool`` against the other
    view moved into this one's model by ``dg.transfer0`` of its origin
    tangent (read as it is when it already lives there), and
    ``SamplePlan.intra_pool`` against the view itself (skipped without
    ``include_tolerance``). The node terms of each scored tensor are computed
    once, for both pools that read it. ``neg_dot`` scores origin tangents:
    the pool node multiplies a moved view's by ``transfer_scale``."""
    n = plan.n_nodes
    man_a, man_b = emb.manifold_alpha, emb.manifold_beta

    def scored(view: str, target: Manifold) -> tuple[Tensor, np.ndarray | None, float]:
        """One view as the pools of ``target``'s view score it: its points and
        their node terms for ``distance``; for ``neg_dot``, its origin tangent
        and the scale that moves it into ``target``'s model."""
        if cfg.similarity == "distance":
            h = _points_in(emb, view, target)
            return h, target.node_terms(h.value), 1.0
        source, _ = emb.view(view)
        return emb.tangent(view), None, transfer_scale(source, target)

    alpha, beta_in_alpha = scored("alpha", man_a), scored("beta", man_a)
    beta, alpha_in_beta = scored("beta", man_b), scored("alpha", man_b)
    inter = plan.inter_pool(cfg.lambda_neg)
    intra = plan.intra_pool(cfg.lambda_neg) if include_tolerance else None

    def view_sum(man: Manifold, own, other) -> Tensor:
        """Both pools of one view, ``other`` being the other view in its model."""
        (x, tx, _), (y, ty, scale) = own, other
        total = pool_log_probs(man, x, y, inter, cfg, (tx, ty), scale)
        if intra is None:
            return total
        return ad.add(total, pool_log_probs(man, x, x, intra, cfg, (tx, tx)))

    total = ad.add(view_sum(man_a, alpha, beta_in_alpha), view_sum(man_b, beta, alpha_in_beta))
    return ad.scalar_mul(total, -1.0 / (2.0 * n))
