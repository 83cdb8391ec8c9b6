"""Randomized property suites and the named gradient-check registry.

Both the CLI (`manifold-test`, `gradcheck`) and the acceptance tests run
these, so tolerances live here in one place. ``composed_exp0`` is the origin
exp map as a chain of tape primitives: the gradient reference of the fused
``diffgeo.exp0`` node, as ``hpc.pair_probs`` is for the pool node
``hpc.pool_log_probs``, which the registry checks on hand-built CSR pools and
on the pools ``hpc_loss`` scores. ``diffgeo.log0`` is itself such a chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import aslinearoperator

from . import autodiff as ad
from . import data as data_mod
from . import diffgeo as dg
from . import manifolds as mf
from . import pipeline as pl
from .encoder import Encoder, encode_views, first_message
from .hpc import HpcConfig, Pool, build_sample_plan, hpc_loss, pool_log_probs
from .kernels import MIN_NORM

CURVATURES = (-0.5, -1.0, -2.0)
DIMS = (2, 8, 16)
MAX_TANGENT = 5.0  # property suites exercise tangent metric norms up to here


@dataclass
class PropertyResult:
    name: str
    trials: int
    tolerance: float
    max_dev: float
    violations: int
    worst_case: str = ""

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _observe(res: PropertyResult, dev: np.ndarray, context: str) -> None:
    dev = np.atleast_1d(dev)
    m = float(np.max(dev)) if dev.size else 0.0
    if m > res.max_dev:
        res.max_dev = m
        res.worst_case = f"{context} (dev={m:.3e})"
    res.violations += int(np.sum(dev > res.tolerance))
    res.trials += dev.size


def _each_manifold(trials: int):
    per = int(np.ceil(trials / (len(CURVATURES) * len(DIMS))))
    for kind in (mf.Model.POINCARE, mf.Model.LORENTZ):
        for k in CURVATURES:
            for n in DIMS:
                yield mf.Manifold(kind, k, n), per


def manifold_property_suites(trials: int = 1000, seed: int = 0) -> list[PropertyResult]:
    """Run every geometric property sweep on `trials` points per model, rounded
    up to a multiple of 9 (one batch per curvature and dimension); 0 runs none."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    r_sym = PropertyResult("distance symmetry/identity/nonneg", 0, 1e-9, 0.0, 0)
    r_tri = PropertyResult("triangle inequality slack", 0, 1e-8, 0.0, 0)
    r_inv = PropertyResult("exp/log inversion", 0, 1e-6, 0.0, 0)
    r_tpt = PropertyResult("transport norm/tangency/identity", 0, 1e-6, 0.0, 0)
    r_iso = PropertyResult("ball<->hyperboloid isometry", 0, 1e-6, 0.0, 0)
    r_mob = PropertyResult("Mobius identities + distance identity", 0, 1e-8, 0.0, 0)
    r_tra = PropertyResult("cross-manifold transfer radial isometry", 0, 1e-6, 0.0, 0)

    for man, per in _each_manifold(trials):
        ctx = f"{man.kind.value} K={man.k} n={man.dim}"
        X = man.random_points(rng, per, MAX_TANGENT / 2)
        Y = man.random_points(rng, per, MAX_TANGENT / 2)
        Z = man.random_points(rng, per, MAX_TANGENT / 2)

        d_xy = man.dist(X, Y)
        _observe(r_sym, np.abs(d_xy - man.dist(Y, X)), ctx + " symmetry")
        _observe(r_sym, np.abs(man.dist(X, X)), ctx + " identity")
        _observe(r_sym, np.maximum(-d_xy, 0.0), ctx + " nonneg")

        _observe(r_tri, man.dist(X, Z) - d_xy - man.dist(Y, Z), ctx)

        V = man.logmap(X, Y)
        _observe(r_inv, np.max(np.abs(man.expmap(X, V) - Y), axis=1), ctx + " exp(log)")
        U = man.tangent0_to_ambient(man.random_tangents0(rng, per, MAX_TANGENT))
        U = man.project_tangent(X, U) if man.kind is mf.Model.LORENTZ else U
        # cap metric norm at MAX_TANGENT after projection
        mn = man.metric_norm(X, U)[:, None]
        U = U * np.minimum(1.0, MAX_TANGENT / np.maximum(mn, 1e-12))
        P = man.expmap(X, U)
        _observe(r_inv, np.max(np.abs(man.logmap(X, P) - U), axis=1), ctx + " log(exp)")
        _observe(r_inv, np.abs(man.metric_norm(X, V) - d_xy), ctx + " |log| = dist")

        T = man.transport(X, Y, V)
        _observe(r_tpt, np.abs(man.metric_norm(Y, T) - man.metric_norm(X, V)), ctx + " norm")
        _observe(r_tpt, np.max(np.abs(man.transport(X, X, V) - V), axis=1), ctx + " x->x")
        if man.kind is mf.Model.LORENTZ:
            _observe(r_tpt, np.abs(mf.lorentz_inner(T, Y)), ctx + " tangency")

        if man.kind is mf.Model.POINCARE:
            XL = mf.to_lorentz_rows(X, man.k)
            YL = mf.to_lorentz_rows(Y, man.k)
            twin = mf.lorentz(man.dim, man.k)
            twin.check_points(XL)
            _observe(r_iso, np.abs(d_xy - twin.dist(XL, YL)), ctx + " distance")
            _observe(r_iso, np.max(np.abs(mf.to_poincare_rows(XL, man.k) - X), axis=1),
                     ctx + " roundtrip")

            zero = np.zeros_like(X)
            _observe(r_mob, np.max(np.abs(mf.mobius_add_rows(X, zero, man.k) - X), axis=1),
                     ctx + " x+0")
            _observe(r_mob, np.max(np.abs(mf.mobius_add_rows(-X, X, man.k)), axis=1),
                     ctx + " -x+x")
            mxy = mf.mobius_add_rows(X, Y, man.k)
            _observe(r_mob, np.max(np.abs(mf.mobius_add_rows(-X, mxy, man.k) - Y), axis=1),
                     ctx + " left cancel")
            mnorm = np.sqrt(np.sum(mf.mobius_add_rows(-X, Y, man.k) ** 2, axis=1))
            alt = 2.0 / man.sqrt_abs_k * np.arctanh(
                np.clip(man.sqrt_abs_k * mnorm, 0, mf.ARTANH_CLIP))
            _observe(r_mob, np.abs(alt - d_xy), ctx + " dist identity")

            # transfer across models and curvatures
            for k2 in CURVATURES:
                tgt = mf.lorentz(man.dim, k2)
                H = mf.transfer_rows(X, man, tgt)
                tgt.check_points(H)
                _observe(r_tra,
                         np.abs(man.dist(man.origin_rows(per), X)
                                - tgt.dist(tgt.origin_rows(per), H)),
                         f"{ctx} -> lorentz K={k2}")
            same = mf.transfer_rows(X, man, man)
            _observe(r_tra, np.max(np.abs(same - X), axis=1), ctx + " identity transfer")

    return [r_sym, r_tri, r_inv, r_tpt, r_iso, r_mob, r_tra]


# ---------------------------------------------------------------------------
# Composed exp0 (gradient reference of the fused node)
# ---------------------------------------------------------------------------

def composed_exp0(man: mf.Manifold, v: ad.Tensor) -> ad.Tensor:
    """``diffgeo.exp0`` as a chain of tape primitives."""
    r = ad.scalar_mul(ad.row_norm(v), man.sqrt_abs_k)
    f = ad.tanh(r) if man.kind is mf.Model.POINCARE else ad.sinh(r)
    return ad.mul(v, ad.div(f, r))


def fused_vs_composed(fused, composed, x: np.ndarray, rng) -> float:
    """Max |fused - composed| gradient of sum(W * map(x)) for a random W,
    relative to the composed gradient's max; inf if the forwards differ."""
    w = ad.Tensor(rng.standard_normal(x.shape))
    grads = []
    for fn in (fused, composed):
        p = ad.parameter(x.copy())
        with ad.Tape() as tape:
            out = fn(p)
            tape.backward(ad.reduce_sum(ad.mul(out, w)))
        grads.append((out.value, p.grad))
    (out_f, g_f), (out_c, g_c) = grads
    if not np.array_equal(out_f, out_c):
        return math.inf
    return float(np.max(np.abs(g_f - g_c)) / max(np.max(np.abs(g_c)), MIN_NORM))


# ---------------------------------------------------------------------------
# Gradient-check registry
# ---------------------------------------------------------------------------

@dataclass
class GradCheckCase:
    name: str
    scope: str  # manifold | encoder | hpc
    threshold: float
    run: Callable[[], float]


def _positive(rng, shape, lo=0.2, hi=1.5):
    return rng.uniform(lo, hi, size=shape)


def _primitive_cases(seed: int) -> list[GradCheckCase]:
    rng = np.random.default_rng(seed)
    cases: list[GradCheckCase] = []

    def unary(name, fn, sampler):
        def run():
            p = ad.parameter(sampler())
            return ad.grad_check(lambda: ad.reduce_sum(fn(p)), [p])
        cases.append(GradCheckCase(f"primitive:{name}", "manifold", 1e-6, run))

    def binary(name, fn, sa, sb):
        def run():
            a, b = ad.parameter(sa()), ad.parameter(sb())
            return ad.grad_check(lambda: ad.reduce_sum(fn(a, b)), [a, b])
        cases.append(GradCheckCase(f"primitive:{name}", "manifold", 1e-6, run))

    g = lambda: rng.standard_normal((4, 3))
    unary("neg", ad.neg, g)
    unary("tanh", ad.tanh, g)
    unary("sigmoid", ad.sigmoid, g)
    unary("relu", ad.relu, lambda: rng.standard_normal((4, 3)) + 0.7)  # stay off the kink
    unary("exp", ad.exp, g)
    unary("log", ad.log, lambda: _positive(rng, (4, 3)))
    unary("sqrt", ad.sqrt, lambda: _positive(rng, (4, 3)))
    unary("square", ad.square, g)
    unary("cosh", ad.cosh, g)
    unary("sinh", ad.sinh, g)
    unary("acosh_clamped", ad.acosh_clamped, lambda: _positive(rng, (4, 3), 1.2, 3.0))
    unary("artanh_clamped", ad.artanh_clamped, lambda: rng.uniform(-0.8, 0.8, (4, 3)))
    unary("clip", lambda t: ad.clip(t, -0.5, 0.5), lambda: rng.uniform(-0.4, 0.4, (4, 3)))
    unary("scalar_mul", lambda t: ad.scalar_mul(t, 1.7), g)
    unary("row_norm", ad.row_norm, lambda: rng.standard_normal((4, 3)) + 2.0)
    unary("reduce_sum", ad.reduce_sum, g)
    unary("reduce_mean", ad.reduce_mean, g)
    unary("reduce_sum_axis0", lambda t: ad.reduce_sum(ad.square(t), axis=0), g)
    unary("reduce_sum_axis1", lambda t: ad.reduce_sum(ad.square(t), axis=1), g)
    unary("slice_cols", lambda t: ad.square(ad.slice_cols(t, 1, 3)), g)
    unary("gather_rows", lambda t: ad.square(ad.gather_rows(t, [0, 2, 2, 3])), g)
    binary("add", ad.add, g, g)
    binary("sub", ad.sub, g, g)
    binary("mul", ad.mul, g, g)
    binary("div", ad.div, g, lambda: _positive(rng, (4, 3), 0.5, 2.0))
    binary("mul_colbcast", ad.mul, g, lambda: rng.standard_normal((4, 1)))
    binary("add_rowbcast", ad.add, g, lambda: rng.standard_normal((1, 3)))
    binary("matmul", ad.matmul, lambda: rng.standard_normal((4, 3)),
           lambda: rng.standard_normal((3, 2)))
    binary("concat_cols", lambda a, b: ad.square(ad.concat_cols([a, b])), g, g)

    def affine_case(activation, track_x):
        def run():
            while True:  # for relu, stay off the kink
                x, w, b = g(), rng.standard_normal((3, 2)), rng.standard_normal((1, 2))
                if activation != "relu" or np.min(np.abs(x @ w + b)) > 0.05:
                    break
            x = ad.parameter(x) if track_x else ad.Tensor(x)
            w, b = ad.parameter(w), ad.parameter(b)
            return ad.grad_check(
                lambda: ad.reduce_sum(ad.square(ad.affine(x, w, b, activation))),
                [x, w, b] if track_x else [w, b])
        return run

    for activation in ad.ACTIVATIONS:
        for track_x in (True, False):
            tag = activation if track_x else f"{activation}:const-x"
            cases.append(GradCheckCase(f"primitive:affine[{tag}]", "manifold", 1e-6,
                                       affine_case(activation, track_x)))

    def run_affine_operator():  # x a constant product of CSR factors, as on the CSR route
        x = aslinearoperator(sp.csr_matrix(g())) * aslinearoperator(sp.csr_matrix(g().T))
        w, b = ad.parameter(rng.standard_normal((4, 2))), ad.parameter(rng.standard_normal((1, 2)))
        return ad.grad_check(lambda: ad.reduce_sum(ad.square(ad.affine(x, w, b, "tanh"))),
                             [w, b])
    cases.append(GradCheckCase("primitive:affine[tanh:operator-x]", "manifold", 1e-6,
                               run_affine_operator))

    def run_aggregate():
        a = ad.parameter(rng.standard_normal((4, 3)))
        m = rng.standard_normal((5, 4))
        return ad.grad_check(lambda: ad.reduce_sum(ad.square(ad.aggregate(m, a))), [a])
    cases.append(GradCheckCase("primitive:aggregate", "manifold", 1e-6, run_aggregate))
    binary("row_dot", ad.row_dot, g, g)
    unary("row_dot_self", lambda t: ad.row_dot(t, t), g)
    return cases


def _geometry_cases(seed: int) -> list[GradCheckCase]:
    rng = np.random.default_rng(seed + 1)
    rng_fused = np.random.default_rng(seed + 5)
    cases: list[GradCheckCase] = []
    mans = [mf.poincare(4, -1.0), mf.poincare(4, -0.5),
            mf.lorentz(4, -1.0), mf.lorentz(4, -2.0)]

    for man in mans:
        tag = f"{man.kind.value}:K={man.k}"

        def run_dist(man=man):
            a = ad.parameter(dg.ambient_to_internal(man, man.random_points(rng, 6, 2.0)))
            b = ad.parameter(dg.ambient_to_internal(man, man.random_points(rng, 6, 2.0)))
            return ad.grad_check(lambda: ad.reduce_sum(dg.dist_rows(man, a, b)), [a, b])
        cases.append(GradCheckCase(f"geometry:dist[{tag}]", "manifold", 1e-4, run_dist))

        def run_roundtrip(man=man):
            v = ad.parameter(man.random_tangents0(rng, 6, 2.0))
            return ad.grad_check(
                lambda: ad.reduce_sum(ad.square(dg.log0(man, dg.exp0(man, v)))), [v])
        cases.append(GradCheckCase(f"geometry:exp0/log0[{tag}]", "manifold", 1e-4, run_roundtrip))

        # Fused map vs composed chain, with the clamp-active rows: a zero row
        # and one below MIN_NORM (the norm floor).
        def run_fused_exp0(man=man):
            v = man.random_tangents0(rng_fused, 6, 3.0)
            v[0], v[1] = 0.0, 1e-16
            return fused_vs_composed(lambda t: dg.exp0(man, t),
                                     lambda t: composed_exp0(man, t), v, rng_fused)

        cases.append(GradCheckCase(f"geometry:fused-exp0[{tag}]", "manifold", 1e-12,
                                   run_fused_exp0))

    def run_transfer():
        src, dst = mf.poincare(4, -1.0), mf.lorentz(4, -0.5)
        u = ad.parameter(src.random_tangents0(rng, 6, 2.0))
        return ad.grad_check(
            lambda: ad.reduce_sum(ad.square(dg.transfer0(src, dst, u))), [u])
    cases.append(GradCheckCase("geometry:transfer", "manifold", 1e-4, run_transfer))
    return cases


def _ten_node_graph(seed: int = 7) -> data_mod.Graph:
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(9)] + [(0, 5), (2, 7)]
    feats = rng.standard_normal((10, 5))
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    return data_mod.Graph(10, np.array(edges), feats, labels)


def _encoder_cases(seed: int) -> list[GradCheckCase]:
    rng = np.random.default_rng(seed + 2)
    g = _ten_node_graph()
    a_norm = data_mod.normalize_adjacency(g)
    msg, _ = first_message(g.features, a_norm, pl.TrainConfig.max_feature_norm)
    cases = []

    def run_layer_w():
        man = mf.poincare(4, -1.0)
        enc = Encoder(man, 5, [4], "none", np.random.default_rng(3))
        def f():
            _, h = enc.encode(msg, a_norm)
            return ad.reduce_sum(ad.square(h))
        return ad.grad_check(f, enc.parameters())
    cases.append(GradCheckCase("encoder:layer-weights", "encoder", 1e-4, run_layer_w))

    def run_two_layer():
        enc_a = Encoder(mf.poincare(3, -1.0), 5, [4, 3], "tanh", np.random.default_rng(4))
        enc_b = Encoder(mf.lorentz(3, -0.5), 5, [4, 3], "tanh", np.random.default_rng(5))
        w = ad.parameter(rng.standard_normal((6, 2)) * 0.3)
        def f():
            emb = encode_views(msg, a_norm, enc_a, enc_b)
            logits = pl.decode(emb, w, ad.Tensor(np.zeros((1, 2))))
            return pl.cross_entropy(logits, g.labels, np.ones(10, dtype=bool))
        return ad.grad_check(f, enc_a.parameters() + enc_b.parameters() + [w])
    cases.append(GradCheckCase("encoder:two-layer-objective", "encoder", 1e-3, run_two_layer))

    # 64-wide binary features, up to 2 words a row: the rule sends this graph
    # to the CSR first layer, whose weight gradient is x.T @ (a_norm.T @ G).
    words = np.zeros((10, 64))
    words[np.arange(10).repeat(2), np.random.default_rng(11).choice(64, 20)] = 1.0
    sparse_msg, _ = first_message(words, a_norm, pl.TrainConfig.max_feature_norm)

    def run_sparse_first_layer():
        enc_a = Encoder(mf.poincare(3, -1.0), 64, [4, 3], "tanh", np.random.default_rng(12))
        enc_b = Encoder(mf.lorentz(3, -0.5), 64, [4, 3], "tanh", np.random.default_rng(13))
        def f():
            emb = encode_views(sparse_msg, a_norm, enc_a, enc_b)
            return ad.add(ad.reduce_sum(ad.square(emb.tangent("alpha"))),
                          ad.reduce_sum(ad.square(emb.tangent("beta"))))
        return ad.grad_check(f, enc_a.parameters() + enc_b.parameters())
    cases.append(GradCheckCase("encoder:sparse-first-layer", "encoder", 1e-4,
                               run_sparse_first_layer))
    return cases


def _hpc_cases(seed: int) -> list[GradCheckCase]:
    g = _ten_node_graph()
    a_norm = data_mod.normalize_adjacency(g)
    msg, _ = first_message(g.features, a_norm, pl.TrainConfig.max_feature_norm)
    cfg = HpcConfig(lambda_neg=0.5, num_negatives=2)
    cases = []

    def run_wrt_embeddings():
        rng = np.random.default_rng(seed + 3)
        man_a, man_b = mf.poincare(4, -1.0), mf.lorentz(4, -0.5)
        ha = ad.parameter(man_a.random_points(rng, 10, 1.5))
        hb = ad.parameter(dg.ambient_to_internal(man_b, man_b.random_points(rng, 10, 1.5)))
        plan = build_sample_plan(g, 2, np.random.default_rng(0))
        from .encoder import DualEmbedding
        def f():
            emb = DualEmbedding(ha, hb, man_a, man_b)
            return hpc_loss(emb, plan, cfg)
        return ad.grad_check(f, [ha, hb])
    cases.append(GradCheckCase("hpc:loss-wrt-embeddings", "hpc", 1e-3, run_wrt_embeddings))

    def run_through_encoder():
        enc_a = Encoder(mf.poincare(3, -1.0), 5, [4, 3], "tanh", np.random.default_rng(8))
        enc_b = Encoder(mf.lorentz(3, -0.5), 5, [4, 3], "tanh", np.random.default_rng(9))
        plan = build_sample_plan(g, 2, np.random.default_rng(1))
        def f():
            emb = encode_views(msg, a_norm, enc_a, enc_b)
            return hpc_loss(emb, plan, cfg)
        return ad.grad_check(f, enc_a.parameters() + enc_b.parameters())
    cases.append(GradCheckCase("hpc:loss-through-encoder", "hpc", 1e-3, run_through_encoder))

    def rows(man, similarity, rng):
        """7 random rows as the pool node scores them: points, or tangents
        for neg_dot."""
        if similarity == "neg_dot":
            return man.random_tangents0(rng, 7, 1.5)
        return dg.ambient_to_internal(man, man.random_points(rng, 7, 1.5))

    # The pool node on a hand-built CSR pool, own row i scoring
    # ids[indptr[i]:indptr[i + 1]]: a repeated candidate, mixed signs with
    # negatives weighted by 0.5, an empty last row, and the intra-view case
    # where both sides are one tensor; then the same pool with its positives
    # weighted by 2, as the intra pool weighs each edge it scores once.
    indptr = np.array([0, 4, 6, 9, 11, 14, 16, 16])
    mixed = Pool(np.array([4, 4, 5, 4, 2, 3, 3, 5, 1, 1, 2, 0, 0, 0, 0, 2])[:, None],
                 np.array([0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1], dtype=bool)[:, None],
                 indptr, 0.5, anchors=np.repeat(np.arange(7), np.diff(indptr)))

    def pair_case(man, similarity, same=False, clamped=False, pool=mixed):
        def run():
            rng = np.random.default_rng(seed + 4)
            own = ad.parameter(rows(man, similarity, rng))
            cand = own if same else ad.parameter(rows(man, similarity, rng))
            # Distances here run 0.47-2.14. Clamped: bias -10 puts sigma on the
            # lower clamp for pairs past d = 1.28; bias 12 on the upper clamp for
            # pairs below d = 0.72, with the negatives weighted 0, as
            # log(1 - sigma) next to the upper clamp is too ill-conditioned for
            # central differences.
            low = HpcConfig(bias=-10.0 if clamped else 2.0, temperature=0.7,
                            similarity=similarity)
            high = HpcConfig(bias=12.0, temperature=0.7)
            def f():
                out = pool_log_probs(man, own, cand, pool, low)
                if clamped:
                    out = ad.add(out, pool_log_probs(man, own, cand,
                                                     replace(pool, neg_weight=0.0), high))
                return out
            return ad.grad_check(f, [own] if same else [own, cand])
        return run

    for man in (mf.poincare(3, -1.0), mf.lorentz(3, -0.5)):
        for similarity in ("distance", "neg_dot"):
            for same in (False, True):
                tag = f"{man.kind.value}:{similarity}{':own-is-cand' if same else ''}"
                cases.append(GradCheckCase(f"hpc:pair_log_probs[{tag}]", "hpc", 1e-6,
                                           pair_case(man, similarity, same)))
        cases.append(GradCheckCase(f"hpc:pair_log_probs[{man.kind.value}:clamp-active]",
                                   "hpc", 1e-6, pair_case(man, "distance", clamped=True)))
        for same in (False, True):
            tag = f"{man.kind.value}:pos-weight-2{':own-is-cand' if same else ''}"
            cases.append(GradCheckCase(f"hpc:pair_log_probs[{tag}]", "hpc", 1e-6,
                                       pair_case(man, "distance", same,
                                                 pool=replace(mixed, pos_weight=2.0))))

    # The merged pools that hpc_loss scores: the inter block [i, inter
    # negatives] against a second tensor and the intra CSR (neighbors, then
    # intra negatives) against the view itself, negatives weighted by
    # lambda_neg = 0.7, on a graph whose node 6 has no neighbor; at
    # lambda_neg = 0 the pools of an m = 0 plan, as train draws them, where
    # node 6's CSR row is empty.
    pool_graph = data_mod.Graph(7, np.array([(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)]),
                                np.zeros((7, 1)), np.zeros(7, dtype=int))
    pool_plans = {m: build_sample_plan(pool_graph, m, np.random.default_rng(seed + 6))
                  for m in (0, 2)}

    def merged_case(man, similarity, intra, clamped=False, lambda_neg=0.7):
        def run():
            rng = np.random.default_rng(seed + 7)
            own = ad.parameter(rows(man, similarity, rng))
            cand = own if intra else ad.parameter(rows(man, similarity, rng))
            # Clamped: bias -10 puts sigma on the lower clamp past d = 1.28.
            cfg = HpcConfig(lambda_neg=lambda_neg, bias=-10.0 if clamped else 2.0,
                            temperature=0.7, similarity=similarity)
            plan = pool_plans[2 if lambda_neg > 0 else 0]
            pool = (plan.intra_pool if intra else plan.inter_pool)(lambda_neg)
            return ad.grad_check(lambda: pool_log_probs(man, own, cand, pool, cfg),
                                 [own] if intra else [own, cand])
        return run

    merged = [(f"{sim}:{'intra-csr' if intra else 'inter-block'}",
               dict(similarity=sim, intra=intra))
              for sim in ("distance", "neg_dot") for intra in (False, True)]
    merged += [("inter-block:clamp-active", dict(similarity="distance", intra=False, clamped=True)),
               ("intra-csr:clamp-active", dict(similarity="distance", intra=True, clamped=True)),
               ("intra-csr:lambda-0", dict(similarity="distance", intra=True, lambda_neg=0.0))]
    for man in (mf.poincare(3, -1.0), mf.lorentz(3, -0.5)):
        for tag, kw in merged:
            cases.append(GradCheckCase(f"hpc:pool_log_probs[{man.kind.value}:{tag}]", "hpc",
                                       1e-6, merged_case(man, **kw)))
    return cases


def gradient_check_cases(seed: int = 0, scope: str = "all") -> list[GradCheckCase]:
    cases = (_primitive_cases(seed) + _geometry_cases(seed)
             + _encoder_cases(seed) + _hpc_cases(seed))
    if scope != "all":
        cases = [c for c in cases if c.scope == scope]
    return cases
