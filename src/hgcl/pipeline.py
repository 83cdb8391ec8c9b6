"""Decoder, combined objective, training loop, metrics, and heatmap export."""

from __future__ import annotations


import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import diffgeo as dg
from .autodiff import Tensor
from .data import Graph, atomic_open, normalize_adjacency
from .encoder import DualEmbedding, Encoder, EncoderError, encode_views
from .hpc import HpcConfig, SamplePlan, build_sample_plan, hpc_loss
from .manifolds import Manifold, Model
from .optim import Adam

ABLATIONS = ("full", "no_hpc", "no_pos", "no_dist")


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 16
    embed_dim: int = 16
    num_layers: int = 2
    kind_alpha: str = "poincare"
    curvature_alpha: float = -1.0
    kind_beta: str = "lorentz"
    curvature_beta: float = -0.5
    activation: str = "tanh"
    lr: float = 0.01
    epochs: int = 500
    patience: int = 100
    lambda_contrast: float = 1.0
    grad_clip: float = 5.0
    max_feature_norm: float = 8.0
    hpc: HpcConfig = field(default_factory=HpcConfig)
    seed: int = 0
    ablation: str = "full"
    eval_metric: str = "accuracy"  # or "macro_f1"
    checkpoint: str = "best"  # restore best-validation weights, or "last"

    def __post_init__(self):
        for name in ("hidden_dim", "embed_dim", "num_layers", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise PipelineError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "grad_clip", "max_feature_norm"):
            if not getattr(self, name) > 0:
                raise PipelineError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 <= self.lambda_contrast < math.inf:
            raise PipelineError(f"lambda_contrast must be finite and >= 0, "
                                f"got {self.lambda_contrast}")
        if self.patience > self.epochs:
            raise PipelineError("patience cannot exceed epochs")
        if self.ablation not in ABLATIONS:
            raise PipelineError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.eval_metric not in ("accuracy", "macro_f1"):
            raise PipelineError(f"unknown eval_metric {self.eval_metric!r}")
        if self.checkpoint not in ("best", "last"):
            raise PipelineError(f"checkpoint must be 'best' or 'last', got {self.checkpoint!r}")

    def manifold_alpha(self) -> Manifold:
        return Manifold(Model(self.kind_alpha), self.curvature_alpha, self.embed_dim)

    def manifold_beta(self) -> Manifold:
        return Manifold(Model(self.kind_beta), self.curvature_beta, self.embed_dim)

    def effective_hpc(self) -> HpcConfig:
        if self.ablation == "no_dist":
            return replace(self.hpc, similarity="neg_dot")
        return self.hpc

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        hpc = d.pop("hpc", {})
        return cls(hpc=HpcConfig(**hpc), **d)


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0 and 0.0 <= self.macro_f1 <= 1.0):
            raise PipelineError(f"metrics out of range: {self}")

    def get(self, name: str) -> float:
        return self.accuracy if name == "accuracy" else self.macro_f1


def accuracy_score(pred: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(pred == labels))


def macro_f1_score(pred: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """Unweighted mean of per-class F1; a class absent from both pred and
    truth contributes 0."""
    def per_class(ids):
        return np.bincount(ids, minlength=n_classes)[:n_classes]

    def ratio(num, den):  # 0 where the denominator is 0
        return np.divide(num, den, out=np.zeros(n_classes), where=den > 0)

    tp = per_class(labels[pred == labels])
    prec, rec = ratio(tp, per_class(pred)), ratio(tp, per_class(labels))
    return float(np.mean(ratio(2 * prec * rec, prec + rec)))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class HgclModel:
    """Two encoders plus a tangent-space linear decoder."""

    def __init__(self, config: TrainConfig, d_feat: int, n_classes: int):
        self.config = config
        self.d_feat = d_feat
        self.n_classes = n_classes
        seeds = np.random.SeedSequence(config.seed).spawn(3)
        dims = [config.hidden_dim] * (config.num_layers - 1) + [config.embed_dim]
        self.encoder_alpha = Encoder(config.manifold_alpha(), d_feat, dims,
                                     config.activation, np.random.default_rng(seeds[0]),
                                     config.max_feature_norm)
        self.encoder_beta = Encoder(config.manifold_beta(), d_feat, dims,
                                    config.activation, np.random.default_rng(seeds[1]),
                                    config.max_feature_norm)
        rng_dec = np.random.default_rng(seeds[2])
        s = 1.0 / np.sqrt(2 * config.embed_dim)
        self.dec_weight = ad.parameter(rng_dec.uniform(-s, s, size=(2 * config.embed_dim, n_classes)))
        self.dec_bias = ad.parameter(np.zeros((1, n_classes)))

    def parameters(self) -> list[Tensor]:
        return (self.encoder_alpha.parameters() + self.encoder_beta.parameters()
                + [self.dec_weight, self.dec_bias])

    def embed(self, graph: Graph, a_norm) -> DualEmbedding:
        return encode_views(graph.features, a_norm, self.encoder_alpha, self.encoder_beta)

    def forward(self, graph: Graph, a_norm) -> tuple[DualEmbedding, Tensor]:
        emb = self.embed(graph, a_norm)
        logits = decode(emb, self.dec_weight, self.dec_bias)
        return emb, logits

    def state_arrays(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(arrays) != len(params):
            raise PipelineError("checkpoint parameter count mismatch")
        for p, a in zip(params, arrays):
            if p.value.shape != a.shape:
                raise PipelineError("checkpoint shape mismatch")
            p.value = a.copy()

    def save(self, path) -> None:
        """Write the checkpoint atomically; like ``np.savez``, append ``.npz``
        to a name without it."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        arrays = {f"param_{i}": a for i, a in enumerate(self.state_arrays())}
        with atomic_open(path, "wb") as fh:
            np.savez(fh, config=json.dumps(self.to_meta()), **arrays)

    def to_meta(self) -> dict:
        return {"config": self.config.to_dict(), "d_feat": self.d_feat,
                "n_classes": self.n_classes}

    @classmethod
    def load(cls, path) -> "HgclModel":
        with np.load(path, allow_pickle=False) as blob:
            meta = json.loads(str(blob["config"]))
            model = cls(TrainConfig.from_dict(meta["config"]), meta["d_feat"], meta["n_classes"])
            arrays = [blob[f"param_{i}"] for i in range(len(model.parameters()))]
        model.load_state_arrays(arrays)
        return model


def decode(emb: DualEmbedding, weight: Tensor, bias: Tensor) -> Tensor:
    """Concatenated origin-tangent readout of both views -> class logits."""
    za = dg.log0(emb.manifold_alpha, emb.alpha)
    zb = dg.log0(emb.manifold_beta, emb.beta)
    z = ad.concat_cols([za, zb])
    return ad.add(ad.matmul(z, weight), bias)


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean cross-entropy of the masked rows (stable log-sum-exp form)."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise PipelineError("empty mask in cross_entropy")
    picked = ad.gather_rows(logits, idx)
    shift = np.max(picked.value, axis=1, keepdims=True)  # constant under grad
    shifted = ad.sub(picked, Tensor(shift))
    lse = ad.log(ad.reduce_sum(ad.exp(shifted), axis=1))
    onehot = np.zeros((idx.size, logits.value.shape[1]))
    onehot[np.arange(idx.size), labels[idx]] = 1.0
    true_logit = ad.reduce_sum(ad.mul(shifted, Tensor(onehot)), axis=1)
    return ad.reduce_mean(ad.sub(lse, true_logit))


def total_loss(logits: Tensor, labels: np.ndarray, train_mask: np.ndarray,
               hpc_value, lambda_contrast: float) -> Tensor:
    """Masked cross-entropy plus lambda_c times the contrastive term."""
    ce = cross_entropy(logits, labels, train_mask)
    if lambda_contrast == 0.0 or hpc_value is None:
        return ce
    return ad.add(ce, ad.scalar_mul(hpc_value, lambda_contrast))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    task_loss: float
    hpc_loss: float
    total_loss: float
    val_metric: float

    def to_json(self) -> str:
        return json.dumps({
            "epoch": self.epoch,
            "task_loss": round(self.task_loss, 10),
            "hpc_loss": round(self.hpc_loss, 10),
            "total_loss": round(self.total_loss, 10),
            "val_metric": round(self.val_metric, 10),
        }, sort_keys=True)


@dataclass
class TrainResult:
    model: HgclModel
    history: list[EpochRecord]
    best_epoch: int
    best_val: float
    val_metrics: Metrics
    test_metrics: Metrics
    plan_builds: int
    epochs_run: int


def predictions(model: HgclModel, graph: Graph, a_norm=None) -> np.ndarray:
    a_norm = normalize_adjacency(graph) if a_norm is None else a_norm
    _, logits = model.forward(graph, a_norm)
    return np.argmax(logits.value, axis=1)


def evaluate(model: HgclModel, graph: Graph, mask: np.ndarray,
             a_norm=None) -> Metrics:
    if mask is None or not np.any(mask):
        raise PipelineError("empty evaluation mask")
    pred = predictions(model, graph, a_norm)
    return Metrics(
        accuracy=accuracy_score(pred[mask], graph.labels[mask]),
        macro_f1=macro_f1_score(pred[mask], graph.labels[mask], graph.n_classes),
    )


def train(graph: Graph, config: TrainConfig) -> TrainResult:
    """Full training pass: encode views, refresh the sample plan, combine the
    losses, Adam step, early stop on the validation metric. Each encoder lifts
    and averages the features once for the whole call (``Encoder.memoized``)."""
    if graph.train_mask is None:
        raise PipelineError("graph has no train/val/test masks; call split() first")
    for name, mask in (("train", graph.train_mask), ("val", graph.val_mask),
                       ("test", graph.test_mask)):
        if mask is None or not mask.any():  # would fail after training has started
            raise PipelineError(f"the {name} mask is empty; training needs nodes in all three")
    model = HgclModel(config, graph.features.shape[1], graph.n_classes)
    a_norm = normalize_adjacency(graph)
    opt = Adam(model.parameters(), lr=config.lr, clip_norm=config.grad_clip)
    neg_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[3])

    use_hpc = config.ablation != "no_hpc" and config.lambda_contrast > 0.0
    include_tolerance = config.ablation != "no_pos"
    hpc_cfg = config.effective_hpc()

    history: list[EpochRecord] = []
    best_val = -np.inf
    best_epoch = -1
    best_state: list[np.ndarray] | None = None
    stale = 0
    plan_builds = 0

    with model.encoder_alpha.memoized(graph.features, a_norm), \
            model.encoder_beta.memoized(graph.features, a_norm):
        for epoch in range(config.epochs):
            plan: SamplePlan | None = None
            if use_hpc:
                plan = build_sample_plan(graph, hpc_cfg.num_negatives, neg_rng)
                plan_builds += 1
            opt.zero_grad()
            stage = "training step"
            try:
                with ad.Tape() as tape:
                    emb, logits = model.forward(graph, a_norm)
                    hpc_term = hpc_loss(emb, plan, hpc_cfg, include_tolerance) if use_hpc else None
                    task = cross_entropy(logits, graph.labels, graph.train_mask)
                    if hpc_term is not None:
                        loss = ad.add(task, ad.scalar_mul(hpc_term, config.lambda_contrast))
                    else:
                        loss = task
                    tape.backward(loss)
                opt.step()
                stage = "validation"
                val = evaluate(model, graph, graph.val_mask, a_norm).get(config.eval_metric)
            except (ad.NonFiniteError, EncoderError) as exc:
                raise PipelineError(f"epoch {epoch}, {stage}: {exc}") from exc
            history.append(EpochRecord(
                epoch=epoch,
                task_loss=task.item(),
                hpc_loss=hpc_term.item() if hpc_term is not None else 0.0,
                total_loss=loss.item(),
                val_metric=val,
            ))
            if val > best_val:
                best_val = val
                best_epoch = epoch
                best_state = model.state_arrays()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break

        if best_state is not None and config.checkpoint == "best":
            model.load_state_arrays(best_state)
        val_metrics = evaluate(model, graph, graph.val_mask, a_norm)
        test_metrics = evaluate(model, graph, graph.test_mask, a_norm)
        return TrainResult(model, history, best_epoch, best_val, val_metrics,
                           test_metrics, plan_builds, len(history))


# ---------------------------------------------------------------------------
# Heatmap export
# ---------------------------------------------------------------------------

def default_heatmap_nodes(graph: Graph, per_class: int = 20, n_classes: int = 2) -> np.ndarray:
    """Lowest-id nodes of the first classes: per_class each."""
    picks = []
    for c in sorted(np.unique(graph.labels))[:n_classes]:
        ids = np.flatnonzero(graph.labels == c)[:per_class]
        picks.append(ids)
    return np.concatenate(picks)


def export_heatmap(model: HgclModel, graph: Graph, node_ids, view: str, out_path,
                   a_norm=None) -> np.ndarray:
    """Write the pairwise hyperbolic distance matrix of the chosen view's
    embeddings for the given nodes as CSV (ids as headers, labels appended)."""
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size and (node_ids.min() < 0 or node_ids.max() >= graph.n_nodes):
        raise PipelineError(f"heatmap node id out of range 0..{graph.n_nodes - 1}")
    a_norm = normalize_adjacency(graph) if a_norm is None else a_norm
    emb = model.embed(graph, a_norm)
    man = emb.manifold_alpha if view == "alpha" else emb.manifold_beta
    pts = emb.points(view)[node_ids]
    dist = man.pairwise_dist(pts)
    # Same bytes as csv.writer ("\r\n" rows, nothing quoted), one format call per
    # row, written atomically so a reader never sees a partial CSV.
    row_fmt = "%d," + "%.12g," * len(node_ids) + "%d\r\n"
    with atomic_open(out_path, "w", newline="") as fh:
        fh.write(",".join(["id"] + [str(i) for i in node_ids] + ["label"]) + "\r\n")
        for row_i, nid in enumerate(node_ids):
            fh.write(row_fmt % (nid, *dist[row_i], graph.labels[nid]))
    return dist
