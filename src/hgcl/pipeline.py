"""Decoder, combined objective, training loop, metrics, and heatmap export."""

from __future__ import annotations


import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Graph, atomic_open, normalize_adjacency
from .encoder import (ACTIVATIONS, VIEWS, DualEmbedding, Encoder, EncoderError, encode_views,
                      first_message)
from .hpc import HpcConfig, SamplePlan, build_sample_plan, hpc_loss, plan_frame
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
        if self.seed < 0:
            raise PipelineError(f"seed must be >= 0, got {self.seed}")
        if self.patience > self.epochs:
            raise PipelineError("patience cannot exceed epochs")
        if self.ablation not in ABLATIONS:
            raise PipelineError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.eval_metric not in ("accuracy", "macro_f1"):
            raise PipelineError(f"unknown eval_metric {self.eval_metric!r}")
        if self.checkpoint not in ("best", "last"):
            raise PipelineError(f"checkpoint must be 'best' or 'last', got {self.checkpoint!r}")
        kinds = tuple(kind.value for kind in Model)
        for name in ("kind_alpha", "kind_beta"):
            if getattr(self, name) not in kinds:
                raise PipelineError(f"{name} must be one of {kinds}, got {getattr(self, name)!r}")
        for name in ("curvature_alpha", "curvature_beta"):
            if not -math.inf < getattr(self, name) < 0:
                raise PipelineError(f"{name} must be finite and < 0, got {getattr(self, name)}")
        if self.activation not in ACTIVATIONS:
            raise PipelineError(f"activation must be one of {tuple(ACTIVATIONS)}, "
                                f"got {self.activation!r}")

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
                                     config.activation, np.random.default_rng(seeds[0]))
        self.encoder_beta = Encoder(config.manifold_beta(), d_feat, dims,
                                    config.activation, np.random.default_rng(seeds[1]))
        rng_dec = np.random.default_rng(seeds[2])
        s = 1.0 / np.sqrt(2 * config.embed_dim)
        self.dec_weight = ad.parameter(rng_dec.uniform(-s, s, size=(2 * config.embed_dim, n_classes)))
        self.dec_bias = ad.parameter(np.zeros((1, n_classes)))

    def parameters(self) -> list[Tensor]:
        return (self.encoder_alpha.parameters() + self.encoder_beta.parameters()
                + [self.dec_weight, self.dec_bias])

    def embed(self, graph: Graph, a_norm) -> DualEmbedding:
        """Both views of ``graph``, encoded from a fresh first message."""
        width = graph.features.shape[1]
        if width != self.d_feat:
            raise PipelineError(f"the model takes {self.d_feat}-wide features, "
                                f"the graph has {width}-wide features")
        message, _ = first_message(graph.features, a_norm, self.config.max_feature_norm)
        return encode_views(message, a_norm, self.encoder_alpha, self.encoder_beta)

    def forward(self, message: Tensor, a_norm) -> tuple[DualEmbedding, Tensor]:
        emb = encode_views(message, a_norm, self.encoder_alpha, self.encoder_beta)
        return emb, decode(emb, self.dec_weight, self.dec_bias)

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
    z = ad.concat_cols([emb.tangent("alpha"), emb.tangent("beta")])
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
               hpc_value, lambda_contrast: float) -> tuple[Tensor, Tensor]:
    """Masked cross-entropy plus lambda_c times the contrastive term, and the
    cross-entropy term alone."""
    ce = cross_entropy(logits, labels, train_mask)
    if lambda_contrast == 0.0 or hpc_value is None:
        return ce, ce
    return ad.add(ce, ad.scalar_mul(hpc_value, lambda_contrast)), ce


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
    logits = decode(model.embed(graph, a_norm), model.dec_weight, model.dec_bias)
    return np.argmax(logits.value, axis=1)


def evaluate(graph: Graph, mask: np.ndarray, logits: np.ndarray) -> Metrics:
    """Accuracy and macro-F1 on ``mask`` of the argmax of ``logits``."""
    if mask is None or not np.any(mask):
        raise PipelineError("empty evaluation mask")
    pred = np.argmax(logits, axis=1)
    return Metrics(
        accuracy=accuracy_score(pred[mask], graph.labels[mask]),
        macro_f1=macro_f1_score(pred[mask], graph.labels[mask], graph.n_classes),
    )


def train(graph: Graph, config: TrainConfig) -> TrainResult:
    """Full training pass: encode views, refresh the sample plan, combine the
    losses, Adam step, early stop on the validation metric.

    The features are lifted and averaged once for the whole call
    (``encoder.first_message``), and both views of every forward read that
    one message. For dense features, such as the synthetic trees', it is the
    dense ``a_norm @ X``; for wide sparse features, where the nonzero counts
    make ``a_norm @ (X @ W)`` cheaper (``encoder.csr_route``), it is the two
    CSR factors. Every weight state is forwarded once, on a tape: the forward
    taken after epoch e's step gives epoch e's validation logits and is the
    forward that epoch e + 1 backpropagates through, so a run of E epochs
    makes E + 1 forwards. The final metrics read the kept logits of the
    chosen weights."""
    if graph.train_mask is None:
        raise PipelineError("graph has no train/val/test masks; call split() first")
    for name, mask in (("train", graph.train_mask), ("val", graph.val_mask),
                       ("test", graph.test_mask)):
        if mask is None or not mask.any():  # would fail after training has started
            raise PipelineError(f"the {name} mask is empty; training needs nodes in all three")
    use_hpc = config.ablation != "no_hpc" and config.lambda_contrast > 0.0
    include_tolerance = config.ablation != "no_pos"
    hpc_cfg = config.effective_hpc()
    if use_hpc:  # a negative pool short of m fails here, not at epoch 0
        plan_frame(graph, hpc_cfg.num_negatives)
    model = HgclModel(config, graph.features.shape[1], graph.n_classes)
    a_norm = normalize_adjacency(graph)
    message, _ = first_message(graph.features, a_norm, config.max_feature_norm)
    opt = Adam(model.parameters(), lr=config.lr, clip_norm=config.grad_clip)
    neg_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[3])

    def forward() -> tuple[ad.Tape, DualEmbedding, Tensor]:
        """Taped forward of the current weights."""
        with ad.Tape() as tape:
            emb, logits = model.forward(message, a_norm)
        return tape, emb, logits

    def step(tape: ad.Tape, emb: DualEmbedding, logits: Tensor,
             plan: SamplePlan | None) -> tuple[float, float, float]:
        """Loss and backward on the tape of a held forward; returns the task,
        contrastive and total loss as floats, so no tensor of the step
        outlives the call."""
        opt.zero_grad()
        with tape:
            hpc_term = hpc_loss(emb, plan, hpc_cfg, include_tolerance) if use_hpc else None
            loss, task = total_loss(logits, graph.labels, graph.train_mask,
                                    hpc_term, config.lambda_contrast)
            tape.backward(loss)
        return task.item(), hpc_term.item() if hpc_term is not None else 0.0, loss.item()

    history: list[EpochRecord] = []
    best_val = -np.inf
    best_epoch = -1
    best_state: list[np.ndarray] | None = None
    best_logits: np.ndarray | None = None  # a plain array: a Tensor would keep its tape
    stale = 0
    plan_builds = 0

    epoch, stage = 0, "training step"
    try:
        held = forward()
        for epoch in range(config.epochs):
            stage = "training step"
            plan: SamplePlan | None = None
            if use_hpc:
                plan = build_sample_plan(graph, hpc_cfg.num_negatives, neg_rng)
                plan_builds += 1
            task, hpc_value, total = step(*held, plan)
            held = plan = None  # free this step's graph before the next forward
            opt.step()
            stage = "validation"
            held = forward()
            logits = held[2].value
            val = evaluate(graph, graph.val_mask, logits).get(config.eval_metric)
            history.append(EpochRecord(epoch=epoch, task_loss=task, hpc_loss=hpc_value,
                                       total_loss=total, val_metric=val))
            if val > best_val:
                best_val = val
                best_epoch = epoch
                best_state = model.state_arrays()
                best_logits = logits
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    except (ad.NonFiniteError, EncoderError) as exc:
        raise PipelineError(f"epoch {epoch}, {stage}: {exc}") from exc

    if best_state is not None and config.checkpoint == "best":
        model.load_state_arrays(best_state)
        logits = best_logits
    val_metrics = evaluate(graph, graph.val_mask, logits)
    test_metrics = evaluate(graph, graph.test_mask, logits)
    return TrainResult(model, history, best_epoch, best_val, val_metrics,
                       test_metrics, plan_builds, len(history))


# ---------------------------------------------------------------------------
# Heatmap export
# ---------------------------------------------------------------------------

def default_heatmap_nodes(graph: Graph, per_class: int = 20, n_classes: int = 2) -> np.ndarray:
    """Lowest-id nodes of the first classes: per_class each."""
    if per_class < 1:
        raise PipelineError(f"per_class must be >= 1, got {per_class}")
    picks = []
    for c in sorted(np.unique(graph.labels))[:n_classes]:
        ids = np.flatnonzero(graph.labels == c)[:per_class]
        picks.append(ids)
    return np.concatenate(picks)


# Distances per format call, whose temporaries stay in L2, and rows per
# write, which keep the write buffer near 2-3 MB at 1000 nodes.
_FORMAT_CHUNK = 8192
_HEATMAP_BLOCK = 128


def _ascii_words() -> np.ndarray:
    """The 4-digit ASCII words of 0..9999 as uint32, three tables end to end:
    plain ("0120"), trailing zeros blank ("012 ") and leading zeros blank
    with the ones digit kept (" 120", 0 is "   0")."""
    digits = np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    zero = digits == 0
    trail = np.cumprod(zero[:, ::-1], axis=1)[:, ::-1].astype(bool)
    lead = np.cumprod(zero, axis=1).astype(bool)
    lead[:, 3] = False
    words = [np.where(blank, 32, digits + 48) for blank in (np.zeros_like(zero), trail, lead)]
    return np.concatenate(words).astype(np.uint8).view(np.uint32).ravel()


_WORDS = _ascii_words()
_POW10 = np.array([float(10**k) for k in range(17)])  # exact doubles
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
_SLOT = np.dtype({"names": ["int", "point", "frac", "sep"], "formats": ["V4", "u1", "V16", "u1"],
                  "offsets": [0, 4, 5, 21], "itemsize": 22})


def _fixed_point(n: np.ndarray, exp: np.ndarray, out: np.ndarray) -> None:
    """Fill the (len, 22) uint8 ``out`` with "%.12g"'s fixed-point text of
    the 12-digit integers ``n`` (< 10**12) read at decimal exponent ``exp``
    in [-4, 3]: the integer part right-aligned in one 4-digit word, the
    point, the fraction left-aligned in four words, then the separator. Its
    leading and trailing zeros, and the point of a whole number, are spaces,
    which the CSV drops."""
    frac_len = 11 - exp
    scale = _POW10_INT[frac_len]
    whole = n // scale
    frac = (n - whole * scale) * _POW10_INT[16 - frac_len]
    # Each word as an index into _WORDS, split off with floor division by a
    # scalar, several times faster than % or divmod on int64.
    idx = np.empty((n.size, 4), dtype=np.intp)
    rest = frac
    for k in range(3):
        place = 10 ** (12 - 4 * k)
        word = rest // place
        rest = rest - word * place
        idx[:, k] = word + 10**4 * (rest == 0)
    idx[:, 3] = rest + 10**4
    slots = out.view(_SLOT)[:, 0]
    slots["int"] = _WORDS.take(whole + 2 * 10**4).view("V4")
    slots["point"] = np.where(frac == 0, 32, 46)
    slots["frac"] = _WORDS.take(idx).view("V16")[:, 0]
    slots["sep"] = 44


def _format_g12(values: np.ndarray, out: np.ndarray) -> None:
    """Fill row i of the (len, 22) uint8 ``out`` with ``b"%-21.12g," %
    values[i]``, up to where its spaces fall (the CSV drops them).

    0.0 and the values 1e-4 <= v < 1e4, where "%.12g" is fixed-point with
    exponent X in [-4, 3], are written with array ops. X is floor(log10 v),
    corrected both ways so that s = v * 10**(11 - X) lies in [1e11, 1e12);
    10**(11 - X) is exact, so s holds one rounding of at most 2**-14 and
    rint(s) is the correctly rounded 12 digits, unless s lies within 1e-3
    of a half. A rint(s) of 1e12 carries: it reads 1e11 at X + 1. The
    values near a half, those whose carry reaches X = 4, and every value
    outside the range (negative, -0.0, < 1e-4, >= 1e4, inf, nan), go
    through ``%``."""
    fast = (values >= 1e-4) & (values < 1e4)
    zero = (values == 0) & ~np.signbit(values)
    v = np.where(fast, values, 1.0)
    exp = np.floor(np.log10(v)).astype(np.intp)
    s = v * _POW10[11 - exp]
    high, low = s >= 1e12, s < 1e11
    exp += high
    exp -= low
    s = np.where(high | low, v * _POW10[11 - exp], s)
    n = np.rint(s)
    slow = ~(fast | zero) | (np.abs(s - n) >= 0.499)
    carry = n == 1e12
    n[carry] = 1e11
    exp += carry
    slow |= exp > 3
    n = n.astype(np.int64)
    n[zero | slow] = 0  # the slow rows are rewritten below
    _fixed_point(n, exp, out)
    rows = np.flatnonzero(slow)
    if rows.size:
        text = b"%-21.12g," * rows.size % tuple(values[rows].tolist())
        out[rows] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 22)


def export_heatmap(model: HgclModel, graph: Graph, node_ids, view: str, out_path,
                   a_norm=None) -> np.ndarray:
    """Write the pairwise hyperbolic distance matrix of the chosen view's
    embeddings for the given nodes as CSV (ids as headers, labels appended).

    The matrix is returned; the CSV holds the same values. Each upper-triangle
    distance is formatted once, and the mirrored cell reuses its text."""
    if view not in VIEWS:  # before the forward, which would be wasted
        raise PipelineError(f"view must be one of {VIEWS}, got {view!r}")
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size and (node_ids.min() < 0 or node_ids.max() >= graph.n_nodes):
        raise PipelineError(f"heatmap node id out of range 0..{graph.n_nodes - 1}")
    a_norm = normalize_adjacency(graph) if a_norm is None else a_norm
    emb = model.embed(graph, a_norm)
    man, _ = emb.view(view)
    pts = emb.points(view)[node_ids]
    dist = man.pairwise_dist(pts)
    m = len(node_ids)
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    k = int(upper.sum())
    # Every CSV cell is formatted into one 22-byte slot: 21 bytes hold the
    # widest "%.12g" of a double (19 characters) and the widest int64 id or
    # label (19 digits), and the separator fills the last. The padding is
    # spaces, which no cell contains. The slots are the k upper-triangle
    # cells, then the diagonal, the ids and the labels; row r reads its id,
    # its m cells and its label. The distances are formatted in chunks
    # (``_format_g12``), so that their temporaries never all exist at once.
    values = np.concatenate([dist[upper], np.diagonal(dist)])
    slots = bytearray(22 * (k + 3 * m))
    slots[22 * (k + m):] = ((b"%-21d," * m + b"%-20d\r\n" * m)
                            % (*node_ids.tolist(), *graph.labels[node_ids].tolist()))
    text = np.frombuffer(slots, dtype=np.uint8).reshape(-1, 22)[:k + m]
    for lo in range(0, k + m, _FORMAT_CHUNK):
        _format_g12(values[lo:lo + _FORMAT_CHUNK], text[lo:lo + _FORMAT_CHUNK])
    slots = np.frombuffer(slots, dtype="V22")
    index = np.empty((m, m + 2), dtype=np.intp)
    cells = index[:, 1:-1]
    cells[upper] = np.arange(k)
    cells.T[upper] = np.arange(k)
    cells[np.diag_indices(m)] = np.arange(k, k + m)
    index[:, 0] = np.arange(k + m, k + 2 * m)
    index[:, -1] = np.arange(k + 2 * m, k + 3 * m)
    # Same bytes as csv.writer ("\r\n" rows, nothing quoted), written
    # atomically so a reader never sees a partial CSV.
    with atomic_open(out_path, "wb") as fh:
        fh.write(",".join(["id"] + [str(i) for i in node_ids] + ["label"]).encode() + b"\r\n")
        for lo in range(0, m, _HEATMAP_BLOCK):
            fh.write(slots[index[lo:lo + _HEATMAP_BLOCK]].tobytes().translate(None, b" "))
    return dist
