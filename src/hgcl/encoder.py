"""Two-view hyperbolic GNN encoders.

Each layer aggregates in the tangent space at the origin: log map the node
points, average neighbors through the normalized adjacency, apply an affine
map and activation, and push the result back with the exp map. Euclidean
input features are lifted through the origin exp map, so every intermediate
embedding satisfies its model constraint by construction.

Nothing trainable comes before the first layer's neighbor average, so
``aggregate(a_norm, log0(lift(features)))`` is a constant of the graph.
``pipeline.train`` computes it once per call for each encoder (see
:meth:`Encoder.memoized`) and every forward of that call, training step or
validation pass, starts from it. Forward-only callers outside ``train``
recompute it on each encode and keep no copy.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeo as dg
from .autodiff import Tensor
from .manifolds import Manifold

ACTIVATIONS = {
    "tanh": ad.tanh,
    "relu": ad.relu,
    "none": lambda t: t,
}


class EncoderError(RuntimeError):
    pass


def lift_features(manifold: Manifold, features: np.ndarray,
                  max_norm: float = 8.0) -> tuple[Tensor, int]:
    """Treat feature rows as origin tangents and exp-map them onto the manifold.

    Rows with tangent norm above ``max_norm`` are rescaled onto the clamp;
    the count of clamped rows is returned alongside the lifted points.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise EncoderError("non-finite features")
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    over = norms[:, 0] > max_norm
    if np.any(over):
        x = x * np.where(norms > max_norm, max_norm / norms, 1.0)
    return dg.exp0(manifold, Tensor(x)), int(np.sum(over))


@dataclass
class HgnnLayer:
    """One tangent-space graph convolution on a fixed manifold."""

    weight: Tensor
    bias: Tensor
    manifold: Manifold
    activation: str = "tanh"

    @classmethod
    def init(cls, manifold: Manifold, d_in: int, d_out: int, activation: str,
             rng: np.random.Generator) -> "HgnnLayer":
        s = 1.0 / np.sqrt(d_in)
        weight = ad.parameter(rng.uniform(-s, s, size=(d_in, d_out)))
        bias = ad.parameter(np.zeros((1, d_out)))
        return cls(weight, bias, manifold, activation)

    def forward(self, h: Tensor, a_norm) -> Tensor:
        # the maps read only the model and curvature, not dim: any width will do
        return self.transform(ad.aggregate(a_norm, dg.log0(self.manifold, h)))

    def transform(self, msg: Tensor) -> Tensor:
        """Affine map, activation and exp map of an aggregated tangent message."""
        z = ad.add(ad.matmul(msg, self.weight), self.bias)
        z = ACTIVATIONS[self.activation](z)
        return dg.exp0(self.manifold, z)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class Encoder:
    """Stack of HgnnLayers producing one hyperbolic view of the graph."""

    def __init__(self, manifold: Manifold, d_in: int, dims: list[int],
                 activation: str, rng: np.random.Generator,
                 max_feature_norm: float = 8.0):
        if activation not in ACTIVATIONS:
            raise EncoderError(f"unknown activation {activation!r}")
        self.manifold = dataclasses.replace(manifold, dim=dims[-1])
        self.max_feature_norm = max_feature_norm
        self.layers: list[HgnnLayer] = []
        prev = d_in
        for i, d in enumerate(dims):
            act = activation if i < len(dims) - 1 else "none"
            self.layers.append(HgnnLayer.init(self.manifold, prev, d, act, rng))
            prev = d
        self.clamped_rows = 0
        # (features, a_norm, message, clamped) while inside memoized(), else None
        self._memo: tuple | None = None

    def first_message(self, features: np.ndarray, a_norm) -> tuple[Tensor, int]:
        """The first layer's untracked input ``aggregate(a_norm, log0(lift(features)))``
        and the count of clamped feature rows; no parameter enters it."""
        h, clamped = lift_features(self.manifold, features, self.max_feature_norm)
        try:
            return ad.aggregate(a_norm, dg.log0(self.manifold, h)), clamped
        except ad.NonFiniteError as exc:
            raise EncoderError(f"layer 0: {exc}") from exc

    @contextmanager
    def memoized(self, features: np.ndarray, a_norm):
        """Within the block, encodes of these very ``features`` and ``a_norm``
        objects (matched by identity) reuse one :meth:`first_message`; the
        memo is dropped on exit, by error or not."""
        self._memo = (features, a_norm, *self.first_message(features, a_norm))
        try:
            yield
        finally:
            self._memo = None

    def encode(self, features: np.ndarray, a_norm) -> Tensor:
        memo = self._memo
        if memo is not None and memo[0] is features and memo[1] is a_norm:
            msg, self.clamped_rows = memo[2], memo[3]
        else:
            msg, self.clamped_rows = self.first_message(features, a_norm)
        for i, layer in enumerate(self.layers):
            try:
                h = layer.transform(msg) if i == 0 else layer.forward(h, a_norm)
            except ad.NonFiniteError as exc:
                raise EncoderError(f"layer {i}: {exc}") from exc
        return h

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]


@dataclass
class DualEmbedding:
    """Per-node embedding pair, one view per manifold (intrinsic coordinates)."""

    alpha: Tensor
    beta: Tensor
    manifold_alpha: Manifold
    manifold_beta: Manifold

    def points(self, view: str) -> np.ndarray:
        """Materialize one view as validated ambient point rows."""
        if view == "alpha":
            man, t = self.manifold_alpha, self.alpha
        elif view == "beta":
            man, t = self.manifold_beta, self.beta
        else:
            raise ValueError(f"view must be 'alpha' or 'beta', got {view!r}")
        pts = dg.internal_to_ambient(man, t.value)
        man.check_points(pts)
        return pts


def encode_views(features: np.ndarray, a_norm, encoder_alpha: Encoder,
                 encoder_beta: Encoder) -> DualEmbedding:
    return DualEmbedding(
        alpha=encoder_alpha.encode(features, a_norm),
        beta=encoder_beta.encode(features, a_norm),
        manifold_alpha=encoder_alpha.manifold,
        manifold_beta=encoder_beta.manifold,
    )
