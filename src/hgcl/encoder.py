"""Two-view hyperbolic GNN encoders.

Each layer aggregates in the tangent space at the origin: log map the node
points, average neighbors through the normalized adjacency, apply an affine
map and activation, and push the result back with the exp map. Both origin
maps are single tape nodes (``diffgeo.exp0``/``diffgeo.log0``), so every
intermediate embedding satisfies its model constraint by construction. The
encoders' output views go through ``log0`` once more per training step, in
:meth:`DualEmbedding.tangent`, which the decoder and the contrastive term share.

Euclidean input features are origin tangents. Lifting them with ``exp0`` and
reading them back with ``log0`` is the identity, so the first layer's input is
``aggregate(a_norm, clamp(features))`` (:func:`first_message`): the same for
both views, a constant of the graph, and exact where the round trip through
tanh/artanh would saturate at large ``|K|``. ``pipeline.train`` computes it
once per call; every encode takes it in place of the features.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

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


def lift_features(features: np.ndarray, max_norm: float) -> tuple[np.ndarray, int]:
    """Feature rows as origin tangents, rows of norm above ``max_norm`` rescaled
    onto the clamp; returns them with the count of clamped rows. A finite row
    whose |x|^2 overflows lands on the clamp too."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise EncoderError("non-finite features")
    with np.errstate(over="ignore"):  # the rows this hits are redone below
        norms = np.sqrt(np.sum(x * x, axis=1))
    over = norms > max_norm
    if not np.any(over):
        return x, 0
    out = x.copy()
    out[over] *= (max_norm / norms[over])[:, None]
    huge = np.isinf(norms)
    if np.any(huge):  # scale by the largest entry first, so the norm stays finite
        unit = x[huge] / np.max(np.abs(x[huge]), axis=1, keepdims=True)
        out[huge] = unit * (max_norm / np.sqrt(np.sum(unit * unit, axis=1, keepdims=True)))
    return out, int(np.sum(over))


def first_message(features: np.ndarray, a_norm, max_norm: float) -> tuple[Tensor, int]:
    """The first layer's untracked input ``aggregate(a_norm, lift_features(...))``
    and the count of clamped feature rows; no parameter enters it."""
    x, clamped = lift_features(features, max_norm)
    return ad.aggregate(a_norm, Tensor(x)), clamped


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
                 activation: str, rng: np.random.Generator):
        if activation not in ACTIVATIONS:
            raise EncoderError(f"unknown activation {activation!r}")
        self.manifold = dataclasses.replace(manifold, dim=dims[-1])
        self.layers: list[HgnnLayer] = []
        prev = d_in
        for i, d in enumerate(dims):
            act = activation if i < len(dims) - 1 else "none"
            self.layers.append(HgnnLayer.init(self.manifold, prev, d, act, rng))
            prev = d

    def encode(self, message: Tensor, a_norm) -> Tensor:
        """The view of the graph whose first-layer input is ``message``
        (:func:`first_message`)."""
        for i, layer in enumerate(self.layers):
            try:
                h = layer.transform(message) if i == 0 else layer.forward(h, a_norm)
            except ad.NonFiniteError as exc:
                raise EncoderError(f"layer {i}: {exc}") from exc
        return h

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]


@dataclass
class DualEmbedding:
    """Per-node embedding pair, one view per manifold (intrinsic coordinates).

    :meth:`tangent` memoizes each view's origin tangent for the active tape, so
    one training step takes ``log0`` of each view once for all its readers."""

    alpha: Tensor
    beta: Tensor
    manifold_alpha: Manifold
    manifold_beta: Manifold
    _tangents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def view(self, view: str) -> tuple[Manifold, Tensor]:
        if view == "alpha":
            return self.manifold_alpha, self.alpha
        if view == "beta":
            return self.manifold_beta, self.beta
        raise ValueError(f"view must be 'alpha' or 'beta', got {view!r}")

    def tangent(self, view: str) -> Tensor:
        """``log0`` of one view. Under a tape it is computed once and shared by
        every reader on that tape; with no tape active it is recomputed on each
        call, so forward-only probes that edit a view in place see the edit."""
        tape = ad.Tape.current()
        memo = self._tangents.get(view)
        if memo is not None and tape is not None and memo[0] is tape:
            return memo[1]
        man, h = self.view(view)
        out = dg.log0(man, h)
        if tape is not None:
            self._tangents[view] = (tape, out)
        return out

    def points(self, view: str) -> np.ndarray:
        """Materialize one view as validated ambient point rows."""
        man, t = self.view(view)
        pts = dg.internal_to_ambient(man, t.value)
        man.check_points(pts)
        return pts


def encode_views(message: Tensor, a_norm, encoder_alpha: Encoder,
                 encoder_beta: Encoder) -> DualEmbedding:
    return DualEmbedding(
        alpha=encoder_alpha.encode(message, a_norm),
        beta=encoder_beta.encode(message, a_norm),
        manifold_alpha=encoder_alpha.manifold,
        manifold_beta=encoder_beta.manifold,
    )
