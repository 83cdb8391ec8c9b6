"""Two-view hyperbolic GNN encoders.

Each layer aggregates in the tangent space at the origin, as HGCN does:
average the previous layer's origin tangents through the normalized
adjacency, then apply an affine map and activation, one ``ad.affine`` tape
node. All layers of an encoder share one manifold, so a layer's output stays
a tangent, and the next layer aggregates it directly: mapping it to a point
with ``exp0`` and back with ``log0`` would be the identity. Each view takes
``exp0`` once, of its last tangent (:meth:`Encoder.encode`), so its points
satisfy the model constraint by construction. :class:`DualEmbedding` carries
both; the decoder, the cross-view transfers and ``neg_dot`` read the tangent,
and the distance pools and the heatmap read the points.

Euclidean input features are origin tangents. Lifting them with ``exp0`` and
reading them back with ``log0`` is the identity, so the first layer's input is
``aggregate(a_norm, clamp(features))`` (:func:`first_message`): the same for
both views, a constant of the graph, and exact where the round trip through
tanh/artanh would saturate at large ``|K|``. ``pipeline.train`` computes it
once per call; every encode takes it in place of the features.

Every layer, the first included, is one ``ad.affine`` node; the first
layer's message comes in one of two forms, chosen by :func:`csr_route` from
the nonzero counts. Per output column, the dense message ``M = a_norm @ X``
costs ``n * d_feat`` multiply-adds in ``M @ W`` (and again in the weight
gradient ``M.T @ G``); keeping ``X`` as CSR, as the constant
``LinearOperator`` product ``a_norm · X`` that computes ``a_norm @ (X @ W)``
with gradient ``X.T @ (a_norm.T @ G)``, costs ``nnz(X) + nnz(a_norm)``. Wide,
sparse bag-of-words features, as in the citation graphs, take the CSR route;
dense features such as ``data.synthetic_tree``'s keep the dense message.
``ACTIVATIONS`` is ``autodiff.ACTIVATIONS``, the one activation table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from . import autodiff as ad
from . import diffgeo as dg
from .autodiff import Tensor
from .manifolds import GeometryError, Manifold

ACTIVATIONS = ad.ACTIVATIONS
VIEWS = ("alpha", "beta")


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


# A sparse product costs more per multiply-add than a dense one. Timed on a
# 3000-node graph with 16 output columns (2 vCPUs, one BLAS thread), the
# routes tie where (nnz(x) + nnz(a_norm)) / (n * d_feat) is about 0.13 at
# d_feat = 100 and 0.22 at d_feat = 1000; at 1/8 the CSR route was never the
# slower in that sweep.
CSR_ROUTE_RATIO = 8


def csr_route(x: np.ndarray, a_norm: sp.spmatrix) -> bool:
    """Whether the first layer should run on CSR features: when
    ``8 * (nnz(x) + nnz(a_norm)) <= n * d_feat``."""
    n, d_feat = x.shape
    return CSR_ROUTE_RATIO * (np.count_nonzero(x) + a_norm.nnz) <= n * d_feat


def first_message(features: np.ndarray, a_norm,
                  max_norm: float) -> tuple[Tensor | LinearOperator, int]:
    """The first layer's untracked input ``aggregate(a_norm, lift_features(...))``
    and the count of clamped feature rows; no parameter enters it. It is a
    dense Tensor, or, where :func:`csr_route` says the factored product is
    cheaper, the constant operator ``a_norm · X`` of the two CSR factors,
    which ``ad.affine`` multiplies as ``a_norm @ (X @ W)``."""
    x, clamped = lift_features(features, max_norm)
    if csr_route(x, a_norm):
        return aslinearoperator(a_norm) * aslinearoperator(_csr_rows(x)), clamped
    return ad.aggregate(a_norm, Tensor(x)), clamped


def _csr_rows(x: np.ndarray) -> sp.csr_matrix:
    """``sp.csr_matrix(x)`` of a dense matrix, built from the flat indices of
    its nonzeros: row-major order is CSR order, so row i's entries are those
    whose flat index lies in [i * d, (i + 1) * d)."""
    n, d = x.shape
    flat = np.flatnonzero(x != 0)
    indptr = np.searchsorted(flat, np.arange(0, n * d + 1, d))
    return sp.csr_matrix((x.ravel()[flat], flat % d, indptr), shape=(n, d))


class Encoder:
    """One hyperbolic view of the graph: a stack of graph convolutions in the
    origin tangent space, each a weight pair ``(W, b)``, kept in one list in
    layer order, ``[W0, b0, W1, b1, ...]``."""

    def __init__(self, manifold: Manifold, d_in: int, dims: list[int],
                 activation: str, rng: np.random.Generator):
        if activation not in ACTIVATIONS:
            raise EncoderError(f"unknown activation {activation!r}")
        self.manifold = dataclasses.replace(manifold, dim=dims[-1])
        self._activation = activation
        self._params: list[Tensor] = []
        for d_prev, d in zip([d_in, *dims[:-1]], dims):
            s = 1.0 / np.sqrt(d_prev)
            self._params += [ad.parameter(rng.uniform(-s, s, size=(d_prev, d))),
                             ad.parameter(np.zeros((1, d)))]

    def encode(self, message: Tensor | LinearOperator, a_norm) -> tuple[Tensor, Tensor]:
        """The view of the graph whose first-layer input is ``message``
        (:func:`first_message`), dense or CSR: the last layer's origin tangent
        and its point ``exp0(tangent)``. Layer 0 takes ``message``, each later
        layer ``aggregate(a_norm, t)`` of the previous tangent; each is one
        ``ad.affine`` node, the last without activation. An error names the
        layer; the exp0 counts as the last layer's."""
        last = len(self._params) // 2 - 1
        t = message
        for i in range(last + 1):
            w, b = self._params[2 * i:2 * i + 2]
            try:
                msg = t if i == 0 else ad.aggregate(a_norm, t)
                t = ad.affine(msg, w, b, self._activation if i < last else "none")
                if i == last:
                    return t, dg.exp0(self.manifold, t)
            except ad.NonFiniteError as exc:
                raise EncoderError(f"layer {i}: {exc}") from exc

    def parameters(self) -> list[Tensor]:
        return list(self._params)


@dataclass
class DualEmbedding:
    """Per-node embedding pair, one view per manifold (intrinsic coordinates),
    and each view's origin tangent.

    :func:`encode_views` sets both tangents: each is its encoder's last
    tangent, whose ``exp0`` the points are, so the readers of the tangent
    (the decoder, the cross-view transfers, ``neg_dot``) take no ``log0``.
    An embedding built from points alone has no tangents, and :meth:`tangent`
    takes ``log0`` of its points on each call."""

    alpha: Tensor
    beta: Tensor
    manifold_alpha: Manifold
    manifold_beta: Manifold
    tangent_alpha: Tensor | None = None
    tangent_beta: Tensor | None = None

    def view(self, view: str) -> tuple[Manifold, Tensor]:
        if view == "alpha":
            return self.manifold_alpha, self.alpha
        if view == "beta":
            return self.manifold_beta, self.beta
        raise ValueError(f"view must be one of {VIEWS}, got {view!r}")

    def tangent(self, view: str) -> Tensor:
        """The origin tangent of one view: the carried one, or ``log0`` of
        the points when none is carried."""
        man, h = self.view(view)
        t = self.tangent_alpha if view == "alpha" else self.tangent_beta
        return dg.log0(man, h) if t is None else t

    def points(self, view: str) -> np.ndarray:
        """Materialize one view as validated ambient point rows. A row the
        view's model cannot represent raises ``GeometryError`` naming the
        view and the first 8 such rows (node ids)."""
        man, t = self.view(view)
        pts = dg.internal_to_ambient(man, t.value)
        try:
            man.check_points(pts)
        except GeometryError as exc:  # a row fault: the width is the model's
            ids = ", ".join(str(i) for i in exc.rows[:8]) + (", ..." if exc.rows.size > 8 else "")
            raise GeometryError(f"view {view!r}: {exc}; node ids {ids}", exc.rows) from exc
        return pts


def encode_views(message: Tensor | LinearOperator, a_norm, encoder_alpha: Encoder,
                 encoder_beta: Encoder) -> DualEmbedding:
    tangent_alpha, alpha = encoder_alpha.encode(message, a_norm)
    tangent_beta, beta = encoder_beta.encode(message, a_norm)
    return DualEmbedding(alpha, beta, encoder_alpha.manifold, encoder_beta.manifold,
                         tangent_alpha, tangent_beta)
