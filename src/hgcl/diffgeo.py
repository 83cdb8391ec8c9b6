"""Hyperbolic maps on the tape.

``exp0``, the origin map a training step takes, is one tape node: the
forward runs the float ops of the composed primitive chain
(``checks.composed_exp0``, the gradient reference) and the backward is
closed form. ``log0``, which no training step takes, is such a chain of
autodiff primitives itself. ``transfer0`` moves origin tangents of one model
to points of another as one ``exp0`` node that folds in ``transfer_scale``;
it is the only cross-view move, used by ``hpc_loss`` and the ``mi_*``
references. ``dist_rows`` and ``lorentz_time`` are composed from autodiff
primitives; for training, ``hpc.pool_log_probs`` fuses the distance through
``Manifold.pair_dist``, whose forward is bitwise that of ``dist_rows``.

Training-time embeddings are kept in intrinsic (n, dim) coordinates: ball
coordinates for Poincare, the spatial block for Lorentz (the time coordinate
is a function of the spatial block and is reconstructed where needed, so the
hyperboloid constraint holds by construction). The numpy twin of every
formula lives in :mod:`hgcl.manifolds`; tests hold the two routes together.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kernels import MIN_NORM
from .manifolds import Manifold, Model, transfer_scale


def internal_to_ambient(man: Manifold, coords: np.ndarray) -> np.ndarray:
    """(n, dim) training coordinates -> ambient point rows (numpy)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    if man.kind is Model.POINCARE:
        return coords
    return np.concatenate([man.lorentz_time(coords)[:, None], coords], axis=1)


def ambient_to_internal(man: Manifold, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return x if man.kind is Model.POINCARE else x[:, 1:]


def lorentz_time(man: Manifold, h: Tensor) -> Tensor:
    """Time coordinate of spatial rows as an (n, 1) column."""
    return ad.sqrt(ad.sub(ad.reduce_sum(ad.square(h), axis=1), 1.0 / man.k))


# An overflowing row raises NonFiniteError by name, not a warning.
_QUIET = dict(over="ignore", invalid="ignore")


def exp0(man: Manifold, v: Tensor) -> Tensor:
    """Exp map at the origin on intrinsic tangent coordinates, one tape node.

    scale = f(r) / r with r = sqrt|K| · max(||v||, MIN_NORM) and f = tanh
    (ball) or sinh (hyperboloid); bitwise equal to ``Manifold.exp0``.
    """
    return _exp0(man, v, 1.0)


def _exp0(man: Manifold, v: Tensor, c: float) -> Tensor:
    """The ``exp0`` node of ``x = c · v``: ``x · scale`` with the per-row
    ``scale = f(r) / r``.

    With d scale / dx = s · x, the backward is
    dL/dv = c · (g · scale + x · (s · rowdot(g, x))), with ``x`` recomputed
    rather than kept. A row whose ``r`` is not finite raises
    :class:`NonFiniteError` naming ``exp0``: the composed chain raised at its
    first non-finite intermediate, and a saturated ball map
    (tanh(inf) / inf = 0) would otherwise hide an overflowed norm.
    """
    sk = man.sqrt_abs_k
    ball = man.kind is Model.POINCARE
    with np.errstate(**_QUIET):
        x = v.value if c == 1.0 else v.value * c
        norm = np.maximum(np.sqrt(np.sum(x * x, axis=1, keepdims=True)), MIN_NORM)
        r = norm * sk
        if not np.all(np.isfinite(r)):
            raise ad.NonFiniteError("non-finite values produced by 'exp0'")
        f = np.tanh(r) if ball else np.sinh(r)
        scale = f / r

        def backward(g):
            x = v.value if c == 1.0 else v.value * c
            df = 1.0 - f * f if ball else np.cosh(r)
            # zero on the rows where the MIN_NORM floor is active
            slope = (df / r - f / (r * r)) * (sk / norm) * (norm > MIN_NORM)
            grad = g * scale
            grad += x * (slope * np.einsum("ij,ij->i", g, x)[:, None])
            if c != 1.0:
                grad *= c
            v.accumulate(grad)

        return ad.record("exp0", x * scale, (v,), backward)


def log0(man: Manifold, h: Tensor) -> Tensor:
    """Log map at the origin, back to intrinsic tangent coordinates, as a
    chain of tape primitives; bitwise equal to ``Manifold.log0`` of the
    ambient rows. An overflowing row raises :class:`NonFiniteError` naming the
    first primitive that overflowed."""
    sk = man.sqrt_abs_k
    with np.errstate(**_QUIET):
        if man.kind is Model.POINCARE:
            r = ad.scalar_mul(ad.row_norm(h), sk)
            return ad.mul(h, ad.div(ad.artanh_clamped(r), r))
        theta = ad.acosh_clamped(ad.scalar_mul(lorentz_time(man, h), sk))
        return ad.mul(h, ad.div(theta, ad.clip(ad.sinh(theta), MIN_NORM, np.inf)))


def dist_rows(man: Manifold, a: Tensor, b: Tensor) -> Tensor:
    """Rowwise geodesic distance between intrinsic coordinate rows, (n, 1)."""
    k = man.k
    inv_sk = 1.0 / man.sqrt_abs_k
    if man.kind is Model.POINCARE:
        diff = ad.sub(a, b)
        d2 = ad.row_dot(diff, diff)
        qa = ad.clip(ad.add(ad.scalar_mul(ad.reduce_sum(ad.square(a), axis=1), k), 1.0),
                     MIN_NORM, np.inf)
        qb = ad.clip(ad.add(ad.scalar_mul(ad.reduce_sum(ad.square(b), axis=1), k), 1.0),
                     MIN_NORM, np.inf)
        arg = ad.sub(1.0, ad.scalar_mul(ad.div(d2, ad.mul(qa, qb)), 2.0 * k))
        return ad.scalar_mul(ad.acosh_clamped(arg), inv_sk)
    inner = ad.sub(ad.row_dot(a, b), ad.mul(lorentz_time(man, a), lorentz_time(man, b)))
    return ad.scalar_mul(ad.acosh_clamped(ad.scalar_mul(inner, k)), inv_sk)


def transfer0(source: Manifold, target: Manifold, u: Tensor) -> Tensor:
    """Points of ``target`` for the origin tangents ``u`` of ``source``:
    ``exp0(target, transfer_scale · u)`` as one ``exp0`` node. The scale is
    1, 2 or 1/2, so ``transfer_scale · u`` and its norm are exact and the node
    is bitwise ``exp0(target, scalar_mul(u, transfer_scale))``."""
    return _exp0(target, u, transfer_scale(source, target))


def tangent_dot_rows(man: Manifold, a: Tensor, b: Tensor) -> Tensor:
    """Inner product of origin-tangent coordinates, (n, 1); the 'w/o dis' similarity."""
    return ad.row_dot(log0(man, a), log0(man, b))
