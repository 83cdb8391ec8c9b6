"""Hyperbolic maps composed from autodiff primitives.

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
    return ad.sqrt(ad.reduce_sum(ad.square(h), axis=1) - 1.0 / man.k)


def exp0(man: Manifold, v: Tensor) -> Tensor:
    """Exp map at the origin on intrinsic tangent coordinates."""
    sk = man.sqrt_abs_k
    r = ad.scalar_mul(ad.row_norm(v), sk)
    if man.kind is Model.POINCARE:
        coef = ad.div(ad.tanh(r), r)
    else:
        coef = ad.div(ad.sinh(r), r)
    return ad.mul(v, coef)


def log0(man: Manifold, h: Tensor) -> Tensor:
    """Log map at the origin, back to intrinsic tangent coordinates."""
    sk = man.sqrt_abs_k
    if man.kind is Model.POINCARE:
        r = ad.scalar_mul(ad.row_norm(h), sk)
        coef = ad.div(ad.artanh_clamped(r), r)
        return ad.mul(h, coef)
    theta = ad.acosh_clamped(ad.scalar_mul(lorentz_time(man, h), sk))
    coef = ad.div(theta, ad.clip(ad.sinh(theta), MIN_NORM, np.inf))
    return ad.mul(h, coef)


def dist_rows(man: Manifold, a: Tensor, b: Tensor) -> Tensor:
    """Rowwise geodesic distance between intrinsic coordinate rows, (n, 1)."""
    k = man.k
    inv_sk = 1.0 / man.sqrt_abs_k
    if man.kind is Model.POINCARE:
        d2 = ad.reduce_sum(ad.square(ad.sub(a, b)), axis=1)
        qa = ad.clip(ad.add(ad.scalar_mul(ad.reduce_sum(ad.square(a), axis=1), k), 1.0),
                     MIN_NORM, np.inf)
        qb = ad.clip(ad.add(ad.scalar_mul(ad.reduce_sum(ad.square(b), axis=1), k), 1.0),
                     MIN_NORM, np.inf)
        arg = ad.sub(1.0, ad.scalar_mul(ad.div(d2, ad.mul(qa, qb)), 2.0 * k))
        return ad.scalar_mul(ad.acosh_clamped(arg), inv_sk)
    inner = ad.sub(ad.row_dot(a, b), ad.mul(lorentz_time(man, a), lorentz_time(man, b)))
    return ad.scalar_mul(ad.acosh_clamped(ad.scalar_mul(inner, k)), inv_sk)


def transfer0(source: Manifold, target: Manifold, h: Tensor) -> Tensor:
    """Move rows between manifolds through the shared origin tangent space."""
    if source == target:
        return h
    u = ad.scalar_mul(log0(source, h), transfer_scale(source, target))
    return exp0(target, u)


def tangent_dot_rows(man_a: Manifold, man_b: Manifold, a: Tensor, b: Tensor) -> Tensor:
    """Inner product of origin-tangent coordinates, (n, 1); the 'w/o dis' similarity."""
    return ad.row_dot(log0(man_a, a), log0(man_b, b))
