"""Poincare-ball and Lorentz (hyperboloid) geometry.

Conventions used throughout:

* curvature ``K`` is signed and strictly negative;
* a Poincare point is a length-``n`` vector with ``||x||^2 < -1/K``
  (open ball of radius ``1/sqrt(-K)``);
* a Lorentz point is a length-``n+1`` vector on the upper sheet of
  ``<x,x>_L = 1/K`` with time coordinate first and ``x0 > 0``;
* batch arguments are ``(rows, ambient)`` arrays, one point per row;
* everything is float64 - these formulas shed precision fast near the
  ball boundary in 32-bit.

The rowwise/pairwise closed forms live in the numpy module ``hgcl.kernels``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import ARTANH_CLIP, MIN_NORM

BALL_GUARD = 1e-5  # relative margin kept between renormalized points and the boundary


class GeometryError(ValueError):
    """Invalid point, tangent, or manifold combination."""


class Model(enum.Enum):
    POINCARE = "poincare"
    LORENTZ = "lorentz"


def _coerce(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def lorentz_inner(x, y):
    """Minkowski product -x0*y0 + sum_i x_i*y_i for 1-D or row-batch input."""
    x, y = _coerce(x), _coerce(y)
    if x.shape != y.shape:
        raise GeometryError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.shape[-1] < 2:
        raise GeometryError("Lorentz vectors need ambient dimension >= 2")
    if x.ndim == 1:
        return float(np.dot(x[1:], y[1:]) - x[0] * y[0])
    return kernels.lorentz_inner_rows(x, y)


@dataclass(frozen=True)
class Manifold:
    """A hyperbolic model (Poincare ball or Lorentz) of fixed curvature.

    ``dim`` is the intrinsic dimension; ambient vectors have ``dim`` entries
    for the ball and ``dim + 1`` for the hyperboloid.
    """

    kind: Model
    curvature: float
    dim: int
    max_tangent_norm: float = 16.0

    def __post_init__(self):
        if not self.curvature < 0:
            raise GeometryError(f"curvature must be negative, got {self.curvature}")
        if self.dim < 1:
            raise GeometryError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "curvature", float(self.curvature))

    # -- basic scalars ------------------------------------------------------

    @property
    def k(self) -> float:
        return self.curvature

    @property
    def sqrt_abs_k(self) -> float:
        return float(np.sqrt(-self.curvature))

    @property
    def ball_radius(self) -> float:
        return 1.0 / self.sqrt_abs_k

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.kind is Model.POINCARE else self.dim + 1

    @property
    def origin(self) -> np.ndarray:
        o = np.zeros(self.ambient_dim)
        if self.kind is Model.LORENTZ:
            o[0] = self.ball_radius
        return o

    def origin_rows(self, n: int) -> np.ndarray:
        return np.tile(self.origin, (n, 1))

    # -- validation and projection ------------------------------------------

    def check_points(self, x, atol: float = 1e-6) -> None:
        """Raise GeometryError unless every row satisfies the model constraint.

        The Lorentz residual is compared against ``atol`` scaled by the
        coordinate magnitude, since <x,x>_L is a catastrophic cancellation
        far from the origin.
        """
        x = np.atleast_2d(_coerce(x))
        if x.shape[1] != self.ambient_dim:
            raise GeometryError(
                f"expected ambient dimension {self.ambient_dim}, got {x.shape[1]}"
            )
        if not np.all(np.isfinite(x)):
            raise GeometryError("non-finite coordinates")
        if self.kind is Model.POINCARE:
            sq = np.sum(x * x, axis=1)
            bad = sq >= -1.0 / self.k
            if np.any(bad):
                raise GeometryError(
                    f"{int(bad.sum())} point(s) outside the open ball of radius "
                    f"{self.ball_radius:g}"
                )
        else:
            res = self.k * kernels.lorentz_inner_rows(x, x) - 1.0
            scale = 1.0 + np.abs(self.k) * np.sum(x * x, axis=1)
            bad = np.abs(res) > atol * scale
            if np.any(bad):
                raise GeometryError(
                    f"{int(bad.sum())} point(s) off the hyperboloid "
                    f"(max residual {np.max(np.abs(res)):.3e})"
                )
            if np.any(x[:, 0] <= 0):
                raise GeometryError("Lorentz point(s) not on the upper sheet")

    def check_tangent(self, x, v, atol: float = 1e-6) -> None:
        if self.kind is Model.LORENTZ:
            x2, v2 = np.atleast_2d(_coerce(x)), np.atleast_2d(_coerce(v))
            res = kernels.lorentz_inner_rows(v2, x2)
            scale = 1.0 + np.sqrt(np.sum(v2 * v2, axis=1) * np.sum(x2 * x2, axis=1))
            if np.any(np.abs(res) > atol * scale):
                raise GeometryError(
                    f"tangency violated: max |<v,x>_L| = {np.max(np.abs(res)):.3e}"
                )

    def project(self, x) -> np.ndarray:
        """Snap rows back onto the manifold (boundary guard / sheet repair)."""
        x = np.atleast_2d(_coerce(x)).copy()
        if self.kind is Model.POINCARE:
            max_norm = (1.0 - BALL_GUARD) * self.ball_radius
            norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
            fac = np.where(norms > max_norm, max_norm / np.maximum(norms, MIN_NORM), 1.0)
            return x * fac
        spatial = x[:, 1:]
        x[:, :1] = np.sqrt(np.sum(spatial * spatial, axis=1, keepdims=True) - 1.0 / self.k)
        return x

    # -- kernel-backed rowwise operations -----------------------------------

    def dist(self, x, y):
        """Geodesic distance per row."""
        x, y = _coerce(x), _coerce(y)
        squeeze = x.ndim == 1
        if self.kind is Model.POINCARE:
            d = kernels.poincare_dist_rows(x, y, self.k)
        else:
            d = kernels.lorentz_dist_rows(x, y, self.k)
        return float(d[0]) if squeeze else d

    def pairwise_dist(self, x, y=None):
        x = _coerce(x)
        y = x if y is None else _coerce(y)
        if self.kind is Model.POINCARE:
            return kernels.poincare_pairwise_dist(x, y, self.k)
        return kernels.lorentz_pairwise_dist(x, y, self.k)

    def exp0(self, v):
        """Exp map at the origin from intrinsic tangent coordinates.

        Poincare takes/returns length-``dim`` rows; Lorentz takes the spatial
        block and returns ambient rows.
        """
        v = _coerce(v)
        squeeze = v.ndim == 1
        if self.kind is Model.POINCARE:
            out = kernels.poincare_exp0_rows(v, self.k)
        else:
            out = kernels.lorentz_exp0_rows(v, self.k)
        return out[0] if squeeze else out

    def log0(self, x):
        """Log map at the origin, returned in intrinsic tangent coordinates."""
        x = _coerce(x)
        squeeze = x.ndim == 1
        if self.kind is Model.POINCARE:
            out = kernels.poincare_log0_rows(x, self.k)
        else:
            out = kernels.lorentz_log0_rows(x, self.k)
        return out[0] if squeeze else out

    def tangent0_to_ambient(self, u):
        """Intrinsic origin-tangent coordinates -> ambient tangent at the origin."""
        u = np.atleast_2d(_coerce(u))
        if self.kind is Model.POINCARE:
            return u
        return np.concatenate([np.zeros((u.shape[0], 1)), u], axis=1)

    def ambient_to_tangent0(self, v):
        v = np.atleast_2d(_coerce(v))
        return v if self.kind is Model.POINCARE else v[:, 1:]

    # -- general-base maps ---------------------------------------------------

    def conformal_factor(self, x):
        """lambda_x = 2 / (1 + K ||x||^2) (Poincare only)."""
        x = np.atleast_2d(_coerce(x))
        den = 1.0 + self.k * np.sum(x * x, axis=1, keepdims=True)
        if np.any(den <= 0):
            raise GeometryError("conformal factor undefined at or past the boundary")
        return 2.0 / den

    def metric_norm(self, x, v):
        """Riemannian norm of tangent rows v at base rows x."""
        x = np.atleast_2d(_coerce(x))
        v = np.atleast_2d(_coerce(v))
        if self.kind is Model.POINCARE:
            out = self.conformal_factor(x)[:, 0] * np.sqrt(np.sum(v * v, axis=1))
        else:
            out = np.sqrt(np.maximum(kernels.lorentz_inner_rows(v, v), 0.0))
        return out

    def expmap(self, x, v):
        """Exp map at base rows x of tangent rows v."""
        x = np.atleast_2d(_coerce(x))
        v = np.atleast_2d(_coerce(v))
        norms = self.metric_norm(x, v)
        if np.any(norms > self.max_tangent_norm):
            raise GeometryError(
                f"tangent metric norm {norms.max():.3g} exceeds the "
                f"max_tangent_norm clamp {self.max_tangent_norm:g}"
            )
        sk = self.sqrt_abs_k
        if self.kind is Model.POINCARE:
            lam = self.conformal_factor(x)
            r = np.maximum(np.sqrt(np.sum(v * v, axis=1, keepdims=True)), MIN_NORM)
            w = np.tanh(sk * lam * r / 2.0) * v / (sk * r)
            return kernels.mobius_add(x, w, self.k)
        nv = np.sqrt(np.maximum(kernels.lorentz_inner_rows(v, v), 0.0))[:, None]
        theta = np.maximum(sk * nv, MIN_NORM)
        out = np.cosh(theta) * x + np.sinh(theta) / theta * v
        return self.project(out)

    def logmap(self, x, y):
        """Log map at base rows x toward rows y; exact zero when x == y."""
        x = np.atleast_2d(_coerce(x))
        y = np.atleast_2d(_coerce(y))
        sk = self.sqrt_abs_k
        if self.kind is Model.POINCARE:
            u = kernels.mobius_add(-x, y, self.k)
            r = np.sqrt(np.sum(u * u, axis=1, keepdims=True))
            lam = self.conformal_factor(x)
            coef = 2.0 / (sk * lam) * np.arctanh(np.clip(sk * r, 0.0, ARTANH_CLIP))
            out = np.where(r > 1e-12, coef * u / np.maximum(r, MIN_NORM), 0.0)
            return out
        inner = kernels.lorentz_inner_rows(x, y)[:, None]
        c = np.maximum(self.k * inner, 1.0)
        theta = np.arccosh(c)
        coef = theta / np.maximum(np.sinh(theta), MIN_NORM)
        w = y - (self.k * inner) * x
        out = np.where(theta > 1e-12, coef * w, 0.0)
        # <x,x>_L cancels catastrophically far from the origin, so the theta
        # trigger alone cannot recognize y == x there
        same = np.all(x == y, axis=1)
        if np.any(same):
            out = np.where(same[:, None], 0.0, out)
        return self.project_tangent(x, out)

    def transport(self, x, y, v):
        """Parallel transport of tangent rows v from base x to base y."""
        x = np.atleast_2d(_coerce(x))
        y = np.atleast_2d(_coerce(y))
        v = np.atleast_2d(_coerce(v))
        if self.kind is Model.POINCARE:
            lam_x = self.conformal_factor(x)
            lam_y = self.conformal_factor(y)
            return gyration_rows(y, -x, v, self.k) * lam_x / lam_y
        num = self.k * kernels.lorentz_inner_rows(y, v)[:, None]
        den = 1.0 + self.k * kernels.lorentz_inner_rows(x, y)[:, None]
        return v - num / np.maximum(den, MIN_NORM) * (x + y)

    def project_tangent(self, x, v):
        """Orthogonal projection of ambient rows v onto the tangent space at x."""
        if self.kind is Model.POINCARE:
            return np.atleast_2d(_coerce(v))
        x = np.atleast_2d(_coerce(x))
        v = np.atleast_2d(_coerce(v))
        return v - self.k * kernels.lorentz_inner_rows(x, v)[:, None] * x

    # -- sampling ------------------------------------------------------------

    def random_tangents0(self, rng, n: int, max_norm: float = 2.5) -> np.ndarray:
        """Intrinsic origin tangents with metric norm uniform in (0, max_norm)."""
        d = rng.standard_normal((n, self.dim))
        d /= np.maximum(np.sqrt(np.sum(d * d, axis=1, keepdims=True)), MIN_NORM)
        r = rng.uniform(0.0, max_norm, size=(n, 1))
        if self.kind is Model.POINCARE:
            # metric norm at the origin is 2 ||u||_2
            return d * (r / 2.0)
        return d * r

    def random_points(self, rng, n: int, max_radius: float = 2.5) -> np.ndarray:
        """Points with geodesic distance from the origin uniform in (0, max_radius)."""
        return self.exp0(self.random_tangents0(rng, n, max_norm=max_radius))


def poincare(dim: int, curvature: float = -1.0, **kw) -> Manifold:
    return Manifold(Model.POINCARE, curvature, dim, **kw)


def lorentz(dim: int, curvature: float = -1.0, **kw) -> Manifold:
    return Manifold(Model.LORENTZ, curvature, dim, **kw)


# ---------------------------------------------------------------------------
# Gyrovector helpers (Poincare)
# ---------------------------------------------------------------------------

def gyration_rows(u, v, w, k):
    """gyr[u, v] w via the rational closed form; linear and norm-preserving in w.

    Equals mobius_add(-(u + v), u + (v + w)) when w lies in the ball, but this
    form is exact for tangent vectors of any magnitude.
    """
    u, v, w = np.atleast_2d(_coerce(u)), np.atleast_2d(_coerce(v)), np.atleast_2d(_coerce(w))
    u2 = np.sum(u * u, axis=1, keepdims=True)
    v2 = np.sum(v * v, axis=1, keepdims=True)
    uv = np.sum(u * v, axis=1, keepdims=True)
    uw = np.sum(u * w, axis=1, keepdims=True)
    vw = np.sum(v * w, axis=1, keepdims=True)
    k2 = k * k
    a = -k2 * uw * v2 - k * vw + 2.0 * k2 * uv * vw
    b = -k2 * vw * u2 + k * uw
    den = 1.0 - 2.0 * k * uv + k2 * u2 * v2
    return w + 2.0 * (a * u + b * v) / np.maximum(den, MIN_NORM)


# ---------------------------------------------------------------------------
# Point / tangent wrappers (validated, single point)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Point:
    """A validated point on a manifold."""

    coords: np.ndarray
    manifold: Manifold

    def __post_init__(self):
        c = _coerce(self.coords)
        if c.ndim != 1:
            raise GeometryError(f"Point wants a 1-D coordinate vector, got shape {c.shape}")
        self.manifold.check_points(c)
        object.__setattr__(self, "coords", c)

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and self.manifold == other.manifold
            and np.array_equal(self.coords, other.coords)
        )


@dataclass(frozen=True, eq=False)
class Tangent:
    """A validated tangent vector at a base point."""

    coords: np.ndarray
    base: Point
    manifold: Manifold = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        man = self.manifold or self.base.manifold
        object.__setattr__(self, "manifold", man)
        c = _coerce(self.coords)
        if c.shape != (man.ambient_dim,):
            raise GeometryError(
                f"tangent ambient dimension {c.shape} != ({man.ambient_dim},)"
            )
        man.check_tangent(self.base.coords, c)
        object.__setattr__(self, "coords", c)


def _same_manifold(a: Point, b: Point) -> Manifold:
    if a.manifold != b.manifold:
        raise GeometryError(f"manifold mismatch: {a.manifold} vs {b.manifold}")
    return a.manifold


def mobius_add(x: Point, y: Point) -> Point:
    man = _same_manifold(x, y)
    if man.kind is not Model.POINCARE:
        raise GeometryError("Mobius addition is defined on the Poincare ball only")
    out = kernels.mobius_add(x.coords, y.coords, man.k)[0]
    if np.sqrt(np.sum(out * out)) >= man.ball_radius * (1.0 - 1e-12):
        raise GeometryError("Mobius sum reached the ball boundary (numerical overflow)")
    return Point(out, man)


def gyration(x: Point, y: Point, v) -> np.ndarray:
    man = _same_manifold(x, y)
    if man.kind is not Model.POINCARE:
        raise GeometryError("gyration is defined on the Poincare ball only")
    return gyration_rows(x.coords, y.coords, v, man.k)[0]


def distance(x: Point, y: Point) -> float:
    man = _same_manifold(x, y)
    return man.dist(x.coords, y.coords)


def conformal_factor(x: Point) -> float:
    return float(x.manifold.conformal_factor(x.coords)[0, 0])


def metric_norm(v: Tangent) -> float:
    return float(v.manifold.metric_norm(v.base.coords, v.coords)[0])


def exp_map(base: Point, v: Tangent) -> Point:
    if not np.array_equal(v.base.coords, base.coords):
        raise GeometryError("tangent is not based at the given point")
    out = base.manifold.expmap(base.coords, v.coords)[0]
    return Point(out, base.manifold)


def log_map(base: Point, y: Point) -> Tangent:
    man = _same_manifold(base, y)
    out = man.logmap(base.coords, y.coords)[0]
    return Tangent(out, base)


def parallel_transport(x: Point, y: Point, v: Tangent) -> Tangent:
    man = _same_manifold(x, y)
    out = man.transport(x.coords, y.coords, v.coords)[0]
    return Tangent(out, y)


def project_tangent_lorentz(x: Point, v) -> Tangent:
    man = x.manifold
    if man.kind is not Model.LORENTZ:
        raise GeometryError("tangent projection targets the Lorentz model")
    out = man.project_tangent(x.coords, v)[0]
    return Tangent(out, x)


# ---------------------------------------------------------------------------
# Cross-model isometry and cross-manifold transfer
# ---------------------------------------------------------------------------

def to_lorentz_rows(x, k):
    """Canonical ball -> hyperboloid isometry (same curvature)."""
    x = np.atleast_2d(_coerce(x))
    sk = np.sqrt(-k)
    nx2 = np.sum(x * x, axis=1, keepdims=True)
    den = 1.0 + k * nx2
    if np.any(den < 1e-12):
        raise GeometryError("point too close to the ball boundary for the isometry")
    time = (1.0 - k * nx2) / (sk * den)
    return np.concatenate([time, 2.0 * x / den], axis=1)


def to_poincare_rows(y, k):
    """Canonical hyperboloid -> ball isometry (same curvature)."""
    y = np.atleast_2d(_coerce(y))
    sk = np.sqrt(-k)
    return y[:, 1:] / (1.0 + sk * y[:, :1])


def to_lorentz(x: Point) -> Point:
    man = x.manifold
    if man.kind is not Model.POINCARE:
        raise GeometryError("to_lorentz expects a Poincare point")
    out = to_lorentz_rows(x.coords, man.k)[0]
    return Point(out, lorentz(man.dim, man.k, max_tangent_norm=man.max_tangent_norm))


def to_poincare(y: Point) -> Point:
    man = y.manifold
    if man.kind is not Model.LORENTZ:
        raise GeometryError("to_poincare expects a Lorentz point")
    out = to_poincare_rows(y.coords, man.k)[0]
    return Point(out, poincare(man.dim, man.k, max_tangent_norm=man.max_tangent_norm))


def transfer_scale(source: Manifold, target: Manifold) -> float:
    """Origin-tangent rescale preserving Riemannian metric norms.

    The ball's conformal factor at the origin is 2 and the hyperboloid's
    metric at the origin is the identity on spatial coordinates, so the
    norm-preserving map between intrinsic tangent coordinates is a scalar
    that only depends on the two model kinds.
    """
    lam = {Model.POINCARE: 2.0, Model.LORENTZ: 1.0}
    return lam[source.kind] / lam[target.kind]


def transfer_rows(h, source: Manifold, target: Manifold):
    if source.dim != target.dim:
        raise GeometryError(
            f"cannot transfer between intrinsic dimensions {source.dim} and {target.dim}"
        )
    if source == target:
        return np.atleast_2d(_coerce(h))
    u = source.log0(np.atleast_2d(_coerce(h)))
    return target.exp0(transfer_scale(source, target) * u)


def transfer(h: Point, target: Manifold) -> Point:
    out = transfer_rows(h.coords, h.manifold, target)[0]
    return Point(out, target)
