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

This is the numpy reference route: every closed form (distances, origin and
general-base maps, Mobius addition, gyration, the ball/hyperboloid isometry)
is written here once; ``dist`` and the fused HPC pair pools share
``Manifold.pair_dist``. ``hgcl.diffgeo`` holds the same formulas on the
autodiff tape, and the two check each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .autodiff import acosh_slope
from .kernels import ARTANH_CLIP, MIN_NORM

MAX_TANGENT_NORM = 16.0  # expmap rejects tangents of larger metric norm
_PAIRWISE_STRIP = 16  # rows pairwise_dist scores at a time; temporaries hold 16·m·d floats


class GeometryError(ValueError):
    """Invalid point, tangent, or manifold combination. ``rows`` holds the
    indices of the offending rows when :meth:`Manifold.check_points` found
    them, else None."""

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


class Model(enum.Enum):
    POINCARE = "poincare"
    LORENTZ = "lorentz"


def _coerce(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _rows(x) -> np.ndarray:
    """Contiguous float64 rows; a 1-D vector becomes one row."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x[None, :] if x.ndim == 1 else x


def lorentz_inner(x, y):
    """Rowwise Minkowski product -x0*y0 + sum_i x_i*y_i, validated."""
    x, y = _coerce(x), _coerce(y)
    if x.shape != y.shape:
        raise GeometryError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.shape[-1] < 2:
        raise GeometryError("Lorentz vectors need ambient dimension >= 2")
    return lorentz_inner_rows(x, y)


def lorentz_inner_rows(x, y):
    """Rowwise Minkowski product, unvalidated."""
    x, y = _rows(x), _rows(y)
    return np.sum(x[:, 1:] * y[:, 1:], axis=1) - x[:, 0] * y[:, 0]


@dataclass(frozen=True)
class Manifold:
    """A hyperbolic model (Poincare ball or Lorentz) of fixed curvature.

    ``dim`` is the intrinsic dimension; ambient vectors have ``dim`` entries
    for the ball and ``dim + 1`` for the hyperboloid.
    """

    kind: Model
    curvature: float
    dim: int

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

    # -- validation ----------------------------------------------------------

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
        bad = ~np.all(np.isfinite(x), axis=1)
        if np.any(bad):
            raise GeometryError("non-finite coordinates", np.flatnonzero(bad))
        if self.kind is Model.POINCARE:
            sq = np.sum(x * x, axis=1)
            bad = sq >= -1.0 / self.k
            if np.any(bad):
                raise GeometryError(
                    f"{int(bad.sum())} point(s) outside the open ball of radius "
                    f"{self.ball_radius:g}", np.flatnonzero(bad)
                )
        else:
            res = self.k * lorentz_inner_rows(x, x) - 1.0
            scale = 1.0 + np.abs(self.k) * np.sum(x * x, axis=1)
            bad = np.abs(res) > atol * scale
            if np.any(bad):
                raise GeometryError(
                    f"{int(bad.sum())} point(s) off the hyperboloid "
                    f"(max residual {np.max(np.abs(res)):.3e})", np.flatnonzero(bad)
                )
            bad = x[:, 0] <= 0
            if np.any(bad):
                raise GeometryError("Lorentz point(s) not on the upper sheet",
                                    np.flatnonzero(bad))

    def lorentz_time(self, spatial) -> np.ndarray:
        """Time coordinate sqrt(|s|^2 - 1/K) of spatial rows s, shape (n,); the
        tape twin is ``diffgeo.lorentz_time``."""
        return np.sqrt(np.sum(spatial * spatial, axis=1) - 1.0 / self.k)

    # -- origin maps and distances -------------------------------------------

    def dist(self, x, y):
        """Geodesic distance per row of two equally shaped batches; the float
        ops of ``pair_dist``, so bitwise those of ``diffgeo.dist_rows``."""
        x, y = _rows(x), _rows(y)
        if x.shape != y.shape:
            raise GeometryError(f"dist needs equal shapes, got {x.shape} vs {y.shape}")
        (xs, tx), (ys, ty) = self._pair_inputs(x), self._pair_inputs(y)
        d = self.pair_dist(xs, tx, ys[:, None], ty[:, None])[0][:, 0]
        # Identical rows are 0 apart; far from the origin <x,x>_L cancels and misses it.
        return np.where(np.all(x == y, axis=1), 0.0, d)

    def _pair_inputs(self, x):
        """``pair_dist``'s rows and node terms of ambient rows x: the ball rows
        and their ``node_terms``, or the hyperboloid's spatial block and time."""
        if self.kind is Model.POINCARE:
            return x, self.node_terms(x)
        return x[:, 1:], x[:, 0]

    def node_terms(self, x) -> np.ndarray:
        """Per-row term of ``pair_dist`` for intrinsic rows x, shape (n,):
        1 + K|x|^2 on the ball (floored inside ``pair_dist``), the time
        coordinate on the hyperboloid."""
        if self.kind is Model.POINCARE:
            return np.sum(x * x, axis=1) * self.k + 1.0
        return self.lorentz_time(x)

    def pair_dist(self, x, tx, y, ty):
        """Distance d_rj between intrinsic row x_r and each of its candidate
        rows y_rj, shape (rows, c), and ``slopes(gs)``.

        x is (rows, d) and y (rows, c, d), both gathered by the caller; tx
        (rows,) and ty (rows, c) are their ``node_terms``. The float ops are
        those of ``diffgeo.dist_rows``, in order; the sums over d are
        ``np.einsum``'s, as in ``autodiff.row_dot``, so the two agree
        bitwise. ``slopes`` maps dL/dd to per-pair weights w, u, v with
        dL/dx_r = sum_j (u_rj·x_r + w_rj·y_rj) and dL/dy_rj = v_rj·y_rj +
        w_rj·x_r (Nickel & Kiela 2017, eq. 4; 2018 for the hyperboloid). They
        keep the composed route's masked zero slopes: acosh at arg <= 1 and
        the conformal floor.
        """
        k, inv_sk = self.k, 1.0 / self.sqrt_abs_k
        ta, tb = tx[:, None], ty
        if self.kind is Model.POINCARE:
            diff = x[:, None, :] - y
            d2 = np.einsum("ncd,ncd->nc", diff, diff)

            def ball_terms():
                """Floored conformal terms, their product and the acosh argument;
                the backward recomputes them, so a tape keeps d2, ta, tb only."""
                qa, qb = np.clip(ta, MIN_NORM, np.inf), np.clip(tb, MIN_NORM, np.inf)
                den = qa * qb
                return qa, qb, den, 1.0 - (d2 / den) * (2.0 * k)

            arg = ball_terms()[3]

            def slopes(gs):
                # d2 enters through d2/den, and den = qa·qb through each floored
                # term: dL/dq_a = -k·d2/q_a · dL/dd2 where q_a is not floored.
                qa, qb, den, arg = ball_terms()
                g_d2 = gs * acosh_slope(arg) * (-4.0 * k * inv_sk) / den
                u = g_d2 * (1.0 - d2 * (k * (ta >= MIN_NORM) / qa))
                v = g_d2 * (1.0 - d2 * (k * (tb >= MIN_NORM) / qb))
                return -g_d2, u, v
        else:
            arg = (np.einsum("nd,ncd->nc", x, y) - ta * tb) * k

            def slopes(gs):
                g_inner = gs * inv_sk * acosh_slope(arg) * k
                return (g_inner, -g_inner * tb / np.maximum(ta, MIN_NORM),
                        -g_inner * ta / np.maximum(tb, MIN_NORM))

        return np.arccosh(np.maximum(arg, 1.0)) * inv_sk, slopes

    def pairwise_dist(self, x):
        """Symmetric distance matrix of the rows of x, [i, j] = ``dist(x[i], x[j])``:
        a strip of rows is scored against the rows from it on, and mirrored."""
        x = _rows(x)
        xs, tx = self._pair_inputs(x)
        d = np.empty((len(x), len(x)))
        for lo in range(0, len(x), _PAIRWISE_STRIP):
            hi = lo + _PAIRWISE_STRIP
            d[lo:hi, lo:] = self.pair_dist(xs[lo:hi], tx[lo:hi], xs[None, lo:], tx[None, lo:])[0]
            d[lo:, lo:hi] = d[lo:hi, lo:].T
        # As in dist, identical rows (the diagonal among them) are exactly 0 apart.
        _, group = np.unique(x, axis=0, return_inverse=True)
        d[group[:, None] == group] = 0.0
        return d

    def exp0(self, v):
        """Exp map at the origin from intrinsic tangent coordinates.

        Poincare takes/returns length-``dim`` rows; Lorentz takes the spatial
        block and returns ambient rows.
        """
        v = _rows(v)
        sk = np.sqrt(-self.k)
        r = np.maximum(np.sqrt(np.sum(v * v, axis=1, keepdims=True)), MIN_NORM)
        if self.kind is Model.POINCARE:
            return np.tanh(sk * r) / (sk * r) * v
        time = np.cosh(sk * r) / sk
        return np.concatenate([time, np.sinh(sk * r) / (sk * r) * v], axis=1)

    def log0(self, x):
        """Log map at the origin, returned in intrinsic tangent coordinates
        (the spatial block for Lorentz)."""
        x = _rows(x)
        sk = np.sqrt(-self.k)
        if self.kind is Model.POINCARE:
            r = np.maximum(np.sqrt(np.sum(x * x, axis=1, keepdims=True)), MIN_NORM)
            return np.arctanh(np.clip(sk * r, -ARTANH_CLIP, ARTANH_CLIP)) / (sk * r) * x
        theta = np.arccosh(np.maximum(sk * x[:, :1], 1.0))
        return theta / np.maximum(np.sinh(theta), MIN_NORM) * x[:, 1:]

    def tangent0_to_ambient(self, u):
        """Intrinsic origin-tangent coordinates -> ambient tangent at the origin."""
        u = np.atleast_2d(_coerce(u))
        if self.kind is Model.POINCARE:
            return u
        return np.concatenate([np.zeros((u.shape[0], 1)), u], axis=1)

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
            out = np.sqrt(np.maximum(lorentz_inner_rows(v, v), 0.0))
        return out

    def expmap(self, x, v):
        """Exp map at base rows x of tangent rows v."""
        x = np.atleast_2d(_coerce(x))
        v = np.atleast_2d(_coerce(v))
        norms = self.metric_norm(x, v)
        if np.any(norms > MAX_TANGENT_NORM):
            raise GeometryError(
                f"tangent metric norm {norms.max():.3g} exceeds the "
                f"max tangent norm {MAX_TANGENT_NORM:g}"
            )
        sk = self.sqrt_abs_k
        if self.kind is Model.POINCARE:
            lam = self.conformal_factor(x)
            r = np.maximum(np.sqrt(np.sum(v * v, axis=1, keepdims=True)), MIN_NORM)
            w = np.tanh(sk * lam * r / 2.0) * v / (sk * r)
            return mobius_add_rows(x, w, self.k)
        nv = np.sqrt(np.maximum(lorentz_inner_rows(v, v), 0.0))[:, None]
        theta = np.maximum(sk * nv, MIN_NORM)
        out = np.cosh(theta) * x + np.sinh(theta) / theta * v
        out[:, 0] = self.lorentz_time(out[:, 1:])  # back onto the upper sheet
        return out

    def logmap(self, x, y):
        """Log map at base rows x toward rows y; exact zero when x == y."""
        x = np.atleast_2d(_coerce(x))
        y = np.atleast_2d(_coerce(y))
        sk = self.sqrt_abs_k
        if self.kind is Model.POINCARE:
            u = mobius_add_rows(-x, y, self.k)
            r = np.sqrt(np.sum(u * u, axis=1, keepdims=True))
            lam = self.conformal_factor(x)
            coef = 2.0 / (sk * lam) * np.arctanh(np.clip(sk * r, 0.0, ARTANH_CLIP))
            out = np.where(r > 1e-12, coef * u / np.maximum(r, MIN_NORM), 0.0)
            return out
        inner = lorentz_inner_rows(x, y)[:, None]
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
        num = self.k * lorentz_inner_rows(y, v)[:, None]
        den = 1.0 + self.k * lorentz_inner_rows(x, y)[:, None]
        return v - num / np.maximum(den, MIN_NORM) * (x + y)

    def project_tangent(self, x, v):
        """Orthogonal projection of ambient rows v onto the tangent space at x."""
        if self.kind is Model.POINCARE:
            return np.atleast_2d(_coerce(v))
        x = np.atleast_2d(_coerce(x))
        v = np.atleast_2d(_coerce(v))
        return v - self.k * lorentz_inner_rows(x, v)[:, None] * x

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


def poincare(dim: int, curvature: float = -1.0) -> Manifold:
    return Manifold(Model.POINCARE, curvature, dim)


def lorentz(dim: int, curvature: float = -1.0) -> Manifold:
    return Manifold(Model.LORENTZ, curvature, dim)


# ---------------------------------------------------------------------------
# Gyrovector helpers (Poincare)
# ---------------------------------------------------------------------------

def mobius_add_rows(x, y, k):
    """Rowwise x (+) y for signed curvature k < 0."""
    x, y = _rows(x), _rows(y)
    x2 = np.sum(x * x, axis=1, keepdims=True)
    y2 = np.sum(y * y, axis=1, keepdims=True)
    xy = np.sum(x * y, axis=1, keepdims=True)
    num = (1.0 - 2.0 * k * xy - k * y2) * x + (1.0 + k * x2) * y
    den = 1.0 - 2.0 * k * xy + k * k * x2 * y2
    return num / np.maximum(den, MIN_NORM)


def gyration_rows(u, v, w, k):
    """gyr[u, v] w via the rational closed form; linear and norm-preserving in w.

    Equals mobius_add_rows(-(u + v), u + (v + w)) when w lies in the ball, but this
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
