"""Float64 distance routes against an 80-digit mpmath evaluation of the same
inputs: ``Manifold.dist``, ``Manifold.pairwise_dist`` and ``dg.dist_rows``."""

import mpmath
import numpy as np
import pytest

from hgcl import diffgeo as dg
from hgcl import manifolds as mf
from hgcl.autodiff import Tensor

RADII = (0.5, 1.0, 2.0, 5.0, 10.0)  # geodesic distance of the first point from the origin
SEPARATIONS = (1e-3, 1e-2, 1e-1, 1.0)
# The measured floor is 1.4e-10, from the close pairs: acosh near 1 keeps
# about half the digits of its argument's distance from 1.
BALL_BOUND = 2.5e-10


def ball_pairs(k):
    """Ball rows a, b: a at each radius, b radially or tangentially apart from
    it by about each separation."""
    sk = np.sqrt(-k)
    u, v = np.array([0.6, 0.0, 0.8, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
    a, b = [], []
    for r in RADII:
        for s in SEPARATIONS:
            turn = s * sk / np.sinh(sk * r)
            for rb, dirb in ((r + s, u), (r, np.cos(turn) * u + np.sin(turn) * v)):
                a.append(np.tanh(sk * r / 2) / sk * u)
                b.append(np.tanh(sk * rb / 2) / sk * dirb)
    return np.array(a), np.array(b)


def oracle(k, a, b):
    """acosh(1 - 2K|a-b|^2 / ((1 + K|a|^2)(1 + K|b|^2))) / sqrt(-K) per row pair,
    in 80-digit arithmetic on the float64 inputs."""
    with mpmath.workdps(80):
        kk = mpmath.mpf(k)
        out = []
        for ra, rb in zip(a.tolist(), b.tolist()):
            xa, xb = [mpmath.mpf(t) for t in ra], [mpmath.mpf(t) for t in rb]
            d2 = sum((p - q) ** 2 for p, q in zip(xa, xb))
            qa = 1 + kk * sum(p * p for p in xa)
            qb = 1 + kk * sum(q * q for q in xb)
            out.append(mpmath.acosh(1 - 2 * kk * d2 / (qa * qb)) / mpmath.sqrt(-kk))
        return out


@pytest.mark.parametrize("k", [-0.5, -1.0, -2.0])
def test_ball_distance_routes_match_an_80_digit_oracle(k):
    man = mf.poincare(4, k)
    a, b = ball_pairs(k)
    n = len(a)
    routes = {
        "dist": man.dist(a, b),
        "pairwise_dist": man.pairwise_dist(np.concatenate([a, b]))[np.arange(n), n + np.arange(n)],
        "dist_rows": dg.dist_rows(man, Tensor(a), Tensor(b)).value[:, 0],
    }
    exact = oracle(k, a, b)
    for name, got in routes.items():
        err = max(float(abs(mpmath.mpf(g) - e) / e) for g, e in zip(got.tolist(), exact))
        assert err <= BALL_BOUND, f"{name}: relative error {err:.3g}"
