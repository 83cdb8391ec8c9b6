"""Differentiable geometry vs the numpy manifold kernel (dual route), the
fused exp0 vs its composed primitive chain, plus finite-difference checks of
the compositions."""

import numpy as np
import pytest

from hgcl import autodiff as ad
from hgcl import checks
from hgcl import diffgeo as dg
from hgcl import manifolds as mf
from hgcl.autodiff import Tensor

MANIFOLDS = [mf.poincare(6, -1.0), mf.poincare(6, -0.5),
             mf.lorentz(6, -1.0), mf.lorentz(6, -2.0)]


@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: f"{m.kind.value}{m.k}")
def test_exp0_log0_match_numpy_route(rng, man):
    u = man.random_tangents0(rng, 60, 3.0)
    pts_t = dg.exp0(man, Tensor(u))
    pts_np = dg.ambient_to_internal(man, man.exp0(u))
    np.testing.assert_array_equal(pts_t.value, pts_np)
    back = dg.log0(man, pts_t)
    np.testing.assert_array_equal(back.value, man.log0(dg.internal_to_ambient(man, pts_t.value)))
    np.testing.assert_allclose(back.value, u, atol=1e-9)


FUSED_MANIFOLDS = [mf.Manifold(kind, k, 5) for kind in (mf.Model.POINCARE, mf.Model.LORENTZ)
                   for k in (-0.3, -1.0, -2.5)]


def fused_vs_composed(name, man, x, rng):
    """Gradient gap to the composed chain (inf if the forwards differ)."""
    return checks.fused_vs_composed(lambda t: getattr(dg, name)(man, t),
                                    lambda t: getattr(checks, f"composed_{name}")(man, t),
                                    x, rng)


# exp0 is the one fused origin map; log0 is itself a composed chain.
@pytest.mark.parametrize("name", ["exp0"])
@pytest.mark.parametrize("man", FUSED_MANIFOLDS, ids=lambda m: f"{m.kind.value}{m.k}")
def test_fused_maps_equal_the_composed_chain(rng, man, name):
    # Norms from 1e-9 to 3 with a zero row: the forwards agree bit for bit,
    # the gradients to 1e-12 of their largest entry.
    for norm in (1e-9, 1e-4, 0.3, 1.0, 3.0):
        u = man.random_tangents0(rng, 40, 2.0) * norm
        u[0] = 0.0
        assert fused_vs_composed(name, man, u, rng) <= 1e-12


@pytest.mark.parametrize("name", ["exp0", "log0"])
@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: f"{m.kind.value}{m.k}")
def test_overflowing_row_names_the_fused_map(man, name):
    # Warnings stay errors here: the map must raise by name, not warn. The
    # fused exp0 names itself; the log0 chain names its first primitive to
    # overflow: the row norm on the ball, the square of the time coordinate
    # on the hyperboloid.
    op = name if name == "exp0" else "row_norm" if man.kind is mf.Model.POINCARE else "square"
    x = np.full((3, 6), 0.1)
    x[1] = 1e200
    with pytest.raises(ad.NonFiniteError, match=f"^non-finite values produced by '{op}'$"):
        getattr(dg, name)(man, Tensor(x))
    with ad.Tape(), pytest.raises(ad.NonFiniteError, match=f"'{op}'"):
        getattr(dg, name)(man, ad.parameter(x))


@pytest.mark.parametrize("name", ["exp0"])
@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: f"{m.kind.value}{m.k}")
def test_clamped_rows_get_the_composed_gradient(rng, man, name):
    # A zero row: the norm floor.
    x = 0.3 * rng.standard_normal((5, 6))
    x[0] = 0.0
    assert fused_vs_composed(name, man, x, rng) <= 1e-12  # NaN fails too


# K = -1.3 puts every float op of the distance on inexact operands.
@pytest.mark.parametrize("man", MANIFOLDS + [mf.poincare(6, -1.3), mf.lorentz(6, -1.3)],
                         ids=lambda m: f"{m.kind.value}{m.k}")
def test_dist_rows_match_numpy_route(rng, man):
    """One numpy formula, ``Manifold.pair_dist``, keeps ``dist`` on the tape's bits."""
    a = dg.ambient_to_internal(man, man.random_points(rng, 2000, 3.0))
    b = dg.ambient_to_internal(man, man.random_points(rng, 2000, 3.0))
    d_np = man.dist(dg.internal_to_ambient(man, a), dg.internal_to_ambient(man, b))
    d_t = dg.dist_rows(man, Tensor(a), Tensor(b))
    assert np.array_equal(d_t.value[:, 0], d_np)


def test_lorentz_time_reconstruction(rng):
    man = mf.lorentz(5, -0.8)
    pts = man.random_points(rng, 40, 3.0)
    t = dg.lorentz_time(man, Tensor(pts[:, 1:]))
    np.testing.assert_allclose(t.value[:, 0], pts[:, 0], atol=1e-12)


def test_transfer0_matches_numpy_route(rng):
    src, dst = mf.poincare(5, -1.0), mf.lorentz(5, -0.5)
    u = src.random_tangents0(rng, 50, 3.0)
    out_t = dg.transfer0(src, dst, Tensor(u))
    twin = dst.exp0(mf.transfer_scale(src, dst) * u)
    assert np.array_equal(out_t.value, dg.ambient_to_internal(dst, twin))
    out_np = dg.ambient_to_internal(dst, mf.transfer_rows(src.exp0(u), src, dst))
    np.testing.assert_allclose(out_t.value, out_np, atol=1e-10)


def test_transfer0_same_manifold_is_noop(rng):
    # The scale is 1, so the move adds nothing to exp0, in value or gradient.
    man = mf.poincare(4, -1.0)
    u = man.random_tangents0(rng, 10, 2.0)
    w = Tensor(rng.standard_normal(u.shape))
    assert mf.transfer_scale(man, man) == 1.0
    assert transfer_and_grad(lambda t: dg.transfer0(man, man, t), u, w) == \
        transfer_and_grad(lambda t: dg.exp0(man, t), u, w)


def transfer_and_grad(move, u, w):
    """The value of ``move(u)`` and the gradient of sum(w * move(u)), as bytes."""
    p = ad.parameter(u.copy())
    with ad.Tape() as tape:
        out = move(p)
        tape.backward(ad.reduce_sum(ad.mul(out, w)))
    return out.value.tobytes(), p.grad.tobytes()


@pytest.mark.parametrize("src, dst", [(mf.poincare(6, -1.3), mf.lorentz(6, -0.7)),
                                      (mf.lorentz(6, -0.7), mf.poincare(6, -1.3))],
                         ids=["ball-to-hyperboloid", "hyperboloid-to-ball"])
def test_transfer0_is_exp0_of_the_scaled_tangent(rng, src, dst):
    # One node with the scale folded in, bitwise the two-node chain it
    # replaced, down to a zero row and a row below MIN_NORM.
    c = mf.transfer_scale(src, dst)
    assert c in (2.0, 0.5)
    for trial in range(10):
        u = src.random_tangents0(rng, 12, 4.0)
        u[0], u[1] = 0.0, 1e-16
        w = Tensor(rng.standard_normal(u.shape))
        assert transfer_and_grad(lambda t: dg.transfer0(src, dst, t), u, w) == \
            transfer_and_grad(lambda t: dg.exp0(dst, ad.scalar_mul(t, c)), u, w)
    with ad.Tape() as tape:
        dg.transfer0(src, dst, ad.parameter(u))
    assert [node._op for node in tape.nodes] == ["exp0"]


@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: f"{m.kind.value}{m.k}")
def test_distance_gradient_matches_fd(rng, man):
    a = ad.parameter(dg.ambient_to_internal(man, man.random_points(rng, 8, 2.5)))
    b = ad.parameter(dg.ambient_to_internal(man, man.random_points(rng, 8, 2.5)))
    err = ad.grad_check(lambda: ad.reduce_sum(dg.dist_rows(man, a, b)), [a, b])
    assert err <= 1e-4


@pytest.mark.parametrize("man", MANIFOLDS, ids=lambda m: f"{m.kind.value}{m.k}")
def test_exp_log_roundtrip_gradient_matches_fd(rng, man):
    v = ad.parameter(man.random_tangents0(rng, 8, 2.0))
    err = ad.grad_check(
        lambda: ad.reduce_sum(ad.square(dg.log0(man, dg.exp0(man, v)))), [v])
    assert err <= 1e-4


def test_transfer_gradient_matches_fd(rng):
    src, dst = mf.lorentz(4, -1.5), mf.poincare(4, -1.0)
    u = ad.parameter(src.random_tangents0(rng, 6, 2.0))
    err = ad.grad_check(lambda: ad.reduce_sum(ad.square(dg.transfer0(src, dst, u))), [u])
    assert err <= 1e-4


def test_tangent_dot_rows_is_log0_inner_product(rng):
    man = mf.lorentz(5, -1.0)
    a = man.random_points(rng, 20, 2.0)
    b = man.random_points(rng, 20, 2.0)
    got = dg.tangent_dot_rows(man, Tensor(dg.ambient_to_internal(man, a)),
                              Tensor(dg.ambient_to_internal(man, b)))
    ua, ub = man.log0(a), man.log0(b)
    np.testing.assert_allclose(got.value[:, 0], np.sum(ua * ub, axis=1), atol=1e-10)
