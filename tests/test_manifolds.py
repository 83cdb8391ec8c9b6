"""Geometry kernel: model definitions, maps, transport, isometries."""

import numpy as np
import pytest

from hgcl import checks
from hgcl import manifolds as mf
from hgcl.manifolds import GeometryError, Model


def ball(dim=4, k=-1.0):
    return mf.poincare(dim, k)


def hyp(dim=4, k=-1.0):
    return mf.lorentz(dim, k)


# ---------------------------------------------------------------------------
# Types and invariants
# ---------------------------------------------------------------------------

class TestTypes:
    def test_curvature_must_be_negative(self):
        with pytest.raises(GeometryError):
            mf.Manifold(Model.POINCARE, 0.0, 3)
        with pytest.raises(GeometryError):
            mf.Manifold(Model.POINCARE, 1.0, 3)

    def test_dim_must_be_positive(self):
        with pytest.raises(GeometryError):
            mf.Manifold(Model.LORENTZ, -1.0, 0)

    def test_poincare_point_outside_ball_rejected(self):
        m = ball(3, -1.0)
        with pytest.raises(GeometryError):
            m.check_points(np.array([[0.1, 0.0, 0.0], [0.8, 0.8, 0.0]]))  # norm > 1

    def test_poincare_radius_scales_with_curvature(self):
        m = ball(2, -4.0)  # radius 1/2
        m.check_points(np.array([[0.45, 0.0]]))
        with pytest.raises(GeometryError):
            m.check_points(np.array([[0.55, 0.0]]))

    def test_lorentz_point_off_sheet_rejected(self):
        m = hyp(2, -1.0)
        m.check_points(np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(GeometryError, match="off the hyperboloid"):
            m.check_points(np.array([[1.0, 0.0, 0.0], [1.1, 0.0, 0.0]]))
        with pytest.raises(GeometryError, match="upper sheet"):
            m.check_points(np.array([[-1.0, 0.0, 0.0]]))  # lower sheet

    def test_lorentz_tangent_requires_orthogonality(self, rng):
        m = hyp(3, -1.0)
        x = m.random_points(rng, 1, 2.0)
        assert abs(mf.lorentz_inner(np.array([[1.0, 0.0, 0.0, 0.0]]), x)[0]) > 1.0
        ok = m.project_tangent(x, rng.standard_normal(4))
        scale = 1.0 + np.linalg.norm(ok) * np.linalg.norm(x)
        assert abs(mf.lorentz_inner(ok, x)[0]) <= 1e-6 * scale

    def test_conformal_factor_positive_and_matches_definition(self, rng):
        m = ball(5, -0.7)
        x = m.random_points(rng, 50, 3.0)
        lam = m.conformal_factor(x)[:, 0]
        assert np.all(lam > 0)
        np.testing.assert_allclose(lam, 2.0 / (1.0 + m.k * np.sum(x ** 2, axis=1)), rtol=1e-12)


# ---------------------------------------------------------------------------
# Lorentzian inner product
# ---------------------------------------------------------------------------

class TestLorentzInner:
    def test_basis_example(self):
        e0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(mf.lorentz_inner(e0, e0), [-1.0, 1.0])

    @pytest.mark.parametrize("k", [-0.5, -1.0, -2.0])
    def test_origin_self_product_is_inverse_curvature(self, k):
        m = hyp(3, k)
        o = m.origin_rows(3)
        np.testing.assert_allclose(mf.lorentz_inner(o, o), 1.0 / k, rtol=1e-12)

    def test_random_points_satisfy_constraint(self, rng):
        for k in (-0.5, -1.0, -2.0):
            m = hyp(6, k)
            x = m.exp0(m.random_tangents0(rng, 50, 3.0))
            res = k * mf.lorentz_inner(x, x)
            assert np.max(np.abs(res - 1.0)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            mf.lorentz_inner(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Mobius addition and gyration
# ---------------------------------------------------------------------------

class TestMobius:
    def test_identity_element(self, rng):
        m = ball()
        x = m.random_points(rng, 20, 3.0)
        zero = np.zeros_like(x)
        np.testing.assert_allclose(mf.mobius_add_rows(x, zero, m.k), x, atol=1e-15)
        np.testing.assert_allclose(mf.mobius_add_rows(zero, x, m.k), x, atol=1e-15)

    def test_inverse_element(self, rng):
        m = ball()
        x = m.random_points(rng, 20, 3.0)
        assert np.max(np.linalg.norm(mf.mobius_add_rows(-x, x, m.k), axis=1)) < 1e-15

    def test_left_cancellation(self, rng):
        m = ball(5, -0.8)
        x = m.random_points(rng, 20, 2.5)
        y = m.random_points(rng, 20, 2.5)
        got = mf.mobius_add_rows(-x, mf.mobius_add_rows(x, y, m.k), m.k)
        np.testing.assert_allclose(got, y, atol=1e-12)

    @pytest.mark.parametrize("k", [-0.5, -1.0, -2.0])
    def test_distance_identity_100_pairs(self, rng, k):
        m = ball(6, k)
        x = m.random_points(rng, 100, 2.5)
        y = m.random_points(rng, 100, 2.5)
        d_table = m.dist(x, y)
        diff = mf.mobius_add_rows(-x, y, k)
        alt = 2.0 / m.sqrt_abs_k * np.arctanh(m.sqrt_abs_k * np.linalg.norm(diff, axis=1))
        assert np.max(np.abs(d_table - alt)) <= 1e-8


class TestGyration:
    def test_identity_arguments(self, rng):
        m = ball()
        x = m.random_points(rng, 20, 2.0)
        zero = np.zeros_like(x)
        v = rng.standard_normal(x.shape)
        np.testing.assert_allclose(mf.gyration_rows(zero, x, v, m.k), v, atol=1e-15)
        np.testing.assert_allclose(mf.gyration_rows(x, zero, v, m.k), v, atol=1e-15)

    def test_norm_preservation_100_triples(self, rng):
        m = ball(5, -1.3)
        x = m.random_points(rng, 100, 2.5)
        y = m.random_points(rng, 100, 2.5)
        v = rng.standard_normal((100, 5))
        g = mf.gyration_rows(x, y, v, m.k)
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - np.linalg.norm(v, axis=1))) <= 1e-9

    def test_matches_composition_definition_for_small_vectors(self, rng):
        m = ball(3, -1.0)
        for _ in range(10):
            x = m.random_points(rng, 1, 2.0)
            y = m.random_points(rng, 1, 2.0)
            v = rng.standard_normal((1, 3)) * 1e-3
            xy = mf.mobius_add_rows(x, y, m.k)
            comp = mf.mobius_add_rows(
                -xy, mf.mobius_add_rows(x, mf.mobius_add_rows(y, v, m.k), m.k), m.k)
            np.testing.assert_allclose(mf.gyration_rows(x, y, v, m.k), comp, atol=1e-12)


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------

class TestDistance:
    @pytest.mark.parametrize("make", [ball, hyp])
    def test_self_distance_zero(self, rng, make):
        m = make()
        x = m.random_points(rng, 40, 4.0)
        assert np.max(np.abs(m.dist(x, x.copy()))) == 0.0

    def test_poincare_origin_reduction(self, rng):
        m = ball(4, -1.0)
        x = m.random_points(rng, 50, 3.0)
        d = m.dist(np.zeros_like(x), x)
        expected = 2.0 * np.arctanh(np.linalg.norm(x, axis=1))
        assert np.max(np.abs(d - expected)) <= 1e-10

    @pytest.mark.parametrize("k", [-0.5, -1.0, -2.0])
    def test_cross_model_agreement_100_pairs(self, rng, k):
        m = ball(5, k)
        twin = hyp(5, k)
        x = m.random_points(rng, 100, 3.0)
        y = m.random_points(rng, 100, 3.0)
        dl = twin.dist(mf.to_lorentz_rows(x, k), mf.to_lorentz_rows(y, k))
        assert np.max(np.abs(m.dist(x, y) - dl)) <= 1e-6

    @pytest.mark.parametrize("make", [ball, hyp])
    def test_mismatched_batches_rejected(self, rng, make):
        m = make()
        x = m.random_points(rng, 5, 2.0)
        with pytest.raises(GeometryError, match="equal shapes"):
            m.dist(x, m.random_points(rng, 6, 2.0))  # more rows than x
        with pytest.raises(GeometryError, match="equal shapes"):
            m.dist(x[:1], x)  # one row no longer broadcasts
        with pytest.raises(GeometryError, match="equal shapes"):
            m.dist(x, np.concatenate([x, x[:, :1]], axis=1))  # wider rows


# ---------------------------------------------------------------------------
# Exp / log maps
# ---------------------------------------------------------------------------

class TestExpLog:
    @pytest.mark.parametrize("make,k", [(ball, -1.0), (ball, -0.5), (hyp, -1.0), (hyp, -2.0)])
    def test_exp_of_zero_is_base(self, rng, make, k):
        m = make(4, k)
        x = m.random_points(rng, 10, 3.0)
        z = np.zeros((10, m.ambient_dim))
        np.testing.assert_allclose(m.expmap(x, z), x, atol=1e-12)

    def test_lorentz_1d_closed_form(self):
        m = hyp(1, -1.0)
        o = m.origin[None, :]
        for t in (0.1, 1.0, 2.0):
            v = np.array([[0.0, t]])
            got = m.expmap(o, v)[0]
            np.testing.assert_allclose(got, [np.cosh(t), np.sinh(t)], atol=1e-12)

    @pytest.mark.parametrize("make,k", [(ball, -1.0), (ball, -2.0), (hyp, -0.5), (hyp, -1.0)])
    def test_round_trips_100_pairs(self, rng, make, k):
        m = make(6, k)
        x = m.random_points(rng, 100, 2.5)
        y = m.random_points(rng, 100, 2.5)
        v = m.logmap(x, y)
        assert np.max(np.abs(m.expmap(x, v) - y)) <= 1e-6
        assert np.max(np.abs(m.metric_norm(x, v) - m.dist(x, y))) <= 1e-6

    def test_log_at_base_is_exact_zero(self, rng):
        for m in (ball(), hyp()):
            x = m.random_points(rng, 5, 3.0)
            assert np.all(m.logmap(x, x.copy()) == 0.0)

    def test_exp_distance_equals_metric_norm(self, rng):
        for m in (ball(5, -0.7), hyp(5, -1.5)):
            x = m.random_points(rng, 50, 2.0)
            u = np.stack([m.tangent0_to_ambient(t)[0]
                          for t in m.random_tangents0(rng, 50, 2.0)])
            u = m.project_tangent(x, u) if m.kind is Model.LORENTZ else u
            y = m.expmap(x, u)
            assert np.max(np.abs(m.dist(x, y) - m.metric_norm(x, u))) <= 1e-6

    def test_max_tangent_norm_clamp_raises(self):
        assert mf.MAX_TANGENT_NORM == 16.0
        m = ball(3, -1.0)
        x = m.origin_rows(1)
        # the metric norm at the ball's origin is twice the Euclidean norm
        m.expmap(x, np.array([[7.9, 0.0, 0.0]]))
        with pytest.raises(GeometryError, match="max tangent norm 16"):
            m.expmap(x, np.array([[8.1, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------

class TestTransport:
    @pytest.mark.parametrize("make,k", [(ball, -1.0), (hyp, -1.0), (hyp, -0.5)])
    def test_transport_to_self_is_identity(self, rng, make, k):
        m = make(5, k)
        x = m.random_points(rng, 20, 2.0)
        y = m.random_points(rng, 20, 2.0)
        v = m.logmap(x, y)
        np.testing.assert_allclose(m.transport(x, x, v), v, atol=1e-12)

    def test_lorentz_output_tangency(self, rng):
        m = hyp(6, -1.4)
        x = m.random_points(rng, 100, 2.5)
        y = m.random_points(rng, 100, 2.5)
        z = m.random_points(rng, 100, 2.5)
        v = m.logmap(x, z)
        t = m.transport(x, y, v)
        assert np.max(np.abs(mf.lorentz_inner(t, y))) <= 1e-6

    @pytest.mark.parametrize("make,k", [(ball, -1.0), (ball, -0.5), (hyp, -2.0)])
    def test_norm_preservation_100_triples(self, rng, make, k):
        m = make(5, k)
        x = m.random_points(rng, 100, 2.5)
        y = m.random_points(rng, 100, 2.5)
        z = m.random_points(rng, 100, 2.5)
        v = m.logmap(x, z)
        t = m.transport(x, y, v)
        assert np.max(np.abs(m.metric_norm(y, t) - m.metric_norm(x, v))) <= 1e-6


# ---------------------------------------------------------------------------
# Lorentz tangent projection
# ---------------------------------------------------------------------------

class TestProjectTangent:
    def test_tangent_vector_unchanged(self, rng):
        m = hyp(4, -1.0)
        x = m.random_points(rng, 10, 2.0)
        y = m.random_points(rng, 10, 2.0)
        v = m.logmap(x, y)
        np.testing.assert_allclose(m.project_tangent(x, v), v, atol=1e-9)

    def test_projection_annihilates_normal_component(self, rng):
        m = hyp(4, -1.0)
        x = m.random_points(rng, 10, 2.0)
        out = m.project_tangent(x, x.copy())
        assert np.max(np.abs(mf.lorentz_inner(out, x))) <= 1e-9

    def test_idempotence(self, rng):
        m = hyp(5, -0.6)
        x = m.random_points(rng, 20, 2.0)
        v = rng.standard_normal((20, 6))
        once = m.project_tangent(x, v)
        twice = m.project_tangent(x, once)
        np.testing.assert_allclose(once, twice, atol=1e-9)


# ---------------------------------------------------------------------------
# Cross-model isometry and transfer
# ---------------------------------------------------------------------------

class TestIsometry:
    def test_origin_maps_to_origin(self):
        m = ball(3, -2.0)
        twin = hyp(3, -2.0)
        p = np.zeros((1, 3))
        np.testing.assert_allclose(mf.to_lorentz_rows(p, m.k), twin.origin_rows(1), atol=1e-15)
        np.testing.assert_allclose(mf.to_poincare_rows(twin.origin_rows(1), twin.k), p,
                                   atol=1e-15)

    def test_round_trip_100_points(self, rng):
        for k in (-0.5, -1.0, -2.0):
            m = ball(5, k)
            x = m.random_points(rng, 100, 3.0)
            back = mf.to_poincare_rows(mf.to_lorentz_rows(x, k), k)
            assert np.max(np.abs(back - x)) <= 1e-9

    def test_near_boundary_rejected(self):
        x = np.array([[1.0 - 1e-14, 0.0]])
        with pytest.raises(GeometryError):
            mf.to_lorentz_rows(x, -1.0)


class TestTransfer:
    def test_origin_to_origin(self):
        src = ball(4, -1.0)
        dst = hyp(4, -0.5)
        out = mf.transfer_rows(np.zeros((1, 4)), src, dst)
        np.testing.assert_allclose(out, dst.origin[None, :], atol=1e-12)

    def test_radial_isometry_100_points(self, rng):
        combos = [(ball(5, -1.0), hyp(5, -0.5)), (hyp(5, -2.0), ball(5, -1.0)),
                  (ball(5, -1.0), ball(5, -2.0)), (hyp(5, -0.5), hyp(5, -1.0))]
        for src, dst in combos:
            h = src.random_points(rng, 100, 3.0)
            out = mf.transfer_rows(h, src, dst)
            dst.check_points(out)
            d_src = src.dist(src.origin_rows(100), h)
            d_dst = dst.dist(dst.origin_rows(100), out)
            assert np.max(np.abs(d_src - d_dst)) <= 1e-6

    def test_identity_on_identical_manifolds(self, rng):
        m = hyp(4, -0.9)
        h = m.random_points(rng, 50, 3.0)
        np.testing.assert_allclose(mf.transfer_rows(h, m, m), h, atol=1e-9)

    def test_matches_canonical_isometry_at_equal_curvature(self, rng):
        src = ball(4, -1.7)
        dst = hyp(4, -1.7)
        h = src.random_points(rng, 50, 3.0)
        np.testing.assert_allclose(mf.transfer_rows(h, src, dst),
                                   mf.to_lorentz_rows(h, -1.7), atol=1e-9)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(GeometryError):
            mf.transfer_rows(np.zeros((1, 4)), ball(4, -1.0), hyp(5, -1.0))


# ---------------------------------------------------------------------------
# Triangle inequality (sampled)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make,k", [(ball, -1.0), (ball, -0.5), (hyp, -1.0), (hyp, -2.0)])
def test_triangle_inequality_sampled(rng, make, k):
    m = make(6, k)
    x = m.random_points(rng, 1000, 3.0)
    y = m.random_points(rng, 1000, 3.0)
    z = m.random_points(rng, 1000, 3.0)
    slack = m.dist(x, z) - m.dist(x, y) - m.dist(y, z)
    assert np.max(slack) <= 1e-8


def test_property_suites_zero_trials_run_nothing():
    results = checks.manifold_property_suites(trials=0, seed=0)
    assert [r.trials for r in results] == [0] * 7
    assert all(r.ok and r.max_dev == 0.0 for r in results)


@pytest.mark.parametrize("call, message", [
    (lambda: mf.lorentz_inner(np.ones((2, 1)), np.ones((2, 1))),
     "Lorentz vectors need ambient dimension >= 2"),
    (lambda: hyp(4).check_points(np.zeros((1, 4))), "expected ambient dimension 5, got 4"),
    (lambda: ball(4).check_points([[0.0, np.nan, 0.0, 0.0]]), "non-finite coordinates"),
    (lambda: ball(2, -4.0).conformal_factor([[0.5, 0.0]]),
     "conformal factor undefined at or past the boundary"),
], ids=["lorentz-inner-width", "check-points-width", "check-points-non-finite",
        "conformal-factor-boundary"])
def test_named_geometry_errors(call, message):
    with pytest.raises(GeometryError) as info:
        call()
    assert info.type is GeometryError and str(info.value) == message
