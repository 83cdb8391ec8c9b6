"""Tape engine: primitives, finite-difference agreement, Adam."""

import numpy as np
import pytest
from scipy import sparse

from hgcl import autodiff as ad
from hgcl import checks
from hgcl.autodiff import AutodiffError, NonFiniteError, Tape, Tensor
from hgcl.optim import Adam, clip_gradients


def backward_of(fn, *arrays):
    params = [ad.parameter(a) for a in arrays]
    with Tape() as tape:
        out = fn(*params)
        tape.backward(out)
    return params, out


class TestTensorBasics:
    def test_shapes_coerced_to_matrices(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
        with pytest.raises(AutodiffError):
            Tensor(np.zeros((2, 2, 2)))

    def test_non_finite_rejected_with_op_name(self):
        x = Tensor(np.array([[1000.0]]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="exp"):
            ad.exp(x)

    def test_log_domain_guard(self):
        with pytest.raises(AutodiffError):
            ad.log(Tensor([[0.0]]))

    def test_incompatible_broadcast_rejected(self):
        with pytest.raises(AutodiffError):
            ad.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 3))))

    def test_product_shape_mismatch_named(self):
        with pytest.raises(AutodiffError, match=r"^matmul: \(3, 2\) @ \(3, 4\)$"):
            ad.matmul(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 4))))
        with pytest.raises(AutodiffError, match=r"^aggregate: \(3, 2\) @ \(3, 4\)$"):
            ad.aggregate(sparse.csr_matrix((3, 2)), Tensor(np.zeros((3, 4))))

    @pytest.mark.parametrize("call, message", [
        (lambda: Tape().backward(Tensor(np.ones((2, 1)))),
         "backward needs a scalar loss, got shape (2, 1)"),
        (lambda: Tensor(np.ones((1, 2))).item(), "item() on shape (1, 2)"),
        (lambda: ad.sqrt(Tensor([[4.0, -1.0]])), "sqrt: negative input"),
        (lambda: ad.row_dot(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))),
         "row_dot: incompatible shapes (2, 3) and (3, 2)"),
        (lambda: ad.gather_rows(Tensor(np.ones((3, 2))), [0, 3]),
         "gather_rows: index out of range"),
    ], ids=["backward-non-scalar", "item-non-scalar", "sqrt-negative", "row-dot-shapes",
            "gather-rows-range"])
    def test_named_errors(self, call, message):
        with pytest.raises(AutodiffError) as info:
            call()
        assert info.type is AutodiffError and str(info.value) == message

    def test_ops_outside_tape_do_not_record(self):
        p = ad.parameter(np.ones((2, 2)))
        out = ad.tanh(p)
        assert out.requires_grad is False


class TestBackwardRules:
    def test_sigmoid_derivative_at_zero(self):
        (x,), _ = backward_of(ad.sigmoid, np.array([[0.0]]))
        assert x.grad[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_artanh_derivative_at_zero(self):
        (x,), _ = backward_of(ad.artanh_clamped, np.array([[0.0]]))
        assert x.grad[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_grad_accumulates_over_multiple_uses(self):
        p = ad.parameter(np.array([[2.0]]))
        with Tape() as tape:
            out = ad.add(ad.mul(p, p), p)  # d/dp (p^2 + p) = 2p + 1
            tape.backward(out)
        assert p.grad[0, 0] == pytest.approx(5.0)

    def test_two_layer_composition_matches_fd(self, rng):
        w1 = ad.parameter(rng.standard_normal((4, 6)) * 0.4)
        w2 = ad.parameter(rng.standard_normal((6, 1)) * 0.4)
        x = Tensor(rng.standard_normal((9, 4)))

        def f():
            return ad.reduce_mean(ad.tanh(ad.matmul(ad.sigmoid(ad.matmul(x, w1)), w2)))

        assert ad.grad_check(f, [w1, w2], eps=1e-5) <= 1e-4

    def test_gather_rows_scatters_gradient(self):
        p = ad.parameter(np.arange(6.0).reshape(3, 2))
        with Tape() as tape:
            out = ad.reduce_sum(ad.gather_rows(p, [0, 0, 2]))
            tape.backward(out)
        np.testing.assert_array_equal(p.grad, [[2, 2], [0, 0], [1, 1]])

    @pytest.mark.parametrize("idx", [[3, 0, 3, 3, 1, 0], []])
    def test_gather_rows_scatter_matches_add_at(self, idx):
        values = np.arange(12.0).reshape(4, 3)
        g = np.arange(1.0, 1.0 + 3 * len(idx)).reshape(len(idx), 3)
        p = ad.parameter(values)
        with Tape() as tape:
            out = ad.reduce_sum(ad.mul(ad.gather_rows(p, idx), g))
            tape.backward(out)
        expected = np.zeros_like(values)
        np.add.at(expected, np.asarray(idx, dtype=np.int64), g)
        np.testing.assert_array_equal(p.grad, expected)

    def test_backward_frees_interior_grads_and_keeps_leaf_grads(self, rng):
        w = ad.parameter(rng.standard_normal((3, 2)))
        b = ad.parameter(rng.standard_normal((1, 2)))
        x = Tensor(rng.standard_normal((5, 3)))
        with Tape() as tape:
            h = ad.tanh(ad.add(ad.matmul(x, w), b))
            out = ad.reduce_sum(ad.square(ad.gather_rows(h, [0, 4, 4])))
            tape.backward(out)
        assert len(tape.nodes) == 6
        assert all(node.grad is None for node in tape.nodes)
        for p in (w, b):
            assert p.grad is not None and p.grad.shape == p.value.shape
            assert np.all(np.isfinite(p.grad)) and np.any(p.grad != 0)

    def test_shared_first_grad_is_never_written_in_place(self):
        a = ad.parameter(np.zeros((2, 3)))
        b = ad.parameter(np.zeros((2, 3)))
        with Tape() as tape:
            # scalar_mul hands add a fresh writeable grad, which add passes
            # unchanged to both leaves
            tape.backward(ad.reduce_sum(ad.scalar_mul(ad.add(a, b), 1.0)))
        with Tape() as tape:
            tape.backward(ad.reduce_sum(ad.scalar_mul(a, 1.0)))  # feeds only a
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_unbroadcast_column_and_row(self, rng):
        col = ad.parameter(rng.standard_normal((4, 1)))
        row = ad.parameter(rng.standard_normal((1, 3)))
        m = Tensor(rng.standard_normal((4, 3)))

        def f():
            return ad.reduce_sum(ad.mul(ad.add(m, row), col))

        assert ad.grad_check(f, [col, row]) <= 1e-8


class TestGradCheck:
    def test_quadratic_example(self):
        theta = ad.parameter(np.array([[1.0]]))

        def f():
            return ad.reduce_sum(ad.square(theta))

        err = ad.grad_check(f, [theta], eps=1e-5)
        assert err <= 1e-9  # analytic 2 vs central FD 2
        with Tape() as tape:
            out = f()
            theta.grad = None
            tape.backward(out)
        assert theta.grad[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_eps_bounds_enforced(self):
        theta = ad.parameter(np.ones((1, 1)))
        with pytest.raises(AutodiffError):
            ad.grad_check(lambda: ad.reduce_sum(theta), [theta], eps=1e-8)

    def test_non_scalar_objective_rejected(self):
        theta = ad.parameter(np.ones((2, 2)))
        with pytest.raises(AutodiffError):
            ad.grad_check(lambda: ad.square(theta), [theta])


class TestAffine:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "none"])
    @pytest.mark.parametrize("track_x", [True, False])
    def test_equals_the_chain_bit_for_bit(self, rng, activation, track_x):
        x0, w0, b0 = (rng.standard_normal((40, 7)), rng.standard_normal((7, 5)),
                      rng.standard_normal((1, 5)))
        x0[0], b0[0, 0] = 0.0, 0.0  # a zero pre-activation: relu's kink
        g0 = rng.standard_normal((40, 5))
        act = {"tanh": ad.tanh, "relu": ad.relu, "none": lambda t: t}[activation]
        runs = []
        for fn in (lambda x, w, b: ad.affine(x, w, b, activation),
                   lambda x, w, b: act(ad.add(ad.matmul(x, w), b))):
            x = ad.parameter(x0.copy()) if track_x else Tensor(x0.copy())
            w, b = ad.parameter(w0.copy()), ad.parameter(b0.copy())
            with Tape() as tape:
                out = fn(x, w, b)
                tape.backward(ad.reduce_sum(ad.mul(out, Tensor(g0))))
            runs.append([out.value, w.grad, b.grad] + ([x.grad] if track_x else []))
        fused, chain = runs
        for a, b in zip(fused, chain):
            assert np.array_equal(a, b)

    def test_one_node_keeping_only_its_output(self, rng):
        x, w, b = (Tensor(rng.standard_normal((6, 3))), ad.parameter(rng.standard_normal((3, 2))),
                   ad.parameter(np.zeros((1, 2))))
        with Tape() as tape:
            out = ad.affine(x, w, b, "tanh")
        assert tape.nodes == [out] and out._op == "affine"

    def test_shapes_checked(self):
        x, w = Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2)))
        with pytest.raises(AutodiffError, match="affine"):
            ad.affine(x, Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 2))))
        with pytest.raises(AutodiffError, match="bias"):
            ad.affine(x, w, Tensor(np.zeros((1, 3))))


def test_every_registered_primitive_within_1e6():
    for case in checks.gradient_check_cases(scope="manifold"):
        if case.name.startswith("primitive:"):
            err = case.run()
            assert err <= 1e-6, f"{case.name}: {err}"


def test_exp_log_composition_backward_finite_for_norms_up_to_5(rng):
    from hgcl import diffgeo as dg
    from hgcl import manifolds as mf
    for man in (mf.poincare(5, -1.0), mf.lorentz(5, -2.0)):
        v = ad.parameter(man.random_tangents0(rng, 30, 5.0) * (5.0 / 2.5))
        with Tape() as tape:
            out = ad.reduce_sum(ad.square(dg.log0(man, dg.exp0(man, v))))
            tape.backward(out)
        assert np.all(np.isfinite(v.grad))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = ad.parameter(np.array([[1.0, -2.0]]))
        opt = Adam([p], lr=0.1, clip_norm=None)
        p.grad = np.zeros((1, 2))
        opt.step()
        np.testing.assert_array_equal(p.value, [[1.0, -2.0]])

    def test_first_step_is_bias_corrected(self):
        p = ad.parameter(np.array([[0.0]]))
        opt = Adam([p], lr=0.1, clip_norm=None)
        p.grad = np.ones((1, 1))
        opt.step()
        assert p.value[0, 0] == pytest.approx(-0.1, rel=1e-6)

    def test_global_clip_bounds_effective_norm(self):
        g = [np.full((1, 2), 10.0 / np.sqrt(2))]  # global norm 10
        clipped, total = clip_gradients(g, 1.0)
        assert total == pytest.approx(10.0)
        assert np.sqrt(np.sum(clipped[0] ** 2)) <= 1.0 + 1e-12

    def test_same_seed_bit_identical_trajectories(self, rng):
        def run():
            r = np.random.default_rng(0)
            p = ad.parameter(r.standard_normal((3, 3)))
            x = Tensor(r.standard_normal((5, 3)))
            opt = Adam([p], lr=0.05, clip_norm=5.0)
            traj = []
            for _ in range(20):
                opt.zero_grad()
                with Tape() as tape:
                    loss = ad.reduce_mean(ad.square(ad.tanh(ad.matmul(x, p))))
                    tape.backward(loss)
                opt.step()
                traj.append(p.value.copy())
            return np.stack(traj)

        a, b = run(), run()
        assert np.array_equal(a, b)
