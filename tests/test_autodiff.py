"""Operator-level gradient checks against central finite differences."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit  # the sigmoid oracle; attmot itself needs no scipy

from attmot import autodiff as ad


def fd_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn with respect to array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn()
        flat[i] = orig - eps
        fm = fn()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_op(build, *shapes, seed=0, atol=1e-7):
    """build(*(Var,)) -> scalar Var; compares backward against FD."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) + 0.1 for s in shapes]
    vars_ = [ad.Var(a, requires_grad=True) for a in arrays]
    out = build(*vars_)
    ad.backward(out)
    for arr, var in zip(arrays, vars_):
        def value():
            fresh = [ad.Var(a) for a in arrays]
            return float(build(*fresh).value)
        numeric = fd_grad(value, arr)
        analytic = var.grad if var.grad is not None else np.zeros_like(arr)
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-5)


class TestOps:
    def test_add_broadcast(self):
        check_op(lambda a, b: ad.sum_(a + b), (3, 4), (4,))

    def test_sub(self):
        check_op(lambda a, b: ad.sum_(a - b), (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_op(lambda a, b: ad.sum_(a * b), (2, 3, 4), (3, 4))

    def test_matmul_2d(self):
        check_op(lambda a, b: ad.sum_(a @ b), (3, 4), (4, 5))

    def test_matmul_vector_left(self):
        check_op(lambda a, b: ad.sum_(a @ b), (4,), (4, 5))

    def test_matmul_vector_right(self):
        check_op(lambda a, b: ad.sum_(a @ b), (3, 4), (4,))

    def test_matmul_batched(self):
        check_op(lambda a, b: ad.sum_(a @ b), (2, 3, 4), (2, 4, 5))

    def test_matmul_batched_broadcast(self):
        check_op(lambda a, b: ad.sum_(a @ b), (2, 3, 4), (4, 5))

    def test_relu(self):
        check_op(lambda a: ad.sum_(ad.relu(a)), (4, 4), seed=3)

    def test_sigmoid(self):
        check_op(lambda a: ad.sum_(ad.sigmoid(a)), (5,))

    def test_log(self):
        check_op(lambda a: ad.sum_(ad.log(a * a)), (4,))

    def test_clip_interior(self):
        check_op(lambda a: ad.sum_(ad.clip(ad.sigmoid(a), 1e-7, 1 - 1e-7)), (6,))

    def test_softmax(self):
        check_op(lambda a: ad.sum_(ad.softmax(a) * ad.const(np.arange(12.0).reshape(3, 4))),
                 (3, 4))

    def test_mean_axis(self):
        check_op(lambda a: ad.sum_(ad.mean(a, axis=1)), (3, 5))

    def test_reshape(self):
        check_op(lambda a: ad.sum_(ad.reshape(a, (2, 6)) @ ad.const(np.ones((6, 1)))), (3, 4))

    def test_concat(self):
        check_op(lambda a, b: ad.sum_(ad.concat([a, b], axis=0) @ ad.const(np.ones((4, 1)))),
                 (2, 4), (3, 4))

    def test_narrow(self):
        check_op(lambda a: ad.sum_(ad.narrow(a, axis=0, start=1, length=2)), (4, 3))

    def test_transpose_last(self):
        check_op(lambda a: ad.sum_(ad.transpose_last(a) @ ad.const(np.ones((3, 2)))), (3, 4))

    def test_softmax_cross_entropy_batch(self):
        labels = np.array([0, 2, 1])
        check_op(lambda a: ad.softmax_cross_entropy(a, labels), (3, 4))

    def test_softmax_cross_entropy_single(self):
        check_op(lambda a: ad.softmax_cross_entropy(a, 1), (4,))


# numpy's exp (a SIMD path) and the libm exp behind expit may round apart;
# 4 ulp is the largest gap measured on this test's development machine
# (x86-64 with AVX-512, numpy 2.4, scipy 1.17; 1.9% of 5,000,000 normal
# draws at sigma 0.1-300 differed), not a bound that holds everywhere.
_SIGMOID_MAX_ULP = 4
_SIGMOID_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.5, -745.5, 709.8, -709.8,
                           1e308, -1e308])


class TestSigmoidAgainstExpit:
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 300.0),
           st.lists(st.floats(745.0, 1e308) | st.floats(-1e308, -745.0), max_size=8))
    @settings(max_examples=200)
    def test_within_ulp_bound_and_silent(self, seed, sigma, beyond):
        x = np.concatenate([np.random.default_rng(seed).normal(0.0, sigma, 256),
                            _SIGMOID_EDGES, beyond])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = ad.sigmoid(ad.Var(x, requires_grad=True)).value
        want = expit(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        # both lie in [0, 1], where the bit patterns order like the values
        ulp = np.abs(got[finite].view(np.int64) - want[finite].view(np.int64))
        assert ulp.max() <= _SIGMOID_MAX_ULP
        np.testing.assert_array_equal(got[np.abs(x) > 745.0], want[np.abs(x) > 745.0])


class TestConcatBroadcast:
    """concat with one operand carrying extra leading axes, as the stacked
    finite-difference check joins batched key tokens with plain queries."""

    def test_no_grad_equals_per_slice(self):
        rng = np.random.default_rng(30)
        stacked = rng.normal(size=(5, 1, 3, 4))
        plain = rng.normal(size=(2, 4))
        for order in ((0, 1), (1, 0)):
            pair = [ad.const(stacked), ad.const(plain)]
            out = ad.concat([pair[k] for k in order], axis=-2)
            assert out.shape == (5, 1, 5, 4)
            for i in range(5):
                per_slice = [ad.const(stacked[i, 0]), ad.const(plain)]
                np.testing.assert_array_equal(
                    out.value[i, 0], ad.concat([per_slice[k] for k in order], axis=-2).value)

    def test_positive_axis_counts_in_result(self):
        a, b = np.ones((3, 2, 4)), np.zeros((1, 4))
        out = ad.concat([ad.const(a), ad.const(b)], axis=1)
        assert out.shape == (3, 3, 4)
        np.testing.assert_array_equal(out.value[:, 2], 0.0)

    def test_grad_unbroadcasts_to_operand_shapes(self):
        rng = np.random.default_rng(31)
        stacked = ad.Var(rng.normal(size=(5, 2, 4)), requires_grad=True)
        plain = ad.Var(rng.normal(size=(3, 4)), requires_grad=True)
        unit = ad.Var(rng.normal(size=(1, 1, 4)), requires_grad=True)
        weights = rng.normal(size=(5, 6, 4))
        out = ad.concat([plain, stacked, unit], axis=-2)
        ad.backward(ad.sum_(out * ad.const(weights)))
        assert plain.grad.shape == (3, 4)
        assert stacked.grad.shape == (5, 2, 4)
        assert unit.grad.shape == (1, 1, 4)
        np.testing.assert_array_equal(plain.grad, weights[:, :3].sum(axis=0))
        np.testing.assert_array_equal(stacked.grad, weights[:, 3:5])
        np.testing.assert_array_equal(unit.grad, weights[:, 5:].sum(axis=0, keepdims=True))

    def test_grad_against_finite_differences(self):
        weights = ad.const(np.random.default_rng(32).normal(size=(5, 5, 4)))
        check_op(lambda a, b: ad.sum_(ad.concat([a, b], axis=-2) * weights), (3, 4), (5, 2, 4))


class TestGraph:
    def test_composite_graph(self):
        def build(w, b, x):
            h = ad.relu((x @ w) + b)
            p = ad.sigmoid(ad.sum_(h, axis=1))
            return ad.mean(ad.log(ad.clip(p, 1e-7, 1 - 1e-7)))

        check_op(build, (4, 3), (3,), (5, 4))

    def test_grad_accumulates_over_reuse(self):
        x = ad.Var(np.array([2.0]), requires_grad=True)
        y = (x * x) + x  # dy/dx = 2x + 1 = 5
        ad.backward(ad.sum_(y))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_scalar(self):
        x = ad.Var(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(x)

    def test_no_grad_graph_is_light(self):
        a = ad.const(np.ones((3, 3)))
        b = ad.const(np.ones((3, 3)))
        out = a @ b
        assert out.parents == () and not out.requires_grad
