"""Engine correctness against independent oracles.

Forward values are checked against nested-loop / direct-formula
reimplementations; gradients against central finite differences in
float64.
"""

import ast
import contextlib
import ctypes
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidmood import tensor as T
from vidmood.gradcheck import gradcheck
from vidmood.tensor import NumericError, ShapeError, Tensor

from reference import (conv3d_grads_reference, conv3d_padded_reference, conv3d_reference,
                       conv_pool_padded_reference, conv_pool_routed_reference,
                       gelu_composite_reference, layer_norm_loop_reference,
                       linear_loop_reference, matmul_reference, maxpool3d_reference,
                       maxpool3d_routed_reference, mha_loop_reference, mlp_loop_reference,
                       softmax_reference)


UNARY_OPS = {"relu": T.relu, "sigmoid": T.sigmoid, "tanh": T.tanh, "exp": T.exp, "neg": T.neg}
BINARY_OPS = {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div}


def rnd(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


class TestForward:
    def test_matmul_matches_triple_loop(self):
        a, b = rnd((5, 7), 1), rnd((7, 3), 2)
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_reference(a, b), rtol=1e-12)

    def test_matmul_batched_broadcast(self):
        a, b = rnd((2, 4, 5, 7), 3), rnd((7, 3), 4)
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, rtol=1e-12)

    def test_softmax_matches_direct_formula(self):
        x = rnd((4, 9), 5)
        got = T.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(got, softmax_reference(x), rtol=1e-12)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=1e-12)
        xt = rnd((33, 20), 8).T  # a transposed view: its layout sets each sum's order
        for axis in (0, 1):
            np.testing.assert_array_equal(T.softmax(Tensor(xt), axis=axis).data,
                                          softmax_reference(xt, axis=axis))

    def test_softmax_large_magnitudes_stable(self):
        x = np.array([[1000.0, 1000.5, 999.0], [-1000.0, -1000.0, -1000.0]])
        got = T.softmax(Tensor(x), axis=-1).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=1e-12)

    def test_masked_softmax_exact_zeros(self):
        x = rnd((3, 6), 6)
        mask = np.zeros((3, 6), dtype=bool)
        mask[:, :3] = True
        got = T.softmax(Tensor(x), axis=-1, mask=mask).data
        assert np.all(got[:, 3:] == 0.0)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(got[:, :3], softmax_reference(x[:, :3]), rtol=1e-12)

    def test_masked_softmax_fully_excluded_row(self):
        x = rnd((2, 4), 7)
        mask = np.array([[True, True, False, True], [False] * 4])
        got = T.softmax(Tensor(x), axis=-1, mask=mask).data
        assert np.all(got[1] == 0.0)
        np.testing.assert_allclose(got[0].sum(), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("stride,pad", [((1, 1, 1), (0, 0, 0)), ((1, 2, 2), (1, 1, 1)), ((2, 2, 2), (0, 1, 0))])
    def test_conv3d_matches_nested_loops(self, stride, pad):
        x, w, b = rnd((2, 5, 6, 7), 8), rnd((3, 2, 3, 3, 3), 9), rnd(3, 10)
        got = T.conv3d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data
        np.testing.assert_allclose(got, conv3d_reference(x, w, b, stride, pad), rtol=1e-10, atol=1e-12)

    def test_conv3d_output_extent_floor(self):
        # floor((in + 2p - k)/s) + 1 per axis
        x, w = rnd((1, 7, 9, 9), 11), rnd((2, 1, 3, 3, 3), 12)
        out = T.conv3d(Tensor(x), Tensor(w), stride=(2, 2, 2), padding=(0, 0, 0))
        assert out.shape == (2, 3, 4, 4)

    def test_conv3d_batched_matches_per_sample(self):
        x, w = rnd((3, 2, 4, 5, 5), 13), rnd((4, 2, 3, 3, 3), 14)
        got = T.conv3d(Tensor(x), Tensor(w), stride=1, padding=1).data
        for i in range(3):
            np.testing.assert_allclose(got[i], conv3d_reference(x[i], w, None, (1, 1, 1), (1, 1, 1)),
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("window", [(1, 2, 2), (2, 2, 2), (1, 3, 2)])
    def test_maxpool3d_matches_nested_loops(self, window):
        x = rnd((3, 4, 6, 6), 15)
        got = T.maxpool3d(Tensor(x), window).data
        np.testing.assert_allclose(got, maxpool3d_reference(x, window))

    def test_maxpool3d_truncates_remainder(self):
        x = rnd((1, 5, 7, 7), 16)
        out = T.maxpool3d(Tensor(x), (2, 2, 2))
        assert out.shape == (1, 2, 3, 3)
        np.testing.assert_allclose(out.data, maxpool3d_reference(x, (2, 2, 2)))

    def test_log_softmax_matches_log_of_softmax(self):
        x = rnd((5, 8), 17)
        got = T.log_softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(got, np.log(softmax_reference(x)), rtol=1e-10)

    def test_unary_forward_values(self):
        x = rnd((4, 4), 18)
        np.testing.assert_allclose(T.relu(Tensor(x)).data, np.maximum(x, 0))
        np.testing.assert_allclose(T.sigmoid(Tensor(x)).data, 1 / (1 + np.exp(-x)), rtol=1e-12)
        np.testing.assert_allclose(T.tanh(Tensor(x)).data, np.tanh(x), rtol=1e-12)
        np.testing.assert_allclose(T.softplus(Tensor(x)).data, np.log1p(np.exp(x)), rtol=1e-12)

    def test_gelu_matches_gaussian_cdf_form(self):
        from scipy.stats import norm
        x = rnd((50,), 19)
        np.testing.assert_allclose(T.gelu(Tensor(x)).data, x * norm.cdf(x), rtol=1e-10)


# -- shape and domain errors ---------------------------------------------------


class TestErrors:
    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(rnd((3, 4))), Tensor(rnd((5, 2))))

    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(rnd((4,))), Tensor(rnd((4, 2))))

    def test_add_incompatible_broadcast(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(rnd((3, 4))), Tensor(rnd((2, 4))))

    def test_log_domain(self):
        with pytest.raises(NumericError):
            T.log(Tensor(np.array([1.0, -0.5])))

    def test_sqrt_domain(self):
        with pytest.raises(NumericError):
            T.sqrt(Tensor(np.array([-1.0])))

    def test_backward_needs_scalar(self):
        x = Tensor(rnd((3, 3)), requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(ShapeError):
            y.backward()

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(rnd((3, 4))), (5, 5))

    def test_conv3d_kernel_too_large(self):
        with pytest.raises(ShapeError):
            T.conv3d(Tensor(rnd((1, 2, 2, 2))), Tensor(rnd((1, 1, 3, 3, 3))))

    def test_pool_window_too_large(self):
        with pytest.raises(ShapeError):
            T.maxpool3d(Tensor(rnd((1, 2, 4, 4))), (3, 2, 2))


# -- autodiff mechanics ---------------------------------------------------------


class TestAutodiff:
    def test_grad_accumulates_until_cleared(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        for _ in range(2):
            T.sum_(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 4 * x.data)  # two passes of 2x
        x.zero_grad()
        T.sum_(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_second_backward_on_a_released_graph_raises(self):
        """``backward`` releases the graph it ran: a second call, or a new
        graph built on one of its nodes, raises instead of giving no
        gradient; the leaves stay usable."""
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = T.mul(x, x)
        loss = T.sum_(y)
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)
        assert (y._parents, loss._parents) == ((), ())
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            T.sum_(T.mul(y, 2.0)).backward()
        x.zero_grad()
        T.sum_(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_diamond_graph_sums_both_paths(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = T.mul(x, x)
        z = T.add(y, y)  # z = 2 x^2, dz/dx = 4x
        z.backward()
        np.testing.assert_allclose(x.grad, 12.0)

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert y._grad_fn is None and y._parents == ()

    def test_relu_without_tape_builds_no_derivative(self):
        x = Tensor(rnd(1 << 20, 70, np.float32))  # 4 MiB
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.relu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * y.data.nbytes

    def test_constant_wrapper_cuts_graph(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = T.mul(Tensor(x.data), x)
        T.sum_(y).backward()
        np.testing.assert_allclose(x.grad, x.data)  # only one path

    def test_reused_subexpression(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        e = T.exp(x)
        out = T.mul(e, e)  # e^{2x}, d/dx = 2 e^{2x}
        out.backward()
        np.testing.assert_allclose(x.grad, 2 * np.exp(4.0), rtol=1e-12)


# -- gradients vs finite differences --------------------------------------------


def check(fn, inputs, tol=1e-4, **kw):
    res = gradcheck(fn, inputs, tolerance=tol, **kw)
    assert res.passed, str(res)


class TestGradients:
    def test_binary_ops(self):
        for kind in ("add", "sub", "mul", "div"):
            a = Tensor(rnd((3, 4), 20) + 3.0, requires_grad=True)
            b = Tensor(rnd((4,), 21) + 3.0, requires_grad=True)
            check(lambda a=a, b=b, k=kind: T.sum_(BINARY_OPS[k](a, b)), {"a": a, "b": b})

    def test_unary_ops(self):
        for kind in ("relu", "sigmoid", "tanh", "exp", "neg"):
            x = Tensor(rnd((3, 5), 22) * 2 + 0.1, requires_grad=True)
            check(lambda x=x, k=kind: T.sum_(UNARY_OPS[k](x)), {"x": x})

    def test_log_sqrt_gelu_softplus(self):
        x = Tensor(np.abs(rnd((3, 5), 23)) + 0.5, requires_grad=True)
        check(lambda: T.sum_(T.log(x)), {"x": x})
        check(lambda: T.sum_(T.sqrt(x)), {"x": x})
        y = Tensor(rnd((3, 5), 24), requires_grad=True)
        check(lambda: T.sum_(T.gelu(y)), {"y": y})
        check(lambda: T.sum_(T.softplus(y)), {"y": y})

    def test_matmul_grads(self):
        a = Tensor(rnd((4, 6), 25), requires_grad=True)
        b = Tensor(rnd((6, 3), 26), requires_grad=True)
        w = rnd((4, 3), 27)
        check(lambda: T.sum_(T.mul(T.matmul(a, b), w)), {"a": a, "b": b})

    def test_matmul_batched_grads(self):
        a = Tensor(rnd((2, 3, 4, 5), 28), requires_grad=True)
        b = Tensor(rnd((5, 6), 29), requires_grad=True)
        check(lambda: T.sum_(T.matmul(a, b)), {"a": a, "b": b})

    def test_softmax_grads(self):
        x = Tensor(rnd((3, 7), 30), requires_grad=True)
        w = rnd((3, 7), 31)
        check(lambda: T.sum_(T.mul(T.softmax(x, axis=-1), w)), {"x": x})

    def test_masked_softmax_grads(self):
        x = Tensor(rnd((2, 6), 32), requires_grad=True)
        mask = np.array([[True, True, True, False, False, True]] * 2)
        w = rnd((2, 6), 33)
        check(lambda: T.sum_(T.mul(T.softmax(x, axis=-1, mask=mask), w)), {"x": x})

    def test_log_softmax_grads(self):
        x = Tensor(rnd((4, 5), 34), requires_grad=True)
        w = rnd((4, 5), 35)
        check(lambda: T.sum_(T.mul(T.log_softmax(x, axis=-1), w)), {"x": x})

    def test_mean_and_sum_axes(self):
        x = Tensor(rnd((3, 4, 5), 36), requires_grad=True)
        check(lambda: T.sum_(T.mul(T.mean(x, axis=1), rnd((3, 5), 37))), {"x": x})
        check(lambda: T.sum_(T.mul(T.sum_(x, axis=(0, 2)), rnd((4,), 38))), {"x": x})

    def test_layout_op_grads(self):
        x = Tensor(rnd((2, 3, 4), 39), requires_grad=True)
        w1 = rnd((4, 6), 40)
        check(lambda: T.sum_(T.mul(T.reshape(x, (4, 6)), w1)), {"x": x})
        w2 = rnd((4, 2, 3), 41)
        check(lambda: T.sum_(T.mul(T.transpose(x, (2, 0, 1)), w2)), {"x": x})
        w3 = rnd((2, 3, 4), 42)
        check(lambda: T.sum_(T.mul(T.roll(x, (1, 2), (1, 2)), w3)), {"x": x})
        w4 = rnd((2, 5, 4), 43)
        check(lambda: T.sum_(T.mul(T.pad(x, ((0, 0), (1, 1), (0, 0))), w4)), {"x": x})

    def test_getitem_grads_with_repeats(self):
        x = Tensor(rnd((5, 3), 44), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        w = rnd((4, 3), 45)
        check(lambda: T.sum_(T.mul(x[idx], w)), {"x": x})

    @pytest.mark.parametrize("key", [1, -1, (slice(None), 0), (Ellipsis, slice(1, None, 2)),
                                     (None, slice(None, None, -1), 2)])
    def test_take_basic_key_grad_equals_scatter_add(self, key):
        xd = rnd((4, 5, 3), 71)
        x = Tensor(xd, requires_grad=True)
        y = T.take(x, key)
        g = rnd(y.shape, 72)
        T.sum_(T.mul(y, g)).backward()
        want = np.zeros_like(xd)
        np.add.at(want, key, g)
        np.testing.assert_array_equal(x.grad, want)

    def test_take_repeated_array_key_accumulates(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        T.sum_(T.take(x, np.array([0, 2, 0, 0]))).backward()
        np.testing.assert_array_equal(x.grad, [[3.0, 3.0], [0.0, 0.0], [1.0, 1.0]])

    def test_concat_grads(self):
        a = Tensor(rnd((2, 3), 46), requires_grad=True)
        b = Tensor(rnd((4, 3), 47), requires_grad=True)
        w = rnd((6, 3), 48)
        check(lambda: T.sum_(T.mul(T.concat([a, b], axis=0), w)), {"a": a, "b": b})

    def test_conv3d_grads(self):
        x = Tensor(rnd((1, 2, 3, 5, 5), 49), requires_grad=True)
        w = Tensor(rnd((3, 2, 2, 3, 3), 50), requires_grad=True)
        b = Tensor(rnd(3, 51), requires_grad=True)
        wt = rnd((1, 3, 4, 3, 3), 52)
        check(lambda: T.sum_(T.mul(T.conv3d(x, w, b, stride=(1, 2, 2), padding=1), wt)),
              {"x": x, "w": w, "b": b})

    def test_conv3d_grads_stride_remainder(self):
        # input extent leaves a remainder under stride: tail gets zero grad
        x = Tensor(rnd((1, 1, 5, 5, 5), 53), requires_grad=True)
        w = Tensor(rnd((2, 1, 2, 2, 2), 54), requires_grad=True)
        wt = rnd((1, 2, 2, 2, 2), 55)
        check(lambda: T.sum_(T.mul(T.conv3d(x, w, stride=2, padding=0), wt)), {"x": x, "w": w})

    @pytest.mark.parametrize("batched, stride, pad, shape", [
        (True, (1, 2, 2), (1, 1, 1), (2, 2, 3, 5, 5)),
        (True, (2, 2, 2), (0, 0, 0), (2, 1, 5, 5, 5)),  # remainder tail on every axis
        (False, (1, 2, 2), (1, 1, 1), (2, 3, 5, 5)),
        (False, (2, 2, 2), (0, 0, 0), (1, 5, 5, 5)),
    ])
    def test_conv3d_grads_match_loop_reference(self, batched, stride, pad, shape):
        xd, wd, bd = rnd(shape, 73), rnd((3, shape[-4], 2, 2, 2), 74), rnd(3, 75)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        y = T.conv3d(x, w, b, stride=stride, padding=pad)
        g = rnd(y.shape, 76)
        T.sum_(T.mul(y, g)).backward()
        xs, gs, gxs = (xd, g, x.grad) if batched else (xd[None], g[None], x.grad[None])
        want_w, want_b = np.zeros_like(wd), np.zeros_like(bd)
        for xi, gi, got_x in zip(xs, gs, gxs):
            want_x, gw, gb = conv3d_grads_reference(xi, wd, gi, stride, pad)
            np.testing.assert_allclose(got_x, want_x, rtol=1e-10, atol=1e-12)
            want_w += gw
            want_b += gb
        np.testing.assert_allclose(w.grad, want_w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(b.grad, want_b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("window", [(1, 2, 2), (2, 2, 2), (3, 1, 2)])
    def test_maxpool3d_exactly_matches_routed_loop_reference(self, window):
        gen = np.random.default_rng(77)
        xd = gen.integers(0, 3, size=(2, 6, 6, 5)).astype(np.float64)  # many ties
        xd[0, 0, 0, 0] = np.nan
        xd[1, 3, 2, 3] = xd[1, 3, 3, 3] = np.nan  # two NaNs in one (1, 2, 2) window
        x = Tensor(xd, requires_grad=True)
        y = T.maxpool3d(x, window)
        g = gen.normal(size=y.shape)
        T.sum_(T.mul(y, g)).backward()
        want_y, want_gx = maxpool3d_routed_reference(xd, window, g)
        assert np.isnan(want_y).any()
        np.testing.assert_array_equal(y.data, want_y)
        np.testing.assert_array_equal(x.grad, want_gx)

    @pytest.mark.parametrize("window", [(1, 2, 2), (2, 2, 2)])
    def test_maxpool3d_special_values_match_routed_loop_reference(self, window):
        """±0 ties, ±inf and all-NaN windows: the routed gradient bit for
        bit, and each window's maximum, or NaN."""
        z, inf, nan = 0.0, np.inf, np.nan
        planes = [  # 4x4 frames: a (1, 2, 2) window is a quarter, a (2, 2, 2) one spans two
            [[-z, z, -1, z], [z, -z, -z, -2], [inf, 1, -inf, -inf], [inf, -inf, -inf, -inf]],
            [[nan, nan, inf, nan], [nan, nan, -inf, nan], [-z, -inf, z, z], [nan, z, -z, -z]],
            [[z, -z, -inf, nan], [-z, z, nan, -inf], [-z, -z, inf, -inf], [-z, -z, -inf, inf]],
            [[nan, -z, -z, -z], [-z, -z, -z, z], [inf, inf, nan, nan], [inf, inf, nan, nan]],
        ]
        xd = np.array(planes).reshape(2, 2, 4, 4)  # [C, T, H, W]
        x = Tensor(xd, requires_grad=True)
        y = T.maxpool3d(x, window)
        g = np.random.default_rng(78).normal(size=y.shape)  # signed, so 0 * g shows -0
        with np.errstate(invalid="ignore"):  # the loss sums inf and -inf
            T.sum_(T.mul(y, g)).backward()
        want_y, want_gx = maxpool3d_routed_reference(xd, window, g)
        assert np.array_equal(y.data, want_y, equal_nan=True)
        np.testing.assert_array_equal(_bits(x.grad), _bits(want_gx))

    def test_maxpool3d_grads(self):
        x = Tensor(rnd((1, 2, 4, 6, 6), 56), requires_grad=True)
        wt = rnd((1, 2, 4, 3, 3), 57)
        check(lambda: T.sum_(T.mul(T.maxpool3d(x, (1, 2, 2)), wt)), {"x": x})

    def test_maxpool3d_tie_routes_to_first(self):
        x = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        out = T.maxpool3d(x, (2, 2, 2))
        T.sum_(out).backward()
        expect = np.zeros((1, 2, 2, 2))
        expect[0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(x.grad, expect)

    def test_broadcast_to_grads(self):
        x = Tensor(rnd((1, 4), 58), requires_grad=True)
        w = rnd((3, 4), 59)
        check(lambda: T.sum_(T.mul(T.broadcast_to(x, (3, 4)), w)), {"x": x})

    def test_linear_grads(self):
        x = Tensor(rnd((2, 3, 4), 60), requires_grad=True)
        w = Tensor(rnd((4, 5), 61), requires_grad=True)
        b = Tensor(rnd((5,), 62), requires_grad=True)
        wt = rnd((2, 3, 5), 63)
        check(lambda: T.sum_(T.mul(T.linear(x, w, b), wt)), {"x": x, "w": w, "b": b})
        check(lambda: T.sum_(T.mul(T.linear(x, w), wt)), {"x": x, "w": w})

    @pytest.mark.parametrize("xs, ws", [((0, 4), (4, 3)), ((5, 4), (4, 0))])
    def test_linear_empty_batch_and_zero_width(self, monkeypatch, xs, ws):
        monkeypatch.setattr(T, "POOL_MIN_BYTES", 0)
        x = Tensor(np.ones(xs, np.float32), requires_grad=True)
        w = Tensor(np.ones(ws, np.float32), requires_grad=True)
        b = Tensor(np.ones(ws[1], np.float32), requires_grad=True)
        y = T.linear(x, w, b)
        assert y.shape == (xs[0], ws[1])
        T.sum_(y).backward()
        for t in (x, w, b):
            assert t.grad.shape == t.shape and not t.grad.any()

    def test_conv_pool_grads(self):
        # 5 x 6 frames pool to 2 x 3 windows, dropping the last row
        x = Tensor(rnd((1, 2, 3, 5, 6), 160), requires_grad=True)
        w = Tensor(rnd((3, 2, 3, 3, 3), 161), requires_grad=True)
        b = Tensor(rnd(3, 162), requires_grad=True)
        wt = rnd((1, 3, 3, 2, 3), 163)
        check(lambda: T.sum_(T.mul(T.conv_pool(x, w, b, 1, (1, 2, 2)), wt)),
              {"x": x, "w": w, "b": b})
        # no time padding, so one output frame; 5 x 6 frames pool to 2 x 2 windows of 2 x 3
        wt1 = wt[:, :, :1, :, :2]
        check(lambda: T.sum_(T.mul(T.conv_pool(x, w, None, (0, 1, 1), (1, 2, 3)), wt1)),
              {"x": x, "w": w})

    def test_conv_pool_relu_grads(self):
        # as test_conv_pool_grads, with a bias that leaves some windows <= 0
        x = Tensor(rnd((1, 2, 3, 5, 6), 160), requires_grad=True)
        w = Tensor(rnd((3, 2, 3, 3, 3), 161), requires_grad=True)
        b = Tensor(rnd(3, 162) - 0.5, requires_grad=True)
        wt = rnd((1, 3, 3, 2, 3), 163)
        y = T.conv_pool_relu(x, w, b, 1, (1, 2, 2))
        assert (y.data == 0).any() and (y.data > 0).any()
        check(lambda: T.sum_(T.mul(T.conv_pool_relu(x, w, b, 1, (1, 2, 2)), wt)),
              {"x": x, "w": w, "b": b})

    def test_mlp_grads(self):
        x = Tensor(rnd((2, 3, 4), 164), requires_grad=True)
        params = {name: Tensor(rnd(shape, 165 + i), requires_grad=True) for i, (name, shape) in
                  enumerate([("w1", (4, 6)), ("b1", 6), ("w2", (6, 4)), ("b2", 4)])}
        wt = rnd((2, 3, 4), 169)
        check(lambda: T.sum_(T.mul(T.mlp(x, *params.values()), wt)), {"x": x, **params})

    def test_layer_norm_grads(self):
        x = Tensor(rnd((2, 3, 6), 64) * 3 + 1, requires_grad=True)
        gamma = Tensor(rnd((6,), 65), requires_grad=True)
        beta = Tensor(rnd((6,), 66), requires_grad=True)
        wt = rnd((2, 3, 6), 67)
        check(lambda: T.sum_(T.mul(T.layer_norm(x, gamma, beta, 1e-5), wt)),
              {"x": x, "gamma": gamma, "beta": beta})


def _attention_masks(n, seed=71):
    """Two masks for alternating batch rows: a random one with query 0's
    every key excluded, and None (nothing excluded)."""
    allowed = np.random.default_rng(seed).random((n, n)) > 0.4
    allowed[np.arange(n), np.arange(n)] = True
    allowed[0] = False
    return [np.where(allowed, 0.0, -np.inf)[None], None]


# -- fused transformer ops --------------------------------------------------------


class TestFusedOps:
    def test_linear_matches_loop_reference(self):
        x, w, b = rnd((2, 3, 4), 80), rnd((4, 5), 81), rnd((5,), 82)
        np.testing.assert_allclose(T.linear(Tensor(x), Tensor(w), Tensor(b)).data,
                                   linear_loop_reference(x, w, b), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(T.linear(Tensor(x[0, 0]), Tensor(w)).data,
                                   linear_loop_reference(x[0, 0], w), rtol=1e-12, atol=1e-12)

    def test_layer_norm_matches_loop_reference(self):
        x, gamma, beta = rnd((3, 2, 7), 83) * 4 + 2, rnd((7,), 84), rnd((7,), 85)
        got = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5).data
        np.testing.assert_allclose(got, layer_norm_loop_reference(x, gamma, beta, 1e-5),
                                   rtol=1e-12, atol=1e-12)

    def test_fused_forward_bit_equals_composite_ops(self):
        """float32 values match the op chains the fused ops replace, bit for bit."""
        x = rnd((2, 7, 12), 88, np.float32)
        w, b = rnd((12, 18), 89, np.float32), rnd((18,), 90, np.float32)
        flat = T.matmul(T.reshape(Tensor(x), (-1, 12)), Tensor(w))
        composite = T.reshape(T.add(flat, Tensor(b)), (2, 7, 18))
        np.testing.assert_array_equal(T.linear(Tensor(x), Tensor(w), Tensor(b)).data,
                                      composite.data)

        gamma, beta = rnd((12,), 91, np.float32), rnd((12,), 92, np.float32)
        xc = T.sub(Tensor(x), T.mean(Tensor(x), axis=-1, keepdims=True))
        var = T.mean(T.mul(xc, xc), axis=-1, keepdims=True)
        norm = T.div(xc, T.sqrt(T.add(var, 1e-5)))
        composite = T.add(T.mul(norm, Tensor(gamma)), Tensor(beta))
        np.testing.assert_array_equal(
            T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5).data, composite.data)

        params = [Tensor(p) for p in _mha_params(12, 93, np.float32)]
        bias = Tensor(rnd((3, 7, 7), 97, np.float32))
        allowed = np.random.default_rng(98).random((2, 1, 7, 7)) > 0.3
        composite = _mha_primitives(Tensor(x), *params, 3, allowed, bias)
        got = T.mha(Tensor(x), *params, 3,
                    mask=np.where(allowed, np.float32(0), np.float32(-np.inf)), bias=bias)
        np.testing.assert_array_equal(got.data, composite.data)

    @pytest.mark.parametrize("taped", [True, False])
    def test_attention_chunks_bit_equal_single_chunk(self, monkeypatch, taped):
        """``mha`` on eight batch rows, its attention in chunks of three
        (3 + 3 + a ragged 2) against one chunk: same output and gradients
        bit for bit, the bias's aside (chunked, it sums chunk by chunk).
        Query 0 of the masked rows has every key excluded, so its merged
        heads are zeros and its output is exactly ``b_out``; a masked
        pair's key token must have no effect on the query's output."""
        b, n, heads, dim = 8, 6, 2, 8
        xd = rnd((b, n, dim), 95, np.float32)
        pd = _mha_params(dim, 99, np.float32)
        bias = rnd((heads, n, n), 96, np.float32)
        masks = [m if m is None else m.astype(np.float32) for m in _attention_masks(n, 97)]
        g = rnd((b, n, dim), 98, np.float32)

        def run(chunk_bytes, values):
            monkeypatch.setattr(T, "CACHE_BYTES", chunk_bytes)
            return _step(lambda x, *p: T.mha(x, *p[:4], heads, mask=masks, bias=p[4]),
                         (values, *pd, bias), g, taped)

        row_bytes = heads * n * n * 4
        one = run(b * row_bytes, xd)
        got = run(3 * row_bytes, xd)
        assert list(T._row_chunks(b, row_bytes)) == [(0, 3), (3, 6), (6, 8)]
        _assert_bits_equal(got[:6], one[:6])  # untaped, the output alone

        out = got[0]
        masked_rows = out[0::2]  # rows using the first mask
        np.testing.assert_array_equal(masked_rows[:, 0], np.broadcast_to(pd[3], (b // 2, dim)))
        allowed = masks[0][0] == 0
        i, j = next((i, j) for i in range(1, n) for j in range(n) if not allowed[i, j])
        bumped = xd.copy()
        bumped[:, j] += 1.0  # token j's query, key and value in every row
        out2 = run(3 * row_bytes, bumped)[0]
        np.testing.assert_array_equal(out2[0::2, i], out[0::2, i])
        assert np.all(out2[1::2, i] != out[1::2, i])  # unmasked rows do see it

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(rnd((2, 3), 1)), Tensor(rnd((4, 5), 2)))
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(rnd((2, 3), 3)), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)


def _mha_params(dim, seed, dtype=np.float64):
    """w_qkv, b_qkv, w_out, b_out for tokens of width ``dim``."""
    return (rnd((dim, 3 * dim), seed, dtype) * 0.3, rnd(3 * dim, seed + 1, dtype),
            rnd((dim, dim), seed + 2, dtype) * 0.3, rnd(dim, seed + 3, dtype))


def _mha_primitives(x, w_qkv, b_qkv, w_out, b_out, heads, allowed, bias):
    """The chain ``mha`` replaces: linear, attention from primitives
    (matmul, mul, add, softmax under the boolean mask ``allowed``, reshape
    and transpose) and linear."""
    b, n, dim = x.shape
    dh = dim // heads
    split = T.transpose(T.reshape(T.linear(x, w_qkv, b_qkv), (b, n, 3, heads, dh)),
                        (2, 0, 3, 1, 4))
    q, k, v = split[0], split[1], split[2]
    logits = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    probs = T.softmax(T.add(logits, bias), axis=-1, mask=allowed)
    merged = T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), (b, n, dim))
    return T.linear(merged, w_out, b_out)


class TestMha:
    def test_matches_loop_reference(self):
        x, bias = rnd((4, 5, 6), 200), rnd((3, 5, 5), 201)
        params = _mha_params(6, 202)
        masks = _attention_masks(5)
        got = T.mha(Tensor(x), *(Tensor(p) for p in params), 3, mask=masks,
                    bias=Tensor(bias)).data
        want = mha_loop_reference(x, *params, 3, mask=masks, bias=bias)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_grads_with_mask_and_bias(self):
        x = Tensor(rnd((4, 5, 6), 203), requires_grad=True)
        names = ("w_qkv", "b_qkv", "w_out", "b_out")
        params = {k: Tensor(p, requires_grad=True) for k, p in zip(names, _mha_params(6, 204))}
        bias = Tensor(rnd((3, 5, 5), 208), requires_grad=True)
        masks = _attention_masks(5)
        wt = rnd((4, 5, 6), 209)
        check(lambda: T.sum_(T.mul(T.mha(x, *params.values(), 3, mask=masks, bias=bias), wt)),
              {"x": x, **params, "bias": bias})
        check(lambda: T.sum_(T.mul(T.mha(x, *params.values(), 3), wt)), {"x": x, **params})

    def test_grads_bit_equal_the_primitive_chain(self):
        """float32, under masks and a bias: every gradient is that of the
        chain ``mha`` replaces, bit for bit."""
        arrays = (rnd((2, 7, 12), 224, np.float32), *_mha_params(12, 225, np.float32),
                  rnd((3, 7, 7), 229, np.float32))
        allowed = np.random.default_rng(230).random((2, 1, 7, 7)) > 0.3
        mask = np.where(allowed, np.float32(0), np.float32(-np.inf))
        g = rnd((2, 7, 12), 231, np.float32)
        fused = _step(lambda x, *p: T.mha(x, *p[:4], 3, mask=mask, bias=p[4]), arrays, g)
        chain = _step(lambda x, *p: _mha_primitives(x, *p[:4], 3, allowed, p[4]), arrays, g)
        _assert_bits_equal(fused[1:], chain[1:])

    @pytest.mark.parametrize("taped", [True, False])
    def test_chunks_bit_equal_one_chunk(self, monkeypatch, taped):
        """40 windows of 22 tokens, 32 wide: the qkv GEMM's unit is 352 rows
        (16 windows), so with every chunk's qkv over POOL_MIN_BYTES the op
        runs windows [0, 16) and [16, 40); five masks, so the second chunk
        starts inside a mask cycle. Output and every gradient equal those
        of one chunk on one thread bit for bit."""
        b, n, dim, heads = 40, 22, 32, 4
        gen = np.random.default_rng(210)
        masks = [np.where(gen.random((n, n)) > 0.3, np.float32(0), np.float32(-np.inf))[None]
                 for _ in range(3)]
        masks = [masks[0], None, masks[1], masks[2], None]
        xd, bd = rnd((b, n, dim), 211, np.float32), rnd((heads, n, n), 212, np.float32)
        pd = _mha_params(dim, 213, np.float32)
        g = rnd((b, n, dim), 217, np.float32)
        g[:, ::4] = -0.0
        rows0 = []
        attend = T._attend
        monkeypatch.setattr(T, "_attend", lambda *a: (rows0.append(a[6]), attend(*a)))

        def run(pool_min_bytes):
            """The output and, taped, every input's gradient, the output's
            closure run on ``g`` itself."""
            monkeypatch.setattr(T, "POOL_MIN_BYTES", pool_min_bytes)
            rows0.clear()
            ts = [Tensor(a, requires_grad=taped) for a in (xd, *pd, bd)]
            with T.no_grad() if not taped else contextlib.nullcontext():
                y = T.mha(*ts[:5], heads, mask=masks, bias=ts[5])
            if not taped:
                return [y.data]
            y._grad_fn(g)
            return [y.data] + [t.grad for t in ts]

        chunked = run(1)
        assert rows0 == [0, 16]
        one = run(1 << 62)
        assert rows0 == [0]
        _assert_bits_equal(chunked, one)

    def test_untaped_paper_size_never_holds_the_qkv(self):
        """Swin's first stage at paper scale: 128 windows of 8 x 7 x 7
        tokens, 96 wide. The traced peak stays under the 55 MiB [B*N, 3D]
        qkv projection (the three ops held it beside the merged heads and
        the output: 92 MiB)."""
        b, n, dim = 128, 392, 96
        x = Tensor(rnd((b, n, dim), 218, np.float32))
        params = [Tensor(p) for p in _mha_params(dim, 219, np.float32)]
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.mha(x, *params, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        qkv_bytes = b * n * 3 * dim * 4
        assert peak < qkv_bytes, f"peak {peak / 2 ** 20:.1f} MiB, qkv {qkv_bytes / 2 ** 20:.1f} MiB"
        assert y.shape == (b, n, dim)

    def test_shape_errors(self):
        params = [Tensor(p) for p in _mha_params(6, 220)]
        with pytest.raises(ShapeError):
            T.mha(Tensor(rnd((2, 3, 5), 221)), *params, 3)  # width 5, weights for 6
        with pytest.raises(ShapeError):
            T.mha(Tensor(rnd((2, 3, 6), 222)), *params, 4)  # 6 is not 4 heads wide
        with pytest.raises(ShapeError):  # 3 batch rows, 2 masks
            T.mha(Tensor(rnd((3, 5, 6), 223)), *params, 3, mask=_attention_masks(5))


class TestConvChunks:
    @pytest.mark.parametrize("shape, stride, pad", [
        ((2, 3, 5, 8, 8), (1, 1, 1), (1, 1, 1)),  # 5 frames as 2 + 2 + a ragged 1
        ((2, 2, 9, 8, 8), (2, 1, 1), (1, 1, 1)),  # stride 2 along T: 5 frames
        ((2, 3, 5, 16, 16), (1, 2, 2), (1, 1, 1)),  # stride 2 along H and W: 5 frames of 8 x 8
        ((3, 7, 8, 8), (1, 1, 1), (0, 1, 1)),     # unbatched 4-D input: 5 frames
    ])
    def test_conv3d_chunks_bit_equal_single_chunk(self, monkeypatch, shape, stride, pad):
        """Chunks of two output frames against one chunk: the forward output
        is equal bit for bit, taped or not; gradients agree to rounding.

        A frame is 8 x 8 = 64 output positions. The BLAS gives a block of
        output columns the same bits in any GEMM when the block boundaries
        fall on its kernel width (16 for OpenBLAS's Haswell sgemm), as every
        model frame does (224^2, 112^2, 56^2); a 6 x 6 frame can differ in
        the last bit."""
        xd = rnd(shape, 97, np.float32)
        wd, bd = rnd((4, shape[-4], 3, 3, 3), 98, np.float32), rnd(4, 99, np.float32)

        def run(chunk_bytes, taped):
            monkeypatch.setattr(T, "CONV_CHUNK_BYTES", chunk_bytes)
            x, w, b = (Tensor(a, requires_grad=taped) for a in (xd, wd, bd))
            if not taped:
                with T.no_grad():
                    return T.conv3d(x, w, b, stride=stride, padding=pad).data, None
            y = T.conv3d(x, w, b, stride=stride, padding=pad)
            T.sum_(T.mul(y, g)).backward()
            return y.data, (x.grad, w.grad, b.grad)

        one, _ = run(1 << 30, False)
        g = rnd(one.shape, 100, np.float32)
        batch = shape[0] if len(shape) == 5 else 1
        frame_bytes = batch * shape[-4] * 27 * one.shape[-2] * one.shape[-1] * 4
        assert list(T._row_chunks(one.shape[-3], frame_bytes, 2 * frame_bytes)) == \
            [(0, 2), (2, 4), (4, 5)]
        np.testing.assert_array_equal(run(2 * frame_bytes, False)[0], one)
        one_taped, one_grads = run(1 << 30, True)
        out, grads = run(2 * frame_bytes, True)
        np.testing.assert_array_equal(one_taped, one)
        np.testing.assert_array_equal(out, one)
        for got, want in zip(grads, one_grads):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_untaped_conv3d_peak_is_one_chunk_not_the_column(self, monkeypatch):
        """A 16-frame column (7 MB) in chunks of two frames: the traced peak
        is the output and one chunk's column, with no padded copy of the
        input."""
        x = Tensor(rnd((1, 4, 16, 32, 32), 101, np.float32))
        w = Tensor(rnd((8, 4, 3, 3, 3), 102, np.float32))
        frame_bytes = 4 * 27 * 32 * 32 * 4
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 2 * frame_bytes, raising=False)
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.conv3d(x, w, stride=1, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = y.data.nbytes + 2 * frame_bytes + (1 << 18)
        assert peak < bound, \
            f"peak {peak / 2 ** 20:.2f} MiB, whole column {16 * frame_bytes / 2 ** 20:.2f} MiB"

    def test_taped_conv3d_keeps_no_padded_copy_and_no_column(self):
        """A taped c07 block-0 forward ([8, 3, 16, 32, 32] to 8 channels):
        what it leaves allocated is the output alone. Its gradient closure
        holds the input itself, not a 1.3 MiB padded copy of it nor the 40
        MiB [8, 81, 16384] column."""
        x = Tensor(rnd((8, 3, 16, 32, 32), 103, np.float32), requires_grad=True)
        w = Tensor(rnd((8, 3, 3, 3, 3), 104, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            y = T.conv3d(x, w, stride=1, padding=1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded_bytes = 8 * 3 * 18 * 34 * 34 * 4
        assert y._grad_fn is not None
        assert held < y.data.nbytes + padded_bytes // 8, \
            f"held {held / 2 ** 20:.2f} MiB, output {y.data.nbytes / 2 ** 20:.2f} MiB"

    def test_multi_chunk_taped_backward_peak_is_one_chunk(self, monkeypatch):
        """A 16-frame column (7 MB) in chunks of two frames, forward and
        backward under trace: the peak is the input's gradient (twice, while
        it is accumulated into ``x.grad``), the output and one chunk's
        column and column gradient; no padded copy of the input or of its
        gradient."""
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 2 * 4 * 27 * 32 * 32 * 4)
        x = Tensor(rnd((1, 4, 16, 32, 32), 105, np.float32), requires_grad=True)
        w = Tensor(rnd((8, 4, 3, 3, 3), 106, np.float32), requires_grad=True)
        g = rnd((1, 8, 16, 32, 32), 107, np.float32)
        tracemalloc.start()
        try:
            y = T.conv3d(x, w, stride=1, padding=1)
            y._grad_fn(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk_bytes = 2 * 4 * 27 * 32 * 32 * 4
        bound = 2 * x.data.nbytes + y.data.nbytes + 2 * chunk_bytes + (1 << 18)
        assert peak < bound, \
            f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"


def _nan_scratch(monkeypatch):
    """Every buffer ``_Conv`` hands out comes filled with NaN (True for
    bool), so a value read before it is written shows."""
    scratch = T._Conv.scratch

    def filled(self, size, dtype=None):
        buf = scratch(self, size, dtype)
        buf.fill(True if buf.dtype == bool else np.nan)
        return buf

    monkeypatch.setattr(T._Conv, "scratch", filled)


def _c07_specials(shape, seed):
    """float32 input of ``shape`` with -0 in a tenth of its entries and, in
    batch row 0's channel 0, a NaN inside and +inf and -inf on the borders
    (whose windows read the padding)."""
    x = rnd(shape, seed, np.float32)
    x[np.random.default_rng(seed).random(shape) < 0.1] = -0.0
    x[0, 0, 1, 2, 3] = np.nan
    x[0, 0, 0, 0, 0] = np.inf
    x[0, 0, -1, -1, -1] = -np.inf
    return x


class TestConvKeepsNoPaddedCopy:
    """conv3d and conv_pool on scratch that starts as NaN equal, bit for bit,
    a reference that convolves a zero-padded copy of the input
    (``tests/reference.py``), on inputs holding +-inf, NaN and -0: every
    column entry that reads the padding is written as zero, and the
    input gradient gets exactly the taps that read the input."""

    @pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2)])
    @pytest.mark.parametrize("pad", [(0, 0, 0), (1, 1, 1)])
    def test_conv3d_matches_padded_copy(self, monkeypatch, stride, pad):
        _nan_scratch(monkeypatch)
        xd = _c07_specials((8, 3, 16, 32, 32), 190)
        wd, bd = rnd((8, 3, 3, 3, 3), 191, np.float32), rnd(8, 192, np.float32)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        y = T.conv3d(x, w, b, stride=stride, padding=pad)
        g = rnd(y.shape, 193, np.float32)
        g[:, :, ::3] = -0.0
        with np.errstate(invalid="ignore"):
            y._grad_fn(g)
            want = conv3d_padded_reference(xd, wd, bd, stride, pad, g)
        _assert_bits_equal([y.data, x.grad, w.grad, b.grad], want)

    @pytest.mark.parametrize("xshape, cout", [
        ((8, 3, 16, 32, 32), 8),    # c07 block 0
        ((8, 8, 16, 16, 16), 16),   # c07 block 1
        ((1, 8, 16, 32, 32), 16),   # one batch row: column-split backward
    ])
    def test_conv_pool_matches_padded_copy(self, monkeypatch, xshape, cout):
        _nan_scratch(monkeypatch)
        xd = _c07_specials(xshape, 194)
        wd, bd = rnd((cout, xshape[1], 3, 3, 3), 195, np.float32), rnd(cout, 196, np.float32)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        y = T.conv_pool(x, w, b, 1, (1, 2, 2))
        g = rnd(y.shape, 197, np.float32)
        g[:, :, ::3] = -0.0
        with np.errstate(invalid="ignore"):
            y._grad_fn(g)
            want = conv_pool_padded_reference(xd, wd, bd, (1, 1, 1), (1, 2, 2), g)
        _assert_bits_equal([y.data, x.grad, w.grad, b.grad], want)


class TestConvPool:
    """``conv_pool`` against its loop oracle, and bit for bit against the
    ``conv3d`` -> ``maxpool3d`` chain it fuses."""

    def test_ties_and_nans_match_routed_loop_reference(self):
        """Integer inputs and kernel, so many windows tie and every sum is
        exact; a NaN input makes windows whose first NaN is not their first
        element. Values and gradients equal the oracle's exactly."""
        self._routed_loop_case(relu=False)

    def test_relu_ties_and_nans_match_routed_loop_reference(self):
        """The same case through ``conv_pool_relu``, against the oracle's
        ReLU loop; the -1 biases leave windows at and below 0."""
        self._routed_loop_case(relu=True)

    @staticmethod
    def _routed_loop_case(relu):
        gen = np.random.default_rng(170)
        xd = gen.integers(0, 2, size=(2, 2, 3, 6, 6)).astype(np.float64)
        xd[0, 0, 1, 2, 2] = np.nan  # conv outputs 1-3 down and across read it
        wd = gen.integers(0, 2, size=(3, 2, 3, 3, 3)).astype(np.float64)
        bd = gen.integers(-1, 2, size=3).astype(np.float64)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        y = (T.conv_pool_relu if relu else T.conv_pool)(x, w, b, 1, (1, 2, 2))
        g = gen.integers(-4, 5, size=y.shape) / 4
        with np.errstate(invalid="ignore"):
            T.sum_(T.mul(y, g)).backward()
        want_w, want_b = np.zeros_like(wd), np.zeros_like(bd)
        for i in range(2):
            want_y, want_x, gw, gb = conv_pool_routed_reference(xd[i], wd, bd, (1, 1, 1),
                                                                (1, 2, 2), g[i], relu)
            np.testing.assert_array_equal(y.data[i], want_y)
            np.testing.assert_array_equal(x.grad[i], want_x)
            want_w += gw
            want_b += gb
        np.testing.assert_array_equal(w.grad, want_w)
        np.testing.assert_array_equal(b.grad, want_b)
        assert np.isnan(y.data[0, :, 1, 0, 0]).all()  # a window whose first NaN is its last element
        with T.no_grad():
            conv = T.conv3d(Tensor(xd), Tensor(wd), Tensor(bd), padding=1).data
        windows = conv.reshape(2, 3, 3, 3, 2, 3, 2).transpose(0, 1, 2, 3, 5, 4, 6)
        windows = windows.reshape(*windows.shape[:5], 4)
        assert ((windows == windows.max(axis=-1, keepdims=True)).sum(axis=-1) > 1).mean() > 0.05

    @pytest.mark.parametrize("window", [(1, 2, 2), (1, 3, 3)])
    @pytest.mark.parametrize("rows", ["one", "threads"])
    @pytest.mark.parametrize("taped", [True, False])
    def test_bit_equals_conv3d_then_maxpool3d(self, monkeypatch, window, rows, taped):
        """Batch 1 (fewer rows than threads: the backward splits column
        rows) and one row more than threads (each thread takes whole rows),
        5 frames of 8 x 8 in chunks of two, every conv split, with ties,
        signed zeros and a NaN; a (1, 3, 3) window leaves 2 rows and 2
        columns unpooled.
        Both sides run the same conv GEMMs (conv3d is conv_pool's
        convolution with a one-element window), so this checks the
        piece-wise pooling and the route against maxpool3d of the whole
        conv output. The bias gradient is rebuilt three channels at a time."""
        b = 1 if rows == "one" else T._runtime()[1] + 1
        gen = np.random.default_rng(171)
        xd = (gen.integers(-2, 3, size=(b, 3, 5, 8, 8)) / 4).astype(np.float32)
        xd[0, 1, 2, 3, 4] = np.nan
        wd = (gen.integers(-2, 3, size=(8, 3, 3, 3, 3)) / 4).astype(np.float32)
        bd = (gen.integers(-2, 3, size=8) / 4).astype(np.float32)
        pooled = (b, 8, 5, 8 // window[1], 8 // window[2])
        g = gen.normal(size=pooled).astype(np.float32)
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 2 * b * 81 * 64 * 4)
        monkeypatch.setattr(T, "POOL_MIN_BYTES", 0)

        def fused(x, w, bias):
            return T.conv_pool(x, w, bias, 1, window)

        def chain(x, w, bias):
            return T.maxpool3d(T.conv3d(x, w, bias, stride=1, padding=1), window)

        with np.errstate(invalid="ignore"):
            got = _step(fused, (xd, wd, bd), g, taped)
            want = _step(chain, (xd, wd, bd), g, taped)
        _assert_bits_equal(got, want)
        assert np.isnan(got[0]).any()

    @pytest.mark.parametrize("dtype, frames", [(np.float32, 17), (np.float64, 9)])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_relu_bit_equals_relu_of_conv_pool(self, dtype, frames, batch):
        """``conv_pool_relu`` gives the output and the x, kernel and bias
        gradients of ``relu(conv_pool(...))`` bit for bit, on [batch, 2,
        frames, 256, 256] inputs of more than ``POOL_MIN_BYTES`` per batch
        row (split across the pool; batch 2 runs the backward row-wise,
        batch 1 column-wise) of quarter steps, so windows tie and sums are
        exact, with -0 and, in channel 0, +-inf and NaN; the upstream
        gradient is negative where ReLU blocks it, so the blocked products
        are -0, which the chain's accumulation turns into +0."""
        gen = np.random.default_rng([213, batch])
        xd = (gen.integers(-4, 5, size=(batch, 2, frames, 256, 256)) / 4).astype(dtype)
        assert xd[0].nbytes > T.POOL_MIN_BYTES
        xd[:, 1].flat[::7] = -0.0
        xd[:, 0].flat[3::1009] = np.inf
        xd[:, 0].flat[5::1013] = -np.inf
        xd[:, 0].flat[::997] = np.nan
        wd = (gen.integers(-2, 3, size=(3, 2, 3, 3, 3)) / 4).astype(dtype)
        bd = np.array([-0.25, 0.0, 0.25], dtype)
        g = -np.abs(gen.standard_normal((batch, 3, frames, 128, 128))).astype(dtype)
        g[..., ::3] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            got = _step(lambda x, w, b: T.conv_pool_relu(x, w, b, 1, (1, 2, 2)), (xd, wd, bd), g)
            want = _step(lambda x, w, b: T.relu(T.conv_pool(x, w, b, 1, (1, 2, 2))),
                         (xd, wd, bd), g)
        _assert_bits_equal(got, want)
        y = got[0]
        assert np.isnan(y).any() and (y == 0).any() and (y > 0).any()

    def test_relu_taped_step_peaks_as_the_chain(self):
        """A taped c07 block-0 step through ``conv_pool_relu`` peaks no
        higher than through ``relu(conv_pool(...))``: it keeps one pooled
        output where the chain keeps two, and its backward frees the
        incoming gradient once it has the ReLU's (backward hands an
        interior node's gradient to its closure). Keeping both gradients
        through the convolution's backward peaked 1 MiB higher (30.22
        against 29.22 MiB)."""
        gen = np.random.default_rng(214)
        xd = gen.random((8, 3, 16, 32, 32), dtype=np.float32)
        wd = gen.normal(size=(8, 3, 3, 3, 3)).astype(np.float32)
        bd = np.zeros(8, np.float32)
        g = gen.normal(size=(8, 8, 16, 16, 16)).astype(np.float32)

        def peak(op):
            x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
            tracemalloc.start()
            try:
                T.sum_(T.mul(op(x, w, b), g)).backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def fused(x, w, b):
            return T.conv_pool_relu(x, w, b, 1, (1, 2, 2))

        def chain(x, w, b):
            return T.relu(T.conv_pool(x, w, b, 1, (1, 2, 2)))

        peak(fused), peak(chain)  # fills the tap caches
        got, want = peak(fused), peak(chain)
        assert got <= want + (64 << 10), f"{got / 2 ** 20:.2f} MiB vs {want / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("frame, bands", [
        ((16, 64), {(1, 2, 2): [6, 10], (1, 3, 3): [6, 10]}),
        ((32, 36), {(1, 2, 2): [12, 20], (1, 3, 3): [12, 20]}),  # rows of 36: 4 rows a unit
    ])
    @pytest.mark.parametrize("window", [(1, 2, 2), (1, 3, 3)])
    @pytest.mark.parametrize("rows", ["one", "threads"])
    @pytest.mark.parametrize("taped", [True, False])
    def test_bands_bit_equal_whole_frames(self, monkeypatch, frame, bands, window, rows, taped):
        """Output frames of 3456 multiply-adds per position, so every
        forward piece is one frame; with ``CACHE_BYTES`` at 1 a frame
        is cut into bands of the fewest rows that are a multiple of the
        window's height, start on a multiple of 16 positions and do 2^20
        multiply-adds, the last band taking the rest. conv_pool and conv3d
        -> maxpool3d each give the values and gradients of their
        whole-frame runs bit for bit, the batch-1 backward building its
        columns from the bands."""
        b = 1 if rows == "one" else T._runtime()[1] + 1
        xd = rnd((b, 4, 3, *frame), 208, np.float32)
        wd, bd = rnd((32, 4, 3, 3, 3), 209, np.float32), rnd(32, 210, np.float32)
        g = rnd((b, 32, 3, frame[0] // window[1], frame[1] // window[2]), 211, np.float32)
        monkeypatch.setattr(T, "POOL_MIN_BYTES", 0)

        def fused(x, w, bias):
            return T.conv_pool(x, w, bias, 1, window)

        def chain(x, w, bias):
            return T.maxpool3d(T.conv3d(x, w, bias, stride=1, padding=1), window)

        for op in (fused, chain):
            monkeypatch.setattr(T, "CACHE_BYTES", 1 << 40)
            whole = _step(op, (xd, wd, bd), g, taped)
            monkeypatch.setattr(T, "CACHE_BYTES", 1)
            _assert_bits_equal(_step(op, (xd, wd, bd), g, taped), whole)
        pieces = T._Conv("conv_pool", Tensor(xd), Tensor(wd), 1, 1, pool_rows=window[1]).pieces
        assert [h1 - h0 for t0, t1, h0, h1 in pieces] == bands[window] * 3

    @pytest.mark.parametrize("xshape, out, frames, edges, widest", [
        # c07: batch 8 of 16 x 32 x 32, channels (8, 16)
        ((8, 3, 16, 32, 32), 8, 2, [0, 32], 2048),
        ((8, 8, 16, 16, 16), 16, 2, [0, 16], 512),
        # paper scale: batch 1 of 30 x 224 x 224, channels (32, 64, 128)
        ((1, 3, 30, 224, 224), 32, 1, [0, 56, 112, 168, 224], 12544),
        ((1, 32, 30, 112, 112), 64, 1, [*range(0, 101, 10), 112], 1344),
        ((1, 64, 30, 56, 56), 128, 1, [0, 10, 20, 30, 40, 56], 896),
    ])
    def test_cnn_lstm_pieces_do_not_depend_on_threads(self, monkeypatch, xshape, out, frames,
                                                      edges, widest):
        """cnn_lstm's conv blocks cut their forward GEMMs into the same
        pieces with one thread and with two: pieces of ``frames`` whole
        frames, each cut into bands at ``edges``."""
        x = Tensor(np.zeros(xshape, np.float32))
        w = Tensor(np.zeros((out, xshape[1], 3, 3, 3), np.float32))
        want = [(t, t + frames, h0, h1) for t in range(0, xshape[2], frames)
                for h0, h1 in zip(edges, edges[1:])]
        pool = T._runtime()[0]
        for threads in (1, 2):
            monkeypatch.setattr(T, "_runtime", lambda: (pool, threads))
            conv = T._Conv("conv_pool", x, w, 1, 1, pool_rows=2)
            assert (conv.pieces, conv.widest) == (want, widest), f"{threads} threads"

    def test_route_past_256_offsets(self):
        """A (1, 17, 16) window has 272 offsets, more than one byte holds:
        a window whose maximum is its last element still routes its
        gradient there, through conv_pool and through maxpool3d."""
        xd = rnd((1, 1, 1, 17, 16), 212)
        xd[0, 0, 0, 16, 15] = 10.0
        wd = np.zeros((1, 1, 3, 3, 3))
        wd[0, 0, 1, 1, 1] = 1.0  # the conv output is x
        g = np.full((1, 1, 1, 1, 1), 2.0)
        want = np.zeros_like(xd)
        want[0, 0, 0, 16, 15] = 2.0
        for op, arrays in [(lambda x, w: T.conv_pool(x, w, None, 1, (1, 17, 16)), (xd, wd)),
                           (lambda x: T.maxpool3d(x, (1, 17, 16)), (xd,))]:
            got = _step(op, arrays, g)
            assert got[0].item() == 10.0
            np.testing.assert_array_equal(got[1], want)

    def test_unbatched_input(self):
        """A 4-D [C, T, H, W] input runs as a batch of one and comes back
        4-D, with its gradient."""
        xd = rnd((3, 4, 8, 8), 172, np.float32)
        wd, bd = rnd((5, 3, 3, 3, 3), 173, np.float32), rnd(5, 174, np.float32)
        g = rnd((5, 4, 4, 4), 175, np.float32)
        got = _step(lambda x, w, b: T.conv_pool(x, w, b, 1, (1, 2, 2)), (xd, wd, bd), g)
        want = _step(lambda x, w, b: T.conv_pool(x, w, b, 1, (1, 2, 2)),
                     (xd[None], wd, bd), g[None])
        assert got[0].shape == (5, 4, 4, 4) and got[1].shape == xd.shape
        _assert_bits_equal([got[0][None], got[1][None]] + got[2:], want)

    def test_shape_errors(self):
        x, w = Tensor(rnd((1, 2, 4, 6, 6), 176)), Tensor(rnd((3, 2, 3, 3, 3), 177))
        with pytest.raises(ShapeError, match="spans frames"):
            T.conv_pool(x, w, None, 1, (2, 2, 2))
        with pytest.raises(ShapeError, match="exceeds"):
            T.conv_pool(x, w, None, 1, (1, 7, 2))
        with pytest.raises(ShapeError, match="channel mismatch"):
            T.conv_pool(Tensor(rnd((1, 3, 4, 6, 6), 178)), w, None, 1, (1, 2, 2))
        with pytest.raises(ShapeError, match="spans frames"):
            T.conv_pool_relu(x, w, None, 1, (2, 2, 2))

    def test_untaped_paper_block_never_holds_the_conv_output(self):
        """cnn_lstm's block 0 on one 30 x 224 x 224 clip: the traced peak is
        the pooled output and each thread's column and GEMM output for one
        band of rows, well under the 184 MiB conv output, with no 18 MiB
        padded copy of the input."""
        x = Tensor(rnd((1, 3, 30, 224, 224), 179, np.float32))
        w, b = Tensor(rnd((32, 3, 3, 3, 3), 180, np.float32)), Tensor(np.zeros(32, np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.conv_pool(x, w, b, 1, (1, 2, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        conv_bytes = 32 * 30 * 224 * 224 * 4
        band = T._Conv("conv_pool", x, w, 1, 1, pool_rows=2).widest  # output positions
        assert band * 81 * 4 <= T.CACHE_BYTES
        bound = y.data.nbytes + T._runtime()[1] * (81 + 32) * band * 4 + (1 << 20)
        assert peak < bound, f"peak {peak / 2 ** 20:.1f} MiB, bound {bound / 2 ** 20:.1f} MiB"
        assert peak < conv_bytes / 2, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_taped_conv_pool_keeps_no_padded_copy_only_a_route(self):
        """A taped c07 block-0 forward ([8, 3, 16, 32, 32] to 8 channels)
        leaves allocated the pooled output and one uint8 route entry per
        pooled element: no 1.3 MiB padded copy of the input (the closure
        holds the input itself) and not the 4 MiB conv output."""
        x = Tensor(rnd((8, 3, 16, 32, 32), 181, np.float32), requires_grad=True)
        w = Tensor(rnd((8, 3, 3, 3, 3), 182, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            y = T.conv_pool(x, w, None, 1, (1, 2, 2))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded_bytes = 8 * 3 * 18 * 34 * 34 * 4
        assert y._grad_fn is not None
        assert held < y.data.nbytes + y.data.size + padded_bytes // 8, \
            f"held {held / 2 ** 20:.2f} MiB"


class TestMlp:
    """``mlp`` against its loop oracle, and bit for bit against the
    ``linear`` -> ``gelu`` -> ``linear`` chain it fuses."""

    def test_matches_loop_reference(self):
        x, w1, b1 = rnd((2, 5, 4), 183), rnd((4, 7), 184), rnd(7, 185)
        w2, b2 = rnd((7, 4), 186), rnd(4, 187)
        got = T.mlp(*(Tensor(a) for a in (x, w1, b1, w2, b2))).data
        np.testing.assert_allclose(got, mlp_loop_reference(x, w1, b1, w2, b2),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows, dtype, one_unit_blocks", [
        (1000, np.float32, False),  # not a multiple of 16: 2 units of 480 rows, the last 520
        (1000, np.float32, True),   # ... one unit per block
        (1, np.float32, False),     # a single row
        (1445, np.float32, True),   # 3 units + 5 rows: the last block holds 485 rows
        (1445, np.float64, True),   # float64: one block
    ])
    @pytest.mark.parametrize("taped", [True, False])
    def test_bit_equals_linear_gelu_linear(self, monkeypatch, rows, dtype, one_unit_blocks,
                                           taped):
        """40 -> 56 -> 40 features: a unit is 480 rows (2^20
        multiply-adds), and every op is split across the pool. A block of
        the 5 rows past the last whole unit would give both GEMMs other
        bits there."""
        x = _special_values((rows, 40), 188, dtype)
        w1, b1 = rnd((40, 56), 189, dtype), rnd(56, 190, dtype)
        w2, b2 = rnd((56, 40), 191, dtype), rnd(40, 192, dtype)
        g = rnd((rows, 40), 193, dtype)
        monkeypatch.setattr(T, "POOL_MIN_BYTES", 0)
        if one_unit_blocks:
            monkeypatch.setattr(T, "CACHE_BYTES", 480 * 56 * np.dtype(dtype).itemsize)

        def chain(a, v1, c1, v2, c2):
            return T.linear(T.gelu(T.linear(a, v1, c1)), v2, c2)

        with np.errstate(invalid="ignore"):
            got = _step(T.mlp, (x, w1, b1, w2, b2), g, taped)
            want = _step(chain, (x, w1, b1, w2, b2), g, taped)
        _assert_bits_equal(got, want)

    def test_shape_errors(self):
        x, w1, b1 = Tensor(rnd((3, 4), 194)), Tensor(rnd((4, 6), 195)), Tensor(rnd(6, 196))
        w2, b2 = Tensor(rnd((6, 4), 197)), Tensor(rnd(4, 198))
        for args in [(Tensor(rnd((3, 5), 199)), w1, b1, w2, b2), (x, w1, b1, w1, b2),
                     (x, w1, b2, w2, b2), (x, w1, b1, w2, b1), (x, b1, b1, w2, b2)]:
            with pytest.raises(ShapeError, match="mlp"):
                T.mlp(*args)

    def test_untaped_swin_stage_one_allocates_no_hidden_array(self):
        """Swin stage 1 at paper scale: 47040 tokens of 96 through 384
        hidden. The traced peak is the output and each thread's block of
        hidden rows, far below one [47040, 384] array (72 MB)."""
        rows, dim, hidden = 15 * 56 * 56, 96, 384
        args = [Tensor(rnd(s, 200 + i, np.float32)) for i, s in
                enumerate([(1, rows, dim), (dim, hidden), hidden, (hidden, dim), dim])]
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.mlp(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = 32  # 16 rows do 16 * 96 * 384 < 2^20 multiply-adds
        block = T.CACHE_BYTES // (unit * hidden * 4) * unit * hidden * 4
        bound = y.data.nbytes + T._runtime()[1] * (block + T._BLOCK * 4) + (1 << 20)
        assert peak < bound, f"peak {peak / 2 ** 20:.1f} MiB, bound {bound / 2 ** 20:.1f} MiB"
        assert bound < rows * hidden * 4

    def test_taped_mlp_holds_two_hidden_arrays(self):
        """Taped, the op keeps fc1's output and Phi of it: two [4096, 128]
        arrays besides its output, where the chain kept three."""
        x = Tensor(rnd((4096, 32), 205, np.float32), requires_grad=True)
        params = [Tensor(rnd(s, 206 + i, np.float32), requires_grad=True)
                  for i, s in enumerate([(32, 128), 128, (128, 32), 32])]
        tracemalloc.start()
        try:
            y = T.mlp(x, *params)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hidden_bytes = 4096 * 128 * 4
        assert y._grad_fn is not None
        assert held < y.data.nbytes + 2 * hidden_bytes + (64 << 10), \
            f"held {held / hidden_bytes:.2f} hidden arrays besides the output"


def _bits(a):
    return a.view(f"u{a.itemsize}")


def _special_values(shape, seed, dtype):
    x = rnd(shape, seed, dtype) * 3
    x.flat[::997] = np.nan
    x.flat[5::1009] = np.inf
    x.flat[7::1013] = -np.inf
    return x


@pytest.fixture
def five_threads(monkeypatch):
    """The runtime five threads wide whatever the cores, on a pool of four
    workers of its own. The real runtime starts first, so BLAS is pinned
    as in any run."""
    T._runtime()
    with ThreadPoolExecutor(4) as pool:
        monkeypatch.setattr(T, "_runtime", lambda: (pool, 5))
        yield


class TestSplitOps:
    """``_split`` itself, the runtime it starts, and ``gelu`` and
    ``maxpool3d`` (which run on the calling thread) on large inputs and
    beside concurrent splits."""

    def test_split_tiles_the_range_across_threads(self):
        n, seen = 64, []
        caller = threading.get_ident()

        def fn(r0, r1):
            seen.append((r0, r1, threading.get_ident(), np.geterr()["invalid"]))

        with np.errstate(invalid="raise"):
            T._split(n, T.POOL_MIN_BYTES, fn)
        assert {e for *_, e in seen} == {"raise"}  # the caller's numpy error state
        k = min(T._width(T.POOL_MIN_BYTES), n)
        assert k == (len(os.sched_getaffinity(0)) if T._pool else 1)
        assert sorted(r[:2] for r in seen) == [(n * i // k, n * (i + 1) // k) for i in range(k)]
        assert [r[:2] for r in seen if r[2] == caller] == [(0, n // k)]  # the rest on the pool
        seen.clear()
        T._split(n, T.POOL_MIN_BYTES - 1, fn)  # under the threshold: inline, one range
        assert seen == [(0, n, caller, np.geterr()["invalid"])]

    def test_split_runs_no_more_ranges_than_n(self, five_threads):
        seen = []
        T._split(3, T.POOL_MIN_BYTES, lambda r0, r1: seen.append((r0, r1)))
        assert sorted(seen) == [(0, 1), (1, 2), (2, 3)]

    def test_split_rows_covers_each_row_once(self, five_threads):
        """40 rows in two GEMM units of 16 (the last takes 24) on five
        threads: two calls, on disjoint rows that cover [0, 40)."""
        assert T._gemm_units(40, 1 << 20, np.float32) == (16, 2)
        seen = []
        T._split_rows(40, 1 << 20, np.float32, T.POOL_MIN_BYTES,
                      lambda r0, r1: seen.append((r0, r1)))
        assert sorted(seen) == [(0, 16), (16, 40)]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs a pool worker")
    def test_worker_exception_reaches_caller(self):
        caller = threading.get_ident()

        def fn(r0, r1):
            if threading.get_ident() != caller:
                raise ZeroDivisionError(f"range {r0}-{r1}")

        with pytest.raises(ZeroDivisionError, match="range"):
            T._split(64, T.POOL_MIN_BYTES, fn)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_gelu_bit_equals_composite_expression(self, dtype, contiguous):
        x = _special_values((40, 96, 600), 110, dtype)  # 9 or 18 MiB
        assert x.nbytes >= T.POOL_MIN_BYTES
        if not contiguous:
            x = x.transpose(2, 0, 1)
        g = rnd(x.shape, 111, dtype)
        with np.errstate(invalid="ignore"):
            want, dlocal = gelu_composite_reference(x)
            with T.no_grad():
                np.testing.assert_array_equal(_bits(T.gelu(Tensor(x)).data), _bits(want))
            xt = Tensor(x, requires_grad=True)
            y = T.gelu(xt)
            T.sum_(T.mul(y, g)).backward()
        np.testing.assert_array_equal(_bits(y.data), _bits(want))
        np.testing.assert_array_equal(_bits(xt.grad), _bits(g * dlocal))

    @pytest.mark.parametrize("window", [(1, 2, 2), (2, 2, 2), (3, 1, 2)])
    def test_split_maxpool3d_exactly_matches_routed_loop_reference(self, window):
        gen = np.random.default_rng(112)
        xd = gen.integers(0, 3, size=(5, 6, 6, 5)).astype(np.float32)  # many ties
        xd[0, 0, 0, 0] = xd[3, 1, 2, 2] = np.nan
        xd[4, 3, 2, 3] = xd[4, 3, 3, 3] = np.nan  # two NaNs in one (1, 2, 2) window
        x = Tensor(xd, requires_grad=True)
        y = T.maxpool3d(x, window)
        g = gen.normal(size=y.shape).astype(np.float32)
        T.sum_(T.mul(y, g)).backward()
        want_y, want_gx = maxpool3d_routed_reference(xd, window, g)
        assert np.isnan(want_y).any()
        np.testing.assert_array_equal(_bits(y.data), _bits(want_y))
        np.testing.assert_array_equal(_bits(x.grad), _bits(want_gx))

    def test_concurrent_callers_get_bit_equal_results(self, monkeypatch):
        """More calling threads than cores, each running its own gelu and
        maxpool3d and splitting, untaped with per-thread scratch, its own
        layer_norm, mha and conv3d over the shared pool while the
        interpreter switches threads as often as it can."""
        xg = _special_values((64, 1024), 113, np.float32)  # 256 KiB
        xm = rnd((1, 8, 8, 192, 192), 114, np.float32)  # 9 MiB
        xl, gamma, beta = (rnd(s, 115 + i, np.float32) for i, s in enumerate([(4096, 96), 96, 96]))
        xa, pa = rnd((256, 16, 32), 118, np.float32), _mha_params(32, 122, np.float32)
        masks = [np.where(rnd((1, 16, 16), 119) > 0, np.float32(0), np.float32(-np.inf)), None]
        xc, wc = rnd((1, 4, 24, 16, 16), 120, np.float32), rnd((8, 4, 3, 3, 3), 121, np.float32)
        monkeypatch.setattr(T, "CACHE_BYTES", 2 * 2 * 16 * 16 * 4)  # two windows
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 2 * 108 * 256 * 4)  # two frames

        def ops():
            with T.no_grad(), np.errstate(invalid="ignore"):
                return [T.gelu(Tensor(xg)).data, T.maxpool3d(Tensor(xm), (2, 2, 2)).data,
                        T.layer_norm(Tensor(xl), Tensor(gamma), Tensor(beta), 1e-5).data,
                        T.mha(Tensor(xa), *map(Tensor, pa), 2, mask=masks).data,
                        T.conv3d(Tensor(xc), Tensor(wc), padding=1).data]

        monkeypatch.setattr(T, "POOL_MIN_BYTES", 1 << 62)  # the wanted results: one thread
        want = ops()
        monkeypatch.setattr(T, "POOL_MIN_BYTES", 1 << 16)
        callers = 2 * len(os.sched_getaffinity(0)) + 1
        failures, done = [], []

        def call():
            try:
                for _ in range(3):
                    if not all(np.array_equal(_bits(y), _bits(w)) for y, w in zip(ops(), want)):
                        failures.append("result differs")
                done.append(1)
            except Exception as exc:  # reported by the assert below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a caller did not finish"
        assert failures == [] and len(done) == callers
        assert T._grad_enabled

    def test_untaped_gelu_peak_is_its_output(self):
        x = Tensor(rnd(1 << 22, 115, np.float32))  # 16 MiB
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.gelu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * y.data.nbytes, f"peak {peak / y.data.nbytes:.3f}x the output"

    def test_untaped_maxpool3d_builds_no_route(self):
        """No forward builds a route, taped or not: on a 16 MiB input a
        taped forward peaks within 64 KiB of an untaped one, with the same
        bits."""
        xd = rnd((1, 8, 8, 256, 256), 116, np.float32)
        xd[0, 0, 0, :2, :2] = [[np.nan, -0.0], [0.0, np.inf]]

        def pooled(taped):
            x = Tensor(xd, requires_grad=taped)
            tracemalloc.start()
            try:
                y = T.maxpool3d(x, (2, 2, 2))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return y, peak

        y_taped, taped_peak = pooled(True)
        y, peak = pooled(False)
        assert y_taped._grad_fn is not None and y._grad_fn is None
        assert taped_peak <= peak + (64 << 10), f"taped {taped_peak} against {peak}"
        np.testing.assert_array_equal(_bits(y.data), _bits(y_taped.data))

    def test_untaped_maxpool3d_peak_is_output_and_one_channel(self):
        """The call allocates its output and no work array: the peak is the
        output alone, within 64 KiB."""
        x = Tensor(rnd((1, 8, 8, 256, 256), 117, np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.maxpool3d(x, (2, 2, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = y.data.nbytes + (64 << 10)
        assert peak < bound, f"peak {peak / 2 ** 20:.3f} MiB, bound {bound / 2 ** 20:.3f} MiB"

    def test_import_starts_no_thread(self):
        code = ("import threading, vidmood.tensor as T; "
                "print(threading.active_count(), T._pool is None)")
        env = dict(os.environ, PYTHONPATH=str(Path(T.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        assert out.split() == ["1", "True"]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one core: no pool to pin for")
    def test_first_split_pins_blas_to_one_thread(self):
        """In a fresh interpreter with BLAS at two threads: importing leaves
        every OpenBLAS's thread count alone, and the first split sets each
        one to a single thread."""
        getters = [name.replace("_set_", "_get_") for name in T._BLAS_SETTERS]
        code = f"""
import ctypes, json, os, numpy, scipy.special

def counts():
    out = {{}}
    for line in open("/proc/self/maps"):
        f = line.split(maxsplit=5)
        if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower():
            lib = ctypes.CDLL(f[5].strip())
            get = next(getattr(lib, n) for n in {getters!r} if hasattr(lib, n))
            get.argtypes, get.restype = [], ctypes.c_int
            out[os.path.basename(f[5].strip())] = get()
    return out

before = counts()
import vidmood.tensor as T
imported = counts()
T._split(2, T.POOL_MIN_BYTES, lambda r0, r1: None)
print(json.dumps([before, imported, counts(), T._threads]))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(T.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="2")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        before, imported, after, threads = json.loads(out)
        assert before and set(before.values()) == {2}
        assert imported == before
        assert after == {lib: 1 for lib in before}
        assert threads == len(os.sched_getaffinity(0))

    def test_without_a_blas_setter_the_pool_stays_one_thread(self):
        """Where no OpenBLAS setter is found, splits run as one range on
        the calling thread and no pool starts."""
        code = """
import json, threading, numpy as np, vidmood.tensor as T
T._BLAS_SETTERS = ("no_such_setter",)
seen = set()
T._split(64, T.POOL_MIN_BYTES, lambda r0, r1: seen.add((r0, r1, threading.get_ident())))
print(json.dumps([sorted(seen)[0][:2], len(seen), T._threads, T._pool is None,
                  threading.active_count()]))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(T.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        assert json.loads(out) == [[0, 64], 1, 1, True, 1]

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
    def test_runtime_keeps_freed_memory(self):
        """In a fresh interpreter, a 64 MiB array allocated and filled right
        after another was freed: importing leaves it page-faulted in afresh,
        and once the runtime has started it reuses the freed pages."""
        code = """
import resource, numpy as np

def faults():
    a = np.ones(1 << 24, np.float32)  # 64 MiB
    del a
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    b = np.empty(1 << 24, np.float32)
    b.fill(1.0)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0

import vidmood.tensor as T
imported = faults()
T._split(2, T.POOL_MIN_BYTES, lambda r0, r1: None)
print(imported, faults())
"""
        env = dict(os.environ, PYTHONPATH=str(Path(T.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        imported, started = map(int, out.split())
        assert imported >= 16, f"{imported} faults: import changed the allocator"
        assert started < 8, f"{started} faults: freed memory was given back"

    def test_no_grad_belongs_to_its_thread(self):
        """Five threads enter no_grad one after another and leave in the
        same order: each sees its own setting, the others' exits do not
        turn it back on early, and all of them leave it on."""
        n = 5
        entered = [threading.Event() for _ in range(n)]
        left = [threading.Event() for _ in range(n)]
        seen, failures = [], []

        def worker(i):
            try:
                if i:
                    entered[i - 1].wait(timeout=30)
                with T.no_grad():
                    entered[i].set()
                    entered[-1].wait(timeout=30)  # all five are inside
                    if i:
                        left[i - 1].wait(timeout=30)
                    seen.append(T._grad_enabled)
                left[i].set()
                seen.append(T._grad_enabled)
            except Exception as exc:  # reported by the assert below
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and failures == []
        assert sorted(seen) == [False] * n + [True] * n
        assert T._grad_enabled
        x = Tensor(np.ones(3), requires_grad=True)
        assert T.mul(x, x)._grad_fn is not None

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one core: BLAS never threads")
    @pytest.mark.parametrize("op", ["linear", "matmul"])
    def test_weight_gradient_does_not_depend_on_earlier_splits(self, op):
        """In a fresh interpreter with BLAS at two threads, a taped linear
        (or matmul) whose x.T @ g OpenBLAS would thread gives the same
        gradients before and after an unrelated split that reaches the
        pool: BLAS is pinned before the op's first GEMM, not at the first
        split that reaches the pool."""
        code = f"""
import json, numpy as np, vidmood.tensor as T
from vidmood.tensor import Tensor
gen = np.random.default_rng(0)
x, w = gen.standard_normal((2013, 40), np.float32), gen.standard_normal((40, 56), np.float32)
g = gen.standard_normal((2013, 56), np.float32)

def grads():
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    T.sum_(T.mul(T.{op}(xt, wt), g)).backward()
    return [wt.grad.view(np.uint32).tolist(), xt.grad.view(np.uint32).tolist()]

first = grads()
T._split(2, T.POOL_MIN_BYTES, lambda r0, r1: None)
print(json.dumps(first == grads()))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(T.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="2")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        assert json.loads(out) is True

    def test_split_ranges_see_the_callers_no_grad(self):
        seen = []

        def fn(r0, r1):
            seen.append((threading.get_ident(), T._grad_enabled))

        with T.no_grad():
            T._split(64, T.POOL_MIN_BYTES, fn)
        assert {g for _, g in seen} == {False}
        if len(os.sched_getaffinity(0)) > 1:
            assert len({t for t, _ in seen}) > 1
        seen.clear()
        T._split(64, T.POOL_MIN_BYTES, fn)
        assert {g for _, g in seen} == {True}


def _inline_and_split(monkeypatch, run, splits=True):
    """``run()`` once with every op on the calling thread, once with every
    op split into ranges across the pool; returns both results. ``splits``:
    whether some op divides its work into more than one range."""
    monkeypatch.setattr(T, "POOL_MIN_BYTES", 1 << 62)
    one = run()
    monkeypatch.setattr(T, "POOL_MIN_BYTES", 0)
    split, counts = T._split, []

    def counted(n, nbytes, fn, scratch=None):
        counts.append(n)
        split(n, nbytes, fn, scratch)

    monkeypatch.setattr(T, "_split", counted)
    got = run()
    assert (max(counts) > 1) == splits, f"ranges per split: {counts}"
    return one, got


def _step(op, arrays, g, taped=True):
    """op's output and, taped, the gradient of sum(op * g) for each input."""
    ts = [Tensor(a, requires_grad=taped) for a in arrays]
    if not taped:
        with T.no_grad():
            return [op(*ts).data]
    y = op(*ts)
    T.sum_(T.mul(y, g)).backward()
    return [y.data] + [t.grad for t in ts]


def _assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(_bits(a), _bits(b))


class TestSplitFusedOps:
    """``linear``, ``layer_norm``, ``mha`` and ``conv3d`` split
    across the pool give one inline call's values and gradients bit for
    bit, and match their loop oracles."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_ragged_rows(self, monkeypatch, dtype):
        """2013 rows of 40 -> 56: in float32, forward ranges of 480 rows
        (2^20 multiply-adds), the last 573; neither width is a multiple of
        16, so every GEMM has a ragged tail. float64 GEMMs run whole."""
        x = rnd((3, 671, 40), 120, dtype)
        w, b = rnd((40, 56), 121, dtype), rnd(56, 122, dtype)
        g = rnd((3, 671, 56), 123, dtype)
        one, split = _inline_and_split(monkeypatch, lambda: _step(T.linear, (x, w, b), g),
                                       splits=dtype == np.float32)
        _assert_bits_equal(split, one)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        x2, y2 = x.reshape(-1, 40), split[0].reshape(-1, 56)
        picks = np.r_[470:490, 1430:1450, 2003:2013]  # across range boundaries
        np.testing.assert_allclose(y2[picks], linear_loop_reference(x2[picks], w, b),
                                   rtol=tol, atol=tol)
        g2 = g.reshape(-1, 56)
        for got, want in zip(split[1:], (g @ w.T, x2.T @ g2, g2.sum(axis=0))):
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    def test_layer_norm(self, monkeypatch):
        x = rnd((5, 23, 48), 124, np.float32) * 3 + 1
        gamma, beta = rnd(48, 125, np.float32), rnd(48, 126, np.float32)
        g = rnd(x.shape, 127, np.float32)

        def op(a, b, c):
            return T.layer_norm(a, b, c, 1e-5)

        one, split = _inline_and_split(monkeypatch, lambda: _step(op, (x, gamma, beta), g))
        _assert_bits_equal(split, one)
        _assert_bits_equal(_inline_and_split(monkeypatch, lambda: _step(op, (x, gamma, beta), g,
                                                                         taped=False))[1], one[:1])
        np.testing.assert_allclose(split[0], layer_norm_loop_reference(x, gamma, beta, 1e-5),
                                   rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("taped", [True, False])
    def test_attention_mask_cycles_cross_ranges(self, monkeypatch, five_threads, taped):
        """``mha`` on 21 windows under 3 masks: on five threads its
        attention runs in ranges starting at windows 0, 4, 8, 12 and 16, so
        three ranges start inside a mask cycle; chunks of three windows
        inside a range."""
        b, n, heads, dim = 21, 6, 2, 8
        xd = rnd((b, n, dim), 128, np.float32)
        pd = _mha_params(dim, 132, np.float32)
        bias = rnd((heads, n, n), 129, np.float32)
        gen = np.random.default_rng(130)
        masks = [np.where(gen.random((1, n, n)) > 0.4, np.float32(0), np.float32(-np.inf))
                 for _ in range(2)] + [None]
        g = rnd((b, n, dim), 131, np.float32)
        monkeypatch.setattr(T, "CACHE_BYTES", 3 * heads * n * n * 4)

        def op(x, *p):
            return T.mha(x, *p[:4], heads, mask=masks, bias=p[4])

        one, split = _inline_and_split(monkeypatch, lambda: _step(op, (xd, *pd, bias), g, taped))
        _assert_bits_equal(split, one)
        want = mha_loop_reference(*(a.astype(np.float64) for a in (xd, *pd)), heads, mask=masks,
                                  bias=bias.astype(np.float64))
        np.testing.assert_allclose(split[0], want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("taped", [True, False])
    def test_conv3d_ragged_last_chunk(self, monkeypatch, taped):
        """13 output frames of 16 x 16 in chunks of four (the last holds
        one), each chunk cut into pieces of two frames (2^20
        multiply-adds); the backward GEMMs split the chunks' 270 column
        rows as 128 + 142."""
        xd = rnd((2, 10, 13, 16, 16), 132, np.float32)
        wd, bd = rnd((8, 10, 3, 3, 3), 133, np.float32), rnd(8, 134, np.float32)
        g = rnd((2, 8, 13, 16, 16), 135, np.float32)
        frame_bytes = 2 * 270 * 256 * 4
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 4 * frame_bytes)
        assert list(T._row_chunks(13, frame_bytes, 4 * frame_bytes))[-1] == (12, 13)

        def op(x, w, b):
            return T.conv3d(x, w, b, stride=1, padding=1)

        one, split = _inline_and_split(monkeypatch, lambda: _step(op, (xd, wd, bd), g, taped))
        _assert_bits_equal(split, one)
        for i in range(2):
            want = conv3d_reference(xd[i], wd, bd, (1, 1, 1), (1, 1, 1))
            np.testing.assert_allclose(split[0][i], want, rtol=1e-4, atol=1e-4)
        if taped:
            gx, gw, gb = zip(*(conv3d_grads_reference(xd[i], wd, g[i], (1, 1, 1), (1, 1, 1))
                               for i in range(2)))
            np.testing.assert_allclose(split[1], np.stack(gx), rtol=1e-4, atol=1e-3)
            np.testing.assert_allclose(split[2], sum(gw), rtol=1e-4, atol=1e-3)
            np.testing.assert_allclose(split[3], sum(gb), rtol=1e-4, atol=1e-3)

    @pytest.mark.parametrize("taped", [True, False])
    def test_conv3d_frames_off_the_kernel_width(self, monkeypatch, taped):
        """45 output frames of 6 x 6 (36 positions, not a multiple of 16) in
        chunks of 27 and 18 frames: each chunk's pieces start on multiples
        of 4 frames (144 positions) and hold at least 2^20 multiply-adds,
        20 frames here, so the split output is the one GEMM per chunk that
        runs when nothing splits, bit for bit."""
        xd = rnd((1, 4, 45, 6, 6), 150, np.float32)
        wd, bd = rnd((16, 4, 3, 3, 3), 151, np.float32), rnd(16, 152, np.float32)
        g = rnd((1, 16, 45, 6, 6), 153, np.float32)
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 27 * 108 * 36 * 4)

        def op(x, w, b):
            return T.conv3d(x, w, b, stride=1, padding=1)

        one, split = _inline_and_split(monkeypatch, lambda: _step(op, (xd, wd, bd), g, taped))
        _assert_bits_equal(split, one)
        want = conv3d_reference(xd[0], wd, bd, (1, 1, 1), (1, 1, 1))
        np.testing.assert_allclose(split[0][0], want, rtol=1e-4, atol=1e-4)

    def test_conv3d_batch_rows_strided_ragged_chunk(self, monkeypatch):
        """As many batch rows as threads and one more, so each thread
        builds whole rows' columns in backward: stride (1, 2, 2) gives 9
        output frames of 8 x 8, in chunks of four (the last holds one).
        Each row's output and input gradient are also those of that row
        alone, where one row is fewer than the threads."""
        b = T._runtime()[1] + 1
        xd = rnd((b, 6, 9, 16, 16), 154, np.float32)
        wd, bd = rnd((8, 6, 3, 3, 3), 155, np.float32), rnd(8, 156, np.float32)
        g = rnd((b, 8, 9, 8, 8), 157, np.float32)
        frame_bytes = b * 162 * 64 * 4
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 4 * frame_bytes)
        assert list(T._row_chunks(9, frame_bytes, 4 * frame_bytes))[-1] == (8, 9)

        def op(x, w, bias):
            return T.conv3d(x, w, bias, stride=(1, 2, 2), padding=1)

        one, split = _inline_and_split(monkeypatch, lambda: _step(op, (xd, wd, bd), g))
        _assert_bits_equal(split, one)
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 4 * frame_bytes // b)  # the same chunks
        for i in range(b):
            row = _step(op, (xd[i:i + 1], wd, bd), g[i:i + 1])
            _assert_bits_equal([split[0][i], split[1][i]], [row[0][0], row[1][0]])
        gx, gw, gb = zip(*(conv3d_grads_reference(xd[i], wd, g[i], (1, 2, 2), (1, 1, 1))
                           for i in range(b)))
        np.testing.assert_allclose(split[1], np.stack(gx), rtol=1e-4, atol=1e-3)
        np.testing.assert_allclose(split[2], sum(gw), rtol=1e-4, atol=1e-3)
        np.testing.assert_allclose(split[3], sum(gb), rtol=1e-4, atol=1e-3)

    def test_relu(self):
        """NaN passes through, +inf stays, -inf gives 0, and the gradient
        is g where x > 0 and 0 elsewhere."""
        x = _special_values((7, 9, 31), 136, np.float32)
        g = rnd(x.shape, 137, np.float32)
        with np.errstate(invalid="ignore"):
            got = _step(T.relu, (x,), g)
            want = np.where(np.isnan(x), x, np.where(x > 0, x, 0))
            _assert_bits_equal(got, [want, np.zeros_like(x) + g * (x > 0).astype(x.dtype)])

    @pytest.mark.parametrize("name", ["linear", "layer_norm", "mha"])
    def test_untaped_split_peak_is_output_and_scratch(self, monkeypatch, name):
        """Split without the tape, the traced peak is the output plus the
        per-thread scratch: no range allocates a large temporary."""
        monkeypatch.setattr(T, "POOL_MIN_BYTES", 0)
        threads = T._runtime()[1]
        if name == "linear":
            args = (rnd((4000, 64), 138, np.float32), rnd((64, 256), 139, np.float32),
                    rnd(256, 140, np.float32))
            run, scratch = T.linear, 0
        elif name == "layer_norm":
            args = (rnd((4000, 256), 141, np.float32), rnd(256, 142, np.float32),
                    rnd(256, 143, np.float32))
            run = lambda x, ga, be: T.layer_norm(x, ga, be, 1e-5)  # noqa: E731
            scratch = threads * (T._BLOCK // 256) * 256 * 4 + 4000 * 4  # blocks and std
        else:
            monkeypatch.setattr(T, "CACHE_BYTES", 4 * 4 * 64 * 64 * 4)  # 4 windows
            args = (rnd((64, 64, 64), 144, np.float32), *_mha_params(64, 145, np.float32))
            run = lambda x, *p: T.mha(x, *p, 4)  # noqa: E731
            # the qkv GEMM's unit is 96 rows, so chunks of 3 windows and a last one of 4,
            # whose qkv and merged heads the op holds beside the logits
            scratch = threads * T.CACHE_BYTES + 4 * 64 * 4 * 64 * 4
        ts = [Tensor(a) for a in args]
        tracemalloc.start()
        try:
            with T.no_grad():
                y = run(*ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 1.3 * (y.data.nbytes + scratch)
        assert peak < bound, f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"


# -- property-based invariants ---------------------------------------------------


@st.composite
def broadcastable_pair(draw):
    base = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    other = [draw(st.sampled_from([d, 1])) for d in base]
    if draw(st.booleans()) and len(other) > 1:
        other = other[draw(st.integers(1, len(other) - 1)):]
    return tuple(base), tuple(other)


class TestProperties:
    @given(broadcastable_pair(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_broadcast_binary_grads_match_fd(self, shapes, seed):
        sa, sb = shapes
        gen = np.random.default_rng(seed)
        a = Tensor(gen.normal(size=sa) + 3.0, requires_grad=True)
        b = Tensor(gen.normal(size=sb) + 3.0, requires_grad=True)
        wt = gen.normal(size=np.broadcast_shapes(sa, sb))
        for kind in ("add", "mul", "div"):
            a.zero_grad(); b.zero_grad()
            res = gradcheck(lambda k=kind: T.sum_(T.mul(BINARY_OPS[k](a, b), wt)),
                            {"a": a, "b": b})
            assert res.passed, f"{kind} {sa}x{sb}: {res}"

    @given(st.integers(1, 5), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_softmax_rows_sum_to_one(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(size=(rows, cols)) * 10
        y = T.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, rtol=1e-10)
        assert np.all(y >= 0)

    @given(st.integers(1, 4), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_masked_softmax_zero_where_excluded(self, rows, cols, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(rows, cols)) * 5
        mask = gen.random((rows, cols)) > 0.4
        y = T.softmax(Tensor(x), axis=-1, mask=mask).data
        assert np.all(y[~mask] == 0.0)
        sums = y.sum(axis=-1)
        has_any = mask.any(axis=-1)
        np.testing.assert_allclose(sums[has_any], 1.0, rtol=1e-10)
        assert np.all(sums[~has_any] == 0.0)

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_transpose_reshape_round_trip(self, shape, seed):
        x = np.random.default_rng(seed).normal(size=tuple(shape))
        perm = tuple(np.random.default_rng(seed + 1).permutation(len(shape)))
        t = T.transpose(Tensor(x), perm)
        back = T.transpose(t, tuple(np.argsort(perm)))
        np.testing.assert_array_equal(back.data, x)
        r = T.reshape(Tensor(x), (-1,))
        np.testing.assert_array_equal(r.data.reshape(x.shape), x)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(3, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_conv3d_random_shapes_match_oracle(self, cin, cout, side, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(cin, 3, side, side))
        w = gen.normal(size=(cout, cin, 2, 2, 2))
        got = T.conv3d(Tensor(x), Tensor(w), stride=1, padding=0).data
        np.testing.assert_allclose(got, conv3d_reference(x, w, None, (1, 1, 1), (0, 0, 0)),
                                   rtol=1e-9, atol=1e-11)


# -- public surface -------------------------------------------------------------


def test_every_public_op_is_used_beyond_its_unit_tests():
    """Each name in ``__all__`` is used, as ``T.<name>``, ``tensor.<name>``
    or an import from ``vidmood.tensor``, by another module of the package,
    ``scripts/``, ``perfbench/`` or the acceptance tests: a public op that
    only its own unit tests reach is code to delete. Comments and
    docstrings do not count."""
    root = Path(__file__).resolve().parents[1]
    engine = root / "src" / "vidmood" / "tensor.py"
    files = [p for p in (root / "src").rglob("*.py") if p != engine]
    files += [*(root / "scripts").rglob("*.py"), *(root / "perfbench").rglob("*.py"),
              root / "tests" / "test_acceptance.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("T", "tensor")):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (
                    node.module == "vidmood.tensor" or (node.level and node.module == "tensor")):
                used.update(alias.name for alias in node.names)
    assert sorted(set(T.__all__) - used) == []
