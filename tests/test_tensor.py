"""Engine correctness against independent oracles.

Forward values are checked against nested-loop / direct-formula
reimplementations; gradients against central finite differences in
float64.
"""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidmood import tensor as T
from vidmood.gradcheck import gradcheck
from vidmood.tensor import NumericError, ShapeError, Tensor

from reference import (conv3d_grads_reference, conv3d_reference, gelu_composite_reference,
                       layer_norm_loop_reference, linear_loop_reference,
                       maxpool3d_routed_reference, packed_attention_loop_reference)


UNARY_OPS = {"relu": T.relu, "sigmoid": T.sigmoid, "tanh": T.tanh, "exp": T.exp, "neg": T.neg}
BINARY_OPS = {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div}


def rnd(shape, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).normal(size=shape).astype(dtype)


# -- forward oracles ---------------------------------------------------------


def matmul_reference(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m), dtype=a.dtype)
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def softmax_reference(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def conv3d_reference(x, w, b, stride, pad):
    st, sh, sw = stride
    xp = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1]), (pad[2], pad[2])))
    o_ch, _, kt, kh, kw = w.shape
    ot = (xp.shape[1] - kt) // st + 1
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    out = np.zeros((o_ch, ot, oh, ow), dtype=x.dtype)
    for o in range(o_ch):
        for it in range(ot):
            for ih in range(oh):
                for iw in range(ow):
                    patch = xp[:, it * st:it * st + kt, ih * sh:ih * sh + kh, iw * sw:iw * sw + kw]
                    out[o, it, ih, iw] = np.sum(patch * w[o]) + (b[o] if b is not None else 0.0)
    return out


def maxpool3d_reference(x, window):
    pt, ph, pw = window
    c, t, h, w = x.shape
    ot, oh, ow = t // pt, h // ph, w // pw
    out = np.zeros((c, ot, oh, ow), dtype=x.dtype)
    for ci in range(c):
        for it in range(ot):
            for ih in range(oh):
                for iw in range(ow):
                    out[ci, it, ih, iw] = x[ci, it * pt:(it + 1) * pt,
                                            ih * ph:(ih + 1) * ph,
                                            iw * pw:(iw + 1) * pw].max()
    return out


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

    def test_layer_norm_grads(self):
        x = Tensor(rnd((2, 3, 6), 64) * 3 + 1, requires_grad=True)
        gamma = Tensor(rnd((6,), 65), requires_grad=True)
        beta = Tensor(rnd((6,), 66), requires_grad=True)
        wt = rnd((2, 3, 6), 67)
        check(lambda: T.sum_(T.mul(T.layer_norm(x, gamma, beta, 1e-5), wt)),
              {"x": x, "gamma": gamma, "beta": beta})

    def test_attention_grads_with_mask_and_bias(self):
        qkv = Tensor(rnd((4, 5, 12), 68), requires_grad=True)  # 2 heads of width 2
        bias = Tensor(rnd((2, 5, 5), 69), requires_grad=True)
        masks = _attention_masks(5)
        wt = rnd((4, 5, 4), 70)
        check(lambda: T.sum_(T.mul(T.attention(qkv, 2, mask=masks, bias=bias), wt)),
              {"qkv": qkv, "bias": bias})
        check(lambda: T.sum_(T.mul(T.attention(qkv, 2), wt)), {"qkv": qkv})


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

    def test_attention_matches_loop_reference(self):
        qkv, bias = rnd((4, 5, 18), 86), rnd((3, 5, 5), 87)
        masks = _attention_masks(5)
        got = T.attention(Tensor(qkv), 3, mask=masks, bias=Tensor(bias)).data
        want = packed_attention_loop_reference(qkv, 3, mask=masks, bias=bias)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

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

        qkv = T.linear(Tensor(x), Tensor(w), Tensor(b))
        bias = Tensor(rnd((3, 7, 7), 93, np.float32))
        allowed = np.random.default_rng(94).random((2, 1, 7, 7)) > 0.3
        split = T.transpose(T.reshape(qkv, (2, 7, 3, 3, 2)), (2, 0, 3, 1, 4))
        q, k, v = split[0], split[1], split[2]
        logits = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(2.0))
        probs = T.softmax(T.add(logits, bias), axis=-1, mask=allowed)
        composite = T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), (2, 7, 6))
        got = T.attention(qkv, 3, mask=np.where(allowed, np.float32(0), np.float32(-np.inf)),
                          bias=bias)
        np.testing.assert_array_equal(got.data, composite.data)

    @pytest.mark.parametrize("taped", [True, False])
    def test_attention_chunks_bit_equal_single_chunk(self, monkeypatch, taped):
        """Eight batch rows in chunks of three (3 + 3 + a ragged 2) against
        one chunk: same output and qkv gradient bit for bit. Query 0 of the
        masked rows has every key excluded and must come out exactly zero;
        a masked pair's value must have exactly zero weight."""
        b, n, heads = 8, 6, 2
        qkv = rnd((b, n, 3 * heads * 4), 95, np.float32)
        bias = Tensor(rnd((heads, n, n), 96, np.float32), requires_grad=True)
        masks = [m if m is None else m.astype(np.float32) for m in _attention_masks(n, 97)]
        g = rnd((b, n, heads * 4), 98, np.float32)

        def run(chunk_bytes, values):
            monkeypatch.setattr(T, "ATTN_CHUNK_BYTES", chunk_bytes)
            x = Tensor(values, requires_grad=taped)
            if not taped:
                with T.no_grad():
                    return T.attention(x, heads, mask=masks, bias=bias).data, None
            out = T.attention(x, heads, mask=masks, bias=bias)
            T.sum_(T.mul(out, g)).backward()
            return out.data, x.grad

        row_bytes = heads * n * n * 4
        one_out, one_grad = run(b * row_bytes, qkv)
        out, grad = run(3 * row_bytes, qkv)
        assert list(T._row_chunks(b, row_bytes)) == [(0, 3), (3, 6), (6, 8)]
        np.testing.assert_array_equal(out, one_out)
        if taped:
            np.testing.assert_array_equal(grad, one_grad)

        masked_rows = out[0::2]  # rows using the first mask
        assert np.all(masked_rows[:, 0] == 0.0)
        allowed = masks[0][0] == 0
        i, j = next((i, j) for i in range(1, n) for j in range(n) if not allowed[i, j])
        bumped = qkv.copy()
        bumped[:, j, 2 * heads * 4:] += 100.0  # value of key j in every head and row
        out2, _ = run(3 * row_bytes, bumped)
        np.testing.assert_array_equal(out2[0::2, i], out[0::2, i])
        assert np.all(out2[1::2, i] != out[1::2, i])  # unmasked rows do see it

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(rnd((2, 3), 1)), Tensor(rnd((4, 5), 2)))
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(rnd((2, 3), 3)), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
        with pytest.raises(ShapeError):
            T.attention(Tensor(rnd((2, 3, 10), 4)), 2)
        with pytest.raises(ShapeError):  # 3 batch rows, 2 masks
            T.attention(Tensor(rnd((3, 5, 12), 5)), 2, mask=_attention_masks(5))


class TestConvChunks:
    @pytest.mark.parametrize("shape, stride, pad", [
        ((2, 3, 5, 8, 8), (1, 1, 1), (1, 1, 1)),  # 5 frames as 2 + 2 + a ragged 1
        ((2, 2, 9, 8, 8), (2, 1, 1), (1, 1, 1)),  # stride 2 along T: 5 frames
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
        is the output, the padded input and one chunk's column."""
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
        padded_bytes = 4 * 18 * 34 * 34 * 4
        bound = y.data.nbytes + padded_bytes + 2 * frame_bytes + (1 << 18)
        assert peak < bound, \
            f"peak {peak / 2 ** 20:.2f} MiB, whole column {16 * frame_bytes / 2 ** 20:.2f} MiB"


def _bits(a):
    return a.view(f"u{a.itemsize}")


def _special_values(shape, seed, dtype):
    x = rnd(shape, seed, dtype) * 3
    x.flat[::997] = np.nan
    x.flat[5::1009] = np.inf
    x.flat[7::1013] = -np.inf
    return x


class TestSplitOps:
    """``gelu`` and ``maxpool3d`` on inputs that ``_split`` divides into
    ranges run on several threads."""

    def test_split_tiles_the_range_across_threads(self):
        n, seen = 64, []
        caller = threading.get_ident()

        def fn(r0, r1):
            seen.append((r0, r1, threading.get_ident(), np.geterr()["invalid"]))
            time.sleep(0.002)  # long enough that a pool worker takes some ranges

        with np.errstate(invalid="raise"):
            T._split(n, T.POOL_MIN_BYTES, fn)
        assert {e for *_, e in seen} == {"raise"}  # the caller's numpy error state
        ranges = sorted((r0, r1) for r0, r1, *_ in seen)
        assert ranges[0][0] == 0 and ranges[-1][1] == n and len(ranges) > 1
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        threads = {t for _, _, t, _ in seen}
        assert caller in threads
        if len(os.sched_getaffinity(0)) > 1:
            assert len(threads) > 1
        seen.clear()
        T._split(n, T.POOL_MIN_BYTES - 1, fn)  # under the threshold: inline, one range
        assert seen == [(0, n, caller, np.geterr()["invalid"])]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs a pool worker")
    def test_worker_exception_reaches_caller(self):
        caller = threading.get_ident()

        def fn(r0, r1):
            if threading.get_ident() == caller:
                time.sleep(0.01)  # leaves the other ranges to the workers
            else:
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
    def test_split_maxpool3d_exactly_matches_routed_loop_reference(self, monkeypatch, window):
        monkeypatch.setattr(T, "POOL_MIN_BYTES", 0)  # one range per channel
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
        """More calling threads than cores, each splitting its own gelu,
        maxpool3d and, untaped with per-thread scratch, layer_norm,
        attention and conv3d over the shared pool while the interpreter
        switches threads as often as it can."""
        xg = _special_values((64, 1024), 113, np.float32)  # 256 KiB
        xm = rnd((1, 8, 8, 192, 192), 114, np.float32)  # 9 MiB
        xl, gamma, beta = (rnd(s, 115 + i, np.float32) for i, s in enumerate([(4096, 96), 96, 96]))
        qkv = rnd((256, 16, 96), 118, np.float32)
        masks = [np.where(rnd((1, 16, 16), 119) > 0, np.float32(0), np.float32(-np.inf)), None]
        xc, wc = rnd((1, 4, 24, 16, 16), 120, np.float32), rnd((8, 4, 3, 3, 3), 121, np.float32)
        monkeypatch.setattr(T, "ATTN_CHUNK_BYTES", 2 * 2 * 16 * 16 * 4)  # two windows
        monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 2 * 108 * 256 * 4)  # two frames

        def ops():
            with T.no_grad(), np.errstate(invalid="ignore"):
                return [T.gelu(Tensor(xg)).data, T.maxpool3d(Tensor(xm), (2, 2, 2)).data,
                        T.layer_norm(Tensor(xl), Tensor(gamma), Tensor(beta), 1e-5).data,
                        T.attention(Tensor(qkv), 2, mask=masks).data,
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
        x = Tensor(rnd(1 << 22, 115, np.float32))  # 16 MiB, split
        tracemalloc.start()
        try:
            with T.no_grad():
                y = T.gelu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * y.data.nbytes, f"peak {peak / y.data.nbytes:.3f}x the output"

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
        gradients before and after an unrelated large split: BLAS is
        pinned before the op's first GEMM, not at the first split that
        reaches the pool."""
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
T.relu(Tensor(np.ones(T.POOL_MIN_BYTES // 4, np.float32)))
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
            time.sleep(0.002)  # long enough that a pool worker takes some ranges

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
    """``linear``, ``layer_norm``, ``attention``, ``conv3d`` and ``relu``
    split across the pool give one inline call's values and gradients bit
    for bit, and match their loop oracles."""

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
    def test_attention_mask_cycles_cross_ranges(self, monkeypatch, taped):
        """21 windows under 3 masks, in ranges of two windows, so most
        ranges start inside a mask cycle; chunks of three windows inside a
        range."""
        b, n, heads = 21, 6, 2
        qkv = rnd((b, n, 3 * heads * 4), 128, np.float32)
        bias = rnd((heads, n, n), 129, np.float32)
        gen = np.random.default_rng(130)
        masks = [np.where(gen.random((1, n, n)) > 0.4, np.float32(0), np.float32(-np.inf))
                 for _ in range(2)] + [None]
        g = rnd((b, n, heads * 4), 131, np.float32)
        monkeypatch.setattr(T, "ATTN_CHUNK_BYTES", 3 * heads * n * n * 4)

        def op(a, c):
            return T.attention(a, heads, mask=masks, bias=c)

        one, split = _inline_and_split(monkeypatch, lambda: _step(op, (qkv, bias), g, taped))
        _assert_bits_equal(split, one)
        want = packed_attention_loop_reference(qkv.astype(np.float64), heads, mask=masks,
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

    def test_relu(self, monkeypatch):
        x = _special_values((7, 9, 31), 136, np.float32)
        g = rnd(x.shape, 137, np.float32)
        with np.errstate(invalid="ignore"):
            one, split = _inline_and_split(monkeypatch, lambda: _step(T.relu, (x,), g))
            want = np.where(np.isnan(x), x, np.where(x > 0, x, 0))
            _assert_bits_equal(split, one)
            _assert_bits_equal(split, [want, np.zeros_like(x) + g * (x > 0).astype(x.dtype)])

    @pytest.mark.parametrize("name", ["linear", "layer_norm", "attention"])
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
            monkeypatch.setattr(T, "ATTN_CHUNK_BYTES", 4 * 4 * 64 * 64 * 4)  # 4 windows
            args = (rnd((64, 64, 3 * 64), 144, np.float32),)
            run = lambda qkv: T.attention(qkv, 4)  # noqa: E731
            scratch = threads * T.ATTN_CHUNK_BYTES
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
