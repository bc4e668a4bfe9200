import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vidmood import tensor as T
from vidmood.models.cnn_lstm import (attention_pool, CnnLstmConfig, CnnLstmModel,
                                     ConvBlock, LstmCell)
from vidmood.tensor import ShapeError, Tensor

from reference import cast_params, conv3d_reference, maxpool3d_reference


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# -- conv block ---------------------------------------------------------------


def test_conv_block_matches_loop_reference():
    rng = np.random.default_rng(0)
    blk = cast_params(ConvBlock(2, 3, rng))
    x = rng.normal(size=(1, 2, 4, 6, 6))
    out = blk(T.tensor(x)).data

    conv = conv3d_reference(x[0], blk.kernel.data, blk.bias.data, (1, 1, 1), (1, 1, 1))
    want = maxpool3d_reference(np.maximum(conv, 0.0), (1, 2, 2))
    np.testing.assert_allclose(out[0], want, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_block_is_bitwise_conv_relu_pool(dtype):
    """The fused block (pool, then ReLU in place) gives the output and the
    x, kernel and bias gradients of conv -> ReLU -> pool bit for bit, as
    one tape node, on a c07-sized batch
    whose quarter-step values make pool windows tie and leave some windows
    all <= 0."""
    rng = np.random.default_rng(3)
    blk = ConvBlock(3, 8, rng)
    blk.kernel.data = (rng.integers(-2, 3, blk.kernel.shape) / 4).astype(dtype)
    blk.bias.data = (rng.integers(-4, 3, blk.bias.shape) / 4).astype(dtype)
    x = (rng.integers(-2, 3, (8, 3, 16, 32, 32)) / 4).astype(dtype)
    g = rng.normal(size=(8, 8, 16, 16, 16)).astype(dtype)

    def conv(xt):
        return T.conv3d(xt, blk.kernel, blk.bias, stride=1, padding=1)

    def run(forward):
        xt = Tensor(x, requires_grad=True)
        blk.zero_grad()
        y = forward(xt)
        T.sum_(T.mul(y, g)).backward()
        return [y.data, xt.grad, blk.kernel.grad, blk.bias.grad]

    got = run(blk)
    y = blk(Tensor(x, requires_grad=True))
    assert [p._grad_fn for p in y._parents] == [None] * 3  # one node: x, kernel and bias
    want = run(lambda xt: T.maxpool3d(T.relu(conv(xt)), (1, 2, 2)))
    for a, b in zip(got, want):
        assert a.dtype == dtype
        np.testing.assert_array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))

    with T.no_grad():
        windows = conv(Tensor(x)).data
    windows = windows.reshape(8, 8, 16, 16, 2, 16, 2).transpose(0, 1, 2, 3, 5, 4, 6)
    windows = windows.reshape(*windows.shape[:5], 4)
    top = windows.max(axis=-1)
    assert ((windows == top[..., None]).sum(axis=-1) > 1)[top > 0].any()  # positive ties
    assert (top <= 0).mean() > 0.05  # windows the ReLU zeroes


def test_untaped_conv_block_allocates_no_second_pooled_array():
    """Untaped, a block's peak is its pooled output plus one piece's column
    and GEMM output: the ReLU runs in place on the pooled pieces, with no
    second pooled-size array (a ReLU copy peaked at two pooled outputs).
    One input channel and 128 output channels make the pooled output three
    times the column scratch; the column is under ``POOL_MIN_BYTES``, so
    one thread runs it."""
    rng = np.random.default_rng(4)
    blk = ConvBlock(1, 128, rng)
    x = Tensor(rng.random((1, 1, 16, 32, 32), dtype=np.float32))
    with T.no_grad():
        blk(x)  # fills the tap caches
        tracemalloc.start()
        try:
            y = blk(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    scratch = (27 + 128) * 32 * 32 * 4  # one frame's column and GEMM output
    bound = y.data.nbytes + scratch + (256 << 10)
    assert bound < 2 * y.data.nbytes
    assert peak < bound, f"peak {peak / 2 ** 20:.2f} MiB, bound {bound / 2 ** 20:.2f} MiB"


def test_conv_block_preserves_time_halves_space():
    blk = ConvBlock(3, 8, np.random.default_rng(1))
    out = blk(T.zeros((2, 3, 5, 16, 12)))
    assert out.shape == (2, 8, 5, 8, 6)


# -- lstm cell ----------------------------------------------------------------


def test_lstm_step_matches_scalar_evaluation():
    rng = np.random.default_rng(2)
    cell = cast_params(LstmCell(2, 2, rng))
    x = rng.normal(size=(1, 2))
    h0 = rng.normal(size=(1, 2))
    c0 = rng.normal(size=(1, 2))
    h1, c1 = cell.step(T.tensor(x), T.tensor(h0), T.tensor(c0))

    def gate(k, squash):
        cols = slice(2 * k, 2 * k + 2)  # gate k's column block, hidden = 2
        pre = x[0] @ cell.w.data[:, cols] + h0[0] @ cell.u.data[:, cols] + cell.b.data[cols]
        return squash(pre)

    f = gate(0, _sigmoid)
    i = gate(1, _sigmoid)
    g = gate(2, np.tanh)
    o = gate(3, _sigmoid)
    c_want = f * c0[0] + i * g
    h_want = o * np.tanh(c_want)
    np.testing.assert_allclose(c1.data[0], c_want, atol=1e-12)
    np.testing.assert_allclose(h1.data[0], h_want, atol=1e-12)


def test_lstm_gate_blocks_keep_per_gate_draw_order():
    # gates forget, input, candidate, output; each draws its input matrix, then its recurrent one
    cell = LstmCell(3, 4, np.random.default_rng(16))
    rng = np.random.default_rng(16)
    bound = 1.0 / math.sqrt(4)
    for k in range(4):
        cols = slice(4 * k, 4 * k + 4)
        w = rng.uniform(-bound, bound, (3, 4)).astype(np.float32)
        u = rng.uniform(-bound, bound, (4, 4)).astype(np.float32)
        np.testing.assert_array_equal(cell.w.data[:, cols], w)
        np.testing.assert_array_equal(cell.u.data[:, cols], u)
    assert [(n, p.shape) for n, p in cell.named_parameters()] == [
        ("w", (3, 16)), ("u", (4, 16)), ("b", (16,))]
    assert not cell.b.data.any()


def test_lstm_step_zero_weights_halves_cell_state():
    cell = LstmCell(3, 4, np.random.default_rng(3))
    for _, p in cell.named_parameters():
        p.data = np.zeros_like(p.data)
    c0 = np.array([[1.0, -2.0, 0.5, 4.0]], dtype=np.float64)
    h1, c1 = cell.step(T.zeros((1, 3), dtype=np.float64),
                       T.zeros((1, 4), dtype=np.float64), T.tensor(c0))
    # all gates sit at sigmoid(0)=0.5 and the candidate at tanh(0)=0
    np.testing.assert_allclose(c1.data, 0.5 * c0, atol=1e-15)
    np.testing.assert_allclose(h1.data, 0.5 * np.tanh(0.5 * c0), atol=1e-15)


def test_lstm_forward_equals_manual_unroll():
    rng = np.random.default_rng(4)
    cell = LstmCell(3, 5, rng)
    xs = rng.normal(size=(2, 7, 3)).astype(np.float32)
    hs = cell(T.tensor(xs)).data

    h = T.zeros((2, 5))
    c = T.zeros((2, 5))
    for t in range(7):
        h, c = cell.step(T.tensor(xs[:, t]), h, c)
        np.testing.assert_array_equal(hs[:, t], h.data)


def test_lstm_hidden_state_stays_bounded():
    rng = np.random.default_rng(5)
    cell = LstmCell(4, 8, rng)
    xs = rng.normal(size=(1, 300, 4)).astype(np.float32) * 3.0
    hs = cell(T.tensor(xs)).data
    assert np.all(np.isfinite(hs))
    assert np.max(np.abs(hs)) <= 1.0  # h = o * tanh(c), both factors in (-1, 1)


# -- attention pooling --------------------------------------------------------


def test_attention_pool_matches_direct_formula():
    rng = np.random.default_rng(6)
    hs = rng.normal(size=(2, 5, 4))
    w = rng.normal(size=(4, 1))
    b = rng.normal(size=(1,))
    got = attention_pool(T.tensor(hs), T.tensor(w), T.tensor(b)).data

    e = np.tanh(hs @ w + b)  # [2, 5, 1]
    alpha = np.exp(e - e.max(axis=1, keepdims=True))
    alpha = alpha / alpha.sum(axis=1, keepdims=True)
    want = (alpha * hs).sum(axis=1)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_attention_pool_single_step_is_identity():
    rng = np.random.default_rng(7)
    hs = rng.normal(size=(3, 1, 6))
    w = rng.normal(size=(6, 1))
    b = rng.normal(size=(1,))
    out = attention_pool(T.tensor(hs), T.tensor(w), T.tensor(b)).data
    np.testing.assert_array_equal(out, hs[:, 0])


def test_attention_pool_identical_steps_average_uniformly():
    rng = np.random.default_rng(8)
    h = rng.normal(size=(1, 1, 4))
    hs = np.tile(h, (1, 6, 1))
    w = rng.normal(size=(4, 1))
    b = rng.normal(size=(1,))
    out = attention_pool(T.tensor(hs), T.tensor(w), T.tensor(b)).data
    np.testing.assert_allclose(out, h[:, 0], atol=1e-12)


def test_attention_pool_permutation_invariant():
    rng = np.random.default_rng(9)
    hs = rng.normal(size=(1, 8, 4))
    w = rng.normal(size=(4, 1))
    b = rng.normal(size=(1,))
    base = attention_pool(T.tensor(hs), T.tensor(w), T.tensor(b)).data
    perm = rng.permutation(8)
    out = attention_pool(T.tensor(hs[:, perm]), T.tensor(w), T.tensor(b)).data
    np.testing.assert_allclose(out, base, atol=1e-12)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(10)
    hs = rng.normal(size=(2, 5, 3))
    w = rng.normal(size=(3, 1))
    b = rng.normal(size=(1,))
    e = T.tanh(T.add(T.matmul(T.tensor(hs), T.tensor(w)), T.tensor(b)))
    alpha = T.softmax(e, axis=1).data
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


# -- full model ---------------------------------------------------------------


TINY = dict(input_shape=(8, 16, 16, 3), channels=(4, 8), proj_dim=32, hidden=16)


def _tiny_model(seed=0, **overrides):
    cfg = CnnLstmConfig(**{**TINY, **overrides})
    return CnnLstmModel(cfg, np.random.default_rng(seed))


def test_model_logit_shapes():
    model = _tiny_model()
    rng = np.random.default_rng(11)
    clip = rng.normal(size=(8, 16, 16, 3)).astype(np.float32)
    assert model(T.tensor(clip[None])).shape == (1, 2)
    assert model(T.tensor(np.stack([clip, clip, clip]))).shape == (3, 2)


def test_model_feature_dim_arithmetic():
    # two pools quarter each spatial side: 8 channels * 4 * 4
    model = _tiny_model()
    assert model.feat_dim == 8 * 4 * 4

    big = CnnLstmConfig()  # three pools on 224x224 -> 28x28 at 128 channels
    rng = np.random.default_rng(12)
    shrink = 2 ** len(big.channels)
    assert big.input_shape[1] // shrink == 28
    assert big.channels[-1] * 28 * 28 == 100352


def test_model_batch_rows_match_single_forward():
    model = _tiny_model()
    rng = np.random.default_rng(13)
    clips = rng.normal(size=(2, 8, 16, 16, 3)).astype(np.float32)
    batch = model(T.tensor(clips)).data
    for i in range(2):
        row = model(T.tensor(clips[i:i + 1])).data
        np.testing.assert_allclose(batch[i], row[0], atol=1e-5)


def test_model_deterministic():
    rng = np.random.default_rng(14)
    clip = rng.normal(size=(1, 8, 16, 16, 3)).astype(np.float32)
    a = _tiny_model(seed=9)(T.tensor(clip)).data
    b = _tiny_model(seed=9)(T.tensor(clip)).data
    np.testing.assert_array_equal(a, b)


def test_model_rejects_wrong_input_shape():
    model = _tiny_model()
    with pytest.raises(ShapeError):
        model(T.zeros((1, 8, 16, 20, 3)))


def test_model_rejects_unbatched_clip():
    with pytest.raises(ShapeError):
        _tiny_model()(T.zeros((8, 16, 16, 3)))


def test_model_grad_reaches_every_parameter():
    model = _tiny_model()
    rng = np.random.default_rng(15)
    clip = rng.normal(size=(1, 8, 16, 16, 3)).astype(np.float32)
    T.sum_(model(T.tensor(clip))).backward()
    for name, p in model.named_parameters():
        assert p.grad is not None, f"no gradient reached {name}"


def test_config_validation():
    with pytest.raises(ShapeError):
        CnnLstmConfig(channels=())
    with pytest.raises(ShapeError):
        CnnLstmConfig(input_shape=(8, 4, 4, 3), channels=(4, 8, 16))
    with pytest.raises(ValueError):
        CnnLstmConfig(classes=1)


def test_taped_steps_keep_memory_bounded():
    """In a fresh interpreter, 40 taped c07-scale training steps: the peak
    resident memory after step 40 is within 16 MiB of that after step 10,
    so memory the runtime keeps for reuse does not creep upward."""
    code = """
import json, resource, numpy as np
import vidmood.tensor as T
from vidmood.models import build_model, default_config
from vidmood.optim import Adam
from vidmood.training import loss_fn

model = build_model("cnn_lstm", default_config("cnn_lstm", input_shape=(16, 32, 32, 3), classes=3,
                    channels=(8, 16), proj_dim=32, hidden=32), seed=7)
opt = Adam(model.parameters(), lr=3e-3)
rng = np.random.default_rng(7)
rss = []
for step in range(1, 41):
    model.zero_grad()
    clips = rng.random((8, 16, 32, 32, 3), dtype=np.float32)
    loss_fn(model(T.tensor(clips)), rng.integers(0, 3, size=8), "sparse_cce").backward()
    opt.step()
    if step in (10, 40):
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps(rss))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(T.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300, check=True).stdout
    at10, at40 = json.loads(out)
    assert at40 - at10 <= 16, f"peak RSS {at10:.1f} MiB after step 10, {at40:.1f} after step 40"
