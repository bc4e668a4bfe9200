import math

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
