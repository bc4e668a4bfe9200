import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidmood import tensor as T
from vidmood.models.vivit import ViViTConfig, ViViTModel, token_counts, tubelet_tokens
from vidmood.nn import MultiHeadAttention, TransformerBlock, scaled_dot_product_attention
from vidmood.tensor import ShapeError

from reference import block_ref, cast_params, params_of


# -- tubelet grid arithmetic --------------------------------------------------


def test_token_counts_full_scale_input():
    assert token_counts((30, 224, 224), 4, 8) == (7, 28, 28)
    n_t, n_h, n_w = token_counts((30, 224, 224), 4, 8)
    assert n_h * n_w == 784
    assert n_t * n_h * n_w == 5488


def test_token_counts_unit_patches():
    assert token_counts((5, 7, 11), 1, 1) == (5, 7, 11)


def test_token_counts_drops_leftover_frames():
    assert token_counts((31, 224, 224), 4, 8) == (7, 28, 28)
    assert token_counts((3, 16, 16), 4, 8) == (0, 2, 2)


@settings(max_examples=200, deadline=None)
@given(
    t0=st.integers(1, 500), h0=st.integers(1, 500), w0=st.integers(1, 500),
    tp=st.integers(1, 32), ip=st.integers(1, 32),
)
def test_token_counts_matches_counting(t0, h0, w0, tp, ip):
    # oracle: count the non-overlapping complete blocks directly
    def fits(extent, block):
        return sum(1 for i in range(extent) if (i + 1) * block <= extent)

    assert token_counts((t0, h0, w0), tp, ip) == (fits(t0, tp), fits(h0, ip), fits(w0, ip))


def test_tubelet_tokens_shape_and_content():
    b, t0, h0, w0, c = 2, 5, 7, 6, 3
    tp, ip = 2, 3
    frames = np.arange(b * t0 * h0 * w0 * c, dtype=np.float64).reshape(b, t0, h0, w0, c)
    toks = tubelet_tokens(T.tensor(frames), tp, ip)
    n_t, n_h, n_w = token_counts((t0, h0, w0), tp, ip)
    assert toks.shape == (b, n_t, n_h * n_w, tp * ip * ip * c)
    # token (bi, it, ih*n_w + iw) must be the raw block in (t, y, x, c) order
    for bi in range(b):
        for it in range(n_t):
            for ih in range(n_h):
                for iw in range(n_w):
                    block = frames[bi, it * tp:(it + 1) * tp,
                                   ih * ip:(ih + 1) * ip, iw * ip:(iw + 1) * ip]
                    got = toks.data[bi, it, ih * n_w + iw]
                    np.testing.assert_array_equal(got, block.reshape(-1))


def test_tubelet_tokens_ignore_trailing_frames():
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(1, 9, 6, 6, 2))
    base = tubelet_tokens(T.tensor(frames[:, :8]), 4, 3).data
    frames2 = frames.copy()
    frames2[:, 8:] = 123.0  # only the dropped remainder differs
    again = tubelet_tokens(T.tensor(frames2), 4, 3).data
    np.testing.assert_array_equal(base, again)


def test_tubelet_tokens_too_small_raises():
    frames = T.zeros((1, 2, 4, 4, 1))
    with pytest.raises(ShapeError):
        tubelet_tokens(frames, 4, 2)


# -- attention micro-facts ----------------------------------------------------


def test_single_token_attention_returns_value():
    rng = np.random.default_rng(1)
    q = T.tensor(rng.normal(size=(1, 2, 1, 4)))
    k = T.tensor(rng.normal(size=(1, 2, 1, 4)))
    v = T.tensor(rng.normal(size=(1, 2, 1, 4)))
    out = scaled_dot_product_attention(q, k, v)
    np.testing.assert_array_equal(out.data, v.data)  # softmax of one logit is exactly 1


def test_identical_tokens_give_identical_rows():
    rng = np.random.default_rng(2)
    mha = cast_params(MultiHeadAttention(6, 2, rng))
    token = rng.normal(size=(1, 1, 6))
    x = np.tile(token, (1, 5, 1))
    out = mha(T.tensor(x)).data
    for i in range(1, 5):
        np.testing.assert_allclose(out[0, i], out[0, 0], atol=1e-12)


# -- transformer block ----------------------------------------------------------


def test_transformer_block_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    blk = cast_params(TransformerBlock(6, 2, 12, rng))
    x = rng.normal(size=(2, 5, 6))
    got = blk(T.tensor(x)).data
    want = block_ref(x, params_of(blk), heads=2)
    np.testing.assert_allclose(got, want, atol=1e-10)


def _zero_residual_branches(module):
    for name, p in module.named_parameters():
        if name.endswith(("attn.proj.weight", "attn.proj.bias",
                          "mlp.fc2.weight", "mlp.fc2.bias")):
            p.data = np.zeros_like(p.data)


def test_transformer_block_zero_projections_is_identity():
    rng = np.random.default_rng(7)
    blk = TransformerBlock(6, 2, 12, rng)
    _zero_residual_branches(blk)
    x = rng.normal(size=(2, 5, 6)).astype(np.float32)
    np.testing.assert_array_equal(blk(T.tensor(x)).data, x)


# -- full model ---------------------------------------------------------------


TINY = dict(input_shape=(8, 16, 16, 3), image_patch=8, frame_patch=4,
            embed_dim=8, spatial_depth=1, temporal_depth=1, heads=2, mlp_dim=16)


def _tiny_model(seed=0):
    return ViViTModel(ViViTConfig(**TINY), np.random.default_rng(seed))


def test_model_logit_shapes():
    model = _tiny_model()
    rng = np.random.default_rng(9)
    clip = rng.normal(size=(8, 16, 16, 3)).astype(np.float32)
    single = model(T.tensor(clip[None]))
    assert single.shape == (1, 2)
    batched = model(T.tensor(np.stack([clip, clip])))
    assert batched.shape == (2, 2)


def test_model_batch_rows_match_single_forward():
    model = _tiny_model()
    rng = np.random.default_rng(10)
    clips = rng.normal(size=(3, 8, 16, 16, 3)).astype(np.float32)
    batch = model(T.tensor(clips)).data
    for i in range(3):
        row = model(T.tensor(clips[i:i + 1])).data
        np.testing.assert_allclose(batch[i], row[0], atol=1e-5)


def test_model_construction_and_forward_deterministic():
    rng = np.random.default_rng(11)
    clip = rng.normal(size=(1, 8, 16, 16, 3)).astype(np.float32)
    a = _tiny_model(seed=3)(T.tensor(clip)).data
    b = _tiny_model(seed=3)(T.tensor(clip)).data
    np.testing.assert_array_equal(a, b)


def test_model_rejects_wrong_input_shape():
    model = _tiny_model()
    with pytest.raises(ShapeError):
        model(T.zeros((1, 8, 16, 20, 3)))


def test_model_rejects_unbatched_clip():
    with pytest.raises(ShapeError):
        _tiny_model()(T.zeros((8, 16, 16, 3)))


def test_config_validation():
    with pytest.raises(ShapeError):
        ViViTConfig(embed_dim=10, heads=4)
    with pytest.raises(ShapeError):
        ViViTConfig(input_shape=(2, 16, 16, 3), frame_patch=4)
    with pytest.raises(ValueError):
        ViViTConfig(classes=1)


def test_model_grad_reaches_every_parameter():
    model = _tiny_model()
    rng = np.random.default_rng(12)
    clip = rng.normal(size=(1, 8, 16, 16, 3)).astype(np.float32)
    loss = T.sum_(model(T.tensor(clip)))
    loss.backward()
    for name, p in model.named_parameters():
        assert p.grad is not None, f"no gradient reached {name}"
        assert np.any(p.grad != 0) or p.size == 0 or name.endswith("bias"), name
