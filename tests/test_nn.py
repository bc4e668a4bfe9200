"""Layer semantics against direct-formula oracles."""

import tracemalloc

import numpy as np
import pytest

from vidmood import nn, tensor as T
from vidmood.gradcheck import gradcheck
from vidmood.models import build_model, default_config
from vidmood.tensor import ShapeError, Tensor

from reference import (attention_loop_reference, cast_params, mha_loop_reference,
                       trunc_normal_reference)
from test_acceptance import _REDUCED


def rng(seed=0):
    return np.random.default_rng(seed)


def mha_weights(layer):
    """An ``nn.MultiHeadAttention``'s weights, in ``mha_loop_reference``'s order."""
    return layer.qkv.weight.data, layer.qkv.bias.data, layer.proj.weight.data, layer.proj.bias.data


class TestAttention:
    """A float64 ``nn.MultiHeadAttention``, one fused ``tensor.mha``,
    against the per-query loop: plain, under per-head masks, with a bias."""

    def test_matches_per_query_loop(self):
        layer = cast_params(nn.MultiHeadAttention(12, 3, rng(1)))
        x = rng(24).normal(size=(2, 5, 12))
        np.testing.assert_allclose(layer(Tensor(x)).data,
                                   mha_loop_reference(x, *mha_weights(layer), 3),
                                   rtol=1e-6, atol=1e-8)

    def test_masked_matches_loop_and_zeroes_pairs(self):
        gen = rng(2)
        layer = cast_params(nn.MultiHeadAttention(8, 2, gen))
        x = gen.normal(size=(2, 6, 8))
        mask = gen.random((2, 2, 6, 6)) > 0.3
        mask[:, :, :, 0] = True  # keep every row attendable
        additive = np.where(mask, 0.0, -np.inf)  # one [H, N, N] mask per batch row
        np.testing.assert_allclose(layer(Tensor(x), mask=additive).data,
                                   mha_loop_reference(x, *mha_weights(layer), 2, mask=additive),
                                   rtol=1e-6, atol=1e-8)

    def test_bias_matches_loop(self):
        gen = rng(3)
        layer = cast_params(nn.MultiHeadAttention(8, 2, gen))
        x, bias = gen.normal(size=(1, 5, 8)), gen.normal(size=(2, 5, 5))
        np.testing.assert_allclose(layer(Tensor(x), bias=Tensor(bias)).data,
                                   mha_loop_reference(x, *mha_weights(layer), 2, bias=bias),
                                   rtol=1e-6, atol=1e-8)

    def test_gradcheck(self):
        gen = rng(4)
        layer = cast_params(nn.MultiHeadAttention(6, 2, gen))
        x = Tensor(gen.normal(size=(2, 4, 6)), requires_grad=True)
        bias = Tensor(gen.normal(size=(2, 4, 4)), requires_grad=True)
        allowed = gen.random((1, 4, 4)) > 0.4
        allowed[:, :, 0] = True
        masks = [np.where(allowed, 0.0, -np.inf), None]
        wt = gen.normal(size=(2, 4, 6))
        res = gradcheck(lambda: T.sum_(T.mul(layer(x, mask=masks, bias=bias), wt)),
                        {"x": x, **dict(layer.named_parameters()), "bias": bias})
        assert res.passed, str(res)


class TestLinear:
    def test_forward_matches_matmul(self):
        lin = nn.Linear(5, 3, rng(5))
        x = rng(6).normal(size=(4, 5))
        got = lin(Tensor(x)).data
        np.testing.assert_allclose(got, x @ lin.weight.data + lin.bias.data, rtol=1e-5)

    def test_leading_axes_preserved(self):
        lin = nn.Linear(5, 3, rng(7))
        x = rng(8).normal(size=(2, 3, 7, 5))
        assert lin(Tensor(x)).shape == (2, 3, 7, 3)

    def test_no_bias(self):
        lin = nn.Linear(4, 2, rng(9), bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        ln = nn.LayerNorm(6)
        x = rng(10).normal(size=(3, 6)) * 4 + 2
        y = ln(Tensor(x)).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_matches_direct_formula(self):
        ln = nn.LayerNorm(5)
        ln.gamma.data = rng(11).normal(size=5)
        ln.beta.data = rng(12).normal(size=5)
        x = rng(13).normal(size=(4, 5))
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        expect = (x - mu) / np.sqrt(var + 1e-5) * ln.gamma.data + ln.beta.data
        np.testing.assert_allclose(ln(Tensor(x)).data, expect, rtol=1e-6)

    def test_gradcheck(self):
        ln = nn.LayerNorm(4)
        for p in ln.parameters():
            p.data = p.data.astype(np.float64)
        x = Tensor(rng(14).normal(size=(2, 4)), requires_grad=True)
        wt = rng(15).normal(size=(2, 4))
        res = gradcheck(lambda: T.sum_(T.mul(ln(x), wt)),
                        {"x": x, "gamma": ln.gamma, "beta": ln.beta})
        assert res.passed, str(res)


class TestMultiHeadAttention:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ShapeError):
            nn.MultiHeadAttention(10, 3, rng(16))

    def test_output_shape(self):
        mha = nn.MultiHeadAttention(8, 2, rng(17))
        x = rng(18).normal(size=(3, 5, 8))
        assert mha(Tensor(x)).shape == (3, 5, 8)

    def test_matches_manual_head_split(self):
        mha = nn.MultiHeadAttention(8, 2, rng(19))
        x = rng(20).normal(size=(1, 4, 8)).astype(np.float64)
        qkv = x @ mha.qkv.weight.data + mha.qkv.bias.data  # [1, 4, 24]
        q, k, v = np.split(qkv, 3, axis=-1)
        heads = []
        for h in range(2):
            sl = slice(h * 4, (h + 1) * 4)
            heads.append(attention_loop_reference(q[:, None, :, sl], k[:, None, :, sl],
                                                v[:, None, :, sl])[:, 0])
        expect = np.concatenate(heads, axis=-1) @ mha.proj.weight.data + mha.proj.bias.data
        np.testing.assert_allclose(mha(Tensor(x)).data, expect, rtol=1e-5, atol=1e-7)

    def test_gradcheck_through_block(self):
        blk = nn.TransformerBlock(6, 2, 8, rng(21))
        params = dict(blk.named_parameters())
        for p in params.values():
            p.data = p.data.astype(np.float64)
        x = Tensor(rng(22).normal(size=(1, 3, 6)), requires_grad=True)
        wt = rng(23).normal(size=(1, 3, 6))
        inputs = {"x": x, **params}
        res = gradcheck(lambda: T.sum_(T.mul(blk(x), wt)), inputs, max_coords_per_input=20)
        assert res.passed, str(res)


class TestModuleSystem:
    def _composite(self):
        class Toy(nn.Module):
            def __init__(self):
                self.emb = nn.Parameter(np.zeros((3, 4)))
                self.blocks = nn.ModuleList([nn.Linear(4, 4, rng(24)) for _ in range(2)])
                self.head = nn.Linear(4, 2, rng(25))

        return Toy()

    def test_names_are_dotted_paths(self):
        names = [n for n, _ in self._composite().named_parameters()]
        assert names == ["emb", "blocks.0.weight", "blocks.0.bias",
                         "blocks.1.weight", "blocks.1.bias", "head.weight", "head.bias"]

    def test_state_dict_round_trip(self):
        a, b = self._composite(), self._composite()
        for p in a.parameters():
            p.data = rng(26).normal(size=p.shape).astype(np.float32)
        b.load_state_dict(a.state_dict())
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_load_state_dict_copies_each_parameter_once(self):
        """Restoring the c07 cnn_lstm's own state allocates each parameter
        once, and no parameter shares memory with the state it came from."""
        cfg = default_config("cnn_lstm", input_shape=(16, 32, 32, 3), classes=2,
                             **_REDUCED["cnn_lstm"])
        model = build_model("cnn_lstm", cfg, seed=0)
        state = model.state_dict()
        param_bytes = sum(a.nbytes for a in state.values())
        tracemalloc.start()
        try:
            model.load_state_dict(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * param_bytes, f"peak {peak} for {param_bytes} parameter bytes"
        for name, p in model.named_parameters():
            assert not np.shares_memory(p.data, state[name])
            np.testing.assert_array_equal(p.data, state[name])

    def test_load_rejects_mismatched_keys(self):
        m = self._composite()
        state = m.state_dict()
        del state["head.bias"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_load_rejects_wrong_shape(self):
        m = self._composite()
        state = m.state_dict()
        state["head.weight"] = np.zeros((5, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            m.load_state_dict(state)

    def test_zero_grad_clears(self):
        m = self._composite()
        x = Tensor(rng(27).normal(size=(2, 4)).astype(np.float32))
        T.sum_(m.head(m.blocks[0](x))).backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())

    def test_trunc_normal_bounded(self):
        vals = nn.trunc_normal(rng(28), (2000,), std=0.02)
        assert np.all(np.abs(vals) <= 0.04)
        assert abs(vals.std() - 0.02) < 0.005

    @pytest.mark.parametrize("shape, std, block", [
        ((2000,), 0.02, None),
        ((3, 7, 5), 1.0, 16),       # ragged last block
        ((300, 41), 0.5, 1000),     # out-of-range draws in many blocks
        ((), 0.02, None),
        ((0, 4), 0.02, None),
    ])
    def test_trunc_normal_bit_equals_float64_reference(self, monkeypatch, shape, std, block):
        """Block draws plus flat-order redraws give the float32 cast of one
        whole-array float64 draw and its redraws, and leave the generator in
        the same state."""
        if block is not None:
            monkeypatch.setattr(nn, "_DRAW_BLOCK", block)
        if np.prod(shape) > 1:  # the redraw path runs
            assert np.any(np.abs(rng(29).normal(0.0, std, size=shape)) > 2 * std)
        ours, theirs = rng(29), rng(29)
        got = nn.trunc_normal(ours, shape, std)
        want = trunc_normal_reference(theirs, shape, std).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_projection_sized_linear_builds_without_float64_copies(self):
        """cnn_lstm's paper-scale projection, 128 * 28 * 28 -> 512 (205 MB of
        float32): a whole-array float64 draw would peak above 4x the weight."""
        tracemalloc.start()
        try:
            layer = nn.Linear(128 * 28 * 28, 512, rng(30))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weight = layer.weight.data
        assert weight.dtype == np.float32
        assert peak < 1.3 * weight.nbytes, \
            f"peak {peak / 2 ** 20:.0f} MiB for a {weight.nbytes / 2 ** 20:.0f} MiB weight"
