"""3D-CNN feature extractor followed by an LSTM and temporal attention.

Three conv/ReLU/maxpool blocks shrink each frame spatially while
preserving the temporal extent; per-timestep features are flattened and
projected, an LSTM integrates them over time, and a learned softmax over
timesteps pools the hidden states for the linear head. Each block is one
fused ``tensor.conv_pool_relu``: it pools before its ReLU, which gives the
same bits (see ``ConvBlock``), and ReLUs the pooled output in place, so
neither a full-size conv output nor a ReLU copy of the pooled one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..nn import Linear, Module, ModuleList, Parameter, _check_positive, trunc_normal
from ..tensor import ShapeError, Tensor

__all__ = ["CnnLstmConfig", "CnnLstmModel", "ConvBlock", "LstmCell", "attention_pool"]


@dataclass(frozen=True)
class CnnLstmConfig:
    input_shape: tuple[int, int, int, int] = (30, 224, 224, 3)
    channels: tuple[int, ...] = (32, 64, 128)
    proj_dim: int = 512
    hidden: int = 512
    classes: int = 2
    # conv kernels are 3x3x3, stride 1, padding 1; pools are (1, 2, 2)

    def __post_init__(self):
        if not self.channels:
            raise ShapeError("need at least one conv block")
        _check_positive(self, "input_shape", "channels", "proj_dim", "hidden")
        t0, h0, w0, c = self.input_shape
        shrink = 2 ** len(self.channels)
        if h0 // shrink < 1 or w0 // shrink < 1:
            raise ShapeError(f"input {h0}x{w0} collapses under {len(self.channels)} pools")
        if self.classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.classes}")


class ConvBlock(Module):
    """conv3d (3x3x3, stride 1, pad 1) -> maxpool (1, 2, 2) -> ReLU as one
    fused ``tensor.conv_pool_relu``, one tape node: bit for bit conv ->
    ReLU -> pool, as ReLU is monotone and zeroes the value and every
    gradient of a window whose max is <= 0."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        fan_in = c_in * 27
        self.kernel = Parameter(rng.normal(0.0, math.sqrt(2.0 / fan_in), (c_out, c_in, 3, 3, 3)))
        self.bias = Parameter(np.zeros(c_out))

    def forward(self, x: Tensor) -> Tensor:
        return T.conv_pool_relu(x, self.kernel, self.bias, 1, (1, 2, 2))


class LstmCell(Module):
    """Gated recurrence: forget/input gates and candidate per the classic
    equations, plus an output gate producing h = o * tanh(c).

    The four gates share one input matrix ``w`` [in, 4H], one recurrent
    matrix ``u`` [H, 4H] and one bias ``b`` [4H], whose column blocks are,
    in order, the forget, input, candidate and output gates.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        self.hidden = hidden
        bound = 1.0 / math.sqrt(hidden)
        # per gate, the input block and then the recurrent block
        draws = [rng.uniform(-bound, bound, shape)
                 for _ in range(4) for shape in ((in_dim, hidden), (hidden, hidden))]
        self.w = Parameter(np.concatenate(draws[0::2], axis=1))
        self.u = Parameter(np.concatenate(draws[1::2], axis=1))
        self.b = Parameter(np.zeros(4 * hidden))

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One timestep: x [B, in], h/c [B, hidden] -> (h', c')."""
        n = self.hidden
        z = T.add(T.add(T.matmul(x, self.w), T.matmul(h, self.u)), self.b)  # [B, 4H]
        s = T.sigmoid(z)  # one op for the three gates; the candidate block goes unused
        f, i, o = s[:, :n], s[:, n:2 * n], s[:, 3 * n:]
        g = T.tanh(z[:, 2 * n:3 * n])
        c_next = T.add(T.mul(f, c), T.mul(i, g))
        h_next = T.mul(o, T.tanh(c_next))
        return h_next, c_next

    def forward(self, xs: Tensor) -> Tensor:
        """Unroll over [B, T, in] -> hidden states [B, T, hidden]."""
        b, t_len, _ = xs.shape
        h = T.zeros((b, self.hidden), dtype=xs.dtype)
        c = T.zeros((b, self.hidden), dtype=xs.dtype)
        outs = []
        for t in range(t_len):
            h, c = self.step(xs[:, t], h, c)
            outs.append(h)
        return T.reshape(T.concat(outs, axis=1), (b, t_len, self.hidden))


def attention_pool(hs: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Softmax-weighted sum over time: hs [B, T, H] -> [B, H].

    Scores e_t = tanh(h_t . weight + bias) with weight [H, 1]; the
    attention weights sum to 1 over the T axis.
    """
    e = T.tanh(T.add(T.matmul(hs, weight), bias))  # [B, T, 1]
    alpha = T.softmax(e, axis=1)
    return T.sum_(T.mul(alpha, hs), axis=1)


class CnnLstmModel(Module):
    def __init__(self, cfg: CnnLstmConfig, rng: np.random.Generator):
        self.cfg = cfg
        t0, h0, w0, c = cfg.input_shape
        chain = (c,) + tuple(cfg.channels)
        self.blocks = ModuleList([ConvBlock(chain[i], chain[i + 1], rng)
                                  for i in range(len(cfg.channels))])
        shrink = 2 ** len(cfg.channels)
        self.feat_dim = cfg.channels[-1] * (h0 // shrink) * (w0 // shrink)
        self.project = Linear(self.feat_dim, cfg.proj_dim, rng)
        self.lstm = LstmCell(cfg.proj_dim, cfg.hidden, rng)
        self.att_weight = Parameter(trunc_normal(rng, (cfg.hidden, 1)))
        self.att_bias = Parameter(np.zeros(1))
        self.head = Linear(cfg.hidden, cfg.classes, rng)

    def forward(self, clip: Tensor) -> Tensor:
        """[B, T, H, W, C] -> logits [B, classes]."""
        if clip.shape[1:] != self.cfg.input_shape:
            raise ShapeError(f"clip {clip.shape[1:]} does not match config input "
                             f"{self.cfg.input_shape}")
        b, t0 = clip.shape[0], clip.shape[1]
        x = T.transpose(clip, (0, 4, 1, 2, 3))  # [B, C, T, H, W]
        for blk in self.blocks:
            x = blk(x)
        x = T.transpose(x, (0, 2, 1, 3, 4))  # [B, T, C', H', W']
        x = T.reshape(x, (b, t0, self.feat_dim))
        x = self.project(x)
        hs = self.lstm(x)
        pooled = attention_pool(hs, self.att_weight, self.att_bias)
        return self.head(pooled)
