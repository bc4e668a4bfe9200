"""Parameter containers and the layers shared by all three models.

A Module is a plain object whose tensor-valued attributes (and
sub-modules) are discovered by attribute traversal, giving every
parameter a stable dotted name like ``blocks.2.attn.proj_w``. Those
names key ``state_dict`` and the weight hash, so insertion order and
spelling are load-bearing.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "ModuleList",
    "Linear",
    "LayerNorm",
    "Mlp",
    "MultiHeadAttention",
    "scaled_dot_product_attention",
]


class Parameter(Tensor):
    """A trainable leaf tensor (float32 by default)."""

    def __init__(self, data, dtype=np.float32):
        super().__init__(np.asarray(data, dtype=dtype), requires_grad=True)


class Module:
    """Base class: parameter discovery, gradient clearing, state IO."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise KeyError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in own.items():
            if state[name].shape != p.shape:
                raise T.ShapeError(
                    f"parameter {name}: state shape {state[name].shape} != model shape {p.shape}"
                )
            p.data = state[name].astype(p.data.dtype).copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Sequence of sub-modules addressed by integer index."""

    def __init__(self, modules):
        self._items = list(modules)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def named_parameters(self, prefix: str = ""):
        for i, m in enumerate(self._items):
            yield from m.named_parameters(f"{prefix}{i}.")


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled into [-2 std, 2 std]."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


class Linear(Module):
    """y = x @ W + b with W of shape [in_features, out_features]."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = Parameter(trunc_normal(rng, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        flat = x if x.ndim == 2 else T.reshape(x, (-1, x.shape[-1]))
        y = T.matmul(flat, self.weight)
        if self.bias is not None:
            y = T.add(y, self.bias)
        if x.ndim != 2:
            y = T.reshape(y, x.shape[:-1] + (self.weight.shape[1],))
        return y


LN_EPS = 1e-5


class LayerNorm(Module):
    """Normalize the last axis to zero mean / unit variance, then affine."""

    def __init__(self, dim: int):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = T.mean(x, axis=-1, keepdims=True)
        xc = T.sub(x, mu)
        var = T.mean(T.mul(xc, xc), axis=-1, keepdims=True)
        inv = T.div(xc, T.sqrt(T.add(var, LN_EPS)))
        return T.add(T.mul(inv, self.gamma), self.beta)


class Mlp(Module):
    """Two linear maps around a GELU."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


def scaled_dot_product_attention(
    q: Tensor, k: Tensor, v: Tensor,
    mask: np.ndarray | None = None,
    bias: Tensor | None = None,
) -> Tensor:
    """softmax(q k^T / sqrt(d_head) [+ bias]) v on [..., N, d_head] operands.

    ``mask`` is boolean, broadcastable to the logit shape; excluded pairs
    receive exactly zero attention weight. ``bias`` is added to the logits
    before the softmax (broadcast over batch).
    """
    dh = q.shape[-1]
    logits = T.mul(T.matmul(q, T.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))),
                   1.0 / math.sqrt(dh))
    if bias is not None:
        logits = T.add(logits, bias)
    attn = T.softmax(logits, axis=-1, mask=mask)
    return T.matmul(attn, v)


class MultiHeadAttention(Module):
    """Multi-head self-attention over [B, N, dim] token sequences."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise T.ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = dim // heads
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None,
                bias: Tensor | None = None) -> Tensor:
        b, n, d = x.shape
        qkv = self.qkv(x)  # [B, N, 3D]
        qkv = T.reshape(qkv, (b, n, 3, self.heads, self.head_dim))
        qkv = T.transpose(qkv, (2, 0, 3, 1, 4))  # [3, B, H, N, dh]
        q, k, v = qkv[0], qkv[1], qkv[2]
        out = scaled_dot_product_attention(q, k, v, mask=mask, bias=bias)
        out = T.transpose(out, (0, 2, 1, 3))  # [B, N, H, dh]
        out = T.reshape(out, (b, n, d))
        return self.proj(out)


class TransformerBlock(Module):
    """Pre-norm residual block: x + MHA(LN(x)); x + MLP(LN(x))."""

    def __init__(self, dim: int, heads: int, mlp_hidden: int, rng: np.random.Generator):
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, mlp_hidden, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = T.add(x, self.attn(self.norm1(x)))
        x = T.add(x, self.mlp(self.norm2(x)))
        return x
