"""Parameter containers and the layers shared by all three models.

A Module is a plain object whose tensor-valued attributes (and
sub-modules) are discovered by attribute traversal, giving every
parameter a stable dotted name like ``blocks.2.attn.proj_w``. Those
names key ``state_dict`` and the weight hash, so insertion order and
spelling are load-bearing.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "Parameter",
    "Module",
    "ModuleList",
    "Linear",
    "LayerNorm",
    "Mlp",
    "MultiHeadAttention",
]


def _check_positive(cfg, *names: str) -> None:
    """Raise ``ShapeError`` naming the first of ``cfg``'s fields ``names``
    (each an extent or a tuple of extents) that holds one below 1."""
    for name in names:
        value = getattr(cfg, name)
        if min(value if isinstance(value, tuple) else (value,)) < 1:
            raise ShapeError(f"{name} must be positive, got {value}")


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
            p.data = state[name].astype(p.data.dtype)  # a copy, never the state's array

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


# float64 draws per trunc_normal block (8 MiB)
_DRAW_BLOCK = 1 << 20


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled into [-2 std, 2 std], as float32.

    The float64 draws come in fixed blocks and out-of-range entries are
    redrawn in flat order until none is left, so the values are those of
    one whole-array draw and its redraws, cast to float32.
    """
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    bad = [np.empty(0, dtype=np.intp)]
    for i in range(0, flat.size, _DRAW_BLOCK):
        draw = rng.normal(0.0, std, size=min(_DRAW_BLOCK, flat.size - i))
        flat[i:i + draw.size] = draw
        bad.append(i + np.flatnonzero(np.abs(draw, out=draw) > 2 * std))
    idx = np.concatenate(bad)
    del bad  # the per-block index arrays, before the redraws
    while idx.size:
        draw = rng.normal(0.0, std, size=idx.size)
        flat[idx] = draw
        idx = idx[np.abs(draw, out=draw) > 2 * std]
    return out


class Linear(Module):
    """y = x @ W + b with W of shape [in_features, out_features]."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = Parameter(trunc_normal(rng, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


LN_EPS = 1e-5


class LayerNorm(Module):
    """Normalize the last axis to zero mean / unit variance, then affine."""

    def __init__(self, dim: int):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, LN_EPS)


class Mlp(Module):
    """Two linear maps around a GELU, run as one fused ``tensor.mlp``."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return T.mlp(x, self.fc1.weight, self.fc1.bias, self.fc2.weight, self.fc2.bias)


class MultiHeadAttention(Module):
    """Multi-head self-attention over [B, N, dim] token sequences: the qkv
    projection, attention and the output projection, run as one fused
    ``tensor.mha``."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise T.ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)

    def forward(self, x: Tensor, mask: Sequence[np.ndarray | None] | None = None,
                bias: Tensor | None = None) -> Tensor:
        """``mask`` and ``bias`` are those of ``tensor.mha``: additive
        0 / -inf masks, one per batch row modulo their count, and a
        [heads, N, N] logit bias."""
        return T.mha(x, self.qkv.weight, self.qkv.bias, self.proj.weight, self.proj.bias,
                     self.heads, mask=mask, bias=bias)


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
