"""Hierarchical 3D shifted-window transformer.

Tokens from ceiling-padded patch embedding attend inside non-overlapping
3D windows; alternate blocks cyclically shift the grid by half a window
so information crosses window borders, with wrapped token pairs masked
to exactly zero attention. Spatial patch merging doubles channels
between stages. Only the zero-padded tokens that round the grid up to
whole windows are masked out of attention. Patch embedding and merging
also pad, but every token they emit covers real input, so the final
average pool takes every token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..nn import (Linear, LayerNorm, Mlp, Module, ModuleList, MultiHeadAttention,
                  Parameter, trunc_normal)
from ..tensor import ShapeError, Tensor

__all__ = [
    "SwinConfig",
    "SwinModel",
    "SwinBlock",
    "RelativePositionBias",
    "token_counts_ceil",
    "get_window_size",
    "window_partition",
    "window_reverse",
    "compute_region_ids",
    "shifted_window_attention",
    "PatchEmbed",
    "PatchMerge",
]


@dataclass(frozen=True)
class SwinConfig:
    input_shape: tuple[int, int, int, int] = (30, 224, 224, 3)
    image_patch: int = 4
    frame_patch: int = 2
    embed_dim: int = 96
    depths: tuple[int, ...] = (2, 2, 4, 2)
    heads: tuple[int, ...] = (3, 6, 12, 24)
    mlp_ratio: int = 4
    window: tuple[int, int, int] = (8, 7, 7)
    classes: int = 2

    def __post_init__(self):
        if len(self.depths) != len(self.heads) or not self.depths:
            raise ShapeError(f"depths {self.depths} and heads {self.heads} must pair up")
        for i, h in enumerate(self.heads):
            dim = self.embed_dim * (2 ** i)
            if dim % h != 0:
                raise ShapeError(f"stage {i} dim {dim} not divisible by {h} heads")
        if any(w < 1 for w in self.window):
            raise ShapeError(f"window extents must be positive: {self.window}")
        if self.classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.classes}")


def token_counts_ceil(frames_shape, frame_patch: int, image_patch: int) -> tuple[int, int, int]:
    """(n_t, n_h, n_w) after zero-padding up to patch multiples (ceiling)."""
    t0, h0, w0 = frames_shape[:3]
    return (math.ceil(t0 / frame_patch), math.ceil(h0 / image_patch), math.ceil(w0 / image_patch))


def get_window_size(grid, window, shift):
    """Clamp the window to the grid; clamped axes lose their shift."""
    use_w = list(window)
    use_s = list(shift)
    for i in range(3):
        if grid[i] <= window[i]:
            use_w[i] = grid[i]
            use_s[i] = 0
    return tuple(use_w), tuple(use_s)


def window_partition(x: Tensor, window) -> Tensor:
    """[B, nt, nh, nw, d] (window-multiple grid) -> [B*nW, wt*wh*ww, d]."""
    b, nt, nh, nw, d = x.shape
    wt, wh, ww = window
    if nt % wt or nh % wh or nw % ww:
        raise ShapeError(f"grid {(nt, nh, nw)} not a multiple of window {window}")
    x = T.reshape(x, (b, nt // wt, wt, nh // wh, wh, nw // ww, ww, d))
    x = T.transpose(x, (0, 1, 3, 5, 2, 4, 6, 7))
    return T.reshape(x, (-1, wt * wh * ww, d))


def window_reverse(windows: Tensor, grid, window, batch: int) -> Tensor:
    """Exact inverse of window_partition for the given grid/window/batch."""
    nt, nh, nw = grid
    wt, wh, ww = window
    d = windows.shape[-1]
    x = T.reshape(windows, (batch, nt // wt, nh // wh, nw // ww, wt, wh, ww, d))
    x = T.transpose(x, (0, 1, 4, 2, 5, 3, 6, 7))
    return T.reshape(x, (batch, nt, nh, nw, d))


def _partition_np(a: np.ndarray, window) -> np.ndarray:
    """numpy twin of window_partition for masks: [nt, nh, nw] -> [nW, N]."""
    nt, nh, nw = a.shape
    wt, wh, ww = window
    a = a.reshape(nt // wt, wt, nh // wh, wh, nw // ww, ww)
    a = a.transpose(0, 2, 4, 1, 3, 5)
    return a.reshape(-1, wt * wh * ww)


def _axis_regions(size: int, window: int, shift: int) -> np.ndarray:
    """Region labels along one axis after a cyclic shift by `shift`.

    Segments [0, size-window), [size-window, size-shift), [size-shift, size)
    wrap differently under the shift, so tokens from different segments
    must not attend to each other.
    """
    labels = np.zeros(size, dtype=np.int64)
    if shift == 0:
        return labels
    labels[size - window:size - shift] = 1
    labels[size - shift:] = 2
    return labels


def compute_region_ids(grid, window, shift) -> np.ndarray:
    """Integer region id per token of the (padded) grid; equal ids may attend."""
    lt = _axis_regions(grid[0], window[0], shift[0])
    lh = _axis_regions(grid[1], window[1], shift[1])
    lw = _axis_regions(grid[2], window[2], shift[2])
    return (lt[:, None, None] * 9 + lh[None, :, None] * 3 + lw[None, None, :])


class RelativePositionBias(Module):
    """Learned additive attention bias indexed by 3D token-pair offset.

    The table covers every offset of the configured window; smaller
    effective windows (clamped at forward time) index a subset.
    """

    def __init__(self, window, heads: int, rng: np.random.Generator):
        wt, wh, ww = window
        self.window = tuple(window)
        self.heads = heads
        self.table = Parameter(
            trunc_normal(rng, ((2 * wt - 1) * (2 * wh - 1) * (2 * ww - 1), heads)))
        self._index_cache: dict[tuple, np.ndarray] = {}

    def _index(self, eff_window) -> np.ndarray:
        key = tuple(eff_window)
        if key not in self._index_cache:
            wt, wh, ww = self.window
            axes = [np.arange(e) for e in eff_window]
            coords = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
            rel = coords[:, :, None] - coords[:, None, :]
            idx = ((rel[0] + wt - 1) * (2 * wh - 1) * (2 * ww - 1)
                   + (rel[1] + wh - 1) * (2 * ww - 1)
                   + (rel[2] + ww - 1))
            self._index_cache[key] = idx
        return self._index_cache[key]

    def forward(self, eff_window) -> Tensor:
        idx = self._index(eff_window)
        n = idx.shape[0]
        bias = self.table[idx.reshape(-1)]  # [N*N, heads]
        bias = T.reshape(bias, (n, n, self.heads))
        return T.transpose(bias, (2, 0, 1))  # [heads, N, N]


def shifted_window_attention(x: Tensor, valid: np.ndarray, attn: MultiHeadAttention,
                             bias: RelativePositionBias | None,
                             window, shift) -> Tensor:
    """Windowed multi-head attention over [B, nt, nh, nw, d] with optional
    cyclic shift, additive relative-position bias, and validity masking.

    Wrapped pairs (different regions under the shift) and padded tokens get
    exactly zero attention weight.
    """
    b, nt, nh, nw, d = x.shape
    grid = (nt, nh, nw)
    for i in range(3):
        if shift[i] >= window[i]:
            raise ShapeError(f"shift {shift} must be < window {window} per axis")
    win, sh = get_window_size(grid, window, shift)

    pads = tuple((0, -g % w) for g, w in zip(grid, win))
    padded = tuple(g + p[1] for g, p in zip(grid, pads))
    if any(p[1] for p in pads):
        x = T.pad(x, ((0, 0),) + pads + ((0, 0),))
        valid = np.pad(valid, pads, constant_values=False)

    if any(sh):
        x = T.roll(x, tuple(-s for s in sh), (1, 2, 3))
        valid = np.roll(valid, tuple(-s for s in sh), (0, 1, 2))

    xw = window_partition(x, win)  # [B*nW, N, d]
    vw = _partition_np(valid, win)  # [nW, N]
    region = _partition_np(compute_region_ids(padded, win, sh), win)
    allowed = (region[:, :, None] == region[:, None, :]) & vw[:, None, :]
    mask = np.tile(allowed, (b, 1, 1))[:, None, :, :]  # [B*nW, 1, N, N]

    bias_t = bias(win) if bias is not None else None
    out = attn(xw, mask=mask, bias=bias_t)

    x = window_reverse(out, padded, win, b)
    if any(sh):
        x = T.roll(x, sh, (1, 2, 3))
    if any(p[1] for p in pads):
        x = x[:, :nt, :nh, :nw, :]
    return x


class SwinBlock(Module):
    """Pre-norm residual: x + SW-MSA(LN(x)); x + FFN(LN(x))."""

    def __init__(self, dim: int, heads: int, mlp_hidden: int, window,
                 shifted: bool, rng: np.random.Generator):
        self.window = tuple(window)
        self.shift = tuple(w // 2 for w in window) if shifted else (0, 0, 0)
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.bias = RelativePositionBias(window, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, mlp_hidden, rng)

    def forward(self, x: Tensor) -> Tensor:
        valid = np.ones(x.shape[1:4], dtype=bool)  # every stage token covers real input
        h = shifted_window_attention(self.norm1(x), valid, self.attn, self.bias,
                                     self.window, self.shift)
        x = T.add(x, h)
        return T.add(x, self.mlp(self.norm2(x)))


class PatchEmbed(Module):
    """Zero-pad to patch multiples, then project P x M x M x C blocks."""

    def __init__(self, cfg: SwinConfig, rng: np.random.Generator):
        c = cfg.input_shape[3]
        self.frame_patch = cfg.frame_patch
        self.image_patch = cfg.image_patch
        self.proj = Linear(cfg.frame_patch * cfg.image_patch ** 2 * c, cfg.embed_dim, rng)

    def forward(self, clip: Tensor) -> Tensor:
        b, t0, h0, w0, c = clip.shape
        p, m = self.frame_patch, self.image_patch
        n_t, n_h, n_w = token_counts_ceil((t0, h0, w0), p, m)
        pads = ((0, 0), (0, n_t * p - t0), (0, n_h * m - h0), (0, n_w * m - w0), (0, 0))
        if any(pr[1] for pr in pads):
            clip = T.pad(clip, pads)
        x = T.reshape(clip, (b, n_t, p, n_h, m, n_w, m, c))
        x = T.transpose(x, (0, 1, 3, 5, 2, 4, 6, 7))
        x = T.reshape(x, (b, n_t, n_h, n_w, p * m * m * c))
        return self.proj(x)


class PatchMerge(Module):
    """Concatenate 2x2 spatial neighbors, normalize, project 4d -> 2d."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.norm = LayerNorm(4 * dim)
        self.reduce = Linear(4 * dim, 2 * dim, rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        b, nt, nh, nw, d = x.shape
        ph, pw = nh % 2, nw % 2
        if ph or pw:
            x = T.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw), (0, 0)))
        x00 = x[:, :, 0::2, 0::2, :]
        x10 = x[:, :, 1::2, 0::2, :]
        x01 = x[:, :, 0::2, 1::2, :]
        x11 = x[:, :, 1::2, 1::2, :]
        merged = T.concat([x00, x10, x01, x11], axis=-1)
        return self.reduce(self.norm(merged))


class SwinModel(Module):
    def __init__(self, cfg: SwinConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.patch_embed = PatchEmbed(cfg, rng)
        stages = []
        merges = []
        n_stages = len(cfg.depths)
        for i, (depth, heads) in enumerate(zip(cfg.depths, cfg.heads)):
            dim = cfg.embed_dim * (2 ** i)
            stages.append(ModuleList([
                SwinBlock(dim, heads, dim * cfg.mlp_ratio, cfg.window,
                          shifted=(j % 2 == 1), rng=rng)
                for j in range(depth)
            ]))
            if i < n_stages - 1:
                merges.append(PatchMerge(dim, rng))
        self.stages = ModuleList(stages)
        self.merges = ModuleList(merges)
        final_dim = cfg.embed_dim * (2 ** (n_stages - 1))
        self.norm = LayerNorm(final_dim)
        self.head = Linear(final_dim, cfg.classes, rng)

    def forward(self, clip: Tensor) -> Tensor:
        """[B, T, H, W, C] -> logits [B, classes]."""
        if clip.shape[1:] != self.cfg.input_shape:
            raise ShapeError(f"clip {clip.shape[1:]} does not match config input "
                             f"{self.cfg.input_shape}")
        x = self.patch_embed(clip)
        for i, stage in enumerate(self.stages):
            for blk in stage:
                x = blk(x)
            if i < len(self.merges):
                x = self.merges[i](x)

        b, nt, nh, nw, d = x.shape
        pooled = T.mean(T.reshape(x, (b, nt * nh * nw, d)), axis=1)
        return self.head(self.norm(pooled))
