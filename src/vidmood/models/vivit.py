"""Video transformer with tubelet embedding and factorized
spatial/temporal encoding.

A clip is cut into non-overlapping t x h x w tubelets (leftovers beyond
the floor counts are dropped), each projected to an embedding. A spatial
encoder attends within every temporal slot using a shared classification
token; a temporal encoder then attends across the per-slot class tokens
with one final classification token feeding the linear head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..nn import Linear, Module, ModuleList, Parameter, TransformerBlock, trunc_normal
from ..tensor import ShapeError, Tensor

__all__ = ["ViViTConfig", "ViViTModel", "token_counts", "tubelet_tokens"]


@dataclass(frozen=True)
class ViViTConfig:
    input_shape: tuple[int, int, int, int] = (30, 224, 224, 3)  # (T, H, W, C)
    image_patch: int = 8
    frame_patch: int = 4
    embed_dim: int = 128
    spatial_depth: int = 4
    temporal_depth: int = 4
    heads: int = 4
    mlp_dim: int = 512
    classes: int = 2

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ShapeError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        t0, h0, w0, c = self.input_shape
        if t0 < self.frame_patch or h0 < self.image_patch or w0 < self.image_patch:
            raise ShapeError(f"input {self.input_shape} smaller than one "
                             f"{self.frame_patch}x{self.image_patch}x{self.image_patch} tubelet")
        if self.classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.classes}")


def token_counts(frames_shape, frame_patch: int, image_patch: int) -> tuple[int, int, int]:
    """(n_t, n_h, n_w) tubelet grid; floor division drops leftovers."""
    t0, h0, w0 = frames_shape[:3]
    return t0 // frame_patch, h0 // image_patch, w0 // image_patch


def tubelet_tokens(frames: Tensor, frame_patch: int, image_patch: int) -> Tensor:
    """[B, T, H, W, C] -> [B, n_t, n_s, t*h*w*C] flattened tubelet blocks."""
    b, t0, h0, w0, c = frames.shape
    t, p = frame_patch, image_patch
    n_t, n_h, n_w = token_counts((t0, h0, w0), t, p)
    if n_t < 1 or n_h < 1 or n_w < 1:
        raise ShapeError(f"clip {frames.shape} smaller than one {t}x{p}x{p} tubelet")
    x = frames[:, : n_t * t, : n_h * p, : n_w * p, :]
    x = T.reshape(x, (b, n_t, t, n_h, p, n_w, p, c))
    x = T.transpose(x, (0, 1, 3, 5, 2, 4, 6, 7))  # [B, n_t, n_h, n_w, t, p, p, c]
    return T.reshape(x, (b, n_t, n_h * n_w, t * p * p * c))


class ViViTModel(Module):
    def __init__(self, cfg: ViViTConfig, rng: np.random.Generator):
        self.cfg = cfg
        t0, h0, w0, c = cfg.input_shape
        self.n_t, n_h, n_w = token_counts((t0, h0, w0), cfg.frame_patch, cfg.image_patch)
        self.n_s = n_h * n_w
        d = cfg.embed_dim
        k = cfg.frame_patch * cfg.image_patch * cfg.image_patch * c
        self.proj = Linear(k, d, rng)
        self.pos_spatial = Parameter(trunc_normal(rng, (self.n_s, d)))
        self.pos_temporal = Parameter(trunc_normal(rng, (self.n_t, 1, d)))
        self.cls_spatial = Parameter(trunc_normal(rng, (1, 1, d)))
        self.cls_temporal = Parameter(trunc_normal(rng, (1, 1, d)))
        self.spatial_blocks = ModuleList(
            [TransformerBlock(d, cfg.heads, cfg.mlp_dim, rng) for _ in range(cfg.spatial_depth)])
        self.temporal_blocks = ModuleList(
            [TransformerBlock(d, cfg.heads, cfg.mlp_dim, rng) for _ in range(cfg.temporal_depth)])
        self.head = Linear(d, cfg.classes, rng)

    def forward(self, clip: Tensor) -> Tensor:
        """[B, T, H, W, C] -> logits [B, classes]."""
        if clip.shape[1:] != self.cfg.input_shape:
            raise ShapeError(f"clip {clip.shape[1:]} does not match config input "
                             f"{self.cfg.input_shape}")
        b = clip.shape[0]
        d = self.cfg.embed_dim

        tokens = self.proj(tubelet_tokens(clip, self.cfg.frame_patch, self.cfg.image_patch))
        tokens = T.add(T.add(tokens, self.pos_spatial), self.pos_temporal)

        x = T.reshape(tokens, (b * self.n_t, self.n_s, d))
        cls_s = T.broadcast_to(self.cls_spatial, (b * self.n_t, 1, d))
        x = T.concat([cls_s, x], axis=1)
        for blk in self.spatial_blocks:
            x = blk(x)
        slot_cls = T.reshape(x[:, 0], (b, self.n_t, d))

        cls_t = T.broadcast_to(self.cls_temporal, (b, 1, d))
        y = T.concat([cls_t, slot_cls], axis=1)
        for blk in self.temporal_blocks:
            y = blk(y)
        return self.head(y[:, 0])
