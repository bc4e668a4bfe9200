"""Deterministic preprocessing: face crop, resize, length standardization,
histogram equalization, clip segmentation and normalization.

Everything is pure given (input, config). Pixel work happens on uint8
until the final /255 normalization so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "RawVideo",
    "Clip",
    "PipelineConfig",
    "LocalizationError",
    "FaceLocalizer",
    "CenterSquareLocalizer",
    "SidecarLocalizer",
    "localize_and_resize",
    "standardize_length",
    "segment_clips",
    "normalize_pixels",
    "equalize_histogram",
    "equalize_frames",
    "preprocess_video",
]


@dataclass
class RawVideo:
    """Decoded video: uint8 frames [T, H, W, 3] at a nominal fps."""

    frames: np.ndarray
    source_id: str
    fps: int = 30

    def __post_init__(self):
        f = self.frames
        if f.ndim != 4 or f.shape[-1] != 3 or f.shape[0] < 1:
            raise ValueError(f"raw video needs [T, H, W, 3] frames, got {f.shape}")
        if f.dtype != np.uint8:
            raise ValueError(f"raw video frames must be uint8, got {f.dtype}")


@dataclass
class Clip:
    """Model input unit: float32 frames [F, S, S, 3] with values in [0, 1]."""

    frames: np.ndarray
    parent_id: str
    clip_index: int


class LocalizationError(ValueError):
    """A crop rectangle was degenerate or out of frame; carries the frame index."""

    def __init__(self, frame_index: int, message: str):
        super().__init__(f"frame {frame_index}: {message}")
        self.frame_index = frame_index


class FaceLocalizer(Protocol):
    def rectangles(self, frames: np.ndarray) -> Sequence[tuple[int, int, int, int]]:
        """One (x, y, w, h) crop per frame, fully inside the frame."""
        ...


class CenterSquareLocalizer:
    """Fallback localizer: centered square of side min(H, W) in every frame."""

    def rectangles(self, frames: np.ndarray):
        t, h, w = frames.shape[:3]
        side = min(h, w)
        x = (w - side) // 2
        y = (h - side) // 2
        return [(x, y, side, side)] * t


class SidecarLocalizer:
    """Crop rectangles supplied externally (e.g. a face-detector sidecar)."""

    def __init__(self, rects: Sequence[tuple[int, int, int, int]]):
        self.rects = [tuple(int(v) for v in r) for r in rects]

    def rectangles(self, frames: np.ndarray):
        t = frames.shape[0]
        if len(self.rects) != t:
            raise LocalizationError(min(len(self.rects), t),
                                    f"{len(self.rects)} rectangles for {t} frames")
        return self.rects


# -- resampling ----------------------------------------------------------------


def _lerp_into(a: np.ndarray, b: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """a + wt * (b - a), computed in b's buffer.

    The lerp form is exact for constant fields regardless of weight
    roundoff.
    """
    b -= a
    b *= wt
    b += a
    return b


def _resize_frames_u8(frames: np.ndarray, side: int) -> np.ndarray:
    """Bilinear resize of uint8 [T, H, W, C] to [T, side, side, C].

    Half-pixel centers, so a side->side resize is the identity; sample
    coordinates are clamped to the frame (edge replication). The sampling
    grid is built once and each frame is resampled on its own into the
    uint8 output, so the float64 working set is a few output frames,
    whatever the video's length. Each corner is gathered from the input
    and only then widened to float64.
    """
    t, h, w, c = frames.shape
    ys = np.clip((np.arange(side) + 0.5) * (h / side) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(side) + 0.5) * (w / side) - 0.5, 0.0, w - 1.0)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    y0 = np.floor(yy).astype(np.intp)
    x0 = np.floor(xx).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (yy - y0)[:, :, None]
    wx = (xx - x0)[:, :, None]

    out = np.empty((t, side, side, c), dtype=np.uint8)
    for frame, dst in zip(frames, out):
        top = _lerp_into(frame[y0, x0].astype(np.float64), frame[y0, x1].astype(np.float64), wx)
        bot = _lerp_into(frame[y1, x0].astype(np.float64), frame[y1, x1].astype(np.float64), wx)
        v = _lerp_into(top, bot, wy)
        dst[...] = np.clip(np.rint(v, out=v), 0, 255, out=v)
    return out


# -- pipeline stages -------------------------------------------------------------


def localize_and_resize(video: RawVideo, localizer: FaceLocalizer, side: int) -> np.ndarray:
    """Crop each frame to its face rectangle, then resize to side x side."""
    frames = video.frames
    t, h, w, _ = frames.shape
    rects = list(localizer.rectangles(frames))
    for i, (x, y, rw, rh) in enumerate(rects):
        if rw <= 0 or rh <= 0:
            raise LocalizationError(i, f"degenerate rectangle {(x, y, rw, rh)}")
        if x < 0 or y < 0 or x + rw > w or y + rh > h:
            raise LocalizationError(i, f"rectangle {(x, y, rw, rh)} exceeds frame {(h, w)}")
    if len(set(rects)) == 1:
        x, y, rw, rh = rects[0]
        return _resize_frames_u8(frames[:, y:y + rh, x:x + rw], side)
    out = np.empty((t, side, side, 3), dtype=np.uint8)
    for i, (x, y, rw, rh) in enumerate(rects):
        out[i] = _resize_frames_u8(frames[i:i + 1, y:y + rh, x:x + rw], side)[0]
    return out


def standardize_length(frames: np.ndarray, length: int) -> np.ndarray:
    """Trim to the first `length` frames, or pad by repeating from frame 0."""
    t = frames.shape[0]
    if t >= length:
        return frames[:length]
    pad_idx = np.arange(length - t) % t
    return np.concatenate([frames, frames[pad_idx]], axis=0)


def segment_clips(frames: np.ndarray, clip_len: int) -> list[np.ndarray]:
    """Contiguous non-overlapping blocks; concatenation rebuilds the input."""
    t = frames.shape[0]
    if t % clip_len != 0:
        raise ValueError(f"length {t} not divisible by clip length {clip_len}")
    return [frames[i:i + clip_len] for i in range(0, t, clip_len)]


def normalize_pixels(frames: np.ndarray) -> np.ndarray:
    return frames.astype(np.float32) / np.float32(255.0)


def equalize_histogram(channel: np.ndarray) -> np.ndarray:
    """Classic cdf-remap contrast stretch on one uint8 channel.

    m(v) = round((cdf(v) - cdf_min) / (N - cdf_min) * 255); a constant
    channel maps to zeros (the 0/0 guard).
    """
    if channel.dtype != np.uint8:
        raise ValueError(f"equalization expects uint8, got {channel.dtype}")
    hist = np.bincount(channel.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    n = channel.size
    cdf_min = int(cdf[np.nonzero(hist)[0][0]])
    if n == cdf_min:
        return np.zeros_like(channel)
    lut = np.rint((cdf - cdf_min) / (n - cdf_min) * 255.0)
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return lut[channel]


def equalize_frames(frames: np.ndarray) -> np.ndarray:
    """Per-frame, per-channel equalization of uint8 [T, S, S, C]."""
    out = np.empty_like(frames)
    for ti in range(frames.shape[0]):
        for ci in range(frames.shape[-1]):
            out[ti, :, :, ci] = equalize_histogram(frames[ti, :, :, ci])
    return out


# -- full chain -------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    side: int = 224
    length: int = 300
    clip_len: int = 30

    def __post_init__(self):
        if self.length % self.clip_len != 0:
            raise ValueError(f"length {self.length} not divisible by clip_len {self.clip_len}")


def preprocess_video(video: RawVideo, cfg: PipelineConfig,
                     localizer: FaceLocalizer | None = None) -> list[Clip]:
    """crop/resize -> standardize length -> equalize -> segment -> normalize."""
    loc = localizer if localizer is not None else CenterSquareLocalizer()
    frames = localize_and_resize(video, loc, cfg.side)
    frames = standardize_length(frames, cfg.length)
    frames = equalize_frames(frames)
    blocks = segment_clips(frames, cfg.clip_len)
    return [
        Clip(frames=normalize_pixels(b), parent_id=video.source_id, clip_index=i)
        for i, b in enumerate(blocks)
    ]
