"""Deterministic preprocessing: crop, resize, length standardization,
histogram equalization, clip segmentation and normalization.

Everything is pure given (input, config). Pixel work happens on uint8
until the final /255 normalization so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RawVideo",
    "Clip",
    "PipelineConfig",
    "CenterSquareLocalizer",
    "localize_and_resize",
    "standardize_length",
    "segment_clips",
    "normalize_pixels",
    "clip_stack_shape",
    "equalize_histogram",
    "equalize_frames",
    "preprocess_video",
]


@dataclass
class RawVideo:
    """Decoded video: uint8 frames [T, H, W, 3]."""

    frames: np.ndarray
    source_id: str

    def __post_init__(self):
        f = self.frames
        if f.ndim != 4 or f.shape[-1] != 3 or f.shape[0] < 1:
            raise ValueError(f"raw video needs [T, H, W, 3] frames, got {f.shape}")
        if f.dtype != np.uint8:
            raise ValueError(f"raw video frames must be uint8, got {f.dtype}")


@dataclass
class Clip:
    """Model input unit: float32 frames [F, S, S, 3] with values in [0, 1].

    ``preprocess_video``'s clips are rows of one clip stack, the caller's
    ``out`` when given, so a later write into that stack changes them.
    """

    frames: np.ndarray
    parent_id: str
    clip_index: int


class CenterSquareLocalizer:
    """Centered square of side min(H, W) in every frame: ``preprocess_video``'s crop."""

    def rectangle(self, frames: np.ndarray) -> tuple[int, int, int, int]:
        """The one (x, y, w, h) crop of ``frames`` [T, H, W, C]."""
        h, w = frames.shape[1:3]
        side = min(h, w)
        return (w - side) // 2, (h - side) // 2, side, side


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
    coordinates are clamped to the frame (edge replication). Separable:
    each frame is interpolated along W on just the source rows some output
    row reads (y0 or y1), then those rows along H. Every output sample gets
    the lerps of the direct 2-D form, top = lerp(f[y0, x0], f[y0, x1], wx),
    bot = lerp(f[y1, x0], f[y1, x1], wx), lerp(top, bot, wy), in float64
    and in that order, so the bytes do not depend on the split. The float64
    working set is a few output frames, whatever the video's length.
    """
    t, h, w, c = frames.shape
    ys = np.clip((np.arange(side) + 0.5) * (h / side) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(side) + 0.5) * (w / side) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    read = np.zeros(h, dtype=bool)  # the source rows some output row reads
    read[y0] = read[y1] = True
    rows, slot = np.flatnonzero(read), np.cumsum(read) - 1  # slot: a read row's place in rows
    top, bot = slot[y0], slot[y1]
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[:, None]

    out = np.empty((t, side, side, c), dtype=np.uint8)
    for frame, dst in zip(frames, out):
        src = frame[rows]
        lerped = _lerp_into(src[:, x0].astype(np.float64), src[:, x1].astype(np.float64), wx)
        v = _lerp_into(lerped[top], lerped[bot], wy)
        dst[...] = np.clip(np.rint(v, out=v), 0, 255, out=v)
    return out


# -- pipeline stages -------------------------------------------------------------


def localize_and_resize(video: RawVideo, localizer: CenterSquareLocalizer,
                        side: int) -> np.ndarray:
    """Crop every frame to the localizer's rectangle, then resize to side x side."""
    x, y, w, h = localizer.rectangle(video.frames)
    return _resize_frames_u8(video.frames[:, y:y + h, x:x + w], side)


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


def normalize_pixels(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """float32 frames / 255. The cast and the division run in ``out``, a
    float32 array of ``frames``' shape (allocated when not given), which is
    returned.
    """
    if out is None:
        out = np.empty(frames.shape, dtype=np.float32)
    _check_out(out, frames.shape)
    out[...] = frames
    return np.divide(out, np.float32(255.0), out=out)


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
        for name in ("side", "length", "clip_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.length % self.clip_len != 0:
            raise ValueError(f"length {self.length} not divisible by clip_len {self.clip_len}")


def _check_out(out: np.ndarray, shape: tuple) -> None:
    if out.shape != shape or out.dtype != np.float32:
        raise ValueError(f"out must be float32 {shape}, got {out.dtype} {out.shape}")


def clip_stack_shape(cfg: PipelineConfig) -> tuple[int, int, int, int, int]:
    """Shape of one video's clips stacked: [length / clip_len, clip_len, side, side, 3]."""
    return (cfg.length // cfg.clip_len, cfg.clip_len, cfg.side, cfg.side, 3)


def preprocess_video(video: RawVideo, cfg: PipelineConfig,
                     out: np.ndarray | None = None) -> list[Clip]:
    """center crop/resize -> standardize length -> equalize -> segment -> normalize.

    Only the first ``cfg.length`` frames are resized; each frame resizes
    on its own, so trimming first changes no byte. Each clip is normalized
    into its row of ``out``, a float32 array of ``clip_stack_shape(cfg)``
    (allocated when not given), so the returned clips' frames are views of
    it and one caller-owned stack can serve video after video.
    """
    shape = clip_stack_shape(cfg)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    _check_out(out, shape)
    trimmed = RawVideo(frames=video.frames[:cfg.length], source_id=video.source_id)
    frames = localize_and_resize(trimmed, CenterSquareLocalizer(), cfg.side)
    frames = standardize_length(frames, cfg.length)
    frames = equalize_frames(frames)
    blocks = segment_clips(frames, cfg.clip_len)
    return [
        Clip(frames=normalize_pixels(b, out=row), parent_id=video.source_id, clip_index=i)
        for i, (b, row) in enumerate(zip(blocks, out))
    ]
