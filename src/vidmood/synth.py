"""Synthetic facial-motion corpus with severity encoded in motion amplitude.

Each video shows a schematic face (ellipse head, two eye disks, a mouth
bar) whose mouth aperture oscillates sinusoidally at a per-task
frequency. Label information lives only in the oscillation amplitude
(absent > mild > severe, the hypomimia analogy), so per-frame appearance
shortcuts are weak and temporal models are genuinely exercised. ON/OFF
medication state scales amplitude by +/-10%.

All randomness flows from integer-keyed generator streams, so the same
spec regenerates byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .labels import SEVERITY_BANDS
from .manifest import VideoRecord, save_manifest
from .pipeline import RawVideo
from .vten import write_vten

__all__ = [
    "SynthSpec",
    "SynthRecord",
    "class_counts",
    "subject_classes",
    "build_records",
    "generate_subject",
    "generate_corpus",
    "cohort_spec",
]

_BG, _HEAD, _EYE, _MOUTH = 30.0, 200.0, 60.0, 90.0
_FPS, _SITE = 30, "synthetic"  # frame rate and site name of every video


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int
    frame_size: int = 64
    length: int = 60
    seed: int = 0
    class_weights: tuple[float, float, float] = (58.0, 95.0, 25.0)
    tasks: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    amplitudes: tuple[float, float, float] = (1.0, 0.5, 0.2)  # absent, mild, severe
    noise_level: float = 0.01
    n_on_only: int = 0
    n_off_only: int = 0

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ValueError(f"need at least 1 subject, got {self.n_subjects}")
        if self.frame_size < 16 or self.length < 1:
            raise ValueError(f"frame_size >= 16 and length >= 1 required, got "
                             f"{self.frame_size}x{self.length}")
        if not (self.amplitudes[0] > self.amplitudes[1] > self.amplitudes[2] >= 0):
            raise ValueError(f"amplitudes must strictly decrease with severity: {self.amplitudes}")
        if any(w < 0 for w in self.class_weights) or sum(self.class_weights) == 0:
            raise ValueError(f"class weights must be non-negative and not all zero: {self.class_weights}")
        if self.noise_level < 0:
            raise ValueError(f"noise level must be >= 0, got {self.noise_level}")
        if self.n_on_only + self.n_off_only > self.n_subjects:
            raise ValueError("single-state subject counts exceed n_subjects")


@dataclass(frozen=True)
class SynthRecord:
    record: VideoRecord
    video: RawVideo


def class_counts(n_subjects: int, weights) -> tuple[int, int, int]:
    """Largest-remainder apportionment; remainder ties go to the lower class."""
    total = float(sum(weights))
    quotas = [n_subjects * w / total for w in weights]
    base = [int(math.floor(q)) for q in quotas]
    leftover = n_subjects - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return tuple(base)


def subject_classes(spec: SynthSpec) -> np.ndarray:
    """Severity class per subject index, seeded permutation of the quota blocks."""
    counts = class_counts(spec.n_subjects, spec.class_weights)
    blocks = np.repeat(np.arange(3), counts)
    perm = np.random.default_rng([spec.seed, 101]).permutation(spec.n_subjects)
    out = np.empty(spec.n_subjects, dtype=np.int64)
    out[perm] = blocks
    return out


def _subject_id(i: int) -> str:
    return f"s{i:03d}"


def _subject_states(spec: SynthSpec, i: int) -> tuple[str, ...]:
    """Trailing subjects are single-state: ON-only first, then OFF-only."""
    on_start = spec.n_subjects - spec.n_on_only - spec.n_off_only
    off_start = spec.n_subjects - spec.n_off_only
    if i >= off_start:
        return ("OFF",)
    if i >= on_start:
        return ("ON",)
    return ("ON", "OFF")


def _subject_gds(spec: SynthSpec, i: int, cls: int) -> int:
    lo, hi = SEVERITY_BANDS[cls]
    return int(np.random.default_rng([spec.seed, i, 202]).integers(lo, hi + 1))


def _video_name(subject_id: str, task: int, state: str) -> str:
    return f"videos/{subject_id}_t{task}_{state}.vten"


def _subject_records(spec: SynthSpec, subject: int, cls: int) -> list[VideoRecord]:
    """One subject's manifest records, task by task, each in its states."""
    sid = _subject_id(subject)
    gds = _subject_gds(spec, subject, cls)
    return [VideoRecord(subject_id=sid, video=_video_name(sid, task, state), task=task,
                        state=state, gds=gds, site=_SITE).validate()
            for task in spec.tasks for state in _subject_states(spec, subject)]


def build_records(spec: SynthSpec) -> list[VideoRecord]:
    """Manifest records only (no rendering) — cheap corpus-shape queries."""
    classes = subject_classes(spec)
    return [rec for i in range(spec.n_subjects)
            for rec in _subject_records(spec, i, int(classes[i]))]


def _task_frequency(task: int) -> float:
    return 1.0 + 0.5 * task  # 1.5 .. 4.0 Hz over tasks 1..6


def _geometry(spec: SynthSpec, subject: int) -> dict:
    """Per-subject face layout with mild seeded jitter."""
    g = np.random.default_rng([spec.seed, subject, 303])
    s = float(spec.frame_size)
    return {
        "head_c": (0.52 * s + g.uniform(-0.02, 0.02) * s, 0.50 * s + g.uniform(-0.02, 0.02) * s),
        "head_r": (0.42 * s * (1 + g.uniform(-0.03, 0.03)), 0.32 * s * (1 + g.uniform(-0.03, 0.03))),
        "eye_dx": 0.13 * s * (1 + g.uniform(-0.05, 0.05)),
        "eye_y": 0.40 * s + g.uniform(-0.02, 0.02) * s,
        "eye_r": 0.05 * s,
        "mouth_c": (0.68 * s + g.uniform(-0.02, 0.02) * s, 0.50 * s),
        "mouth_hw": 0.16 * s,
    }


def _ellipse_cov(yy, xx, cy, cx, ry, rx):
    # feathered coverage: ~1px anti-aliased edge so sub-pixel motion registers
    f = np.sqrt(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2)
    return np.clip((1.0 - f) * min(ry, rx) + 0.5, 0.0, 1.0)


def _over(img, cov, value):
    return img * (1.0 - cov) + value * cov


def _render_video(spec: SynthSpec, geom: dict, freq: float, amp_eff: float,
                  phase: float, noise_rng: np.random.Generator) -> np.ndarray:
    """u8 frames [length, S, S, 3]; only the mouth varies across time."""
    s, t_len = spec.frame_size, spec.length
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)

    base = np.full((s, s), _BG)
    cy, cx = geom["head_c"]
    ry, rx = geom["head_r"]
    base = _over(base, _ellipse_cov(yy, xx, cy, cx, ry, rx), _HEAD)
    for side in (-1.0, 1.0):
        base = _over(base, _ellipse_cov(yy, xx, geom["eye_y"], cx + side * geom["eye_dx"],
                                        geom["eye_r"], geom["eye_r"]), _EYE)

    my, mx = geom["mouth_c"]
    t = np.arange(t_len, dtype=np.float64)
    # mean aperture is class-independent; only the oscillation encodes severity
    hh = (0.035 + 0.03 * amp_eff * np.sin(2 * math.pi * freq * t / _FPS + phase)) * s
    cov_x = np.clip(geom["mouth_hw"] - np.abs(xx - mx) + 0.5, 0.0, 1.0)
    cov_y = np.clip(hh[:, None, None] - np.abs(yy - my)[None] + 0.5, 0.0, 1.0)
    mouth = cov_y * cov_x[None]
    frames = _over(base[None], mouth, _MOUTH)

    rgb = np.repeat(frames[..., None], 3, axis=-1)
    if spec.noise_level > 0:
        rgb = rgb + noise_rng.normal(0.0, spec.noise_level * 255.0, size=rgb.shape)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def generate_video(spec: SynthSpec, subject: int, cls: int, task: int, state: str) -> RawVideo:
    state_i = 0 if state == "ON" else 1
    phase = float(np.random.default_rng([spec.seed, subject, task, state_i, 404]).uniform(0, 2 * math.pi))
    noise_rng = np.random.default_rng([spec.seed, subject, task, state_i, 505])
    amp_eff = spec.amplitudes[cls] * (1.1 if state == "ON" else 0.9)
    frames = _render_video(spec, _geometry(spec, subject), _task_frequency(task),
                           amp_eff, phase, noise_rng)
    sid = _subject_id(subject)
    return RawVideo(frames=frames, source_id=f"{sid}_t{task}_{state}")


def generate_subject(spec: SynthSpec, subject: int) -> list[SynthRecord]:
    cls = int(subject_classes(spec)[subject])
    return [SynthRecord(record=rec, video=generate_video(spec, subject, cls, rec.task, rec.state))
            for rec in _subject_records(spec, subject, cls)]


def generate_corpus(spec: SynthSpec, out_dir) -> Path:
    """Write videos/*.vten plus manifest.json under out_dir; returns manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "videos").mkdir(parents=True, exist_ok=True)
    records = []
    for subject in range(spec.n_subjects):
        for item in generate_subject(spec, subject):
            write_vten(out_dir / item.record.video, item.video.frames)
            records.append(item.record)
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, records)
    return manifest_path


def cohort_spec(seed: int = 0, frame_size: int = 64, length: int = 60) -> SynthSpec:
    """Corpus shaped like the clinical cohort: 178 subjects, 150 recorded in
    both states, 16 ON-only, 12 OFF-only."""
    return SynthSpec(n_subjects=178, frame_size=frame_size, length=length,
                     seed=seed, n_on_only=16, n_off_only=12)
