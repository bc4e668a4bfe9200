"""prep-paper: the ``vidmood preprocess`` command on paper-shaped raw videos.

Each round preprocesses two square synthetic videos into 10 clips of
30x224x224: a 256-px, 320-frame video (trimmed to 300 frames) and a
240-px, 280-frame one (padded by repeating from frame 0), so both length
paths run. No model is involved. The sides stay small because resize
memory grows about 8x the raw video's bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

import vidmood.cli as cli
import vidmood.vten as vten
from vidmood.manifest import VideoRecord, save_manifest

from . import oracles

VIDEOS = ((256, 320), (240, 280))      # (side, frames) of each raw video
SIDE, LENGTH, CLIP_LEN = 224, 300, 30
FRAMES_CHECKED = 4                     # standardized frames compared per video


def raw_video(rng, side: int, frames: int) -> np.ndarray:
    """uint8 [frames, side, side, 3]: a smooth seeded pattern drifting one
    pixel per frame, plus sensor-like noise."""
    yy, xx = np.mgrid[0:side, 0:side] / side
    base = np.empty((side, side, 3))
    for c in range(3):
        fy, fx, ph = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0, 2 * math.pi)
        base[..., c] = 128 + 90 * np.sin(2 * math.pi * (fy * yy + fx * xx) + ph)
    wide = np.tile(np.rint(base).astype(np.int16), (1, 2, 1))
    video = np.empty((frames, side, side, 3), dtype=np.int16)
    for t in range(frames):
        video[t] = wide[:, t % side:t % side + side]
    video += rng.integers(-6, 7, size=video.shape, dtype=np.int16)
    return np.clip(video, 0, 255).astype(np.uint8)


class PrepPaper:
    name = "prep-paper"
    ops_per_round = len(VIDEOS)
    run_checks = 0
    videos_per_round = len(VIDEOS)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir)
        rng = np.random.default_rng([seed, 41])
        (self.dir / "raw" / "videos").mkdir(parents=True, exist_ok=True)
        self.raw, self.records = [], []
        for i, (side, frames) in enumerate(VIDEOS):
            video = raw_video(rng, side, frames)
            rel = f"videos/p{i:02d}_t1_ON.vten"
            vten.write_vten(self.dir / "raw" / rel, video)
            self.raw.append(video)
            self.records.append(VideoRecord(subject_id=f"p{i:02d}", video=rel, task=1 + i % 6,
                                            state="ON" if i % 2 == 0 else "OFF",
                                            gds=int(rng.integers(0, 31)), site="bench"))
        self.manifest = self.dir / "raw" / "manifest.json"
        save_manifest(self.manifest, self.records)
        self.config = self.dir / "run.json"
        self.config.write_text(json.dumps(
            {"data": {"side": SIDE, "length": LENGTH, "clip_len": CLIP_LEN}, "seed": seed}))
        self.out = self.dir / "prep"
        self.frame_ids = [[0, LENGTH - 1] + sorted(int(v) for v in rng.choice(
            np.arange(1, LENGTH - 1), FRAMES_CHECKED - 2, replace=False)) for _ in VIDEOS]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def check_run(self) -> list[str]:
        return []   # every round's outputs are checked in full

    def round(self, tracer):
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["preprocess", "--config", str(self.config),
                             "--manifest", str(self.manifest), "--out", str(self.out)])
        seconds = time.perf_counter() - t0
        return dict(code=code, seconds=seconds)

    def check_round(self, out) -> list[str]:
        if out["code"] != 0:
            return [f"preprocess exited {out['code']}"] * len(VIDEOS)
        problems = []
        try:
            written = json.loads((self.out / "manifest.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return [f"output manifest unreadable: {exc}"] * len(VIDEOS)
        problems += oracles.check_manifest([vars(r) for r in self.records], written, "manifest")
        out["bytes"] = []
        for i, (rec, row) in enumerate(zip(self.records, written)):
            path = self.out / row["video"]
            where = f"video {rec.video}"
            if not path.is_file():
                problems.append(f"{where}: clip file {row['video']} missing")
                continue
            out["bytes"].append(os.path.getsize(path))
            clips = vten.read_vten(path)
            found = oracles.check_clip_stack(clips, (LENGTH // CLIP_LEN, CLIP_LEN, SIDE, SIDE, 3), where)
            problems += found or oracles.check_prep_frames(self.raw[i], clips, self.frame_ids[i], where)
        return problems

    def clips_per_s(self, rounds) -> float:
        """Clips written over seconds of the preprocess command."""
        seconds = sum(r["seconds"] for r in rounds)
        return len(VIDEOS) * (LENGTH // CLIP_LEN) * len(rounds) / seconds

    def metrics(self, rounds) -> dict[str, float]:
        seconds = sum(r["seconds"] for r in rounds)
        return {"prep_videos_per_s": len(VIDEOS) * len(rounds) / seconds,
                "clip_bytes_per_video": float(np.mean(rounds[-1]["bytes"]))}
