"""Corpus manifests: JSON arrays of per-video records.

A record ties one video file to its subject, acquisition task (1-6),
medication state, GDS score, and site. Paths are stored relative to the
manifest's directory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .atomic import atomic_write

__all__ = [
    "VideoRecord",
    "ManifestError",
    "load_manifest",
    "save_manifest",
]

STATES = ("ON", "OFF")
RECORD_FIELDS = ("subject_id", "video", "task", "state", "gds", "site")


class ManifestError(ValueError):
    """Schema violation in a manifest file."""


@dataclass(frozen=True)
class VideoRecord:
    subject_id: str
    video: str
    task: int
    state: str
    gds: int
    site: str

    def validate(self) -> "VideoRecord":
        if not isinstance(self.subject_id, str) or not self.subject_id:
            raise ManifestError(f"subject_id must be a non-empty string, got {self.subject_id!r}")
        if not isinstance(self.video, str) or not self.video:
            raise ManifestError(f"video must be a non-empty path string, got {self.video!r}")
        if not isinstance(self.task, int) or not 1 <= self.task <= 6:
            raise ManifestError(f"task must be an int in 1..6, got {self.task!r}")
        if self.state not in STATES:
            raise ManifestError(f"state must be ON or OFF, got {self.state!r}")
        if not isinstance(self.gds, int) or not 0 <= self.gds <= 30:
            raise ManifestError(f"gds must be an int in 0..30, got {self.gds!r}")
        if not isinstance(self.site, str):
            raise ManifestError(f"site must be a string, got {self.site!r}")
        return self


def load_manifest(path) -> list[VideoRecord]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    if not isinstance(doc, list):
        raise ManifestError(f"{path}: manifest must be a JSON array")
    records = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ManifestError(f"{path}: record {i} is not an object")
        unknown = sorted(set(entry) - set(RECORD_FIELDS))
        missing = sorted(set(RECORD_FIELDS) - set(entry))
        if unknown or missing:
            raise ManifestError(f"{path}: record {i} missing {missing}, unknown {unknown}")
        records.append(VideoRecord(**entry).validate())
    return records


def save_manifest(path, records) -> None:
    doc = [asdict(r.validate()) for r in records]
    with atomic_write(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")

