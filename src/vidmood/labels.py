"""GDS score banding into severity and binary presence labels.

Scores 0-9 carry no depressive symptoms, 10-19 mild, 20-30 severe; the
binary task collapses mild/severe into "present".
"""

from __future__ import annotations

__all__ = [
    "SEVERITY_BANDS",
    "SEVERITY_CLASSES",
    "BINARY_CLASSES",
    "severity_class",
    "binary_class",
]

SEVERITY_CLASSES = ("absent", "mild", "severe")
SEVERITY_BANDS = ((0, 9), (10, 19), (20, 30))  # inclusive score range per severity class
BINARY_CLASSES = ("absent", "present")


def severity_class(score: int) -> int:
    """Multiclass index: absent 0, mild 1, severe 2."""
    if not isinstance(score, int) or isinstance(score, bool):
        raise ValueError(f"gds score must be an int, got {score!r}")
    for cls, (lo, hi) in enumerate(SEVERITY_BANDS):
        if lo <= score <= hi:
            return cls
    raise ValueError(f"gds score out of range 0..30: {score}")


def binary_class(score: int) -> int:
    """Binary index: absent 0, present 1 (mild and severe)."""
    return min(severity_class(score), 1)
