"""Experiment matrix: medication-state filtering, LOSO training, and
per-level aggregation into metric reports."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .labels import binary_class, severity_class
from .loso import Fold, make_loso_folds
from .manifest import STATES, VideoRecord
from .metrics import aggregate_predictions, compute_metrics
from .models import build_model
from .training import TrainConfig, TrainResult, predict_probs, train_model

__all__ = ["ExperimentSpec", "ExperimentResult", "select_records", "run_experiment"]

TASKS = ("binary", "multiclass")
AGGREGATIONS = ("clip", "video", "subject")
STATE_FILTERS = STATES + ("both",)


@dataclass(frozen=True)
class ExperimentSpec:
    model: str
    task: str = "binary"
    state_filter: str = "both"
    aggregation: str = "subject"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.state_filter not in STATE_FILTERS:
            raise ValueError(f"state_filter must be one of {STATE_FILTERS}, "
                             f"got {self.state_filter!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}, "
                             f"got {self.aggregation!r}")

    @property
    def n_classes(self) -> int:
        return 2 if self.task == "binary" else 3

    def as_dict(self) -> dict:
        return {"model": self.model, "task": self.task,
                "state_filter": self.state_filter, "aggregation": self.aggregation}


def select_records(records: Sequence[VideoRecord], state_filter: str) -> list[VideoRecord]:
    """Keep records matching the medication-state filter ('both' keeps all)."""
    if state_filter not in STATE_FILTERS:
        raise ValueError(f"state_filter must be one of {STATE_FILTERS}, got {state_filter!r}")
    if state_filter == "both":
        return list(records)
    return [r for r in records if r.state == state_filter]


def _record_label(record: VideoRecord, task: str) -> int:
    return binary_class(record.gds) if task == "binary" else severity_class(record.gds)


@dataclass
class FoldOutcome:
    subjects: tuple[str, ...]
    epoch_stopped: int
    train_result: TrainResult
    clip_probs: np.ndarray          # [n_test_clips, n_classes]
    clip_labels: np.ndarray         # [n_test_clips]
    clip_videos: list[str]
    clip_subjects: list[str]


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    reports: dict[str, dict]        # aggregation level -> metrics report
    folds: list[FoldOutcome]

    @property
    def headline(self) -> dict:
        return self.reports[self.spec.aggregation]


def _gather(records: Sequence[VideoRecord], subjects, task: str,
            load_clips: Callable[[VideoRecord], np.ndarray]):
    """Views of the chosen subjects' clips (no copy), and each clip's label, video, subject."""
    chosen = set(subjects)
    clips, labels, videos, subj = [], [], [], []
    for rec in records:
        if rec.subject_id not in chosen:
            continue
        batch = np.asarray(load_clips(rec))
        if batch.ndim != 5:
            raise ValueError(f"loader for {rec.video} returned shape {batch.shape}, "
                             "expected [n_clips, T, H, W, C]")
        label = _record_label(rec, task)
        clips.extend(batch)
        labels += [label] * len(batch)
        videos += [rec.video] * len(batch)
        subj += [rec.subject_id] * len(batch)
    if not clips:
        raise ValueError(f"no clips found for subjects {sorted(chosen)}")
    return clips, np.asarray(labels, dtype=np.int64), videos, subj


def _grouped_prediction(probs, labels, keys):
    """Aggregate clip probabilities by key, groups in sorted key order and
    each group's rows in clip order; returns (preds, labels) arrays."""
    groups, inverse = np.unique(np.asarray(keys), return_inverse=True)
    members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    preds, out_labels = [], []
    for key, idx in zip(groups.tolist(), members):
        preds.append(aggregate_predictions(probs[idx]))
        group_labels = np.unique(labels[idx]).tolist()
        if len(group_labels) != 1:
            raise ValueError(f"group {key!r} mixes labels {group_labels}")
        out_labels.append(group_labels[0])
    return np.asarray(preds), np.asarray(out_labels)


def run_experiment(spec: ExperimentSpec, records: Sequence[VideoRecord],
                   load_clips: Callable[[VideoRecord], np.ndarray],
                   model_config, train_cfg: TrainConfig,
                   folds: list[Fold] | None = None) -> ExperimentResult:
    """Train once per fold and score held-out clips at all three
    aggregation levels. ``folds`` defaults to leave-one-subject-out."""
    selected = select_records(records, spec.state_filter)
    subjects = sorted({r.subject_id for r in selected})
    if len(subjects) < 3:
        raise ValueError(f"state filter {spec.state_filter!r} leaves "
                         f"{len(subjects)} subjects; need >= 3")
    if getattr(model_config, "classes", spec.n_classes) != spec.n_classes:
        raise ValueError(f"model config has {model_config.classes} classes, "
                         f"task {spec.task!r} needs {spec.n_classes}")
    if folds is None:
        folds = make_loso_folds(subjects, val_fraction=train_cfg.val_fraction,
                                seed=train_cfg.seed)

    outcomes: list[FoldOutcome] = []
    for fold_index, fold in enumerate(folds):
        test_set = set(fold.test_subjects)
        if test_set & set(fold.train_subjects) or test_set & set(fold.val_subjects):
            raise AssertionError(f"fold {fold_index} leaks held-out subjects")
        train_x, train_y, _, train_subj = _gather(selected, fold.train_subjects,
                                                  spec.task, load_clips)
        val_x, val_y, _, val_subj = _gather(selected, fold.val_subjects,
                                            spec.task, load_clips)
        assert not (set(train_subj) | set(val_subj)) & test_set

        fold_seed = train_cfg.seed ^ fold_index
        model = build_model(spec.model, model_config, seed=fold_seed)
        result = train_model(model, train_x, train_y, val_x, val_y,
                             replace(train_cfg, seed=fold_seed))

        test_x, test_y, test_videos, test_subjects = _gather(
            selected, fold.test_subjects, spec.task, load_clips)
        probs = predict_probs(model, test_x, batch_size=train_cfg.batch_size)
        outcomes.append(FoldOutcome(
            subjects=fold.test_subjects, epoch_stopped=result.stopped_epoch,
            train_result=result, clip_probs=probs, clip_labels=test_y,
            clip_videos=test_videos, clip_subjects=test_subjects))

    all_probs = np.concatenate([o.clip_probs for o in outcomes])
    all_labels = np.concatenate([o.clip_labels for o in outcomes])
    all_videos = [v for o in outcomes for v in o.clip_videos]
    all_subjects = [s for o in outcomes for s in o.clip_subjects]

    fold_rows = [{"subject": o.subjects[0] if len(o.subjects) == 1 else list(o.subjects),
                  "epoch_stopped": o.epoch_stopped} for o in outcomes]

    reports = {}
    for level in AGGREGATIONS:
        if level == "clip":
            preds = all_probs.argmax(axis=1)
            labels = all_labels
        else:
            keys = all_videos if level == "video" else all_subjects
            preds, labels = _grouped_prediction(all_probs, all_labels, keys)
        scored = compute_metrics(preds, labels, spec.n_classes)
        reports[level] = {
            "spec": {**spec.as_dict(), "aggregation": level},
            **scored,
            "folds": fold_rows,
        }
    return ExperimentResult(spec=spec, reports=reports, folds=outcomes)
