"""train-c07: the acceptance gate's learnability setting, cut to a few epochs.

20 balanced synthetic subjects, one 16x32x32 motion-magnitude clip per
video, the gate's reduced model configs, batch 8, multiclass task. Each
``run_experiment`` call trains one model on one fold of
``grouped_kfold(k=3)``: model i always trains on fold i, so the three
models together hold each subject out exactly once and the work per model
is the same for every seed. A round repeats the faster models and
interleaves the calls so that their figures span the whole round.
"""

from __future__ import annotations

import time

import numpy as np

import vidmood.experiment as experiment
import vidmood.tensor as T
import vidmood.training as training
from vidmood import synth
from vidmood.experiment import ExperimentSpec
from vidmood.loso import grouped_kfold
from vidmood.models import build_model, default_config
from vidmood.pipeline import (CenterSquareLocalizer, localize_and_resize, normalize_pixels,
                              standardize_length)
from vidmood.training import TrainConfig

from . import oracles
from .layers import MODELS

SUBJECTS, SIDE, FRAMES, FOLDS = 20, 32, 16, 3
EPOCHS = 2
TASK, CLASSES = "multiclass", 3
REDUCED = {   # the acceptance gate's c07 configs and learning rates
    "vivit": dict(embed_dim=32, spatial_depth=2, temporal_depth=2,
                  heads=4, mlp_dim=64, image_patch=8, frame_patch=4),
    "swin3d_t": dict(embed_dim=24, depths=(1, 1), heads=(2, 4),
                     window=(2, 4, 4), mlp_ratio=2),
    "cnn_lstm": dict(channels=(8, 16), proj_dim=32, hidden=32),
}
LR = {"vivit": 1e-3, "swin3d_t": 7e-4, "cnn_lstm": 3e-3}
GRAD_BATCH = 4        # clips in the finite-difference check's training step
SCHEDULE = ("vivit", "swin3d_t", "cnn_lstm", "vivit", "swin3d_t", "vivit", "swin3d_t", "vivit")


def build_corpus(seed: int):
    """Records and a video -> [1, T, H, W, C] clip store, as the gate builds
    them: per-pixel motion magnitude so the static face cancels out."""
    spec = synth.SynthSpec(n_subjects=SUBJECTS, frame_size=SIDE, length=FRAMES,
                           noise_level=0.01, seed=seed, class_weights=(1.0, 1.0, 1.0))
    records, store = [], {}
    for i in range(spec.n_subjects):
        for sr in synth.generate_subject(spec, i):
            frames = standardize_length(
                localize_and_resize(sr.video, CenterSquareLocalizer(), SIDE), FRAMES)
            clip = normalize_pixels(frames)
            clip = np.abs(clip - clip.mean(axis=0, keepdims=True))
            store[sr.record.video] = clip[None].astype(np.float32)
            records.append(sr.record)
    return records, store


class TrainC07:
    name = "train-c07"
    ops_per_round = len(SCHEDULE)
    run_checks = len(MODELS)
    videos_per_round = 0

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.records, self.store = build_corpus(seed)
        self.subjects = sorted({r.subject_id for r in self.records})
        self.folds = grouped_kfold(self.subjects, k=FOLDS, val_fraction=0.1, seed=seed)
        self.model_cfg = {m: default_config(m, input_shape=(FRAMES, SIDE, SIDE, 3),
                                            classes=CLASSES, **REDUCED[m]) for m in MODELS}
        self.train_cfg = {m: TrainConfig(max_epochs=EPOCHS, optimizer="adam", lr=LR[m],
                                         lr_decay="cosine", batch_size=8, loss="sparse_cce",
                                         patience=20, val_fraction=0.1, seed=seed)
                          for m in MODELS}
        self.gds = {r.video: r.gds for r in self.records}

    def close(self):
        pass

    def _records_of(self, subjects) -> int:
        chosen = set(subjects)
        return sum(1 for r in self.records if r.subject_id in chosen)

    def round(self, tracer):
        """One run_experiment call per SCHEDULE entry; returns what the
        checks and metrics need, in call order."""
        out = []
        for m in SCHEDULE:
            fold = self.folds[MODELS.index(m)]
            log = []

            def load(rec, log=log):
                log.append(rec.subject_id)
                return self.store[rec.video]

            first = len(tracer.spans)
            with tracer.tagged(m):
                t0 = time.perf_counter()
                result = experiment.run_experiment(
                    ExperimentSpec(model=m, task=TASK, aggregation="subject"), self.records,
                    load, self.model_cfg[m], self.train_cfg[m], folds=[fold])
                fold_s = time.perf_counter() - t0
            train_s = sum(s.dur for s in tracer.spans[first:]
                          if s is not None and s.name == "training.train_model")
            epochs = len(result.folds[0].train_result.epochs)
            out.append(dict(model=m, result=result, fold=fold, log=log, fold_s=fold_s,
                            train_s=train_s,
                            train_clips=epochs * self._records_of(fold.train_subjects)))
        return out

    def check_round(self, out) -> list[str]:
        problems = []
        for o in out:
            res, fold = o["result"], o["fold"]
            where = f"{o['model']} fold {self.folds.index(fold)}"
            problems += oracles.check_isolation(o["log"], fold, self._records_of(fold.test_subjects),
                                                where)
            problems += oracles.check_fold(res.folds[0], res.reports["clip"], res.reports["subject"],
                                           self.gds, CLASSES, where)
        first = {o["model"]: o for o in reversed(out)}
        problems += oracles.check_partition([first[m]["result"].folds[0].subjects for m in MODELS],
                                            self.subjects, "round")
        return problems

    def clips_per_s(self, rounds) -> float:
        """Training clips stepped over run_experiment seconds, all calls pooled."""
        calls = [o for r in rounds for o in r]
        return sum(o["train_clips"] for o in calls) / sum(o["fold_s"] for o in calls)

    def metrics(self, rounds) -> dict[str, float]:
        """Per model, pooling its calls: mean seconds per run_experiment
        call, and clips stepped over train_model seconds."""
        out = {}
        for m in MODELS:
            calls = [o for r in rounds for o in r if o["model"] == m]
            out[f"fold_s.{m}"] = sum(o["fold_s"] for o in calls) / len(calls)
            out[f"train_clips_per_s.{m}"] = (sum(o["train_clips"] for o in calls)
                                             / sum(o["train_s"] for o in calls))
        return out

    def check_run(self) -> list[str]:
        """One training step's gradient against float64 central differences."""
        problems = []
        rng = np.random.default_rng([self.seed, 17])
        train = self.folds[0].train_subjects
        recs = [r for r in self.records if r.subject_id in set(train)][:GRAD_BATCH]
        x = np.concatenate([self.store[r.video] for r in recs]).astype(np.float64)
        y = np.array([oracles.gds_band(r.gds) for r in recs])
        for m in MODELS:
            problems += gradient_check(m, build_model(m, self.model_cfg[m], seed=self.seed),
                                       x, y, rng)
        return problems


def gradient_check(name, model, x, y, rng, coords_per_param: int = 2) -> list[str]:
    """Backprop the sparse-CCE loss once in float64, then compare the
    gradient of the first, a middle and the last parameter tensor with
    central differences at the largest-magnitude coordinate and at random
    ones."""
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    model.zero_grad()
    training.loss_fn(model(T.tensor(x, dtype=np.float64)), y, "sparse_cce").backward()

    def loss():
        with T.no_grad():
            return training.loss_fn(model(T.tensor(x, dtype=np.float64)), y, "sparse_cce").item()

    named = list(model.named_parameters())
    problems = []
    for pname, p in (named[0], named[len(named) // 2], named[-1]):
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        picks = [np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)]
        picks += [tuple(int(rng.integers(0, s)) for s in grad.shape)
                  for _ in range(coords_per_param - 1)]
        for idx in picks:
            numeric = oracles.central_difference(loss, p.data, idx)
            problems += oracles.check_gradient(float(grad[idx]), numeric,
                                               f"{name} {pname}{list(idx)}")
    return problems
