"""Mini-batch training with seeded shuffling, validation-driven lr decay,
and early stopping with best-weight restore."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .checkpoint import weight_hash
from .nn import Module
from .optim import Adam, AdamW, CosineSchedule, EarlyStopper, PlateauSchedule
from .tensor import NumericError, Tensor

__all__ = ["TrainConfig", "TrainResult", "default_train_config", "loss_fn",
           "predict_probs", "train_model"]

OPTIMIZERS = ("adam", "adamw")
SCHEDULES = ("plateau", "cosine")
LOSSES = ("bce", "sparse_cce")

# final hyperparameters per model family: (optimizer, lr, decay)
_MODEL_DEFAULTS = {
    "vivit": ("adam", 1e-4, "plateau"),
    "swin3d_t": ("adam", 1e-4, "plateau"),
    "cnn_lstm": ("adamw", 1e-3, "cosine"),
}


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 200
    optimizer: str = "adam"
    lr: float = 1e-4
    lr_decay: str = "plateau"
    batch_size: int = 8
    loss: str = "sparse_cce"
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.lr_decay not in SCHEDULES:
            raise ValueError(f"lr_decay must be one of {SCHEDULES}, got {self.lr_decay!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.max_epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("max_epochs, batch_size, and patience must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


def default_train_config(model_name: str, task: str = "multiclass", **overrides) -> TrainConfig:
    if model_name not in _MODEL_DEFAULTS:
        raise ValueError(f"unknown model {model_name!r}; expected {tuple(_MODEL_DEFAULTS)}")
    optimizer, lr, decay = _MODEL_DEFAULTS[model_name]
    base = dict(optimizer=optimizer, lr=lr, lr_decay=decay,
                loss="bce" if task == "binary" else "sparse_cce")
    base.update(overrides)
    return TrainConfig(**base)


def loss_fn(logits: Tensor, targets, kind: str) -> Tensor:
    """Mean loss over the batch.

    bce treats class 1 as the positive of two logits: p = sigmoid(z1 - z0),
    evaluated in log-space. sparse_cce is
    -log_softmax(logits)[target].
    """
    y = np.asarray(targets)
    if y.ndim != 1 or not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"targets must be a 1-D integer vector, got {y.dtype} {y.shape}")
    if logits.ndim != 2 or logits.shape[0] != y.shape[0]:
        raise T.ShapeError(f"logits {logits.shape} do not pair with {y.shape[0]} targets")

    if kind == "bce":
        if np.any((y != 0) & (y != 1)):
            raise ValueError("bce targets must be 0 or 1")
        if logits.shape[1] != 2:
            raise T.ShapeError(f"bce expects 2 logits per sample, got {logits.shape[1]}")
        z = T.sub(logits[:, 1], logits[:, 0])
        # -[y log p + (1-y) log(1-p)] == softplus((1-2y) z), stable for large |z|
        return T.mean(T.softplus(T.mul(z, (1.0 - 2.0 * y).astype(logits.data.dtype))))

    if kind == "sparse_cce":
        if np.any(y < 0) or np.any(y >= logits.shape[1]):
            raise ValueError(f"targets out of range for {logits.shape[1]} classes")
        lsm = T.log_softmax(logits, axis=-1)
        picked = lsm[np.arange(y.shape[0]), y]
        return T.mul(T.mean(picked), -1.0)

    raise ValueError(f"loss kind must be one of {LOSSES}, got {kind!r}")


def predict_probs(model: Module, clips: Sequence[np.ndarray], batch_size: int = 8) -> np.ndarray:
    """Softmax class probabilities for a sequence of [T, H, W, C] clips (an
    array or a list of arrays)."""
    outs = []
    with T.no_grad():
        for start in range(0, len(clips), batch_size):
            logits = model(T.tensor(clips[start:start + batch_size]))
            outs.append(T.softmax(logits, axis=-1).data)
    return np.concatenate(outs, axis=0)


def _dataset_loss(model: Module, clips: Sequence[np.ndarray], labels: np.ndarray,
                  cfg: TrainConfig) -> float:
    total = 0.0
    with T.no_grad():
        for start in range(0, len(clips), cfg.batch_size):
            idx = slice(start, start + cfg.batch_size)
            batch_loss = loss_fn(model(T.tensor(clips[idx])), labels[idx], cfg.loss)
            total += batch_loss.item() * len(labels[idx])
    return total / len(labels)


@dataclass
class TrainResult:
    epochs: list[dict] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    weight_digest: str = ""

    def log_lines(self) -> list[str]:
        return [json.dumps(rec, sort_keys=True) for rec in self.epochs]


def train_model(model: Module, train_clips: Sequence[np.ndarray], train_labels: np.ndarray,
                val_clips: Sequence[np.ndarray], val_labels: np.ndarray,
                cfg: TrainConfig) -> TrainResult:
    """Train in place on sequences of [T, H, W, C] clips (an array or a list
    of arrays); the model ends at its best-validation-epoch weights."""
    n = len(train_clips)
    if n == 0:
        raise ValueError("empty training set")
    if len(val_clips) == 0:
        raise ValueError("empty validation set; schedules and stopping need one")
    if len(train_labels) != n or len(val_labels) != len(val_clips):
        raise ValueError("clip/label lengths differ")

    rng = np.random.default_rng(cfg.seed)
    opt_cls = Adam if cfg.optimizer == "adam" else AdamW
    opt = opt_cls(model.parameters(), lr=cfg.lr)
    plateau = PlateauSchedule(opt) if cfg.lr_decay == "plateau" else None
    cosine = CosineSchedule(opt, cfg.max_epochs) if cfg.lr_decay == "cosine" else None
    stopper = EarlyStopper(patience=cfg.patience)

    result = TrainResult()
    stopped = cfg.max_epochs
    for epoch0 in range(cfg.max_epochs):
        epoch = epoch0 + 1
        if cosine is not None:
            cosine.step(epoch0)
        perm = rng.permutation(n)
        total = 0.0
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            model.zero_grad()
            batch = T.tensor([train_clips[i] for i in idx])  # stacks only this batch
            loss = loss_fn(model(batch), train_labels[idx], cfg.loss)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite training loss {value} at epoch {epoch} batch {b} "
                    f"(lr {opt.lr:.3e}, batch of {len(idx)})")
            loss.backward()
            opt.step()
            total += value * len(idx)
        train_loss = total / n
        val_loss = _dataset_loss(model, val_clips, val_labels, cfg)
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss {val_loss} at epoch {epoch}")

        result.epochs.append({"epoch": epoch, "train_loss": train_loss,
                              "val_loss": val_loss, "lr": opt.lr})
        stop = stopper.update(epoch, val_loss, model)
        if plateau is not None:
            plateau.step(val_loss)
        if stop:
            stopped = epoch
            break

    stopper.restore(model)
    result.stopped_epoch = stopped
    result.best_epoch = stopper.best_epoch
    result.best_val_loss = stopper.best
    result.weight_digest = weight_hash(model)
    return result
