"""Optimizers, learning-rate schedules, and early stopping."""

from __future__ import annotations

import math

import numpy as np

from .nn import Module, Parameter

__all__ = ["Adam", "AdamW", "PlateauSchedule", "CosineSchedule", "EarlyStopper"]

BETA1, BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
PLATEAU_FACTOR = 0.1
PLATEAU_PATIENCE = 5
MIN_IMPROVE = 1e-4  # a val-loss drop smaller than this is no improvement


class Adam:
    """Adam with bias correction; a missing gradient counts as zero."""

    def __init__(self, params: list[Parameter], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self._v = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else 0.0
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            self._decay(p)
            p.data = p.data - (self.lr * update).astype(p.data.dtype, copy=False)

    def _decay(self, p: Parameter) -> None:
        pass


class AdamW(Adam):
    """Adam plus decoupled weight decay applied directly to the parameter."""

    def _decay(self, p: Parameter) -> None:
        p.data = p.data - (self.lr * WEIGHT_DECAY) * p.data


class PlateauSchedule:
    """Multiply lr by PLATEAU_FACTOR after PLATEAU_PATIENCE consecutive
    non-improving epochs."""

    def __init__(self, optimizer):
        self.optimizer = optimizer
        self.best = math.inf
        self.stale = 0

    def step(self, val_loss: float) -> float:
        if val_loss < self.best - MIN_IMPROVE:
            self.best = val_loss
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= PLATEAU_PATIENCE:
                self.optimizer.lr *= PLATEAU_FACTOR
                self.stale = 0
        return self.optimizer.lr


class CosineSchedule:
    """lr(e) = lr0 * 0.5 * (1 + cos(pi * e / max_epochs)) for epoch index e."""

    def __init__(self, optimizer, max_epochs: int):
        self.optimizer = optimizer
        self.lr0 = optimizer.lr
        self.max_epochs = max_epochs

    def lr_at(self, epoch: int) -> float:
        return self.lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / self.max_epochs))

    def step(self, epoch: int) -> float:
        self.optimizer.lr = self.lr_at(epoch)
        return self.optimizer.lr


class EarlyStopper:
    """Stop after `patience` consecutive epochs without val-loss improvement;
    keeps a copy of the best-epoch weights for restoring."""

    def __init__(self, patience: int = 10):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.best_state: dict[str, np.ndarray] | None = None
        self.stale = 0

    def update(self, epoch: int, val_loss: float, model: Module) -> bool:
        """Record epoch `epoch` (1-based); True means training should stop."""
        if val_loss < self.best - MIN_IMPROVE:
            self.best = val_loss
            self.best_epoch = epoch
            self.best_state = model.state_dict()
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience

    def restore(self, model: Module) -> None:
        if self.best_state is not None:
            model.load_state_dict(self.best_state)
