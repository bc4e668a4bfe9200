"""Subject-level cross-validation splits.

All splits operate on subject ids, never on clips, so every clip of a
subject lands in exactly one partition. Fold RNG streams are seeded as
seed XOR fold_index so folds can run in any order or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Fold", "make_loso_folds", "grouped_kfold"]


@dataclass(frozen=True)
class Fold:
    test_subjects: tuple[str, ...]
    val_subjects: tuple[str, ...]
    train_subjects: tuple[str, ...]

    def __post_init__(self):
        test, val, train = map(set, (self.test_subjects, self.val_subjects, self.train_subjects))
        if (test & val) or (test & train) or (val & train):
            raise ValueError("fold partitions overlap")
        if not self.test_subjects or not self.train_subjects:
            raise ValueError("fold needs at least one test and one training subject")


def _split_off_validation(subjects: list[str], val_fraction: float,
                          rng: np.random.Generator) -> tuple[tuple[str, ...], tuple[str, ...]]:
    n_val = max(1, math.floor(len(subjects) * val_fraction))
    order = rng.permutation(len(subjects))
    val_idx = set(order[:n_val].tolist())
    val = tuple(s for i, s in enumerate(subjects) if i in val_idx)
    train = tuple(s for i, s in enumerate(subjects) if i not in val_idx)
    return val, train


def make_loso_folds(subjects, val_fraction: float = 0.1, seed: int = 0) -> list[Fold]:
    """One fold per subject; validation subjects drawn from the remaining
    training subjects (fraction of them, at least one)."""
    ordered = sorted(set(subjects))
    if len(ordered) < 3:
        raise ValueError(f"leave-one-subject-out needs >= 3 subjects, got {len(ordered)}")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    return grouped_kfold(ordered, len(ordered), val_fraction, seed)


def grouped_kfold(subjects, k: int, val_fraction: float = 0.1, seed: int = 0) -> list[Fold]:
    """k folds with subject-disjoint round-robin test groups."""
    ordered = sorted(set(subjects))
    if k < 2 or k > len(ordered):
        raise ValueError(f"need 2 <= k <= n_subjects, got k={k} for {len(ordered)} subjects")
    folds = []
    for fold_index in range(k):
        test = tuple(ordered[fold_index::k])
        rest = [s for s in ordered if s not in set(test)]
        rng = np.random.default_rng(seed ^ fold_index)
        val, train = _split_off_validation(rest, val_fraction, rng)
        folds.append(Fold(test_subjects=test, val_subjects=val, train_subjects=train))
    return folds
