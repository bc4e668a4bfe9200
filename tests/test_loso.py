import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidmood.loso import Fold, grouped_kfold, make_loso_folds


def _subject_ids(n):
    return [f"s{i:03d}" for i in range(n)]


def test_three_subjects_three_folds():
    folds = make_loso_folds(["C", "A", "B"])
    assert [f.test_subjects for f in folds] == [("A",), ("B",), ("C",)]
    for f in folds:
        assert len(f.val_subjects) == 1  # max(1, floor(2 * 0.1))
        assert len(f.train_subjects) == 1


def test_one_fold_per_subject_at_scale():
    folds = make_loso_folds(_subject_ids(178))
    assert len(folds) == 178
    held_out = [f.test_subjects[0] for f in folds]
    assert sorted(held_out) == _subject_ids(178)


def test_rejects_too_few_subjects():
    with pytest.raises(ValueError):
        make_loso_folds(["A", "B"])


def test_rejects_bad_val_fraction():
    with pytest.raises(ValueError):
        make_loso_folds(_subject_ids(5), val_fraction=1.0)


def test_folds_are_deterministic_per_seed():
    a = make_loso_folds(_subject_ids(12), seed=7)
    b = make_loso_folds(_subject_ids(12), seed=7)
    assert a == b
    c = make_loso_folds(_subject_ids(12), seed=8)
    assert any(x.val_subjects != y.val_subjects for x, y in zip(a, c))


def test_duplicate_subjects_are_collapsed():
    folds = make_loso_folds(["A", "A", "B", "C", "B"])
    assert len(folds) == 3


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 50), seed=st.integers(0, 2**31), frac=st.floats(0.0, 0.5))
def test_loso_partition_properties(n, seed, frac):
    subjects = _subject_ids(n)
    folds = make_loso_folds(subjects, val_fraction=frac, seed=seed)
    assert len(folds) == n
    for f in folds:
        parts = set(f.test_subjects) | set(f.val_subjects) | set(f.train_subjects)
        # disjoint (enforced by Fold) and jointly exhaustive
        assert parts == set(subjects)
        assert len(f.test_subjects) + len(f.val_subjects) + len(f.train_subjects) == n
        assert len(f.val_subjects) == max(1, int((n - 1) * frac))
    # every subject held out exactly once
    assert sorted(t for f in folds for t in f.test_subjects) == subjects
    # LOSO is grouped k-fold with one subject per group
    assert folds == grouped_kfold(subjects, n, frac, seed)


def test_fold_validates_overlap():
    with pytest.raises(ValueError):
        Fold(test_subjects=("A",), val_subjects=("A",), train_subjects=("B",))
    with pytest.raises(ValueError):
        Fold(test_subjects=("A",), val_subjects=(), train_subjects=())


def test_grouped_kfold_round_robin():
    folds = grouped_kfold(_subject_ids(7), k=3, seed=0)
    assert [f.test_subjects for f in folds] == [
        ("s000", "s003", "s006"), ("s001", "s004"), ("s002", "s005")]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**31))
def test_grouped_kfold_properties(n, seed):
    k = min(5, n)
    subjects = _subject_ids(n)
    folds = grouped_kfold(subjects, k=k, seed=seed)
    assert len(folds) == k
    covered = sorted(t for f in folds for t in f.test_subjects)
    assert covered == subjects  # test groups partition the subjects
    for f in folds:
        assert set(f.test_subjects) | set(f.val_subjects) | set(f.train_subjects) == set(subjects)


def test_grouped_kfold_rejects_bad_k():
    with pytest.raises(ValueError):
        grouped_kfold(_subject_ids(4), k=1)
    with pytest.raises(ValueError):
        grouped_kfold(_subject_ids(4), k=5)
