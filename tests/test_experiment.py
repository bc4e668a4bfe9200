import tracemalloc

import numpy as np
import pytest

from vidmood.experiment import (ExperimentSpec, _grouped_prediction, run_experiment,
                                select_records)
from vidmood.loso import Fold, grouped_kfold, make_loso_folds
from vidmood.manifest import VideoRecord
from vidmood.models import default_config
from vidmood.training import TrainConfig

from reference import grouped_prediction_loop_reference


def _record(subject, state, gds, task=1):
    return VideoRecord(subject_id=subject, video=f"videos/{subject}_t{task}_{state}.vten",
                       task=task, state=state, gds=gds, site="synthetic")


def _toy_records(n=4):
    # alternate depressed / not, one ON and one OFF recording each
    records = []
    for i in range(n):
        gds = 15 if i % 2 else 5
        sid = f"s{i:03d}"
        records.append(_record(sid, "ON", gds))
        records.append(_record(sid, "OFF", gds))
    return records


CLIP_SHAPE = (4, 8, 8, 1)


def _toy_loader(record):
    """Two clips per record; class signal injected into the pixel mean."""
    seed = abs(hash((record.subject_id, record.state))) % (2**32)
    rng = np.random.default_rng(seed)
    clips = rng.normal(0.0, 0.1, size=(2,) + CLIP_SHAPE).astype(np.float32)
    if record.gds >= 10:
        clips += 1.0
    return clips


def _tiny_cfg():
    return default_config("cnn_lstm", input_shape=CLIP_SHAPE, channels=(2,),
                          proj_dim=8, hidden=8)


def _tiny_train(**overrides):
    base = dict(max_epochs=2, optimizer="adam", lr=0.01, lr_decay="plateau",
                batch_size=4, loss="bce", patience=10, val_fraction=0.1, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# -- record selection -----------------------------------------------------------


def test_select_records_by_state():
    records = _toy_records(3) + [_record("s900", "ON", 25)]
    assert len(select_records(records, "both")) == 7
    on = select_records(records, "ON")
    assert len(on) == 4 and all(r.state == "ON" for r in on)
    off = select_records(records, "OFF")
    assert len(off) == 3 and all(r.state == "OFF" for r in off)


def test_select_records_rejects_unknown_filter():
    with pytest.raises(ValueError):
        select_records(_toy_records(3), "on")


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(model="cnn_lstm", task="regression")
    with pytest.raises(ValueError):
        ExperimentSpec(model="cnn_lstm", state_filter="BOTH")
    with pytest.raises(ValueError):
        ExperimentSpec(model="cnn_lstm", aggregation="frame")
    assert ExperimentSpec(model="cnn_lstm", task="binary").n_classes == 2
    assert ExperimentSpec(model="cnn_lstm", task="multiclass").n_classes == 3


# -- the full loop ----------------------------------------------------------------


def test_run_experiment_produces_all_report_levels():
    spec = ExperimentSpec(model="cnn_lstm", task="binary", state_filter="both")
    result = run_experiment(spec, _toy_records(4), _toy_loader, _tiny_cfg(), _tiny_train())
    assert set(result.reports) == {"clip", "video", "subject"}
    assert len(result.folds) == 4

    subject_report = result.headline
    assert subject_report["spec"] == {"model": "cnn_lstm", "task": "binary",
                                      "state_filter": "both", "aggregation": "subject"}
    # one aggregated prediction per subject
    assert int(np.sum(subject_report["confusion"])) == 4
    # every clip scored exactly once at clip level: 4 subjects * 2 records * 2 clips
    assert int(np.sum(result.reports["clip"]["confusion"])) == 16
    assert int(np.sum(result.reports["video"]["confusion"])) == 8
    for row in subject_report["folds"]:
        assert set(row) == {"subject", "epoch_stopped"}
        assert row["epoch_stopped"] >= 1
    for key in ("accuracy", "precision_macro", "recall_macro", "f1_macro"):
        assert 0.0 <= subject_report[key] <= 1.0


def test_run_experiment_is_deterministic():
    spec = ExperimentSpec(model="cnn_lstm", task="binary")
    a = run_experiment(spec, _toy_records(4), _toy_loader, _tiny_cfg(), _tiny_train())
    b = run_experiment(spec, _toy_records(4), _toy_loader, _tiny_cfg(), _tiny_train())
    assert a.reports == b.reports


def test_run_experiment_state_filter_restricts_clips():
    spec = ExperimentSpec(model="cnn_lstm", task="binary", state_filter="ON")
    result = run_experiment(spec, _toy_records(4), _toy_loader, _tiny_cfg(), _tiny_train())
    # 4 subjects * 1 ON record * 2 clips
    assert int(np.sum(result.reports["clip"]["confusion"])) == 8


def test_run_experiment_rejects_too_few_subjects():
    spec = ExperimentSpec(model="cnn_lstm", task="binary")
    with pytest.raises(ValueError, match="need >= 3"):
        run_experiment(spec, _toy_records(2), _toy_loader, _tiny_cfg(), _tiny_train())


def test_run_experiment_rejects_class_mismatch():
    spec = ExperimentSpec(model="cnn_lstm", task="multiclass")
    with pytest.raises(ValueError, match="classes"):
        run_experiment(spec, _toy_records(4), _toy_loader, _tiny_cfg(), _tiny_train())


def test_run_experiment_accepts_custom_folds():
    spec = ExperimentSpec(model="cnn_lstm", task="binary")
    subjects = sorted({r.subject_id for r in _toy_records(4)})
    folds = grouped_kfold(subjects, k=2, seed=0)
    result = run_experiment(spec, _toy_records(4), _toy_loader, _tiny_cfg(),
                            _tiny_train(), folds=folds)
    assert len(result.folds) == 2
    assert all(len(row["subject"]) == 2 for row in result.headline["folds"])


def test_run_experiment_flags_leaky_fold():
    spec = ExperimentSpec(model="cnn_lstm", task="binary")
    records = _toy_records(4)
    bad = [Fold(test_subjects=("s000",), val_subjects=("s001",),
                train_subjects=("s000x", "s002", "s003"))]
    # the guard compares at clip-assembly time, catching subject-id aliasing
    object.__setattr__(bad[0], "train_subjects", ("s000", "s002", "s003"))
    with pytest.raises(AssertionError):
        run_experiment(spec, records, _toy_loader, _tiny_cfg(), _tiny_train(), folds=bad)


def _traced_fold_peak(n_subjects):
    """Traced peak of one LOSO fold over an in-memory store of 144 KiB per
    subject (two records of two [4, 48, 48, 1] float32 clips), made before
    tracing starts; returns (peak, store bytes)."""
    shape = (4, 48, 48, 1)
    records = _toy_records(n_subjects)
    gen = np.random.default_rng(n_subjects)
    store = {r.video: gen.random((2, *shape), dtype=np.float32) for r in records}
    cfg = default_config("cnn_lstm", input_shape=shape, channels=(2,), proj_dim=8, hidden=8)
    spec = ExperimentSpec(model="cnn_lstm", task="binary")
    folds = make_loso_folds(sorted({r.subject_id for r in records}))[:1]
    tracemalloc.start()
    try:
        run_experiment(spec, records, lambda r: store[r.video], cfg,
                       _tiny_train(max_epochs=1), folds=folds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in store.values())


def test_fold_memory_is_bounded_by_the_batch_not_the_cohort():
    """Quadrupling the subjects grows a fold's traced peak by under a tenth
    of the store's growth: the fold trains on views of the loader's arrays
    and stacks one batch at a time, never a copy of the cohort."""
    small_peak, small_store = _traced_fold_peak(6)
    large_peak, large_store = _traced_fold_peak(24)
    grown = large_store - small_store
    assert large_peak - small_peak < 0.1 * grown, \
        f"peak grew {(large_peak - small_peak) >> 10} KiB for {grown >> 10} KiB of store"


def test_mixed_labels_in_a_group_are_rejected():
    spec = ExperimentSpec(model="cnn_lstm", task="binary")
    records = _toy_records(4)
    records.append(_record("s000", "ON", 25, task=2))  # same subject, other label
    with pytest.raises(ValueError, match="mixes labels"):
        run_experiment(spec, records, _toy_loader, _tiny_cfg(), _tiny_train())


def test_grouped_prediction_matches_loop_reference():
    """Keys in shuffled order, of mixed length and case: the same groups in
    the same order, each from the same rows, as the per-key list scan."""
    gen = np.random.default_rng(11)
    names = ["s1", "s10", "s2", "S3", "s1_b", "v", "s100"]
    keys = [names[i % len(names)] for i in range(150)]
    gen.shuffle(keys)
    labels = np.asarray([len(k) % 3 for k in keys], dtype=np.int64)
    probs = gen.dirichlet(np.ones(3), size=len(keys)).astype(np.float32)
    got, want = _grouped_prediction(probs, labels, keys), grouped_prediction_loop_reference(
        probs, labels, keys)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)

    labels[keys.index("s2")] = 0  # s2's clips now carry labels 0 and 2
    with pytest.raises(ValueError) as ours:
        _grouped_prediction(probs, labels, keys)
    with pytest.raises(ValueError) as theirs:
        grouped_prediction_loop_reference(probs, labels, keys)
    assert str(ours.value) == str(theirs.value) == "group 's2' mixes labels [0, 2]"
