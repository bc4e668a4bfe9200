import json
import math

import numpy as np
import pytest

from vidmood import tensor as T
from vidmood.nn import Linear, Module
from vidmood.tensor import NumericError, ShapeError, Tensor
from vidmood.training import (TrainConfig, default_train_config, loss_fn,
                              predict_probs, train_model)


class TinyNet(Module):
    """Logistic regression over flattened clips; fast enough for loop tests."""

    def __init__(self, input_shape=(2, 2, 2, 1), classes=2, seed=0):
        self.din = int(np.prod(input_shape))
        self.fc = Linear(self.din, classes, np.random.default_rng(seed))

    def forward(self, clips):
        flat = T.reshape(clips, (clips.shape[0], self.din))
        return self.fc(flat)


def _toy_data(n=32, seed=0, classes=2):
    rng = np.random.default_rng(seed)
    clips = rng.normal(size=(n, 2, 2, 2, 1)).astype(np.float32)
    means = clips.reshape(n, -1).mean(axis=1)
    if classes == 2:
        labels = (means > 0).astype(np.int64)
    else:
        labels = np.digitize(means, [-0.2, 0.2]).astype(np.int64)
    clips[:, 0, 0, 0, 0] += labels * 2.0  # make the classes clearly separable
    return clips, labels


# -- config --------------------------------------------------------------------


def test_table_defaults_per_model():
    vivit = default_train_config("vivit")
    assert (vivit.optimizer, vivit.lr, vivit.lr_decay) == ("adam", 1e-4, "plateau")
    swin = default_train_config("swin3d_t")
    assert (swin.optimizer, swin.lr, swin.lr_decay) == ("adam", 1e-4, "plateau")
    cnn = default_train_config("cnn_lstm")
    assert (cnn.optimizer, cnn.lr, cnn.lr_decay) == ("adamw", 1e-3, "cosine")
    for cfg in (vivit, swin, cnn):
        assert cfg.max_epochs == 200
        assert cfg.batch_size == 8
        assert cfg.patience == 10


def test_loss_follows_task():
    assert default_train_config("vivit", task="binary").loss == "bce"
    assert default_train_config("vivit", task="multiclass").loss == "sparse_cce"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="sgd")
    with pytest.raises(ValueError):
        TrainConfig(lr_decay="step")
    with pytest.raises(ValueError):
        TrainConfig(loss="mse")
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        default_train_config("resnet")


# -- losses ---------------------------------------------------------------------


def test_bce_at_even_odds_is_ln2():
    logits = T.tensor(np.zeros((2, 2)))
    for target in ([0, 0], [1, 1], [0, 1]):
        loss = loss_fn(logits, np.array(target), "bce")
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_rejects_single_logit_column():
    with pytest.raises(T.ShapeError):
        loss_fn(T.tensor(np.zeros((3, 1))), np.array([1, 0, 1]), "bce")


def test_bce_confident_correct_is_tiny():
    logits = T.tensor(np.array([[0.0, 20.0], [20.0, 0.0]]))
    loss = loss_fn(logits, np.array([1, 0]), "bce")
    assert loss.item() <= 1e-6


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(16, 2))
    y = rng.integers(0, 2, size=16)
    loss = loss_fn(T.tensor(logits), y, "bce")
    p = 1.0 / (1.0 + np.exp(-(logits[:, 1] - logits[:, 0])))
    want = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert loss.item() == pytest.approx(want, abs=1e-10)


def test_bce_is_stable_at_extreme_logits():
    logits = T.tensor(np.array([[0.0, 500.0], [500.0, 0.0]]))
    loss = loss_fn(logits, np.array([0, 1]), "bce")
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(500.0, rel=1e-6)


def test_bce_gradient_is_sigmoid_minus_target():
    logits = Tensor(np.array([[0.5, -0.25]]), requires_grad=True)
    loss_fn(logits, np.array([1]), "bce").backward()
    z = -0.75
    p = 1.0 / (1.0 + math.exp(-z))
    np.testing.assert_allclose(logits.grad, [[1.0 - p, p - 1.0]], atol=1e-12)


def test_cce_uniform_is_ln3():
    logits = T.tensor(np.zeros((4, 3)))
    loss = loss_fn(logits, np.array([0, 1, 2, 1]), "sparse_cce")
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_cce_matches_direct_formula():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(10, 3))
    y = rng.integers(0, 3, size=10)
    loss = loss_fn(T.tensor(logits), y, "sparse_cce")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    logp = np.log(e / e.sum(axis=1, keepdims=True))
    assert loss.item() == pytest.approx(-np.mean(logp[np.arange(10), y]), abs=1e-10)


def test_loss_rejects_bad_targets():
    logits = T.tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        loss_fn(logits, np.array([0, 2]), "bce")
    with pytest.raises(ValueError):
        loss_fn(logits, np.array([0, 5]), "sparse_cce")
    with pytest.raises(ValueError):
        loss_fn(logits, np.array([0.5, 1.0]), "bce")
    with pytest.raises(ValueError):
        loss_fn(logits, np.array([0, 1]), "hinge")
    with pytest.raises(ShapeError):
        loss_fn(T.tensor(np.zeros((2, 3))), np.array([0, 1]), "bce")


# -- the loop -------------------------------------------------------------------


def _quick_cfg(**overrides):
    base = dict(max_epochs=5, optimizer="adam", lr=0.05, lr_decay="plateau",
                batch_size=8, loss="bce", patience=10, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_separable_toy_loss_decreases():
    clips, labels = _toy_data(n=32)
    model = TinyNet()
    result = train_model(model, clips, labels, clips[:8], labels[:8], _quick_cfg())
    losses = [rec["train_loss"] for rec in result.epochs]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    probs = predict_probs(model, clips)
    assert (probs.argmax(axis=1) == labels).mean() >= 0.9


def test_max_epochs_one_runs_once():
    clips, labels = _toy_data(n=16)
    result = train_model(TinyNet(), clips, labels, clips[:4], labels[:4],
                         _quick_cfg(max_epochs=1))
    assert len(result.epochs) == 1
    assert result.stopped_epoch == 1


def test_two_runs_same_seed_identical():
    clips, labels = _toy_data(n=24, seed=3)
    results = []
    for _ in range(2):
        model = TinyNet(seed=5)
        results.append(train_model(model, clips, labels, clips[:6], labels[:6],
                                   _quick_cfg(seed=11)))
    assert results[0].weight_digest == results[1].weight_digest
    assert results[0].epochs == results[1].epochs


def test_list_of_clips_trains_as_the_stacked_array():
    """A list of per-clip arrays, as the LOSO harness passes, gives the
    stacked array's epochs and weights bit for bit."""
    clips, labels = _toy_data(n=24, seed=3)
    results = []
    for train, val in ((clips, clips[:6]), (list(clips), list(clips[:6]))):
        results.append(train_model(TinyNet(seed=5), train, labels, val, labels[:6],
                                   _quick_cfg(seed=11)))
    assert results[0].weight_digest == results[1].weight_digest
    assert results[0].epochs == results[1].epochs


def test_different_seed_changes_updates():
    clips, labels = _toy_data(n=24, seed=3)
    digests = set()
    for seed in (1, 2):
        model = TinyNet(seed=5)
        digests.add(train_model(model, clips, labels, clips[:6], labels[:6],
                                _quick_cfg(seed=seed, max_epochs=2)).weight_digest)
    assert len(digests) == 2


def test_constant_losses_stop_at_eleven():
    clips, labels = _toy_data(n=16)
    cfg = _quick_cfg(lr=1e-18, max_epochs=50)  # updates vanish, loss plateaus
    result = train_model(TinyNet(), clips, labels, clips[:4], labels[:4], cfg)
    assert result.stopped_epoch == 11
    assert result.best_epoch == 1


def test_best_weights_restored_and_digest_matches():
    clips, labels = _toy_data(n=32, seed=7)
    # drive lr so high the loss goes up after a good start
    cfg = _quick_cfg(lr=0.5, max_epochs=12, patience=3)
    model = TinyNet(seed=2)
    result = train_model(model, clips, labels, clips[:8], labels[:8], cfg)
    assert result.weight_digest  # digest of the restored best weights
    best_rec = result.epochs[result.best_epoch - 1]
    assert best_rec["val_loss"] == pytest.approx(result.best_val_loss)
    assert min(r["val_loss"] for r in result.epochs) >= result.best_val_loss - 1e-4


def test_cosine_lr_trace():
    clips, labels = _toy_data(n=16)
    cfg = _quick_cfg(lr=1e-2, lr_decay="cosine", max_epochs=4)
    result = train_model(TinyNet(), clips, labels, clips[:4], labels[:4], cfg)
    for rec in result.epochs:
        want = 1e-2 * 0.5 * (1 + math.cos(math.pi * (rec["epoch"] - 1) / 4))
        assert rec["lr"] == pytest.approx(want)


def test_nan_weights_abort_with_diagnostics():
    clips, labels = _toy_data(n=16)
    model = TinyNet()
    model.fc.weight.data[0, 0] = np.inf
    with pytest.raises(NumericError, match="epoch 1"):
        train_model(model, clips, labels, clips[:4], labels[:4], _quick_cfg())


def test_rejects_empty_sets():
    clips, labels = _toy_data(n=8)
    with pytest.raises(ValueError):
        train_model(TinyNet(), clips[:0], labels[:0], clips, labels, _quick_cfg())
    with pytest.raises(ValueError):
        train_model(TinyNet(), clips, labels, clips[:0], labels[:0], _quick_cfg())


def test_log_lines_are_json():
    clips, labels = _toy_data(n=16)
    result = train_model(TinyNet(), clips, labels, clips[:4], labels[:4],
                         _quick_cfg(max_epochs=2))
    lines = result.log_lines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["epoch"] == i + 1
        assert set(rec) == {"epoch", "train_loss", "val_loss", "lr"}


def test_predict_probs_rows_sum_to_one():
    clips, labels = _toy_data(n=10)
    probs = predict_probs(TinyNet(), clips, batch_size=3)
    assert probs.shape == (10, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
