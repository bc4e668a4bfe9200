import math

import numpy as np
import pytest

from vidmood import tensor as T
from vidmood.nn import Linear, Module, Parameter
from vidmood.optim import Adam, AdamW, CosineSchedule, EarlyStopper, PlateauSchedule


def _param(value):
    return Parameter(np.asarray(value, dtype=np.float64), dtype=np.float64)


# -- adam ----------------------------------------------------------------------


def test_adam_first_step_closed_form():
    p = _param([1.0])
    p.grad = np.array([1.0])
    opt = Adam([p], lr=1e-3)
    opt.step()
    # m_hat = v_hat = 1 on the first step, so the update is lr / (1 + eps)
    want = 1.0 - 1e-3 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [want], rtol=0, atol=1e-15)
    assert abs((p.data[0] - 1.0) - (-9.99999e-4)) < 1e-9


def test_adam_zero_gradient_leaves_parameter():
    p = _param([2.5, -1.0])
    p.grad = np.zeros(2)
    opt = Adam([p], lr=0.1)
    for _ in range(3):
        opt.step()
    np.testing.assert_array_equal(p.data, [2.5, -1.0])


def test_adam_missing_gradient_counts_as_zero():
    p = _param([2.5])
    opt = Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [2.5])


def test_adam_matches_sequential_reference():
    rng = np.random.default_rng(0)
    p = _param(rng.normal(size=5))
    start = p.data.copy()
    opt = Adam([p], lr=0.01)
    grads = [rng.normal(size=5) for _ in range(4)]

    m = np.zeros(5)
    v = np.zeros(5)
    x = start.copy()
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        x = x - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, x, atol=1e-14)


def test_adam_descends_on_a_quadratic():
    p = _param([5.0])
    opt = Adam([p], lr=0.1)
    for _ in range(200):
        p.grad = 2.0 * p.data  # d/dx x^2
        opt.step()
    assert abs(p.data[0]) < 0.5


def test_adamw_zero_gradient_decays_parameter():
    p = _param([4.0])
    p.grad = np.zeros(1)
    opt = AdamW([p], lr=1e-3)
    opt.step()
    np.testing.assert_allclose(p.data, [4.0 * (1 - 1e-3 * 0.01)], rtol=1e-14)


def test_adamw_decay_is_decoupled_from_gradient():
    # with the same gradient, AdamW differs from Adam by exactly lr*wd*param
    g = np.array([0.3])
    pa = _param([2.0])
    pw = _param([2.0])
    pa.grad = g.copy()
    pw.grad = g.copy()
    Adam([pa], lr=1e-3).step()
    AdamW([pw], lr=1e-3).step()
    np.testing.assert_allclose(pw.data, pa.data - 1e-3 * 0.01 * 2.0, atol=1e-15)


def test_optimizer_preserves_float32_parameters():
    p = Parameter(np.ones(3, dtype=np.float32))
    p.grad = np.ones(3, dtype=np.float32)
    opt = AdamW([p], lr=1e-3)
    opt.step()
    assert p.data.dtype == np.float32


# -- schedules ------------------------------------------------------------------


def test_plateau_reduces_after_patience_stagnant_epochs():
    p = _param([0.0])
    opt = Adam([p], lr=1e-4)
    sched = PlateauSchedule(opt)
    sched.step(1.0)  # sets the best
    for _ in range(4):
        assert sched.step(1.0) == pytest.approx(1e-4)
    assert sched.step(1.0) == pytest.approx(1e-5)  # fifth stagnant epoch


def test_plateau_improvement_resets_counter():
    opt = Adam([_param([0.0])], lr=1e-3)
    sched = PlateauSchedule(opt)
    sched.step(1.0)
    for _ in range(4):
        sched.step(1.0)
    sched.step(0.5)  # real improvement
    for _ in range(4):
        assert sched.step(0.5) == pytest.approx(1e-3)
    assert sched.step(0.5) == pytest.approx(1e-4)


def test_plateau_tiny_improvement_does_not_reset():
    opt = Adam([_param([0.0])], lr=1e-3)
    sched = PlateauSchedule(opt)
    sched.step(1.0)
    for i in range(5):
        sched.step(1.0 - (i + 1) * 1e-5)  # below the improvement threshold
    assert opt.lr == pytest.approx(1e-4)


def test_cosine_schedule_closed_form():
    opt = Adam([_param([0.0])], lr=2e-3)
    sched = CosineSchedule(opt, max_epochs=200)
    assert sched.lr_at(0) == pytest.approx(2e-3)
    assert sched.lr_at(100) == pytest.approx(1e-3)
    assert sched.lr_at(200) == pytest.approx(0.0, abs=1e-18)
    for e in range(201):
        want = 2e-3 * 0.5 * (1 + math.cos(math.pi * e / 200))
        assert sched.lr_at(e) == pytest.approx(want)


def test_cosine_step_sets_optimizer_lr():
    opt = Adam([_param([0.0])], lr=1e-3)
    sched = CosineSchedule(opt, max_epochs=10)
    sched.step(5)
    assert opt.lr == pytest.approx(5e-4)


# -- early stopping ---------------------------------------------------------------


class _Toy(Module):
    def __init__(self, value):
        self.w = Parameter(np.array([value], dtype=np.float64), dtype=np.float64)

    def forward(self):
        raise NotImplementedError


def test_early_stop_constant_losses_stops_at_eleven():
    stopper = EarlyStopper(patience=10)
    model = _Toy(1.0)
    stopped_at = None
    for epoch in range(1, 100):
        if stopper.update(epoch, 1.0, model):
            stopped_at = epoch
            break
    assert stopped_at == 11


def test_early_stop_decreasing_losses_never_stops():
    stopper = EarlyStopper(patience=10)
    model = _Toy(1.0)
    for epoch in range(1, 201):
        assert not stopper.update(epoch, 1.0 / epoch, model)
    assert stopper.best_epoch == 200


def test_early_stop_improvement_resets_counter():
    stopper = EarlyStopper(patience=10)
    model = _Toy(1.0)
    losses = [1.0] * 8 + [0.5] + [0.5] * 10  # improvement at epoch 9
    stops = [stopper.update(e, l, model) for e, l in enumerate(losses, start=1)]
    assert stops.index(True) + 1 == 19
    assert stopper.best_epoch == 9


def test_early_stop_restores_best_weights():
    stopper = EarlyStopper(patience=3)
    model = _Toy(0.0)
    schedule = [(1, 0.9, 10.0), (2, 0.5, 20.0), (3, 0.8, 30.0),
                (4, 0.8, 40.0), (5, 0.8, 50.0)]
    for epoch, loss, weight in schedule:
        model.w.data = np.array([weight])
        assert stopper.update(epoch, loss, model) == (epoch == 5)
    stopper.restore(model)
    np.testing.assert_array_equal(model.w.data, [20.0])
    assert stopper.best_epoch == 2


def test_early_stop_best_state_is_a_copy():
    stopper = EarlyStopper(patience=5)
    model = _Toy(7.0)
    stopper.update(1, 0.3, model)
    model.w.data[0] = -1.0  # later mutation must not touch the snapshot
    stopper.restore(model)
    np.testing.assert_array_equal(model.w.data, [7.0])
