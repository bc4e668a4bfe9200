"""Tape size of one c07 training step: the nodes recorded between the bce
loss and the parameters, per model, at the acceptance gate's c07 scale
(reduced configs, batch 8, 16x32x32 clips). A rise means some layer went
back to recording a chain of small ops. And what the tape holds once
``backward`` has run: only the parameters' gradients."""

import tracemalloc

import numpy as np
import pytest

from vidmood import tensor as T
from vidmood.models import build_model, default_config
from vidmood.training import TrainConfig, loss_fn, train_model

from test_acceptance import _REDUCED

TAPE_NODES = {"vivit": 43, "swin3d_t": 44, "cnn_lstm": 277}


def tape_nodes(root: T.Tensor) -> int:
    """Tensors with a gradient closure reachable from ``root``."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes += t._grad_fn is not None
        stack.extend(t._parents)
    return nodes


def c07_model(name):
    cfg = default_config(name, input_shape=(16, 32, 32, 3), classes=2, **_REDUCED[name])
    return build_model(name, cfg, seed=0)


@pytest.mark.parametrize("name", sorted(TAPE_NODES))
def test_c07_step_tape_nodes(name):
    model = c07_model(name)
    clip = np.random.default_rng(0).random((8, 16, 32, 32, 3), dtype=np.float32)
    loss = loss_fn(model(T.tensor(clip)), np.array([0, 1] * 4), "bce")
    assert tape_nodes(loss) == TAPE_NODES[name]


@pytest.mark.parametrize("name", sorted(TAPE_NODES))
def test_backward_leaves_only_the_gradients(name):
    """After ``loss.backward()``, with the loss still referenced, what the
    step allocated is the parameters' gradients: backward released every
    node's saved arrays (a kept tape held 4.9 MiB for vivit, 8.1 for
    cnn_lstm and 16.2 for swin3d_t)."""
    model = c07_model(name)
    x = T.tensor(np.random.default_rng(0).random((8, 16, 32, 32, 3), dtype=np.float32))
    tracemalloc.start()
    try:
        loss = loss_fn(model(x), np.array([0, 1] * 4), "bce")
        loss.backward()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.parameters())
    assert loss._parents == ()
    assert held < grads + (1 << 20), f"held {held / 2 ** 20:.2f} MiB, grads {grads / 2 ** 20:.2f}"


@pytest.mark.parametrize("name", sorted(TAPE_NODES))
def test_two_train_steps_peak_as_one(name):
    """``train_model`` over two batches of 8 peaks within 1 MiB of one
    batch: the second step's forward does not run beside the first step's
    tape (which added 4.1 MiB for vivit and 12.2 for swin3d_t)."""
    clips = np.random.default_rng(1).random((16, 16, 32, 32, 3), dtype=np.float32)
    labels = np.array([0, 1] * 8)
    peaks = []
    for n in (8, 16):
        model = c07_model(name)
        tracemalloc.start()
        try:
            train_model(model, clips[:n], labels[:n], clips[:1], labels[:1],
                        TrainConfig(max_epochs=1, batch_size=8))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (1 << 20), f"peaks {[p / 2 ** 20 for p in peaks]} MiB"
