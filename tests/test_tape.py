"""Tape size of one c07 training step: the nodes recorded between the bce
loss and the parameters, per model, at the acceptance gate's c07 scale
(reduced configs, batch 8, 16x32x32 clips). A rise means some layer went
back to recording a chain of small ops."""

import numpy as np
import pytest

from vidmood import tensor as T
from vidmood.models import build_model, default_config
from vidmood.training import loss_fn

from test_acceptance import _REDUCED

TAPE_NODES = {"vivit": 51, "swin3d_t": 48, "cnn_lstm": 311}


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


@pytest.mark.parametrize("name", sorted(TAPE_NODES))
def test_c07_step_tape_nodes(name):
    cfg = default_config(name, input_shape=(16, 32, 32, 3), classes=2, **_REDUCED[name])
    model = build_model(name, cfg, seed=0)
    clip = np.random.default_rng(0).random((8, 16, 32, 32, 3), dtype=np.float32)
    loss = loss_fn(model(T.tensor(clip)), np.array([0, 1] * 4), "bce")
    assert tape_nodes(loss) == TAPE_NODES[name]
