import tracemalloc

import numpy as np

from vidmood.checkpoint import state_hash, weight_hash
from vidmood.models import build_model, default_config

from test_acceptance import _REDUCED


def test_hash_is_order_independent_but_value_sensitive():
    state = {"x": np.arange(6, dtype=np.float32), "y": np.ones(2, dtype=np.float32)}
    flipped = dict(reversed(list(state.items())))
    assert state_hash(state) == state_hash(flipped)
    bumped = {k: v.copy() for k, v in state.items()}
    bumped["x"][0] += 1
    assert state_hash(bumped) != state_hash(state)


def test_hash_distinguishes_shape_and_dtype():
    a = {"x": np.zeros(4, dtype=np.float32)}
    b = {"x": np.zeros((2, 2), dtype=np.float32)}
    c = {"x": np.zeros(4, dtype=np.float64)}
    assert len({state_hash(a), state_hash(b), state_hash(c)}) == 3


def test_weight_hash_is_state_hash_without_a_weight_copy():
    cfg = default_config("cnn_lstm", input_shape=(16, 32, 32, 3), classes=3,
                         **_REDUCED["cnn_lstm"])
    model = build_model("cnn_lstm", cfg, seed=0)
    weight_bytes = sum(p.data.nbytes for p in model.parameters())
    tracemalloc.start()
    try:
        digest = weight_hash(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == state_hash(model.state_dict())
    assert peak < weight_bytes / 2, f"peak {peak} for {weight_bytes} parameter bytes"
