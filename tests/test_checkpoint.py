import numpy as np

from vidmood.checkpoint import state_hash


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
