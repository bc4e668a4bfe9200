"""Content hashing of model weights."""

from __future__ import annotations

import hashlib

import numpy as np

from .nn import Module

__all__ = ["weight_hash", "state_hash"]


def state_hash(state: dict[str, np.ndarray]) -> str:
    """Order-independent blake2s digest of a name -> array mapping."""
    h = hashlib.blake2s()
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr)
    return h.hexdigest()


def weight_hash(model: Module) -> str:
    """``state_hash(model.state_dict())``, read from the parameters in place."""
    return state_hash({name: p.data for name, p in model.named_parameters()})
