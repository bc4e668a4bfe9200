"""Print SHA-256 digests of each classifier's numbers, for identity checks.

For each model, two lines:

- ``c07``: the logits and every parameter gradient (in ``named_parameters``
  order) of one sparse_cce step on a batch of 8 random 16x32x32 clips, at
  the reduced configs of c07 (tests/test_acceptance.py);
- ``paper``: ``predict_probs`` of one random 30x224x224 clip at the
  default config.

Every seed is fixed, so two checkouts that compute the same numbers print
the same lines. To compare a change against its parent, run this script
against each checkout's sources and diff the outputs:

    PYTHONPATH=<parent>/src python scripts/bitcheck.py > parent.txt
    PYTHONPATH=src python scripts/bitcheck.py > change.txt
    diff parent.txt change.txt
"""

import hashlib

import numpy as np

import vidmood.tensor as T
from vidmood.models import MODEL_NAMES, build_model, default_config
from vidmood.training import loss_fn, predict_probs

# the c07 model configs (tests/test_acceptance.py _REDUCED)
REDUCED = {
    "vivit": dict(embed_dim=32, spatial_depth=2, temporal_depth=2,
                  heads=4, mlp_dim=64, image_patch=8, frame_patch=4),
    "swin3d_t": dict(embed_dim=24, depths=(1, 1), heads=(2, 4),
                     window=(2, 4, 4), mlp_ratio=2),
    "cnn_lstm": dict(channels=(8, 16), proj_dim=32, hidden=32),
}
SEED = 7


def c07_digest(name: str) -> str:
    """Logits and parameter gradients of one taped c07-shape step."""
    model = build_model(name, default_config(name, input_shape=(16, 32, 32, 3), classes=3,
                                             **REDUCED[name]), seed=SEED)
    rng = np.random.default_rng([SEED, 1])
    clips = rng.random((8, 16, 32, 32, 3), dtype=np.float32)
    targets = rng.integers(0, 3, size=8)
    logits = model(T.tensor(clips))
    loss_fn(logits, targets, "sparse_cce").backward()
    h = hashlib.sha256(logits.data.tobytes())
    for pname, p in model.named_parameters():
        h.update(pname.encode())
        h.update(p.grad.tobytes())
    return h.hexdigest()


def paper_digest(name: str) -> str:
    """predict_probs of one paper-scale clip."""
    model = build_model(name, default_config(name, classes=2), seed=SEED)
    clip = np.random.default_rng([SEED, 2]).random((1, 30, 224, 224, 3), dtype=np.float32)
    return hashlib.sha256(predict_probs(model, clip, batch_size=1).tobytes()).hexdigest()


def main() -> None:
    for name in MODEL_NAMES:
        print(f"{name:10s} c07   {c07_digest(name)}", flush=True)
    for name in MODEL_NAMES:
        print(f"{name:10s} paper {paper_digest(name)}", flush=True)


if __name__ == "__main__":
    main()
