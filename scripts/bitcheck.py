"""Print SHA-256 digests of each classifier's numbers, for identity checks.

For each model, three lines:

- ``c07``: the logits and every parameter gradient (in ``named_parameters``
  order) of one sparse_cce step on a batch of 8 random 16x32x32 clips, at
  the reduced configs of c07 (tests/test_acceptance.py);
- ``paper``: ``predict_probs`` of one random 30x224x224 clip at the
  default config;
- ``paper-grad``: the loss and every parameter gradient of one taped
  sparse_cce step on that clip (batch 1) at the default config. These
  three lines take about 20-25 s on a 2-core machine and peak at about
  3.7 GiB resident (swin3d_t's step).

One more line per model, ``train``, digests ``train_model``'s
``weight_digest`` and fold log lines after 2 epochs of batches of 8 on a
fixed set of 24 training and 8 validation random 16x32x32 clips (3
classes) at the reduced c07 configs: Adam with the plateau schedule for
vivit and swin3d_t, AdamW with the cosine schedule for cnn_lstm (each
model's ``default_train_config``). It covers 6 optimizer steps and the
schedules, which no other line reaches.

A first line, ``prep``, digests the clip stacks that
``preprocess_video(video, cfg)`` returns for four seeded raw videos at a
32-px side: one trimmed to the standard length, one padded to it, and
two non-square ones (centre crops of a wide and of a tall frame).
A second line, ``resize``, digests ``localize_and_resize(video,
CenterSquareLocalizer(), side)`` on seeded raw videos of shapes ``prep``
does not reach: a 16x16 upscale to 224, a 720x1280 frame centre-cropped
to 224, a 4096x64 strip to 32 and a 1x5 frame to 32.

A third line, ``prims``, digests the outputs and the input, kernel and
bias gradients of ``gelu``, ``maxpool3d``, ``conv3d`` (stride (1, 2, 2),
padding 1) and ``conv_pool`` in float32 and float64, at batch 1 and 2, on
inputs of more than ``tensor.POOL_MIN_BYTES`` holding ties, signed zeros,
infinities and NaNs.

Each c07 digest is computed twice in the same process. The second pass
runs on freed, non-zero memory that the allocator hands back, so an op
that reads an ``np.empty`` buffer before writing it shows as a
``MISMATCH`` line.

Every seed is fixed, so two checkouts that compute the same numbers print
the same lines. To compare a change against its parent, run this script
against each checkout's sources and diff the outputs:

    PYTHONPATH=<parent>/src python scripts/bitcheck.py > parent.txt
    PYTHONPATH=src python scripts/bitcheck.py > change.txt
    diff parent.txt change.txt

The ``resize`` and ``prims`` lines call only public names and
signatures, so they run against any checkout that has them.
"""

import hashlib

import numpy as np

import vidmood.tensor as T
from vidmood.models import MODEL_NAMES, build_model, default_config
from vidmood.pipeline import (CenterSquareLocalizer, PipelineConfig, RawVideo,
                              localize_and_resize, preprocess_video)
from vidmood.training import default_train_config, loss_fn, predict_probs, train_model

# the c07 model configs (tests/test_acceptance.py _REDUCED)
REDUCED = {
    "vivit": dict(embed_dim=32, spatial_depth=2, temporal_depth=2,
                  heads=4, mlp_dim=64, image_patch=8, frame_patch=4),
    "swin3d_t": dict(embed_dim=24, depths=(1, 1), heads=(2, 4),
                     window=(2, 4, 4), mlp_ratio=2),
    "cnn_lstm": dict(channels=(8, 16), proj_dim=32, hidden=32),
}
SEED = 7
# training: (training clips, validation clips, epochs) of the train line
TRAIN_SET = (24, 8, 2)
# preprocessing: config and raw (frames, height, width) of each video
PREP_CFG = PipelineConfig(side=32, length=40, clip_len=10)
PREP_VIDEOS = ((50, 48, 48), (27, 40, 40), (40, 36, 60), (33, 70, 44))
# resizing: raw (frames, height, width) of each video and its output side
RESIZE_VIDEOS = ((3, 16, 16, 224), (2, 720, 1280, 224), (2, 4096, 64, 32), (3, 1, 5, 32))
# primitives: frames per [2, T, 256, 256] sample, so one sample passes 8 MiB
PRIM_FRAMES = {np.float32: 17, np.float64: 9}


def _with_grads(values: np.ndarray, model) -> str:
    """Digest of ``values`` then each parameter's name and gradient."""
    h = hashlib.sha256(values.tobytes())
    for pname, p in model.named_parameters():
        h.update(pname.encode())
        h.update(p.grad.tobytes())
    return h.hexdigest()


def c07_digest(name: str) -> str:
    """Logits and parameter gradients of one taped c07-shape step."""
    model = build_model(name, default_config(name, input_shape=(16, 32, 32, 3), classes=3,
                                             **REDUCED[name]), seed=SEED)
    rng = np.random.default_rng([SEED, 1])
    clips = rng.random((8, 16, 32, 32, 3), dtype=np.float32)
    targets = rng.integers(0, 3, size=8)
    logits = model(T.tensor(clips))
    loss_fn(logits, targets, "sparse_cce").backward()
    return _with_grads(logits.data, model)


def train_digest(name: str) -> str:
    """Weight digest and epoch log of a short ``train_model`` run at c07 shape."""
    model = build_model(name, default_config(name, input_shape=(16, 32, 32, 3), classes=3,
                                             **REDUCED[name]), seed=SEED)
    n_train, n_val, epochs = TRAIN_SET
    rng = np.random.default_rng([SEED, 6])
    clips = rng.random((n_train + n_val, 16, 32, 32, 3), dtype=np.float32)
    labels = rng.integers(0, 3, size=n_train + n_val)
    result = train_model(model, clips[:n_train], labels[:n_train], clips[n_train:],
                         labels[n_train:],
                         default_train_config(name, max_epochs=epochs, seed=SEED))
    h = hashlib.sha256(result.weight_digest.encode())
    h.update("\n".join(result.log_lines()).encode())
    return h.hexdigest()


def paper_digest(name: str) -> str:
    """predict_probs of one paper-scale clip."""
    model = build_model(name, default_config(name, classes=2), seed=SEED)
    clip = np.random.default_rng([SEED, 2]).random((1, 30, 224, 224, 3), dtype=np.float32)
    return hashlib.sha256(predict_probs(model, clip, batch_size=1).tobytes()).hexdigest()


def paper_grad_digest(name: str) -> str:
    """Loss and parameter gradients of one taped paper-scale batch-1 step."""
    model = build_model(name, default_config(name, classes=2), seed=SEED)
    clip = np.random.default_rng([SEED, 2]).random((1, 30, 224, 224, 3), dtype=np.float32)
    loss = loss_fn(model(T.tensor(clip)), np.array([1]), "sparse_cce")
    loss.backward()
    return _with_grads(loss.data, model)


def prep_digest() -> str:
    """Clip stacks of preprocessed seeded raw videos (trim, pad, crop)."""
    rng = np.random.default_rng([SEED, 3])
    h = hashlib.sha256()
    for i, shape in enumerate(PREP_VIDEOS):
        video = RawVideo(frames=rng.integers(0, 256, (*shape, 3), dtype=np.uint8),
                         source_id=f"v{i}")
        h.update(np.stack([c.frames for c in preprocess_video(video, PREP_CFG)]).tobytes())
    return h.hexdigest()


def resize_digest() -> str:
    """Centre-cropped, resized frames of seeded raw videos of other shapes."""
    rng = np.random.default_rng([SEED, 5])
    h = hashlib.sha256()
    for i, (*shape, side) in enumerate(RESIZE_VIDEOS):
        video = RawVideo(frames=rng.integers(0, 256, (*shape, 3), dtype=np.uint8),
                         source_id=f"r{i}")
        h.update(localize_and_resize(video, CenterSquareLocalizer(), side).tobytes())
    return h.hexdigest()


def _prim_input(rng, shape, dtype) -> np.ndarray:
    """Quarter steps in [-1, 1] (ties, exact sums, +-0); channel 0 also
    holds infinities and NaNs, so channel 1's kernel gradients stay finite."""
    x = (rng.integers(-4, 5, size=shape) / 4).astype(dtype)
    x[:, 1].flat[::7] = -0.0
    x[:, 0].flat[3::1009] = np.inf
    x[:, 0].flat[5::1013] = -np.inf
    x[:, 0].flat[::997] = np.nan
    return x


def prims_digest() -> str:
    """Outputs and gradients of gelu, maxpool3d, conv3d and conv_pool."""
    ops = {
        "gelu": lambda x, w, b: T.gelu(x),
        "maxpool3d": lambda x, w, b: T.maxpool3d(x, (2, 2, 2)),
        "conv3d": lambda x, w, b: T.conv3d(x, w, b, stride=(1, 2, 2), padding=1),
        "conv_pool": lambda x, w, b: T.conv_pool(x, w, b, 1, (1, 2, 2)),
    }
    h = hashlib.sha256()
    for dtype, frames in PRIM_FRAMES.items():
        for batch in (1, 2):
            for name, op in ops.items():
                rng = np.random.default_rng([SEED, 4, batch, frames])
                x = T.tensor(_prim_input(rng, (batch, 2, frames, 256, 256), dtype),
                             requires_grad=True)
                w = T.tensor((rng.integers(-2, 3, size=(3, 2, 3, 3, 3)) / 4).astype(dtype),
                             requires_grad=True)
                b = T.tensor((rng.integers(-2, 3, size=3) / 4).astype(dtype), requires_grad=True)
                with np.errstate(invalid="ignore", over="ignore"):
                    y = op(x, w, b)
                    g = rng.standard_normal(y.shape).astype(dtype)
                    T.sum_(T.mul(y, g)).backward()
                h.update(name.encode())
                for a in (y.data, x.grad, w.grad, b.grad):
                    h.update(b"-" if a is None else a.tobytes())
    return h.hexdigest()


def main() -> None:
    print(f"{'pipeline':10s} prep  {prep_digest()}", flush=True)
    print(f"{'pipeline':10s} resize {resize_digest()}", flush=True)
    print(f"{'tensor':10s} prims {prims_digest()}", flush=True)
    for name in MODEL_NAMES:
        digest = c07_digest(name)
        print(f"{name:10s} c07   {digest}", flush=True)
        again = c07_digest(name)
        if again != digest:
            print(f"{name:10s} c07   MISMATCH on reused memory: {again}", flush=True)
    for name in MODEL_NAMES:
        print(f"{name:10s} train {train_digest(name)}", flush=True)
    for name in MODEL_NAMES:
        print(f"{name:10s} paper {paper_digest(name)}", flush=True)
    for name in MODEL_NAMES:
        print(f"{name:10s} paper-grad {paper_grad_digest(name)}", flush=True)


if __name__ == "__main__":
    main()
