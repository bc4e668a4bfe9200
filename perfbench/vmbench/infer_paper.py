"""infer-paper: paper-scale inference, no tape and no optimizer.

Default configs of all three models score one 30x224x224 clip each at
batch 1 through ``predict_probs`` (which runs under ``no_grad``). Large
activations make memory traffic per op dominate. A round repeats the
fast vivit so that its throughput pools calls across the round. The heaviest layer of
each model is checked on activations captured during the first round.
"""

from __future__ import annotations

import time

import numpy as np

import vidmood.tensor as T
import vidmood.training as training
from vidmood.models import build_model, default_config, swin3d

from . import oracles
from .layers import MODELS

CLIP_SHAPE = (30, 224, 224, 3)
CLASSES = 2
LAYER_SAMPLES = 12     # sampled positions per layer check
SCHEDULE = ("vivit", "cnn_lstm", "vivit", "swin3d_t", "vivit")


class InferPaper:
    name = "infer-paper"
    ops_per_round = len(SCHEDULE)
    run_checks = len(MODELS)
    videos_per_round = 0

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.clip = np.random.default_rng([seed, 3]).random((1,) + CLIP_SHAPE, dtype=np.float32)
        self.models = {m: build_model(m, default_config(m, classes=CLASSES), seed=seed)
                       for m in MODELS}
        self.captured: dict[str, tuple] = {}

    def close(self):
        self.models.clear()

    def round(self, tracer):
        """The SCHEDULE's predict_probs calls. The first round also keeps the
        input and output of each model's heaviest layer for ``check_run``."""
        hooks = [] if self.captured else self._capture_hooks()
        try:
            out = []
            for m in SCHEDULE:
                with tracer.tagged(m):
                    t0 = time.perf_counter()
                    probs = training.predict_probs(self.models[m], self.clip, batch_size=1)
                    out.append(dict(model=m, probs=probs, seconds=time.perf_counter() - t0))
            return out
        finally:
            for undo in hooks:
                undo()

    def _capture_hooks(self):
        """Record the first call of cnn_lstm conv block 1, of swin3d_t's
        first shifted window attention and of vivit's first spatial block."""
        keep = self.captured

        def on_module(name, module):
            forward = module.forward

            def capture(x, *args, **kwargs):
                y = forward(x, *args, **kwargs)
                keep.setdefault(name, (x.data, y.data))
                return y

            module.forward = capture
            return lambda: delattr(module, "forward")

        target = self.models["swin3d_t"].stages[0][1].attn
        attention = swin3d.shifted_window_attention

        def capture_window(x, valid, attn, *args, **kwargs):
            y = attention(x, valid, attn, *args, **kwargs)
            if attn is target:
                keep.setdefault("swin3d_t", (x.data, y.data))
            return y

        swin3d.shifted_window_attention = capture_window
        return [on_module("cnn_lstm", self.models["cnn_lstm"].blocks[1]),
                on_module("vivit", self.models["vivit"].spatial_blocks[0]),
                lambda: setattr(swin3d, "shifted_window_attention", attention)]

    def check_round(self, out) -> list[str]:
        problems = []
        for o in out:
            problems += oracles.check_prob_rows(o["probs"], CLASSES, o["model"])
        return problems

    def clips_per_s(self, rounds) -> float:
        """Clips scored over predict_probs seconds, all calls pooled."""
        seconds = [o["seconds"] for r in rounds for o in r]
        return len(seconds) / sum(seconds)

    def metrics(self, rounds) -> dict[str, float]:
        """Clips scored over seconds spent, pooled over a model's calls."""
        out = {}
        for m in MODELS:
            seconds = [o["seconds"] for r in rounds for o in r if o["model"] == m]
            out[f"infer_clips_per_s.{m}"] = len(seconds) / sum(seconds)
        return out

    def check_run(self) -> list[str]:
        """Each model's heaviest layer, as captured in the first round,
        against its defining formula at sampled positions."""
        rng = np.random.default_rng([self.seed, 29])
        return (check_cnn_block(self.models["cnn_lstm"], *self.captured["cnn_lstm"], rng)
                + check_swin_window(self.models["swin3d_t"], *self.captured["swin3d_t"], rng)
                + check_vivit_block(self.models["vivit"], self.clip,
                                    *self.captured["vivit"], rng))


def check_cnn_block(model, x, out, rng) -> list[str]:
    """conv3d + ReLU + max-pool of conv block 1 (input [1, C, T, H, W])."""
    blk = model.blocks[1]
    positions = [tuple(int(rng.integers(0, s)) for s in out.shape[1:])
                 for _ in range(LAYER_SAMPLES)]
    return oracles.check_conv_block(x[0], blk.kernel.data.astype(np.float64),
                                    blk.bias.data.astype(np.float64), out[0], positions,
                                    "cnn_lstm block 1")


def check_swin_window(model, x, out, rng) -> list[str]:
    """The first shifted block's window attention: the last window (wrapped
    and padded tokens) and one random window."""
    blk = model.stages[0][1]
    grid = x.shape[1:4]
    padded = tuple(-(-g // w) * w for g, w in zip(grid, blk.window))
    xp = np.zeros(padded + x.shape[-1:], dtype=np.float64)
    xp[:grid[0], :grid[1], :grid[2]] = x[0]
    p = {"qkv.weight": blk.attn.qkv.weight.data, "qkv.bias": blk.attn.qkv.bias.data,
         "proj.weight": blk.attn.proj.weight.data, "proj.bias": blk.attn.proj.bias.data,
         "table": blk.bias.table.data}
    p = {k: v.astype(np.float64) for k, v in p.items()}
    counts = [pd // w for pd, w in zip(padded, blk.window)]
    problems = []
    for index in ([c - 1 for c in counts], [int(rng.integers(0, c)) for c in counts]):
        problems += oracles.check_swin_window(xp, grid[0], out[0], blk.window, blk.shift, index, p,
                                              blk.attn.heads, "swin3d_t stage 0 block 1")
    return problems


def vivit_params(model) -> dict:
    """float64 parameters and shapes the vivit oracle needs."""
    cfg = model.cfg
    blk = model.spatial_blocks[0]
    p = {"proj.weight": model.proj.weight.data, "proj.bias": model.proj.bias.data,
         "pos_spatial": model.pos_spatial.data, "pos_temporal": model.pos_temporal.data,
         "cls_spatial": model.cls_spatial.data}
    p = {k: v.astype(np.float64) for k, v in p.items()}
    p.update({f"block.{k}": v.data.astype(np.float64) for k, v in blk.named_parameters()})
    p.update(frame_patch=cfg.frame_patch, image_patch=cfg.image_patch,
             n_w=cfg.input_shape[2] // cfg.image_patch, heads=cfg.heads)
    return p


def check_vivit_block(model, clip, block_in, block_out, rng) -> list[str]:
    """Tubelet embedding and the first spatial block at sampled tokens."""
    picks = [(int(rng.integers(0, model.n_t)), int(rng.integers(0, model.n_s)))
             for _ in range(LAYER_SAMPLES)]
    return oracles.check_vivit_block0(clip[0], block_in, block_out, vivit_params(model), picks,
                                      "vivit")
