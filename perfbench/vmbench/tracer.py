"""Span tracer that wraps vidmood's public functions from outside.

``Tracer.install`` replaces each target attribute (a module function or a
class method) with a wrapper that records one span per call: its name, the
model the benchmark was running, its parent span, start, end and self time
(duration minus the time covered by child spans). Spans stay in memory
until ``write`` saves them; ``uninstall`` puts the original attributes
back. No program file is changed.
"""

from __future__ import annotations

import gzip
import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import vidmood.checkpoint as checkpoint
import vidmood.cli as cli
import vidmood.experiment as experiment
import vidmood.manifest as manifest
import vidmood.metrics as metrics
import vidmood.nn as nn
import vidmood.optim as optim
import vidmood.pipeline as pipeline
import vidmood.tensor as tensor
import vidmood.training as training
import vidmood.vten as vten
from vidmood.models import CnnLstmModel, SwinModel, ViViTModel

MODEL_CLASSES = (ViViTModel, SwinModel, CnnLstmModel)

# tensor op -> reported category; ops mapped to None are traced (their time
# counts as covered) but not reported: reductions and composites of other ops
OP_CATEGORY = {
    "conv3d": "conv3d", "maxpool3d": "maxpool3d", "matmul": "matmul",
    "softmax": "softmax", "gelu": "gelu", "take": "take",
    **{op: "elementwise" for op in ("add", "sub", "mul", "div", "neg", "exp", "log",
                                   "sqrt", "relu", "sigmoid", "tanh", "softplus")},
    **{op: "layout" for op in ("reshape", "transpose", "pad", "roll", "concat",
                              "broadcast_to")},
    "sum_": None, "mean": None, "log_softmax": None,
}


class Span:
    __slots__ = ("name", "model", "parent", "start", "end", "self_s", "info")

    def __init__(self, name, model, parent, start, end, self_s, info):
        self.name, self.model, self.parent = name, model, parent
        self.start, self.end, self.self_s, self.info = start, end, self_s, info

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.model: str | None = None      # set by the workload around each model's calls
        self._stack: list[list] = []        # open spans: [index, child seconds]
        self._saved: list[tuple] = []
        self._children: dict[int, str] = {}
        self.track_memory = False           # set by install_all

    # -- span bookkeeping ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, post=None, mem=False):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        frame = [idx, 0.0]
        parent = stack[-1][0] if stack else -1
        stack.append(frame)
        # memory spans run tracemalloc only while they are open, which keeps
        # its cost out of the rest of the round
        mem = mem and self.track_memory and not tracemalloc.is_tracing()
        if mem:
            tracemalloc.start()
        start = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            info = post(args, out) if post is not None else None
            if mem:
                info = dict(info or {}, peak=tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            spans[idx] = Span(name, self.model, parent, start, end, dur - frame[1], info)

    def span(self, name: str, block):
        """Run ``block()`` inside a span opened by the benchmark itself."""
        return self._call(name, block, (), {})

    @contextmanager
    def tagged(self, model: str | None):
        prev, self.model = self.model, model
        try:
            yield
        finally:
            self.model = prev

    # -- installing wrappers -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_function(self, owner, attr, name, post=None, mem=False):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, post, mem)

        self._patch(owner, attr, traced)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def install_stopwatch(self):
        """The one span the end-to-end train metrics need, and nothing else."""
        self.wrap_function(experiment, "train_model", "training.train_model")

    def install_all(self):
        """Every public layer boundary the per-layer metrics read; model calls
        and resizes also record their tracemalloc peak."""
        self.track_memory = True
        for op in OP_CATEGORY:
            self.wrap_function(tensor, op, f"tensor.{op}", post=_op_info)
        self.wrap_function(tensor.Tensor, "backward", "tensor.backward")
        self._wrap_module_call()
        self.wrap_function(training, "loss_fn", "training.loss_fn", post=_grad_info)
        self.wrap_function(training, "weight_hash", "checkpoint.weight_hash")
        self.wrap_function(checkpoint, "weight_hash", "checkpoint.weight_hash")
        self.wrap_function(optim.Adam, "step", "optim.step")
        self.wrap_function(optim.EarlyStopper, "update", "optim.early_stop")
        self.install_stopwatch()
        self.wrap_function(experiment, "run_experiment", "experiment.run_experiment")
        self.wrap_function(experiment, "compute_metrics", "metrics.compute_metrics")
        self.wrap_function(metrics, "compute_metrics", "metrics.compute_metrics")
        for owner in (experiment, training):
            self.wrap_function(owner, "predict_probs", "training.predict_probs")
        for fn, name in (("localize_and_resize", "resize"), ("standardize_length", "standardize"),
                         ("equalize_frames", "equalize"), ("segment_clips", "segment"),
                         ("normalize_pixels", "normalize")):
            self.wrap_function(pipeline, fn, f"pipeline.{name}", mem=(name == "resize"))
        self.wrap_function(pipeline, "preprocess_video", "pipeline.preprocess_video")
        self.wrap_function(cli, "preprocess_video", "pipeline.preprocess_video")
        for owner in (vten, cli):
            self.wrap_function(owner, "write_vten", "vten.write", post=_write_info)
            self.wrap_function(owner, "read_vten", "vten.read")
        for owner in (manifest, cli):  # the CLI holds its own references
            self.wrap_function(owner, "load_manifest", "manifest.load")
            self.wrap_function(owner, "save_manifest", "manifest.save")
        self.wrap_function(cli, "main", "cli.main")

    def _wrap_module_call(self):
        orig = nn.Module.__call__
        tracer = self

        def traced_call(module, *args, **kwargs):
            if isinstance(module, MODEL_CLASSES):
                tracer._children = _child_names(module)
                info = {"grad": tensor._grad_enabled}
                return tracer._call("model", orig, (module,) + args, kwargs,
                                    post=lambda a, o: info, mem=True)
            info = {"cls": type(module).__name__, "child": tracer._children.get(id(module))}
            return tracer._call("module", orig, (module,) + args, kwargs,
                                post=lambda a, o: info)

        self._patch(nn.Module, "__call__", traced_call)

    # -- output ----------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Save all spans, one JSON object per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                fh.write(json.dumps({"id": i, "name": s.name, "model": s.model, "parent": s.parent,
                                     "start": s.start, "end": s.end, "self_s": s.self_s,
                                     "info": s.info}) + "\n")


def _child_names(model) -> dict[int, str]:
    """id of each top-level child module; modules inside (nested) ModuleLists
    go under the list's name."""
    out = {}

    def add(value, name):
        if isinstance(value, nn.ModuleList):
            for item in value:
                add(item, name)
        elif isinstance(value, nn.Module):
            out[id(value)] = name

    for name, value in vars(model).items():
        add(value, name)
    return out


def _op_info(args, out):
    if isinstance(out, tensor.Tensor):
        return {"bytes": out.data.nbytes, "node": out._grad_fn is not None}
    return None


def _grad_info(args, out):
    return {"grad": tensor._grad_enabled}


def _write_info(args, out):
    return {"bytes": int(getattr(args[1], "nbytes", 0))}
