"""Per-layer metrics: their names and units, and how a traced round's spans
reduce to them. The first few, per model, come from the untraced round the
traced run ends with. A metric a workload does not exercise reads 0."""

from __future__ import annotations

from collections import defaultdict

from .tracer import OP_CATEGORY

MODELS = ("vivit", "swin3d_t", "cnn_lstm")

# op categories each model actually calls; the rest would always read 0
MODEL_OPS = {
    "vivit": ("matmul", "softmax", "gelu", "take", "elementwise", "layout"),
    "swin3d_t": ("matmul", "softmax", "gelu", "take", "elementwise", "layout"),
    "cnn_lstm": ("conv3d", "maxpool3d", "matmul", "softmax", "take", "elementwise", "layout"),
}
MODEL_NN = {
    "vivit": ("LayerNorm", "MultiHeadAttention", "Mlp"),
    "swin3d_t": ("LayerNorm", "MultiHeadAttention", "Mlp"),
    "cnn_lstm": (),
}
MODEL_CHILDREN = {
    "vivit": ("proj", "spatial_blocks", "temporal_blocks", "head"),
    "swin3d_t": ("patch_embed", "stages", "merges", "norm", "head"),
    "cnn_lstm": ("blocks", "project", "lstm", "head"),
}
COVERAGE_TOL = 0.10   # layer spans' self times must cover >= 90% of a traced round

MIB = 1024.0 * 1024.0


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = [(f"fold_s.{m}", "s") for m in MODELS]
    out += [(f"train_clips_per_s.{m}", "clips/s") for m in MODELS]
    out += [(f"infer_clips_per_s.{m}", "clips/s") for m in MODELS]
    out += [("prep_videos_per_s", "videos/s"), ("clip_bytes_per_video", "bytes")]
    for m in MODELS:
        for op in MODEL_OPS[m]:
            out += [(f"tensor.{op}.calls.{m}", "count"), (f"tensor.{op}.fwd_s.{m}", "s"),
                    (f"tensor.{op}.out_mb.{m}", "MiB")]
    for m in MODELS:
        out += [(f"tape_nodes_per_step.{m}", "count"), (f"backward_ms.{m}", "ms")]
    for m in MODELS:
        out += [(f"nn.{cls}.fwd_s.{m}", "s") for cls in MODEL_NN[m]]
        out += [(f"{child}.fwd_s.{m}", "s") for child in MODEL_CHILDREN[m]]
        out.append((f"peak_traced_mb.{m}", "MiB"))
    for m in MODELS:
        out += [(f"train_fwd_ms.{m}", "ms"), (f"optim.step_ms.{m}", "ms"),
                (f"early_stop_s.{m}", "s"), (f"predict_s.{m}", "s")]
    for m in MODELS:
        out += [(f"weight_hash_s.{m}", "s"), (f"experiment.self_s.{m}", "s")]
    out += [("metrics.compute_s", "s"),
            ("pipeline.resize_s", "s"), ("pipeline.standardize_s", "s"),
            ("pipeline.equalize_s", "s"), ("pipeline.segment_normalize_s", "s"),
            ("pipeline.resize_peak_mb", "MiB"),
            ("vten.write_s", "s"), ("vten.write_mb", "MiB"), ("vten.read_s", "s"),
            ("cli.preprocess_self_s", "s"),
            ("trace.overhead", "ratio"), ("trace.coverage", "ratio")]
    return out


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def coverage(spans) -> float:
    """Share of the root span (index 0) covered by the self time of the
    layer spans under it."""
    root = spans[0]
    return sum(s.self_s for s in spans[1:] if s is not None) / root.dur


def derive(spans, videos: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Reduce one traced round's spans to the per-layer metrics."""
    v = defaultdict(float)
    has_child = {s.parent for s in spans if s is not None}
    backward_n = defaultdict(int)
    step_n = defaultdict(int)
    for i, s in enumerate(spans):
        if s is None:
            continue
        m, name, info = s.model, s.name, s.info or {}
        if name.startswith("tensor.") and name != "tensor.backward":
            cat = OP_CATEGORY[name[len("tensor."):]]
            if cat is not None and m is not None:
                v[f"tensor.{cat}.calls.{m}"] += 1
                v[f"tensor.{cat}.fwd_s.{m}"] += s.self_s
                v[f"tensor.{cat}.out_mb.{m}"] += info.get("bytes", 0) / MIB
            if i not in has_child and info.get("node"):
                v[f"tape_nodes_per_step.{m}"] += 1
        elif name == "tensor.backward":
            backward_n[m] += 1
            v[f"backward_ms.{m}"] += s.dur * 1e3
        elif name == "module":
            if info["cls"] in MODEL_NN.get(m, ()):
                v[f"nn.{info['cls']}.fwd_s.{m}"] += s.dur
            if info["child"] is not None:
                v[f"{info['child']}.fwd_s.{m}"] += s.dur
        elif name == "model":
            v[f"peak_traced_mb.{m}"] = max(v[f"peak_traced_mb.{m}"], info.get("peak", 0) / MIB)
            if info["grad"]:
                v[f"train_fwd_ms.{m}"] += s.dur * 1e3
        elif name == "training.loss_fn" and info["grad"]:
            v[f"train_fwd_ms.{m}"] += s.dur * 1e3
        elif name == "optim.step":
            step_n[m] += 1
            v[f"optim.step_ms.{m}"] += s.dur * 1e3
        elif name == "optim.early_stop":
            v[f"early_stop_s.{m}"] += s.dur
        elif name == "training.predict_probs":
            v[f"predict_s.{m}"] += s.dur
        elif name == "checkpoint.weight_hash":
            v[f"weight_hash_s.{m}"] += s.dur
        elif name == "experiment.run_experiment":
            v[f"experiment.self_s.{m}"] += s.dur
        elif name == "metrics.compute_metrics":
            v["metrics.compute_s"] += s.dur
        elif name == "pipeline.resize":
            v["pipeline.resize_s"] += s.dur
            v["pipeline.resize_peak_mb"] = max(v["pipeline.resize_peak_mb"],
                                               info.get("peak", 0) / MIB)
        elif name == "pipeline.standardize":
            v["pipeline.standardize_s"] += s.dur
        elif name == "pipeline.equalize":
            v["pipeline.equalize_s"] += s.dur
        elif name in ("pipeline.segment", "pipeline.normalize"):
            v["pipeline.segment_normalize_s"] += s.dur
        elif name == "vten.write":
            v["vten.write_s"] += s.dur
            v["vten.write_mb"] += info.get("bytes", 0) / MIB
        elif name == "vten.read":
            if not any(a.name == "cli.main" for a in _ancestors(spans, i)):
                v["vten.read_s"] += s.dur   # the check's read-back, not the CLI's input reads
        elif name == "cli.main":
            v["cli.preprocess_self_s"] += s.self_s
        if name in ("training.train_model", "training.predict_probs") and s.parent >= 0 \
                and spans[s.parent].name == "experiment.run_experiment":
            v[f"experiment.self_s.{m}"] -= s.dur

    for m in MODELS:
        steps = backward_n[m]
        for key in (f"tape_nodes_per_step.{m}", f"backward_ms.{m}", f"train_fwd_ms.{m}"):
            v[key] = v[key] / steps if steps else 0.0
        key = f"optim.step_ms.{m}"
        v[key] = v[key] / step_n[m] if step_n[m] else 0.0
    if videos:
        for key in ("pipeline.resize_s", "pipeline.standardize_s", "pipeline.equalize_s",
                    "pipeline.segment_normalize_s", "vten.write_s", "vten.write_mb",
                    "vten.read_s", "cli.preprocess_self_s"):
            v[key] /= videos
    v["trace.overhead"] = traced_wall / untraced_wall - 1.0
    v["trace.coverage"] = coverage(spans)
    return {name: float(v[name]) for name, _ in per_layer_metrics()}
