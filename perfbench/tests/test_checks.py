"""Self-tests of the benchmark's own checks: each oracle accepts the
program's output on a small input and rejects a deliberately wrong one.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import vidmood.tensor as T  # noqa: E402
from vidmood.loso import grouped_kfold  # noqa: E402
from vidmood.metrics import compute_metrics  # noqa: E402
from vidmood.models import build_model, default_config  # noqa: E402
from vidmood.models.cnn_lstm import ConvBlock  # noqa: E402
from vidmood.models.swin3d import SwinBlock, shifted_window_attention  # noqa: E402
from vidmood.pipeline import PipelineConfig, RawVideo, preprocess_video  # noqa: E402

from vmbench import layers, oracles  # noqa: E402
from vmbench.infer_paper import vivit_params  # noqa: E402
from vmbench.tracer import Span, Tracer  # noqa: E402
from vmbench.train_c07 import gradient_check  # noqa: E402


# -- train-c07 oracles ---------------------------------------------------------------


def test_gds_bands():
    assert [oracles.gds_band(s) for s in (0, 9, 10, 19, 20, 30)] == [0, 0, 1, 1, 2, 2]
    with pytest.raises(ValueError):
        oracles.gds_band(31)


def test_report_oracle_agrees_with_program_and_rejects_tampering():
    rng = np.random.default_rng(0)
    preds, labels = rng.integers(0, 3, 40), rng.integers(0, 3, 40)
    program = compute_metrics(preds, labels, 3)
    expected = oracles.classification_report(preds, labels, 3)
    assert oracles.check_report(program, expected, "r") == []
    assert oracles.check_report(dict(program, accuracy=program["accuracy"] + 0.025), expected, "r")
    bad = json.loads(json.dumps(program))
    bad["confusion"][0][0] += 1
    assert oracles.check_report(bad, expected, "r")


def _fold_outcome():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.5, 0.4, 0.1], [0.2, 0.2, 0.6]])
    videos = ["a1", "a2", "b1", "b2"]
    gds = {"a1": 3, "a2": 3, "b1": 25, "b2": 25}
    outcome = SimpleNamespace(clip_probs=probs, clip_labels=np.array([0, 0, 2, 2]),
                              clip_videos=videos, clip_subjects=["a", "a", "b", "b"])
    clip = compute_metrics(probs.argmax(axis=1), outcome.clip_labels, 3)
    # subject votes: mean of a = [0.4, 0.25, 0.35] -> 0; mean of b = [0.35, 0.3, 0.35] -> 0 (tie)
    subject = compute_metrics(np.array([0, 0]), np.array([0, 2]), 3)
    return outcome, clip, subject, gds


def test_fold_check_accepts_program_reports():
    outcome, clip, subject, gds = _fold_outcome()
    assert oracles.check_fold(outcome, clip, subject, gds, 3, "f") == []


def test_fold_check_rejects_wrong_vote_labels_and_rows():
    outcome, clip, subject, gds = _fold_outcome()
    wrong_vote = compute_metrics(np.array([0, 2]), np.array([0, 2]), 3)  # mean-vote tie broken high
    assert oracles.check_fold(outcome, clip, wrong_vote, gds, 3, "f")
    assert oracles.check_fold(outcome, clip, subject, dict(gds, b1=15, b2=15), 3, "f")
    bad_rows = SimpleNamespace(**dict(vars(outcome), clip_probs=outcome.clip_probs * 0.9))
    assert oracles.check_fold(bad_rows, clip, subject, gds, 3, "f")


def test_prob_rows():
    good = np.array([[0.25, 0.75], [1.0, 0.0]], dtype=np.float32)
    assert oracles.check_prob_rows(good, 2, "p") == []
    assert oracles.check_prob_rows(np.array([[1.1, -0.1]]), 2, "p")
    assert oracles.check_prob_rows(np.array([[0.5, 0.49]]), 2, "p")
    assert oracles.check_prob_rows(np.array([[np.nan, 1.0]]), 2, "p")
    assert oracles.check_prob_rows(good, 3, "p")


def test_isolation_and_partition():
    subjects = [f"s{i}" for i in range(7)]
    folds = grouped_kfold(subjects, k=3, val_fraction=0.2, seed=0)
    fold = folds[0]
    log = list(fold.train_subjects) + list(fold.val_subjects) + list(fold.test_subjects)
    n_test = len(fold.test_subjects)
    assert oracles.check_isolation(log, fold, n_test, "i") == []
    leaky = [fold.test_subjects[0]] + log
    assert oracles.check_isolation(leaky, fold, n_test, "i")
    assert oracles.check_isolation(log[:-1] + [fold.train_subjects[0]], fold, n_test, "i")
    held = [f.test_subjects for f in folds]
    assert oracles.check_partition(held, subjects, "p") == []
    assert oracles.check_partition(held + [held[0]], subjects, "p")
    assert oracles.check_partition(held[:-1], subjects, "p")


def test_gradient_check_accepts_backprop_and_rejects_a_wrong_gradient():
    cfg = default_config("vivit", input_shape=(4, 8, 8, 3), image_patch=4, frame_patch=2,
                         embed_dim=8, spatial_depth=1, temporal_depth=1, heads=2, mlp_dim=16,
                         classes=3)
    rng = np.random.default_rng(1)
    x = rng.random((2, 4, 8, 8, 3))
    assert gradient_check("vivit", build_model("vivit", cfg, seed=0), x, np.array([0, 2]), rng) == []
    assert oracles.check_gradient(1.01e-3, 1.0e-3, "g")
    assert oracles.check_gradient(0.0, 1e-5, "g")
    assert oracles.check_gradient(1.0e-3, 1.0e-3 * (1 + 1e-6), "g") == []


# -- infer-paper oracles ---------------------------------------------------------------


def test_conv_block_oracle():
    rng = np.random.default_rng(2)
    blk = ConvBlock(2, 3, rng)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    with T.no_grad():
        out = blk(T.tensor(x)).data
    positions = [(o, t, h, w) for o in range(3) for t in range(3) for h in range(3) for w in (0, 2)]
    kernel, bias = blk.kernel.data.astype(np.float64), blk.bias.data.astype(np.float64)
    assert oracles.check_conv_block(x, kernel, bias, out, positions, "c") == []
    bad = out.copy()
    bad[1, 2, 1, 2] += 0.01
    assert oracles.check_conv_block(x, kernel, bias, bad, positions, "c")
    # pooling the wrong window: shift the output by one pooled column
    assert oracles.check_conv_block(x, kernel, bias, np.roll(out, 1, axis=3), positions, "c")


def _swin_case(shift_flag=True):
    rng = np.random.default_rng(3)
    blk = SwinBlock(8, 2, 16, (2, 2, 2), shifted=shift_flag, rng=rng)
    blk.bias.table.data *= 50.0   # make the learned bias large enough to matter
    grid, padded = (3, 4, 4), (4, 4, 4)
    x = rng.normal(size=(1,) + grid + (8,)).astype(np.float32)
    with T.no_grad():
        out = shifted_window_attention(T.tensor(x), np.ones(grid, dtype=bool), blk.attn, blk.bias,
                                       blk.window, blk.shift).data[0]
    xp = np.zeros(padded + (8,))
    xp[:3] = x[0]
    p = {"qkv.weight": blk.attn.qkv.weight.data, "qkv.bias": blk.attn.qkv.bias.data,
         "proj.weight": blk.attn.proj.weight.data, "proj.bias": blk.attn.proj.bias.data,
         "table": blk.bias.table.data}
    return blk, xp, out, {k: v.astype(np.float64) for k, v in p.items()}


def test_swin_window_oracle_accepts_every_window():
    blk, xp, out, p = _swin_case()
    for index in np.ndindex(2, 2, 2):
        assert oracles.check_swin_window(xp, 3, out, blk.window, blk.shift, index, p, 2, "w") == []


def test_swin_window_oracle_rejects_wrong_output_mask_and_bias():
    blk, xp, out, p = _swin_case()
    last = (1, 1, 1)
    bad = out.copy()
    coords, valid, _ = oracles.swin_window_reference(xp, 3, blk.window, blk.shift, last, p, 2)
    bad[next(c for c, ok in zip(coords, valid) if ok)] += 0.01
    assert oracles.check_swin_window(xp, 3, bad, blk.window, blk.shift, last, p, 2, "w")
    # an unshifted program output does not match the shifted-window definition
    assert oracles.check_swin_window(xp, 3, out, blk.window, (0, 0, 0), last, p, 2, "w")
    # treating a real frame as padding changes the masked softmax
    assert oracles.check_swin_window(xp, 2, out, blk.window, blk.shift, (0, 0, 0), p, 2, "w")
    # in the last window every token is its own wrap region, so test the bias on the first
    assert oracles.check_swin_window(xp, 3, out, blk.window, blk.shift, (0, 0, 0),
                                     dict(p, table=p["table"] * 0.0), 2, "w")


def test_vivit_block0_oracle():
    cfg = default_config("vivit", input_shape=(4, 16, 16, 3), image_patch=4, frame_patch=2,
                         embed_dim=8, spatial_depth=1, temporal_depth=1, heads=2, mlp_dim=16)
    model = build_model("vivit", cfg, seed=4)
    clip = np.random.default_rng(4).random((1, 4, 16, 16, 3), dtype=np.float32)
    seen = []
    forward = model.spatial_blocks[0].forward
    model.spatial_blocks[0].forward = lambda x: seen.append((x.data, forward(x).data)) or forward(x)
    with T.no_grad():
        model(T.tensor(clip))
    (block_in, block_out), p = seen[0], vivit_params(model)
    picks = [(0, 0), (1, 5), (1, 15), (0, 9)]
    assert oracles.check_vivit_block0(clip[0], block_in, block_out, p, picks, "v") == []
    bad_out = block_out.copy()
    bad_out[1, 6] += 0.01
    assert oracles.check_vivit_block0(clip[0], block_in, bad_out, p, picks, "v")
    bad_in = block_in.copy()
    bad_in[0, 10] += 0.01
    assert oracles.check_vivit_block0(clip[0], bad_in, block_out, p, picks, "v")
    # tubelets flattened in (c, t, h, w) order instead of (t, h, w, c)
    perm = np.arange(p["proj.weight"].shape[0]).reshape(2, 4, 4, 3).transpose(3, 0, 1, 2).reshape(-1)
    wrong = dict(p, **{"proj.weight": p["proj.weight"][perm]})
    assert oracles.check_vivit_block0(clip[0], block_in, block_out, wrong, picks, "v")


# -- prep-paper oracles ------------------------------------------------------------------


def _prep_case(raw_len):
    rng = np.random.default_rng(5)
    yy, xx = np.mgrid[0:40, 0:40]
    base = 120 + 80 * np.sin(yy / 7.0 + xx / 5.0)
    frames = np.stack([np.roll(base, t, axis=1) for t in range(raw_len)])[..., None].repeat(3, -1)
    raw = np.clip(frames + rng.integers(-5, 6, frames.shape), 0, 255).astype(np.uint8)
    clips = preprocess_video(RawVideo(frames=raw, source_id="v"),
                             PipelineConfig(side=32, length=30, clip_len=10))
    return raw, np.stack([c.frames for c in clips])


@pytest.mark.parametrize("raw_len", [36, 23])  # trimmed and padded
def test_prep_oracle_accepts_program_frames(raw_len):
    raw, clips = _prep_case(raw_len)
    assert oracles.check_clip_stack(clips, (3, 10, 32, 32, 3), "s") == []
    assert oracles.check_prep_frames(raw, clips, range(30), "p") == []


def test_prep_oracle_rejects_wrong_pixels_and_frame_mapping():
    raw, clips = _prep_case(23)
    bad = clips.copy()
    bad[2, 9, 5, 5, 1] += 2.5 / 255
    assert oracles.check_prep_frames(raw, bad, [29], "p")
    # padding by repeating the last frame instead of cycling from frame 0
    assert oracles.check_prep_frames(raw[::-1], clips, [0], "p")
    # no equalization: plain /255 of the resized frame
    plain = np.round(oracles.bilinear_resize(raw[3], 32)) / 255.0
    swapped = clips.copy()
    swapped[0, 3] = plain
    assert oracles.check_prep_frames(raw, swapped, [3], "p")
    assert oracles.check_clip_stack(clips * 1.5, (3, 10, 32, 32, 3), "s")
    assert oracles.check_clip_stack(clips[:2], (3, 10, 32, 32, 3), "s")


def test_manifest_check():
    rec = {"subject_id": "p00", "video": "videos/a.vten", "task": 1, "state": "ON", "gds": 4,
           "site": "bench"}
    out = dict(rec, video="clips/a_clips.vten")
    assert oracles.check_manifest([rec], [out], "m") == []
    assert oracles.check_manifest([rec], [dict(out, gds=5)], "m")
    assert oracles.check_manifest([rec], [], "m")


# -- tracing ------------------------------------------------------------------------------


def test_coverage_flags_untraced_gaps():
    root = Span("round", None, -1, 0.0, 1.0, 0.05, None)
    child = Span("cli.main", None, 0, 0.0, 0.95, 0.95, None)
    assert layers.coverage([root, child]) >= 1 - layers.COVERAGE_TOL
    gap = Span("cli.main", None, 0, 0.0, 0.5, 0.5, None)
    assert layers.coverage([Span("round", None, -1, 0.0, 1.0, 0.5, None), gap]) \
        < 1 - layers.COVERAGE_TOL


def test_tracer_restores_program_functions():
    import vidmood.nn as nn
    before = (T.add, T.Tensor.backward, nn.Module.__call__)
    tracer = Tracer()
    tracer.install_all()
    assert T.add is not before[0]
    a = T.tensor(np.ones(3), requires_grad=True)
    tracer.span("round", lambda: T.sum_(T.add(a, a)).backward())
    tracer.uninstall()
    assert (T.add, T.Tensor.backward, nn.Module.__call__) == before
    names = [s.name for s in tracer.spans]
    assert names[0] == "round" and "tensor.add" in names and "tensor.backward" in names


def test_per_layer_list_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == layers.per_layer_metrics()
    assert len(listed) <= 128
