"""Independent checks of vidmood's outputs.

Everything here is written from the defining formulas in plain numpy and
imports nothing from vidmood, so a fault in the program cannot hide in
its own oracle. Each ``check_*`` function returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

PROB_ATOL = 1e-5          # float32 softmax rows
LAYER_RTOL = 1e-3         # float32 program vs float64 oracle, relative to the term scale
LAYER_ATOL = 1e-4
GRAD_ATOL = 1e-7          # float64 program vs float64 central difference
GRAD_RTOL = 1e-4
PIXEL_TOL = 1.0 / 255.0   # one grey level after equalization


# -- labels and classification metrics -------------------------------------------


def gds_band(score: int) -> int:
    """Severity class from a 0-30 score: 0-9 absent, 10-19 mild, 20-30 severe."""
    if not 0 <= score <= 30:
        raise ValueError(f"gds score out of range: {score}")
    return 0 if score <= 9 else (1 if score <= 19 else 2)


def classification_report(preds, labels, n_classes: int) -> dict:
    """Accuracy, macro precision/recall/F1 (0/0 counts as 0) and the
    confusion matrix (rows true, columns predicted), by explicit loops."""
    confusion = [[0] * n_classes for _ in range(n_classes)]
    for p, y in zip(preds, labels):
        confusion[int(y)][int(p)] += 1
    precision, recall, f1 = [], [], []
    for c in range(n_classes):
        tp = confusion[c][c]
        predicted = sum(confusion[r][c] for r in range(n_classes))
        actual = sum(confusion[c])
        pr = tp / predicted if predicted else 0.0
        rc = tp / actual if actual else 0.0
        precision.append(pr)
        recall.append(rc)
        f1.append(2 * pr * rc / (pr + rc) if pr + rc else 0.0)
    n = len(labels)
    return {
        "accuracy": sum(confusion[c][c] for c in range(n_classes)) / n,
        "precision_macro": sum(precision) / n_classes,
        "recall_macro": sum(recall) / n_classes,
        "f1_macro": sum(f1) / n_classes,
        "confusion": confusion,
    }


def subject_votes(probs: np.ndarray, labels, subjects):
    """Per subject: argmax of the mean clip probability vector."""
    preds, out_labels = [], []
    for key in sorted(set(subjects)):
        idx = [i for i, s in enumerate(subjects) if s == key]
        mean = np.asarray(probs, dtype=np.float64)[idx].mean(axis=0)
        preds.append(int(np.argmax(mean)))
        out_labels.append(int(labels[idx[0]]))
    return preds, out_labels


def check_report(report: dict, expected: dict, where: str) -> list[str]:
    problems = []
    if report.get("confusion") != expected["confusion"]:
        problems.append(f"{where}: confusion {report.get('confusion')} != {expected['confusion']}")
    for key in ("accuracy", "precision_macro", "recall_macro", "f1_macro"):
        got = report.get(key)
        if got is None or abs(got - expected[key]) > 1e-12:
            problems.append(f"{where}: {key} {got} != {expected[key]}")
    return problems


def check_prob_rows(probs, n_classes: int, where: str) -> list[str]:
    p = np.asarray(probs)
    if p.ndim != 2 or p.shape[1] != n_classes:
        return [f"{where}: probabilities have shape {p.shape}, want [n, {n_classes}]"]
    if not np.all(np.isfinite(p)):
        return [f"{where}: non-finite probabilities"]
    problems = []
    if p.min() < 0:
        problems.append(f"{where}: negative probability {p.min()}")
    worst = float(np.abs(p.sum(axis=1) - 1.0).max())
    if worst > PROB_ATOL:
        problems.append(f"{where}: probability rows sum off 1 by {worst:.2e}")
    return problems


def check_fold(outcome, report_clip: dict, report_subject: dict, gds_of_video: dict,
               n_classes: int, where: str) -> list[str]:
    """Recompute a fold's labels and metrics from its returned probabilities."""
    probs = outcome.clip_probs
    problems = check_prob_rows(probs, n_classes, where)
    labels = [gds_band(gds_of_video[v]) for v in outcome.clip_videos]
    if list(map(int, outcome.clip_labels)) != labels:
        problems.append(f"{where}: clip labels differ from the GDS bands")
    if problems:
        return problems
    clip_preds = [int(np.argmax(row)) for row in probs]
    problems += check_report(report_clip, classification_report(clip_preds, labels, n_classes),
                             f"{where} clip")
    preds, subj_labels = subject_votes(probs, labels, outcome.clip_subjects)
    problems += check_report(report_subject,
                             classification_report(preds, subj_labels, n_classes),
                             f"{where} subject")
    return problems


def check_isolation(load_log, fold, test_records: int, where: str) -> list[str]:
    """``load_log`` lists the subject of every clip load in call order; the
    last ``test_records`` loads are the held-out gather."""
    test = set(fold.test_subjects)
    before, after = load_log[:len(load_log) - test_records], load_log[len(load_log) - test_records:]
    problems = []
    if set(after) != test:
        problems.append(f"{where}: held-out loads {sorted(set(after))} != test subjects {sorted(test)}")
    leaked = set(before) & test
    if leaked:
        problems.append(f"{where}: held-out subjects {sorted(leaked)} loaded for training/validation")
    if set(before) != set(fold.train_subjects) | set(fold.val_subjects):
        problems.append(f"{where}: training/validation loads do not match the fold")
    return problems


def check_partition(held_out: list, subjects, where: str) -> list[str]:
    """Every subject held out in exactly one of the folds."""
    seen = [s for group in held_out for s in group]
    if sorted(seen) != sorted(subjects):
        return [f"{where}: folds hold out {sorted(seen)}, want each of {sorted(subjects)} once"]
    return []


# -- gradients ---------------------------------------------------------------------


def central_difference(loss, array: np.ndarray, index, h: float = 1e-6) -> float:
    """(L(w + h e_i) - L(w - h e_i)) / 2h for one coordinate, restoring w."""
    orig = array[index]
    array[index] = orig + h
    up = loss()
    array[index] = orig - h
    down = loss()
    array[index] = orig
    return (up - down) / (2.0 * h)


def check_gradient(analytic: float, numeric: float, where: str) -> list[str]:
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return [f"{where}: non-finite gradient {analytic} / {numeric}"]
    if abs(analytic - numeric) > GRAD_ATOL + GRAD_RTOL * abs(numeric):
        return [f"{where}: backprop {analytic:.9e} vs central difference {numeric:.9e}"]
    return []


def _close(got, want, scale, where: str) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    err = np.abs(got - want)
    limit = LAYER_ATOL + LAYER_RTOL * np.asarray(scale, dtype=np.float64)
    if not np.all(np.isfinite(got)):
        return [f"{where}: non-finite output"]
    bad = err > limit
    if np.any(bad):
        i = int(np.argmax(err - limit))
        return [f"{where}: {int(bad.sum())} of {bad.size} values off; worst "
                f"{got.reshape(-1)[i]:.6g} vs {want.reshape(-1)[i]:.6g}"]
    return []


# -- cnn_lstm: conv3d (3x3x3, pad 1) + ReLU + max-pool (1, 2, 2) ------------------------


def conv_relu_pool_at(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pos):
    """Pooled output at (o, t, h, w) of [C, T, H, W] input; returns (value, scale)."""
    o, t, h, w = pos
    c, tt, hh, ww = x.shape
    best, scale = -math.inf, 0.0
    for dh in range(2):
        for dw in range(2):
            acc, mag = float(bias[o]), abs(float(bias[o]))
            for kt in range(3):
                for kh in range(3):
                    for kw in range(3):
                        ti, hi, wi = t + kt - 1, 2 * h + dh + kh - 1, 2 * w + dw + kw - 1
                        if 0 <= ti < tt and 0 <= hi < hh and 0 <= wi < ww:
                            terms = x[:, ti, hi, wi].astype(np.float64) * kernel[o, :, kt, kh, kw]
                            acc += float(terms.sum())
                            mag += float(np.abs(terms).sum())
            best = max(best, max(acc, 0.0))
            scale = max(scale, mag)
    return best, scale


def check_conv_block(x, kernel, bias, out, positions, where: str) -> list[str]:
    """``x`` [C, T, H, W], ``out`` [O, T, H/2, W/2] from the program."""
    got, want, scale = [], [], []
    for pos in positions:
        value, mag = conv_relu_pool_at(x, kernel, bias, pos)
        got.append(out[tuple(pos)])
        want.append(value)
        scale.append(mag)
    return _close(got, want, scale, where)


# -- transformers -----------------------------------------------------------------------


def layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def attention_rows(x_all, rows, wqkv, bqkv, wproj, bproj, heads, allowed=None, bias=None):
    """Multi-head self-attention outputs for query ``rows`` of token matrix
    ``x_all`` [N, D]. ``allowed`` [len(rows), N] masks keys; ``bias``
    [heads, len(rows), N] is added to the logits. A row with no allowed key
    gets zero attention (output = proj bias)."""
    n, d = x_all.shape
    hd = d // heads
    qkv = x_all @ wqkv + bqkv                          # [N, 3D] as (3, heads, hd)
    q = qkv[rows, :d].reshape(len(rows), heads, hd)
    k = qkv[:, d:2 * d].reshape(n, heads, hd)
    v = qkv[:, 2 * d:].reshape(n, heads, hd)
    out = np.zeros((len(rows), heads, hd))
    for h in range(heads):
        logits = q[:, h] @ k[:, h].T / math.sqrt(hd)
        if bias is not None:
            logits = logits + bias[h]
        for r in range(len(rows)):
            keep = np.ones(n, dtype=bool) if allowed is None else allowed[r]
            if not keep.any():
                continue
            z = logits[r][keep]
            e = np.exp(z - z.max())
            out[r, h] = (e / e.sum()) @ v[keep, h]
    return out.reshape(len(rows), d) @ wproj + bproj


def block_rows(x_all, rows, p: dict, heads: int):
    """Pre-norm transformer block outputs for ``rows``:
    y = x + MHA(LN1(x)); out = y + FC2(GELU(FC1(LN2(y))))."""
    ln1 = layer_norm(x_all, p["norm1.gamma"], p["norm1.beta"])
    y = x_all[rows] + attention_rows(ln1, rows, p["attn.qkv.weight"], p["attn.qkv.bias"],
                                     p["attn.proj.weight"], p["attn.proj.bias"], heads)
    hid = gelu(layer_norm(y, p["norm2.gamma"], p["norm2.beta"]) @ p["mlp.fc1.weight"]
               + p["mlp.fc1.bias"])
    return y + hid @ p["mlp.fc2.weight"] + p["mlp.fc2.bias"]


def tubelet_embedding(clip, slot: int, token: int, frame_patch: int, image_patch: int,
                      n_w: int, weight, bias):
    """Tubelet (slot, token) of clip [T, H, W, C]: the t x p x p x C block
    flattened in (t, h, w, c) order, projected by ``weight`` [K, D]."""
    hi, wi = divmod(token, n_w)
    block = clip[slot * frame_patch:(slot + 1) * frame_patch,
                 hi * image_patch:(hi + 1) * image_patch,
                 wi * image_patch:(wi + 1) * image_patch, :].astype(np.float64)
    return block.reshape(-1) @ weight + bias


def check_vivit_block0(clip, block_in, block_out, p: dict, slots_tokens, where: str) -> list[str]:
    """``block_in``/``block_out`` [n_t, 1 + n_s, D] around the first spatial
    block for a batch-1 clip. ``p`` holds proj.weight/bias, pos_spatial,
    pos_temporal, cls_spatial, frame_patch, image_patch, n_w, heads and the
    block's parameters under ``block.``."""
    problems = []
    want_in, got_in = [], []
    for slot, token in slots_tokens:
        emb = tubelet_embedding(clip, slot, token, p["frame_patch"], p["image_patch"],
                                p["n_w"], p["proj.weight"], p["proj.bias"])
        want_in.append(emb + p["pos_spatial"][token] + p["pos_temporal"][slot, 0])
        got_in.append(block_in[slot, 1 + token])
    problems += _close(got_in, want_in, np.maximum(np.abs(want_in), 1.0), f"{where} tubelet embedding")
    problems += _close(block_in[:, 0], np.broadcast_to(p["cls_spatial"][0], block_in[:, 0].shape),
                       1.0, f"{where} class token")
    blk = {k[len("block."):]: v for k, v in p.items() if k.startswith("block.")}
    for slot in sorted({s for s, _ in slots_tokens}):
        rows = [1 + t for s, t in slots_tokens if s == slot] + [0]
        want = block_rows(block_in[slot].astype(np.float64), rows, blk, p["heads"])
        problems += _close(block_out[slot, rows], want, np.maximum(np.abs(want), 1.0),
                           f"{where} spatial block slot {slot}")
    return problems


def swin_window_tokens(grid, window, shift, index):
    """Original (t, h, w) coordinates in the padded grid of the tokens of
    shifted window ``index``, with per-axis wrap flags and local coords."""
    coords, wraps, local = [], [], []
    for u in range(window[0]):
        for v in range(window[1]):
            for z in range(window[2]):
                loc = (u, v, z)
                shifted = tuple(index[a] * window[a] + loc[a] for a in range(3))
                orig = tuple((shifted[a] + shift[a]) % grid[a] for a in range(3))
                wraps.append(tuple(shifted[a] + shift[a] >= grid[a] for a in range(3)))
                coords.append(orig)
                local.append(loc)
    return coords, wraps, local


def swin_window_reference(x, real_t: int, window, shift, index, p: dict, heads: int):
    """Shifted-window attention for one window, from the definition.

    ``x`` [T_pad, H, W, D] is the zero-padded token grid whose first
    ``real_t`` frames are real. Tokens from regions that the cyclic shift
    wrapped around a border may not attend to each other, and padded tokens
    receive no attention. The bias is the learned table entry for each
    token pair's 3D offset inside the window."""
    grid = x.shape[:3]
    coords, wraps, local = swin_window_tokens(grid, window, shift, index)
    feats = np.stack([x[c] for c in coords]).astype(np.float64)
    valid = np.array([c[0] < real_t for c in coords])
    wraps = np.array(wraps)
    allowed = np.all(wraps[:, None, :] == wraps[None, :, :], axis=-1) & valid[None, :]
    loc = np.array(local)
    rel = loc[:, None, :] - loc[None, :, :]
    wt, wh, ww = window
    idx = (rel[..., 0] + wt - 1) * (2 * wh - 1) * (2 * ww - 1) + (rel[..., 1] + wh - 1) * (2 * ww - 1) \
        + (rel[..., 2] + ww - 1)
    bias = np.transpose(p["table"][idx], (2, 0, 1))   # [heads, N, N]
    out = attention_rows(feats, list(range(len(coords))), p["qkv.weight"], p["qkv.bias"],
                         p["proj.weight"], p["proj.bias"], heads, allowed=allowed, bias=bias)
    return coords, valid, out


def check_swin_window(x, real_t, out, window, shift, index, p, heads, where: str) -> list[str]:
    """``out`` [T, H, W, D] is the program's attention output for input
    ``x`` [T_pad, H, W, D] (zero rows beyond ``real_t``)."""
    coords, valid, want = swin_window_reference(x, real_t, window, shift, index, p, heads)
    got = np.stack([out[c] for c, ok in zip(coords, valid) if ok])
    want = want[valid]
    return _close(got, want, np.maximum(np.abs(want), 1.0), f"{where} window {tuple(index)}")


# -- preprocessing: half-pixel bilinear resize + CDF histogram equalization ---------------


def bilinear_resize(frame: np.ndarray, side: int) -> np.ndarray:
    """[H, W, C] -> float64 [side, side, C]; output pixel i samples source
    coordinate (i + 0.5) * H / side - 0.5, clamped to the frame."""
    h, w, _ = frame.shape
    f = frame.astype(np.float64)
    ys = np.clip((np.arange(side) + 0.5) * h / side - 0.5, 0, h - 1)
    xs = np.clip((np.arange(side) + 0.5) * w / side - 0.5, 0, w - 1)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy, wx = (ys - y0)[:, None, None], (xs - x0)[None, :, None]
    return ((1 - wy) * (1 - wx) * f[y0][:, x0] + (1 - wy) * wx * f[y0][:, x1]
            + wy * (1 - wx) * f[y1][:, x0] + wy * wx * f[y1][:, x1])


def equalization_lut(channel_u8: np.ndarray) -> np.ndarray:
    """v -> round((cdf(v) - cdf_min) / (N - cdf_min) * 255); constant -> 0."""
    counts = np.zeros(256, dtype=np.int64)
    for v, n in zip(*np.unique(channel_u8, return_counts=True)):
        counts[v] = n
    cdf = np.cumsum(counts)
    cdf_min = cdf[counts > 0][0]
    total = channel_u8.size
    if total == cdf_min:
        return np.zeros(256)
    return np.clip(np.round((cdf - cdf_min) / (total - cdf_min) * 255.0), 0, 255)


def expected_frame(raw_frame: np.ndarray, side: int):
    """Allowed [lo, hi] range of each output value for one raw square frame.

    A resized value within 1e-6 of a half level may round either way, so
    both neighbours' equalized levels are allowed there."""
    resized = bilinear_resize(raw_frame, side)
    level = np.clip(np.round(resized), 0, 255).astype(np.uint8)
    frac = resized - np.floor(resized)
    tie = np.abs(frac - 0.5) < 1e-6
    down = np.clip(np.floor(resized), 0, 255).astype(np.uint8)
    up = np.clip(np.ceil(resized), 0, 255).astype(np.uint8)
    lo = np.empty(resized.shape)
    hi = np.empty(resized.shape)
    for c in range(resized.shape[-1]):
        lut = equalization_lut(level[..., c])
        a, b = lut[down[..., c]], lut[up[..., c]]
        mid = lut[level[..., c]]
        lo[..., c] = np.where(tie[..., c], np.minimum(a, b), mid)
        hi[..., c] = np.where(tie[..., c], np.maximum(a, b), mid)
    return lo / 255.0, hi / 255.0


def standard_frame_source(index: int, raw_len: int) -> int:
    """Raw frame feeding standardized frame ``index``: the first frames are
    kept, and a short video is padded by repeating from frame 0."""
    return index if index < raw_len else (index - raw_len) % raw_len


def check_prep_frames(raw: np.ndarray, clips: np.ndarray, frame_ids, where: str) -> list[str]:
    """``raw`` [T, S, S, 3] uint8, ``clips`` [n_clips, clip_len, side, side, 3]."""
    problems = []
    side, clip_len = clips.shape[2], clips.shape[1]
    for i in frame_ids:
        got = clips[i // clip_len, i % clip_len].astype(np.float64)
        lo, hi = expected_frame(raw[standard_frame_source(i, raw.shape[0])], side)
        off = np.maximum(lo - got, got - hi)
        if off.max() > PIXEL_TOL + 1e-6:
            problems.append(f"{where}: frame {i}: {int((off > PIXEL_TOL + 1e-6).sum())} pixels "
                            f"off the reference by up to {off.max() * 255:.2f} levels")
    return problems


def check_clip_stack(clips: np.ndarray, want_shape, where: str) -> list[str]:
    if clips.shape != tuple(want_shape):
        return [f"{where}: clip stack {clips.shape}, want {tuple(want_shape)}"]
    lo, hi = float(clips.min()), float(clips.max())
    if not (0.0 <= lo and hi <= 1.0):
        return [f"{where}: values span [{lo}, {hi}], want within [0, 1]"]
    return []


def check_manifest(inputs: list[dict], outputs: list[dict], where: str) -> list[str]:
    """Every field except the video path carries over, record for record."""
    if len(inputs) != len(outputs):
        return [f"{where}: {len(outputs)} records out for {len(inputs)} in"]
    problems = []
    for a, b in zip(inputs, outputs):
        ka = {k: v for k, v in a.items() if k != "video"}
        kb = {k: v for k, v in b.items() if k != "video"}
        if ka != kb:
            problems.append(f"{where}: record for {a.get('video')} changed: {ka} -> {kb}")
    return problems
