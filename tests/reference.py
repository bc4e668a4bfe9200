"""Independent numpy reimplementations used as test oracles.

Everything here is computed directly from the defining formulas with no
reliance on the package's tensor engine.
"""

import math

import numpy as np
from scipy.special import erf


def matmul_reference(a, b):
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m), dtype=a.dtype)
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def softmax_reference(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    return e / np.where(s == 0, 1.0, s)


def conv3d_reference(x, w, b, stride, pad):
    st, sh, sw = stride
    xp = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1]), (pad[2], pad[2])))
    o_ch, _, kt, kh, kw = w.shape
    ot = (xp.shape[1] - kt) // st + 1
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    out = np.zeros((o_ch, ot, oh, ow), dtype=x.dtype)
    for o in range(o_ch):
        for it in range(ot):
            for ih in range(oh):
                for iw in range(ow):
                    patch = xp[:, it * st:it * st + kt, ih * sh:ih * sh + kh, iw * sw:iw * sw + kw]
                    out[o, it, ih, iw] = np.sum(patch * w[o]) + (b[o] if b is not None else 0.0)
    return out


def maxpool3d_reference(x, window):
    pt, ph, pw = window
    c, t, h, w = x.shape
    ot, oh, ow = t // pt, h // ph, w // pw
    out = np.zeros((c, ot, oh, ow), dtype=x.dtype)
    for ci in range(c):
        for it in range(ot):
            for ih in range(oh):
                for iw in range(ow):
                    out[ci, it, ih, iw] = x[ci, it * pt:(it + 1) * pt,
                                            ih * ph:(ih + 1) * ph,
                                            iw * pw:(iw + 1) * pw].max()
    return out


def conv3d_grads_reference(x, w, g, stride, pad):
    """Input, weight and bias gradients of the cross-correlation in
    ``conv3d_reference`` for upstream gradient ``g`` [O, T', H', W'],
    accumulated one output position at a time in float64."""
    st, sh, sw = stride
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    xp = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1]), (pad[2], pad[2])))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    o_ch, _, kt, kh, kw = w.shape
    for o in range(o_ch):
        for it in range(g.shape[1]):
            for ih in range(g.shape[2]):
                for iw in range(g.shape[3]):
                    win = (slice(None), slice(it * st, it * st + kt),
                           slice(ih * sh, ih * sh + kh), slice(iw * sw, iw * sw + kw))
                    gw[o] += g[o, it, ih, iw] * xp[win]
                    gxp[win] += g[o, it, ih, iw] * w[o]
    gx = gxp[:, pad[0]:pad[0] + x.shape[1], pad[1]:pad[1] + x.shape[2], pad[2]:pad[2] + x.shape[3]]
    return gx, gw, g.sum(axis=(1, 2, 3))


def maxpool3d_routed_reference(x, window, g):
    """Max-pool of [C, T, H, W] with stride = window, plus its gradient for
    upstream ``g``: each window's value and gradient go to its first maximal
    element in row-major order, or to its first NaN if it holds one."""
    pt, ph, pw = window
    c, t, h, w = x.shape
    ot, oh, ow = t // pt, h // ph, w // pw
    out = np.zeros((c, ot, oh, ow), dtype=x.dtype)
    gx = np.zeros_like(x)
    for ci in range(c):
        for it in range(ot):
            for ih in range(oh):
                for iw in range(ow):
                    best = None
                    for dt in range(pt):
                        for dh in range(ph):
                            for dw in range(pw):
                                pos = (ci, it * pt + dt, ih * ph + dh, iw * pw + dw)
                                if best is None or (not math.isnan(x[best]) and
                                                    (math.isnan(x[pos]) or x[pos] > x[best])):
                                    best = pos
                    out[ci, it, ih, iw] = x[best]
                    gx[best] = g[ci, it, ih, iw]
    return out, gx


def conv_pool_routed_reference(x, w, b, pad, window, g, relu=False):
    """conv3d (stride 1) then a routed max-pool of [C, T, H, W], with the
    input, weight and bias gradients for upstream ``g`` on the pooled
    output: each window's gradient goes to its first maximal conv output,
    or to its first NaN, and from there through the convolution's loops.

    With ``relu``, a ReLU follows the pool, element by element: a pooled
    value above 0 or NaN stays, any other becomes 0, and only the values
    above 0 pass their gradient back to the pool."""
    conv = conv3d_reference(x, w, b, (1, 1, 1), pad)
    out = maxpool3d_routed_reference(conv, window, np.zeros_like(g))[0]
    if relu:
        g = g.copy()
        for i in np.ndindex(*out.shape):
            if not out[i] > 0:
                g[i] = 0.0
                if not math.isnan(out[i]):
                    out[i] = 0.0
    _, gconv = maxpool3d_routed_reference(conv, window, g)
    gx, gw, gb = conv3d_grads_reference(x, w, gconv, (1, 1, 1), pad)
    return out, gx, gw, gb


def _padded_columns(x, kshape, stride, pad):
    """The zero-padded copy of [B, C, T, H, W] ``x`` and its im2col column
    [B, C, kt, kh, kw, T', H', W'], one strided copy of the padded input per
    kernel tap."""
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pad))
    out = tuple((n - k) // s + 1 for n, k, s in zip(xp.shape[2:], kshape, stride))
    col = np.empty(x.shape[:2] + tuple(kshape) + out, dtype=x.dtype)
    for tap in np.ndindex(*kshape):
        sl = tuple(slice(o, o + s * (n - 1) + 1, s) for o, s, n in zip(tap, stride, out))
        col[(slice(None), slice(None)) + tap] = xp[(Ellipsis,) + sl]
    return xp, col, out


def conv3d_padded_reference(x, w, b, stride, pad, g=None):
    """conv3d of [B, C, T, H, W] ``x`` through a zero-padded copy of it: the
    im2col column in the kernel's (C, kt, kh, kw) row order, one GEMM per
    batch row, then + bias. With ``g``, the output gradient, also returns
    the input, kernel and bias gradients: per batch row the kernel
    gradient g @ col^T, summed over the rows in order, and the column
    gradient w^T @ g added tap by tap into a zero padded input gradient,
    which is then cropped. Returns (y, gx, gw, gb), the gradients None
    without ``g``."""
    bsz, c = x.shape[:2]
    o, kshape = w.shape[0], w.shape[2:]
    xp, col, out = _padded_columns(x, kshape, stride, pad)
    wmat, col = w.reshape(o, -1), col.reshape(bsz, -1, math.prod(out))
    y = np.stack([wmat @ col[i] for i in range(bsz)])
    if b is not None:
        y += b[:, None]
    y = y.reshape(bsz, o, *out)
    if g is None:
        return y, None, None, None
    g2 = g.reshape(bsz, o, -1)
    gw = np.stack([g2[i] @ col[i].T for i in range(bsz)]).sum(axis=0).reshape(w.shape)
    gxp = np.zeros(xp.shape, dtype=x.dtype)
    for i in range(bsz):
        gcol = (wmat.T @ g2[i]).reshape(c, *kshape, *out)
        for tap in np.ndindex(*kshape):
            sl = tuple(slice(q, q + s * (n - 1) + 1, s) for q, s, n in zip(tap, stride, out))
            gxp[(i, slice(None)) + sl] += gcol[(slice(None),) + tap]
    gx = gxp[(Ellipsis,) + tuple(slice(p, p + n) for p, n in zip(pad, x.shape[2:]))]
    return y, gx, gw, g2.sum(axis=(0, 2))


def conv_pool_padded_reference(x, w, b, pad, window, g):
    """``conv3d_padded_reference`` (stride 1), then a max-pool with stride =
    window, and the gradients for ``g`` on the pooled output: a window's
    value is ``np.maximum`` over its offsets in row-major order, and its
    gradient goes to the first offset equal to that maximum, or to its
    first NaN. Returns (pooled, gx, gw, gb)."""
    y = conv3d_padded_reference(x, w, b, (1, 1, 1), pad)[0]
    pdims = tuple(n // p for n, p in zip(y.shape[2:], window))
    views = [(Ellipsis,) + tuple(slice(q, q + p * (n - 1) + 1, p)
                                 for q, p, n in zip(tap, window, pdims))
             for tap in np.ndindex(*window)]
    pooled = y[views[0]].copy()
    for view in views[1:]:
        pooled = np.maximum(y[view], pooled)
    first = np.stack([y[v] == pooled for v in views]).argmax(axis=0)
    first_nan = np.stack([np.isnan(y[v]) for v in views]).argmax(axis=0)
    route = np.where(np.isnan(pooled), first_nan, first)
    gy = np.zeros_like(y)
    for k, view in enumerate(views):
        gy[view] = np.multiply(g, route == k)
    _, gx, gw, gb = conv3d_padded_reference(x, w, b, (1, 1, 1), pad, gy)
    return pooled, gx, gw, gb


def attention_loop_reference(q, k, v, mask=None, bias=None):
    """Per-query softmax attention on [B, H, N, dh], explicit loops."""
    b, h, n, dh = q.shape
    out = np.zeros_like(v)
    for bi in range(b):
        for hi in range(h):
            for i in range(n):
                logits = np.array([q[bi, hi, i] @ k[bi, hi, j] for j in range(n)]) / np.sqrt(dh)
                if bias is not None:
                    logits = logits + bias[hi, i]
                if mask is not None:
                    logits = np.where(mask[bi, hi, i], logits, -np.inf)
                m = logits.max()
                if not np.isfinite(m):
                    continue
                e = np.exp(logits - m)
                out[bi, hi, i] = (e / e.sum()) @ v[bi, hi]
    return out


def packed_attention_loop_reference(qkv, heads, mask=None, bias=None):
    """``tensor.mha``'s attention from its definition: split the packed [B, N, 3D]
    projection into per-head q, k, v, run the per-query loop with pairs
    whose additive mask entry is -inf excluded, and merge the heads."""
    b, n, d3 = qkv.shape
    dh = d3 // (3 * heads)
    q, k, v = (np.array([[[qkv[bi, i, part * heads * dh + h * dh:part * heads * dh + (h + 1) * dh]
                           for i in range(n)] for h in range(heads)] for bi in range(b)])
               for part in range(3))
    allowed = None
    if mask is not None:
        allowed = np.ones((b, heads, n, n), dtype=bool)
        for bi in range(b):
            m = mask[bi % len(mask)]
            if m is not None:
                allowed[bi] = np.broadcast_to(m, (heads, n, n)) == 0
    out = attention_loop_reference(q, k, v, mask=allowed, bias=bias)
    merged = np.zeros((b, n, heads * dh), dtype=out.dtype)
    for bi in range(b):
        for h in range(heads):
            merged[bi, :, h * dh:(h + 1) * dh] = out[bi, h]
    return merged


def mha_loop_reference(x, w_qkv, b_qkv, w_out, b_out, heads, mask=None, bias=None):
    """``tensor.mha`` from its definition: the qkv projection, attention
    and the output projection, each by its own loop reference."""
    merged = packed_attention_loop_reference(linear_loop_reference(x, w_qkv, b_qkv), heads,
                                             mask=mask, bias=bias)
    return linear_loop_reference(merged, w_out, b_out)


def linear_loop_reference(x, w, b=None):
    """x [..., in] @ w [in, out] + b, one output entry at a time."""
    rows = x.reshape(-1, x.shape[-1])
    out = np.zeros((rows.shape[0], w.shape[1]))
    for r in range(rows.shape[0]):
        for j in range(w.shape[1]):
            out[r, j] = sum(rows[r, i] * w[i, j] for i in range(w.shape[0]))
            if b is not None:
                out[r, j] += b[j]
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def mlp_loop_reference(x, w1, b1, w2, b2):
    """fc1, the exact GELU h * Phi(h) with Phi from ``math.erf``, then fc2,
    one entry at a time."""
    h = linear_loop_reference(x, w1, b1)
    a = np.vectorize(lambda u: u * 0.5 * (1.0 + math.erf(u / math.sqrt(2.0))))(h)
    return linear_loop_reference(a, w2, b2)


def layer_norm_loop_reference(x, gamma, beta, eps=1e-5):
    """Per-row mean and biased variance by explicit sums, then the affine map."""
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1]
    out = np.zeros(rows.shape)
    for r in range(rows.shape[0]):
        mu = sum(rows[r]) / n
        var = sum((u - mu) ** 2 for u in rows[r]) / n
        for i in range(n):
            out[r, i] = (rows[r, i] - mu) / math.sqrt(var + eps) * gamma[i] + beta[i]
    return out.reshape(x.shape)


def ln_ref(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def gelu_ref(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_composite_reference(x):
    """gelu's value and local derivative as one whole-array numpy expression
    each, in the float ops and order the engine's blocked gelu runs."""
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    return x * cdf, cdf + x * (np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi)))


def mha_ref(x, qkv_w, qkv_b, proj_w, proj_b, heads, mask=None, bias=None):
    """Multi-head self-attention on [B, N, D] from raw weight matrices."""
    b, n, d = x.shape
    dh = d // heads
    qkv = x @ qkv_w + qkv_b
    q, k, v = np.split(qkv, 3, axis=-1)

    def split(a):
        return a.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(q), split(k), split(v)
    logits = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    if bias is not None:
        logits = logits + bias[None]
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    att = softmax_reference(logits, axis=-1)
    out = att @ v
    out = out.transpose(0, 2, 1, 3).reshape(b, n, d)
    return out @ proj_w + proj_b


def mlp_ref(x, fc1_w, fc1_b, fc2_w, fc2_b):
    return gelu_ref(x @ fc1_w + fc1_b) @ fc2_w + fc2_b


def block_ref(x, p, heads):
    """Pre-norm transformer block from a named-parameter dict (numpy values)."""
    h = x + mha_ref(ln_ref(x, p["norm1.gamma"], p["norm1.beta"]),
                    p["attn.qkv.weight"], p["attn.qkv.bias"],
                    p["attn.proj.weight"], p["attn.proj.bias"], heads)
    return h + mlp_ref(ln_ref(h, p["norm2.gamma"], p["norm2.beta"]),
                       p["mlp.fc1.weight"], p["mlp.fc1.bias"],
                       p["mlp.fc2.weight"], p["mlp.fc2.bias"])


def bilinear_resize_reference(frames, side):
    """Half-pixel-center bilinear resize of uint8 [T, H, W, C] to
    [T, side, side, C], one output sample at a time.

    Source coordinates are clamped to the frame (edge replication); each
    interpolation uses the lerp form a + w * (b - a), rounded half to even.
    """
    t_len, h, w, c_len = frames.shape
    f = frames.astype(np.float64)
    out = np.zeros((t_len, side, side, c_len), dtype=np.uint8)

    def lerp(a, b, wt):
        return a + wt * (b - a)

    for i in range(side):
        sy = min(max((i + 0.5) * (h / side) - 0.5, 0.0), h - 1.0)
        y0 = math.floor(sy)
        y1 = min(y0 + 1, h - 1)
        for j in range(side):
            sx = min(max((j + 0.5) * (w / side) - 0.5, 0.0), w - 1.0)
            x0 = math.floor(sx)
            x1 = min(x0 + 1, w - 1)
            for t in range(t_len):
                for c in range(c_len):
                    top = lerp(f[t, y0, x0, c], f[t, y0, x1, c], sx - x0)
                    bot = lerp(f[t, y1, x0, c], f[t, y1, x1, c], sx - x0)
                    out[t, i, j, c] = min(max(round(lerp(top, bot, sy - y0)), 0), 255)
    return out


def preprocess_stack_reference(video, cfg):
    """The preprocessing chain as it stood before clips were written into a
    caller's stack: every raw frame resized, then the length standardized,
    equalized, segmented, each segment normalized to its own float32 array,
    and the segments stacked. Returns [length / clip_len, clip_len, side,
    side, 3]."""
    from vidmood import pipeline as P

    frames = P.localize_and_resize(video, P.CenterSquareLocalizer(), cfg.side)
    frames = P.standardize_length(frames, cfg.length)
    frames = P.equalize_frames(frames)
    blocks = P.segment_clips(frames, cfg.clip_len)
    return np.stack([b.astype(np.float32) / np.float32(255.0) for b in blocks])


def trunc_normal_reference(rng, shape, std=0.02):
    """Normal(0, std) drawn as one float64 array, out-of-range entries
    redrawn together in flat order until all lie in [-2 std, 2 std]."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def grouped_prediction_loop_reference(probs, labels, keys):
    """Per key in sorted order: argmax of the mean of its clips' float64
    probabilities, taken in clip order, and the group's single label."""
    preds, out_labels = [], []
    for key in sorted(set(keys)):
        idx = [i for i, k in enumerate(keys) if k == key]
        preds.append(int(np.argmax(np.asarray(probs[idx], dtype=np.float64).mean(axis=0))))
        group_labels = {int(labels[i]) for i in idx}
        if len(group_labels) != 1:
            raise ValueError(f"group {key!r} mixes labels {sorted(group_labels)}")
        out_labels.append(group_labels.pop())
    return np.asarray(preds), np.asarray(out_labels)


def params_of(module):
    """named_parameters as a plain name -> float64 ndarray dict."""
    return {name: p.data.astype(np.float64) for name, p in module.named_parameters()}


def cast_params(module, dtype=np.float64):
    """In-place dtype cast of every parameter (exactness tests run in f64)."""
    for _, p in module.named_parameters():
        p.data = p.data.astype(dtype)
    return module
