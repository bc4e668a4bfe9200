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


def ln_ref(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def gelu_ref(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


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


def params_of(module):
    """named_parameters as a plain name -> float64 ndarray dict."""
    return {name: p.data.astype(np.float64) for name, p in module.named_parameters()}


def cast_params(module, dtype=np.float64):
    """In-place dtype cast of every parameter (exactness tests run in f64)."""
    for _, p in module.named_parameters():
        p.data = p.data.astype(dtype)
    return module
