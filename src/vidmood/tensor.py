"""Dense N-dimensional arrays with reverse-mode differentiation.

Every primitive the video models need lives here: elementwise math,
broadcasting binary ops, batched matmul, stabilized (maskable) softmax,
3D convolution and max-pooling, and layout ops (reshape / transpose /
roll / pad / slicing / concat). Forward values are numpy arrays; each
op records its inputs and a gradient closure, so calling ``backward()``
on a scalar replays the recorded graph in reverse topological order.

Convention: float32 for training, float64 for verification (finite
differences are meaningless in single precision).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericError",
    "no_grad",
    "tensor",
    "zeros",
    "concat",
    "matmul",
    "softmax",
    "log_softmax",
    "conv3d",
    "maxpool3d",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class NumericError(FloatingPointError):
    """Raised on numeric-domain violations or non-finite error states."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype.kind in "iub":
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A dense array plus an optional gradient buffer of the same shape.

    ``requires_grad`` marks leaves that should receive gradients;
    interior nodes carry a gradient closure created by the op that
    produced them. Gradients accumulate across ``backward()`` calls
    until cleared.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- autodiff ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar through the recorded graph.

        Visits nodes in reverse topological order; every reachable
        tensor with ``requires_grad`` ends with a populated ``grad``.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._grad_fn is not None and node.grad is not None:
                node._grad_fn(node.grad)
                if not node.requires_grad:
                    node.grad = None  # free interior buffers

    def __getitem__(self, key):
        return take(self, key)


def tensor(data, dtype=None, requires_grad=False) -> Tensor:
    return Tensor(data, dtype=dtype, requires_grad=requires_grad)


def zeros(shape, dtype=np.float32, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], grad_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._grad_fn is not None for p in parents):
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise binary ------------------------------------------------------


def _binary(a, b, fwd, da, db) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _coerce(b, a)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"shapes {a.shape} and {b.shape} do not broadcast") from exc

    def grad_fn(g):
        a._accumulate(_unbroadcast(da(g, a.data, b.data, data), a.shape))
        b._accumulate(_unbroadcast(db(g, a.data, b.data, data), b.shape))

    return _make(data, (a, b), grad_fn)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y, o: g, lambda g, x, y, o: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y, o: g, lambda g, x, y, o: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def div(a, b) -> Tensor:
    return _binary(
        a, b, np.divide,
        lambda g, x, y, o: g / y,
        lambda g, x, y, o: -g * o / y,
    )


# -- elementwise unary -------------------------------------------------------


def _unary(x: Tensor, data: np.ndarray, dlocal) -> Tensor:
    """``dlocal()`` builds the local derivative; it runs only on backward,
    so untaped calls never build it and the tape does not hold it."""
    def grad_fn(g):
        x._accumulate(g * dlocal())

    return _make(data, (x,), grad_fn)


def neg(x: Tensor) -> Tensor:
    return _unary(x, -x.data, lambda: np.full_like(x.data, -1))


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)
    return _unary(x, data, lambda: data)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise NumericError("log requires strictly positive input")
    return _unary(x, np.log(x.data), lambda: 1.0 / x.data)


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise NumericError("sqrt requires non-negative input")
    data = np.sqrt(x.data)
    return _unary(x, data, lambda: 0.5 / np.maximum(data, np.finfo(data.dtype).tiny))


def relu(x: Tensor) -> Tensor:
    return _unary(x, np.maximum(x.data, 0), lambda: (x.data > 0).astype(x.data.dtype))


def _stable_sigmoid(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(d) given e = exp(-|d|): exp of a non-positive argument only,
    so it stays finite for large |d|."""
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    data = _stable_sigmoid(d, np.exp(-np.abs(d)))
    return _unary(x, data, lambda: data * (1.0 - data))


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)
    return _unary(x, data, lambda: 1.0 - data * data)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    d = x.data
    cdf = 0.5 * (1.0 + erf(d * _INV_SQRT2))
    return _unary(x, d * cdf, lambda: cdf + d * (np.exp(-0.5 * d * d) * _INV_SQRT_2PI))


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed as max(x, 0) + log1p(e^-|x|)."""
    d = x.data
    e = np.exp(-np.abs(d))
    return _unary(x, np.maximum(d, 0) + np.log1p(e), lambda: _stable_sigmoid(d, e))


# -- reductions --------------------------------------------------------------


def sum_(x: Tensor, axis=None, keepdims=False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            x._accumulate(np.broadcast_to(g, x.shape).copy() if np.ndim(g) else np.full_like(x.data, g))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        x._accumulate(np.broadcast_to(gg, x.shape))

    return _make(np.asarray(data), (x,), grad_fn)


def mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    n = x.data.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])
    return mul(sum_(x, axis, keepdims), 1.0 / float(n))


# -- matmul ------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with broadcastable batch extents."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs at least 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul batch extents do not broadcast: {a.shape} x {b.shape}") from exc

    def grad_fn(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    return _make(data, (a, b), grad_fn)


# -- softmax -----------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stabilized softmax along ``axis``.

    ``mask`` is an optional boolean array (broadcastable to ``x``) marking
    permitted entries; excluded entries are treated as -inf pre-softmax and
    come out exactly zero. A fully excluded row yields all zeros.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    d = x.data
    if mask is not None:
        d = np.where(mask, d, -np.inf)
    m = np.max(d, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(d - m)
    s = e.sum(axis=axis, keepdims=True)
    y = e / np.where(s == 0, 1.0, s)

    def grad_fn(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        x._accumulate(_unbroadcast(y * (g - inner), x.shape))

    return _make(y, (x,), grad_fn)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) in log-space; gradient is softmax - onehot composed."""
    m = np.max(x.data, axis=axis, keepdims=True)
    shifted = sub(x, Tensor(m))  # max shift is constant wrt grad
    lse = log(sum_(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, lse)


# -- layout ------------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if np.prod(shape, dtype=np.int64) != x.size and -1 not in shape:
        raise ShapeError(f"cannot reshape {x.shape} (size {x.size}) to {shape}")
    data = x.data.reshape(shape)

    def grad_fn(g):
        x._accumulate(g.reshape(x.shape))

    return _make(data, (x,), grad_fn)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid axis permutation {axes} for ndim {x.ndim}")
    inv = np.argsort(axes)

    def grad_fn(g):
        x._accumulate(np.transpose(g, inv))

    return _make(np.transpose(x.data, axes), (x,), grad_fn)


def roll(x: Tensor, shifts: tuple[int, ...], axes: tuple[int, ...]) -> Tensor:
    def grad_fn(g):
        x._accumulate(np.roll(g, tuple(-s for s in shifts), axes))

    return _make(np.roll(x.data, shifts, axes), (x,), grad_fn)


def pad(x: Tensor, pad_width: Sequence[tuple[int, int]]) -> Tensor:
    """Zero padding; pad_width is one (before, after) pair per axis."""
    pw = tuple((int(b), int(a)) for b, a in pad_width)
    data = np.pad(x.data, pw)
    sl = tuple(slice(b, b + s) for (b, _), s in zip(pw, x.shape))

    def grad_fn(g):
        x._accumulate(g[sl])

    return _make(data, (x,), grad_fn)


def _is_basic_key(key) -> bool:
    """True when numpy indexes with ``key`` as a view: ints, slices, None
    and Ellipsis, alone or in a tuple. Such a key never repeats an element."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice)) for k in parts)


def take(x: Tensor, key) -> Tensor:
    """Slicing / integer-array indexing. The gradient of a basic key is a
    plain write; an integer-array key may repeat elements, so it scatter-adds."""
    data = x.data[key]
    basic = _is_basic_key(key)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        if basic:
            gx[key] = g
        else:
            np.add.at(gx, key, g)
        x._accumulate(gx)

    return _make(data, (x,), grad_fn)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return _make(data, tuple(ts), grad_fn)


def broadcast_to(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = np.broadcast_to(x.data, shape)

    def grad_fn(g):
        x._accumulate(_unbroadcast(g, x.shape))

    return _make(data.copy(), (x,), grad_fn)


# -- 3D convolution ----------------------------------------------------------


def _triple(v) -> tuple[int, int, int]:
    if isinstance(v, (tuple, list)):
        t = tuple(int(u) for u in v)
        if len(t) != 3:
            raise ShapeError(f"expected 3 extents, got {v}")
        return t
    return (int(v),) * 3


def _taps(kshape, stride, out_dims):
    """Each kernel tap (i, j, k) in row-major order, with the strided
    (T, H, W) slices that pick its input for every output position."""
    for tap in np.ndindex(*kshape):
        yield tap, tuple(slice(o, o + s * (n - 1) + 1, s)
                         for o, s, n in zip(tap, stride, out_dims))


def _im2col(xp: np.ndarray, kshape, stride, out_dims) -> np.ndarray:
    """Padded x [B, C, T, H, W] -> col [B, C*kt*kh*kw, T'*H'*W'].

    Rows follow the kernel's own (C, kt, kh, kw) order, so
    ``kernel.reshape(O, -1) @ col`` is the correlation. One strided copy
    per kernel tap fills the buffer, each running along contiguous W.
    """
    b, c = xp.shape[:2]
    col = np.empty((b, c, *kshape, *out_dims), dtype=xp.dtype)
    for (i, j, k), (st, sh, sw) in _taps(kshape, stride, out_dims):
        col[:, :, i, j, k] = xp[:, :, st, sh, sw]
    return col.reshape(b, c * math.prod(kshape), math.prod(out_dims))


def conv3d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride=1, padding=0) -> Tensor:
    """Direct-sum 3D convolution (cross-correlation form).

    ``x``: [C_in, T, H, W] or [B, C_in, T, H, W];
    ``kernel``: [C_out, C_in, kt, kh, kw]; output extent per axis is
    floor((in + 2*pad - k) / stride) + 1.
    """
    stride = _triple(stride)
    padding = _triple(padding)
    batched = x.ndim == 5
    if x.ndim not in (4, 5):
        raise ShapeError(f"conv3d input must be 4-D or 5-D, got {x.shape}")
    if x.shape[-4] != kernel.shape[1]:
        raise ShapeError(f"conv3d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    xb = x.data if batched else x.data[None]
    xp = np.pad(xb, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    kshape = kernel.shape[2:]
    if any(n < k for n, k in zip(xp.shape[2:], kshape)):
        raise ShapeError(f"kernel {kshape} larger than padded input {xp.shape[2:]}")
    out_dims = tuple((n - k) // s + 1 for n, k, s in zip(xp.shape[2:], kshape, stride))
    col = _im2col(xp, kshape, stride, out_dims)
    wmat = kernel.data.reshape(kernel.shape[0], -1)
    out = (wmat @ col).reshape(xb.shape[0], kernel.shape[0], *out_dims)  # [B, O, P] -> 5-D
    if bias is not None:
        out += bias.data[:, None, None, None]
    if not batched:
        out = out[0]
    xp_shape = xp.shape  # the tape keeps col, not the padded input

    def grad_fn(g):
        g3 = g.reshape(col.shape[0], kernel.shape[0], -1)  # [B, O, P]
        kernel._accumulate((g3 @ col.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape))
        if bias is not None:
            bias._accumulate(g3.sum(axis=(0, 2)))
        if x.requires_grad or x._grad_fn is not None:
            gx = _conv3d_input_grad(wmat.T @ g3, xp_shape, kshape, stride, out_dims, padding)
            x._accumulate(gx if batched else gx[0])

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out, parents, grad_fn)


def _conv3d_input_grad(gcol: np.ndarray, xp_shape, kshape, stride, out_dims, padding) -> np.ndarray:
    """col2im: gradient wrt conv3d input from gcol = W2d.T @ g, the
    [B, C*kt*kh*kw, T'*H'*W'] column gradient in ``_im2col``'s row order.

    Each kernel tap's rows are added back through the same strided slices
    that filled them, into a zero padded buffer that is then cropped to x;
    the remainder tail that no forward window touched stays zero.
    """
    b, c = xp_shape[:2]
    gcol = gcol.reshape(b, c, *kshape, *out_dims)
    gxp = np.zeros(xp_shape, dtype=gcol.dtype)
    for (i, j, k), (st, sh, sw) in _taps(kshape, stride, out_dims):
        gxp[:, :, st, sh, sw] += gcol[:, :, i, j, k]
    crop = tuple(slice(p, n - p) for p, n in zip(padding, xp_shape[2:]))
    return gxp[(..., *crop)]


# -- 3D max-pooling ------------------------------------------------------------


def _select(out: np.ndarray, v: np.ndarray, mask: np.ndarray) -> None:
    """out[mask] = v[mask] in place, bit for bit, as an xor blend of the raw
    bits: numpy vectorizes it, where a masked copy goes element by element."""
    bits = np.dtype(f"u{out.itemsize}")
    ob = out.view(bits)
    d = np.bitwise_xor(v.view(bits), ob)
    d &= np.negative(mask, dtype=bits)
    ob ^= d


def maxpool3d(x: Tensor, window) -> Tensor:
    """Window max with stride = window; trailing remainder is truncated.

    Gradient routes to the first maximal element of each window in
    row-major order; a window holding a NaN gives NaN and routes to it.
    """
    window = _triple(window)
    batched = x.ndim == 5
    if x.ndim not in (4, 5):
        raise ShapeError(f"maxpool3d input must be 4-D or 5-D, got {x.shape}")
    xb = x.data if batched else x.data[None]
    if any(p > n for p, n in zip(window, xb.shape[2:])):
        raise ShapeError(f"pool window {window} exceeds input {xb.shape[2:]}")
    out_dims = tuple(n // p for n, p in zip(xb.shape[2:], window))
    # one strided view of x per window offset, each shaped like the output
    views = [(..., *sl) for _, sl in _taps(window, window, out_dims)]
    out = xb[views[0]].copy()
    idx = np.zeros(out.shape, dtype=np.min_scalar_type(len(views) - 1))
    for n, view in enumerate(views[1:], 1):
        v = xb[view]
        better = ~(v <= out)  # strict, so ties keep the earlier offset; true for a NaN v
        better &= out == out  # a NaN already taken stays
        _select(out, v, better)
        np.maximum(idx, better * idx.dtype.type(n), out=idx)  # n exceeds every earlier offset
    if not batched:
        out = out[0]

    def grad_fn(g):
        gb = g if batched else g[None]
        gx = np.zeros_like(xb)
        for n, view in enumerate(views):
            np.multiply(gb, idx == n, out=gx[view])
        x._accumulate(gx if batched else gx[0])

    return _make(out, (x,), grad_fn)
