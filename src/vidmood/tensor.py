"""Dense N-dimensional arrays with reverse-mode differentiation.

Every primitive the video models need lives here: elementwise math,
broadcasting binary ops, batched matmul, stabilized (maskable) softmax,
3D convolution (an im2col GEMM run over chunks of whole output frames,
so its column is bounded by ``CONV_CHUNK_BYTES``, not by the clip) and
max-pooling, layout ops (reshape / transpose / roll / pad / slicing /
concat), and the fused transformer ops ``linear``, ``layer_norm`` and
``attention`` (packed-qkv multi-head attention with an additive mask
and bias, run in cache-sized chunks), each one tape node with a
hand-written backward pass.

One thread pool (``_split``), one thread per core the process may use, is
the process's only parallel runtime: before this module's first GEMM it
pins numpy's and scipy's OpenBLAS to one thread, so BLAS never runs a
thread pool beside it (where no OpenBLAS setter is found, it stays one
thread wide and BLAS keeps its own threads). Work of ``POOL_MIN_BYTES``
and more is split into ranges on that pool: the forward passes of
``linear``, ``layer_norm``, ``attention``, ``conv3d``, ``relu``,
``gelu`` and ``maxpool3d``, and the backward GEMMs of ``conv3d``. Each
output element is computed as in one whole call, so results are the same
bit for bit.

Forward values are numpy arrays; each op records its inputs and a
gradient closure, so calling ``backward()`` on a scalar replays the
recorded graph in reverse topological order.

Convention: float32 for training, float64 for verification (finite
differences are meaningless in single precision).
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
    "linear",
    "layer_norm",
    "attention",
    "conv3d",
    "maxpool3d",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class NumericError(FloatingPointError):
    """Raised on numeric-domain violations or non-finite error states."""


# graph recording on or off, per thread and per context: workers that run a
# caller's ranges see the caller's value
_grad_var: contextvars.ContextVar[bool] = contextvars.ContextVar("vidmood_grad", default=True)


def __getattr__(name):
    # ``_grad_enabled`` stays readable as a bool (perfbench's tracer reads it)
    if name == "_grad_enabled":
        return _grad_var.get()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference). The
    setting belongs to the calling thread (and the ranges it splits), so
    concurrent callers do not disturb one another."""
    token = _grad_var.set(False)
    try:
        yield
    finally:
        _grad_var.reset(token)


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


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t._grad_fn is not None


def _taped(parents: Sequence[Tensor]) -> bool:
    """True when an op on ``parents`` is recorded on the tape."""
    return _grad_var.get() and any(_wants_grad(p) for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], grad_fn) -> Tensor:
    out = Tensor(data)
    if _taped(parents):
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


# -- splitting work across cores ---------------------------------------------

# work under this many bytes (as each op counts them: its input, output or
# im2col column) runs on the calling thread. At c07 only cnn_lstm's conv3d
# columns (28 and 42 MB) reach it; at paper scale every swin3d_t gelu input
# (8.6 MiB and up) does
POOL_MIN_BYTES = 8 << 20

# A float32 GEMM split into row ranges gives each output element the bits
# of one whole call when every range starts on a multiple of the BLAS kernel
# width (16) and does at least _GEMM_MIN_MACS multiply-adds: OpenBLAS 0.3.31
# runs GEMMs of up to 10^6 through small-matrix kernels, whose rounding at a
# ragged kernel-width tail differs. Its float64 GEMMs round that tail by how
# the columns are blocked, so they are never split.
_GEMM_ROWS = 16
_GEMM_MIN_MACS = 1 << 20

# the thread-count setters of numpy's and of scipy's OpenBLAS
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")

_pool: ThreadPoolExecutor | None = None
_threads = 0  # threads that take ranges, the caller included; 0 until first use
_pool_lock = threading.Lock()


def _pin_blas() -> bool:
    """Set every OpenBLAS mapped into this process to one thread through
    its own setter. False, with nothing set, when none is mapped or one
    has no setter."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                    paths.add(fields[5].strip())
    except OSError:
        return False
    setters = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: returns its handle
        except OSError:
            return False
        name = next((name for name in _BLAS_SETTERS if hasattr(lib, name)), None)
        if name is None:
            return False
        setters.append(getattr(lib, name))
    for setter in setters:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    return bool(setters)


def _runtime() -> tuple[ThreadPoolExecutor | None, int]:
    """The pool and the number of threads that take ranges, set up on first
    use: one thread per core this process may use, with every OpenBLAS
    pinned to one thread, or the calling thread alone where BLAS could not
    be pinned (its own threads then stay the only parallel runtime). The
    pool starts its threads at its first range, not here.

    ``_split`` and ``matmul`` call this before any GEMM of this module:
    OpenBLAS rounds some GEMMs differently at one and at two threads, so
    BLAS must be pinned before the first one for a GEMM's bits not to
    depend on what ran earlier in the process."""
    global _pool, _threads
    if not _threads:
        with _pool_lock:
            if not _threads:
                cores = len(os.sched_getaffinity(0))
                threads = cores if cores > 1 and _pin_blas() else 1
                if threads > 1:
                    _pool = ThreadPoolExecutor(threads, thread_name_prefix="vidmood-split")
                _threads = threads  # set last: callers outside the lock read it
    return _pool, _threads


def _split(n: int, nbytes: int, fn, scratch=None) -> None:
    """Run ``fn(r0, r1)`` over contiguous ranges covering [0, n) on the
    calling thread and the process's one pool of threads, one thread per
    core this process may use. The first call, of any size, pins numpy's
    and scipy's OpenBLAS to one thread (``_runtime``), so BLAS calls made
    inside ranges, or between splits, never compete with a BLAS thread
    pool. Work of ``nbytes`` under ``POOL_MIN_BYTES``, or a process where
    no OpenBLAS setter was found, runs as one range on the calling thread.

    With ``scratch``, each thread that takes ranges first gets
    ``scratch()``, called on the calling thread, and ranges run as ``fn(r0,
    r1, s)`` with their thread's ``s``. ``fn`` writes into slices of
    arrays the caller allocated: a worker that allocates large temporaries
    grows its own malloc arena, and the process's resident memory with it.
    Ranges are handed out on demand, about eight per thread, so a thread
    held up elsewhere takes fewer. ``fn`` never calls ``_split``, so no
    worker waits on the pool. Returns once every range has finished; an
    exception raised in any range reaches the caller.
    """
    pool, threads = _runtime()
    if nbytes < POOL_MIN_BYTES or n < 2:
        threads = 1
    args = [(scratch(),) if scratch else () for _ in range(threads)]
    if threads == 1:
        fn(0, n, *args[0])
        return
    step = -(-n // (8 * threads))
    starts = iter(range(0, n, step))
    lock = threading.Lock()

    def drain(extra):
        while True:
            with lock:
                r0 = next(starts, None)
            if r0 is None:
                return
            fn(r0, min(n, r0 + step), *extra)

    # each worker runs in a copy of the caller's context, so the caller's
    # no_grad and np.errstate hold in its ranges too
    futures = [pool.submit(contextvars.copy_context().run, drain, a) for a in args[1:]]
    try:
        drain(args[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _split_rows(n: int, row_macs: int, dtype, nbytes: int, fn) -> None:
    """``_split`` over the rows [0, n) that one ``dtype`` GEMM's output is
    split into, each row ``row_macs`` multiply-adds, in ranges that start
    on a multiple of ``_GEMM_ROWS`` and hold at least ``_GEMM_MIN_MACS``
    multiply-adds (the last takes the remainder); other than float32, one
    range."""
    unit = _GEMM_ROWS * max(1, -(-_GEMM_MIN_MACS // (_GEMM_ROWS * max(1, row_macs))))
    units = max(1, n // unit) if dtype == np.float32 else 1
    _split(units, nbytes, lambda u0, u1: fn(u0 * unit, n if u1 == units else u1 * unit))


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
    """max(x, 0) into a preallocated output, split across cores by ``_split``."""
    d = x.data
    flat = np.ascontiguousarray(d).reshape(-1)
    out = np.empty(d.shape, dtype=d.dtype)
    of = out.reshape(-1)
    _split(flat.size, flat.nbytes, lambda r0, r1: np.maximum(flat[r0:r1], 0, out=of[r0:r1]))
    return _unary(x, out, lambda: (d > 0).astype(d.dtype))


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


# elements per block of the in-place gelu and layer_norm passes: each pass
# over a block finds it in cache
_BLOCK = 1 << 16


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x), Phi(x) = 0.5 * (1 + erf(x / sqrt(2))). Cache-sized
    blocks run the float ops of that expression in place, in its order,
    split across cores by ``_split``; the taped call also keeps Phi(x)
    for backward."""
    d = x.data
    flat = np.ascontiguousarray(d).reshape(-1)
    out = np.empty(d.shape, dtype=d.dtype)
    cdf = np.empty_like(out) if _taped((x,)) else None
    of, cf = out.reshape(-1), (out if cdf is None else cdf).reshape(-1)

    def blocks(r0, r1):
        for b0 in range(r0, r1, _BLOCK):
            b1 = min(r1, b0 + _BLOCK)
            xb, c = flat[b0:b1], cf[b0:b1]
            np.multiply(xb, _INV_SQRT2, out=c)
            erf(c, out=c)
            c += 1.0
            c *= 0.5
            np.multiply(xb, c, out=of[b0:b1])

    _split(flat.size, flat.nbytes, blocks)
    return _unary(x, out, lambda: cdf + d * (np.exp(-0.5 * d * d) * _INV_SQRT_2PI))


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
    _runtime()  # BLAS pinned before this module's first GEMM
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


# -- fused transformer ops ---------------------------------------------------
#
# One tape node each. Forward and backward passes repeat the arithmetic of
# the op chains they replace, so values and gradients are bit-identical to
# those chains (attention's bias gradient only while the batch fits one
# chunk: chunked, it is summed chunk by chunk).


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias over the last axis: x [..., in], weight [in, out].

    The leading axes are flattened and restored as views, so no reshape
    nodes are recorded. In float32 the forward GEMM and bias add run over
    row ranges split across cores by ``_split_rows``; the backward GEMMs
    run whole.
    """
    if weight.ndim != 2 or x.ndim < 1 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {weight.shape}")
    w = weight.data
    x2 = x.data.reshape(-1, w.shape[0])
    y = np.empty((x2.shape[0], w.shape[1]), dtype=np.result_type(x2, w))

    def rows(r0, r1):
        np.matmul(x2[r0:r1], w, out=y[r0:r1])
        if bias is not None:
            y[r0:r1] += bias.data

    _split_rows(len(x2), w.size, y.dtype, x2.nbytes + y.nbytes, rows)

    def grad_fn(g):
        g2 = g.reshape(len(x2), w.shape[1])
        weight._accumulate(x2.T @ g2)
        if bias is not None:
            bias._accumulate(g2.sum(axis=0))
        if _wants_grad(x):
            x._accumulate((g2 @ w.T).reshape(x.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(y.reshape(x.shape[:-1] + (w.shape[1],)), parents, grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gamma + beta over the last axis.

    Forward and backward run the arithmetic of the ``mean``/``sub``/``mul``
    /``sqrt``/``div``/``add`` composite in its order: sum * (1/n), subtract,
    square, sum * (1/n), + eps, sqrt, divide, * gamma, + beta, and back.
    The forward runs over cache-sized blocks of rows, split across cores by
    ``_split``, into buffers the caller allocates: the output, the per-row
    std and, taped, the centred and normalized input that backward needs.
    """
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} vs input {x.shape}")
    dt = np.result_type(x.data, gamma.data, beta.data)
    d = x.data.astype(dt, copy=False).reshape(-1, n)
    inv_n, eps_ = dt.type(1.0 / n), dt.type(eps)
    y = np.empty(d.shape, dtype=dt)
    std = np.empty((len(d), 1), dtype=dt)
    taped = _taped((x, gamma, beta))
    xc, xhat = (np.empty_like(y), np.empty_like(y)) if taped else (None, None)
    block = max(1, _BLOCK // n)  # rows per block

    def norm_rows(r0, r1, scratch):
        for b0 in range(r0, r1, block):
            b1 = min(r1, b0 + block)
            xb, yb, sb = d[b0:b1], y[b0:b1], std[b0:b1]
            c = scratch[:b1 - b0] if xc is None else xc[b0:b1]
            np.sum(xb, axis=-1, keepdims=True, out=sb)
            sb *= inv_n
            np.subtract(xb, sb, out=c)
            np.multiply(c, c, out=yb)
            np.sum(yb, axis=-1, keepdims=True, out=sb)
            sb *= inv_n
            sb += eps_
            np.sqrt(sb, out=sb)
            h = yb if xhat is None else xhat[b0:b1]
            np.divide(c, sb, out=h)
            np.multiply(h, gamma.data, out=yb)
            yb += beta.data

    _split(len(d), d.nbytes, norm_rows,
           scratch=lambda: None if taped else np.empty((min(block, len(d)), n), dtype=dt))
    shape = x.shape
    y, std = y.reshape(shape), std.reshape(shape[:-1] + (1,))
    if taped:
        xc, xhat = xc.reshape(shape), xhat.reshape(shape)

    def grad_fn(g):
        beta._accumulate(_unbroadcast(g, beta.shape))
        gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
        if not _wants_grad(x):
            return
        g_xhat = g * gamma.data
        g_xc = g_xhat / std
        g_std = (-g_xhat * xhat / std).sum(axis=-1, keepdims=True)
        g_sq = g_std * (0.5 / np.maximum(std, np.finfo(dt).tiny)) * inv_n
        t = g_sq * xc  # xc * xc passes t to each of its two operands
        g_xc += t
        g_xc += t
        x._accumulate(g_xc)
        x._accumulate(np.broadcast_to(-g_xc.sum(axis=-1, keepdims=True) * inv_n, x.shape))

    return _make(y, (x, gamma, beta), grad_fn)


# logits per attention chunk: small enough that the in-place softmax passes
# over a chunk stay in cache
ATTN_CHUNK_BYTES = 4 << 20


def _row_chunks(rows: int, row_bytes: int, budget: int | None = None):
    """[r0, r1) ranges of whole rows, each under ``budget`` bytes (default
    ATTN_CHUNK_BYTES) when one row fits."""
    step = max(1, (ATTN_CHUNK_BYTES if budget is None else budget) // row_bytes)
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _softmax_rows_(lg: np.ndarray) -> None:
    """In-place ``softmax`` over the last axis, with the same op order; a
    row whose entries are all -inf becomes zeros."""
    m = lg.max(axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0
    lg -= m
    np.exp(lg, out=lg)
    s = lg.sum(axis=-1, keepdims=True)
    s[s == 0] = 1
    lg /= s


def attention(qkv: Tensor, heads: int, mask: Sequence[np.ndarray | None] | None = None,
              bias: Tensor | None = None) -> Tensor:
    """Multi-head self-attention on a packed projection.

    ``qkv`` [B, N, 3*D] holds q, k and v side by side, each D = heads *
    d_head wide. Per head, softmax(q k^T / sqrt(d_head) + bias + mask) v;
    the heads come back merged as [B, N, D].

    ``mask`` is a sequence of M additive masks (an [M, 1, N, N] array, or
    a list that shares arrays between rows): each entry is 0 (attend) or
    -inf (excluded) per pair, broadcastable to [heads, N, N], or None when
    nothing is excluded. Batch row r uses ``mask[r % M]``, so B must be a
    multiple of M. Excluded pairs get exactly zero weight, and a row with
    every key excluded gives zeros. ``bias`` broadcasts to [heads, N, N].

    Rows run in chunks whose logits fit ``ATTN_CHUNK_BYTES``, the softmax
    in place; the tape keeps only the probabilities. The forward's batch
    rows are split across cores by ``_split``.
    """
    if qkv.ndim != 3 or qkv.shape[-1] % (3 * heads):
        raise ShapeError(f"attention: qkv {qkv.shape} is not [B, N, 3 * {heads} * d_head]")
    b, n, d3 = qkv.shape
    dh = d3 // (3 * heads)
    if mask is not None and b % len(mask):
        raise ShapeError(f"attention: {b} batch rows are not a multiple of {len(mask)} masks")
    dt = qkv.dtype if bias is None else np.result_type(qkv.data, bias.data)
    q, k, v = (qkv.data.reshape(b, n, 3, heads, dh)[:, :, i].transpose(0, 2, 1, 3)
               for i in range(3))
    kt = k.transpose(0, 1, 3, 2)
    scale = dt.type(1.0 / math.sqrt(dh))
    row_bytes = heads * n * n * dt.itemsize
    chunks = list(_row_chunks(b, row_bytes))
    per = chunks[0][1]  # rows per chunk
    parents = (qkv,) if bias is None else (qkv, bias)
    probs = np.empty((b, heads, n, n), dtype=dt) if _taped(parents) else None
    out = np.empty((b, n, heads, dh), dtype=dt)
    out_h = out.transpose(0, 2, 1, 3)

    def attend(r0, r1, scratch):
        for c0 in range(r0, r1, per):
            c1 = min(r1, c0 + per)
            lg = probs[c0:c1] if scratch is None else scratch[:c1 - c0]
            np.matmul(q[c0:c1], kt[c0:c1], out=lg)
            lg *= scale
            if bias is not None:
                lg += bias.data
            if mask is not None:
                for r in range(c0, c1):
                    m = mask[r % len(mask)]
                    if m is not None:
                        lg[r - c0] += m
            _softmax_rows_(lg)
            np.matmul(lg, v[c0:c1], out=out_h[c0:c1])

    # untaped, each thread reuses one chunk-sized buffer for the logits;
    # taped, they go straight into the kept probabilities
    _split(b, b * row_bytes, attend,
           scratch=lambda: None if probs is not None else np.empty((per, heads, n, n), dtype=dt))

    def grad_fn(g):
        g_out = g.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
        gqkv = np.empty((b, n, 3, heads, dh), dtype=dt)
        gq, gk, gv = (gqkv[:, :, i].transpose(0, 2, 1, 3) for i in range(3))
        gbias = None if bias is None else np.zeros(bias.shape, dtype=dt)
        for r0, r1 in chunks:
            p, go = probs[r0:r1], g_out[r0:r1]
            np.matmul(p.transpose(0, 1, 3, 2), go, out=gv[r0:r1])
            dz = go @ v[r0:r1].transpose(0, 1, 3, 2)  # d probs
            dz -= (dz * p).sum(axis=-1, keepdims=True)
            dz *= p  # d logits; zero wherever the mask excluded a pair
            if gbias is not None:
                gbias += _unbroadcast(dz, bias.shape)
            dz *= scale
            np.matmul(dz, k[r0:r1], out=gq[r0:r1])
            # q^T dz, transposed, as the chain computed it: dz^T q sums in another order
            gk[r0:r1] = (q[r0:r1].transpose(0, 1, 3, 2) @ dz).transpose(0, 1, 3, 2)
        qkv._accumulate(gqkv.reshape(qkv.shape))
        if bias is not None:
            bias._accumulate(gbias)

    return _make(out.reshape(b, n, heads * dh), parents, grad_fn)


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


# im2col column bytes per conv3d chunk of whole output frames: a paper-scale
# clip's column is then tens of MB instead of up to 1.3 GB, and a c07 batch's
# column (at most 42 MB) is one chunk
CONV_CHUNK_BYTES = 64 << 20


def _im2col(xp: np.ndarray, kshape, stride, out_dims, col: np.ndarray) -> None:
    """Fill ``col`` [B, C, kt, kh, kw, T', H', W'] from padded x [B, C, T, H, W].

    Read as [B, C*kt*kh*kw, T'*H'*W'], its rows follow the kernel's own
    (C, kt, kh, kw) order, so ``kernel.reshape(O, -1) @ col`` is the
    correlation. One strided copy per kernel tap fills it, each running
    along contiguous W.
    """
    for (i, j, k), (st, sh, sw) in _taps(kshape, stride, out_dims):
        col[:, :, i, j, k] = xp[:, :, st, sh, sw]


def conv3d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride=1, padding=0) -> Tensor:
    """Direct-sum 3D convolution (cross-correlation form).

    ``x``: [C_in, T, H, W] or [B, C_in, T, H, W];
    ``kernel``: [C_out, C_in, kt, kh, kw]; output extent per axis is
    floor((in + 2*pad - k) / stride) + 1.

    The im2col column and its GEMM run over chunks of whole output frames
    whose column fits ``CONV_CHUNK_BYTES`` (at least one frame). Where the
    column splits, a float32 chunk is cut into pieces that start on a
    multiple of ``_GEMM_ROWS`` output positions and hold at least
    ``_GEMM_MIN_MACS`` multiply-adds, where it holds two; pieces are split
    across cores by ``_split`` and write into the output. Under
    ``no_grad`` each thread reuses one chunk-sized buffer; with the tape
    the whole column is kept, and the weight and input gradients run per
    chunk, their GEMMs split by ``_split_rows`` over column rows (col2im
    stays on the calling thread). The chunk GEMMs give the one-chunk
    output bit for bit when a frame's output positions are a multiple of
    the BLAS kernel width (16 for OpenBLAS 0.3.31's sgemm), as every
    model's frames are.
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
    (b, c), o = xb.shape[:2], kernel.shape[0]
    wmat = kernel.data.reshape(o, -1)
    rows = wmat.shape[1]  # column rows, C * kt * kh * kw
    frame = math.prod(out_dims[1:])  # output positions per frame
    chunks = list(_row_chunks(out_dims[0], b * rows * frame * xp.itemsize, CONV_CHUNK_BYTES))
    per = chunks[0][1]  # output frames per chunk

    def window(a, t0, t1):  # the padded frames that output frames [t0, t1) read
        return a[:, :, stride[0] * t0:stride[0] * (t1 - 1) + kshape[0]]

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    taped = _taped(parents)
    out = np.empty((b, o, *out_dims), dtype=np.result_type(wmat, xp))
    out3 = out.reshape(b, o, -1)  # [B, O, P]
    col = np.empty((b, rows, out3.shape[2]), dtype=xp.dtype) if taped else None

    # one GEMM per piece of whole frames; a piece keeps its chunk GEMM's
    # bits by starting on a multiple of _GEMM_ROWS output positions and
    # doing at least _GEMM_MIN_MACS multiply-adds (the last takes the rest)
    colbytes = b * rows * out3.shape[2] * xp.itemsize
    cut = out.dtype == np.float32 and colbytes >= POOL_MIN_BYTES and _runtime()[1] > 1
    align = _GEMM_ROWS // math.gcd(frame, _GEMM_ROWS)  # frames
    unit = align * max(1, -(-_GEMM_MIN_MACS // (align * frame * o * rows)))
    pieces = []
    for t0, t1 in chunks:
        k = max(1, (t1 - t0) // unit) if cut else 1
        pieces += [(t0 + i * unit, t1 if i == k - 1 else t0 + (i + 1) * unit) for i in range(k)]

    def conv_pieces(p0, p1, buf):
        for t0, t1 in pieces[p0:p1]:
            if buf is None:
                piece, lo = col, t0
            else:
                piece, lo = buf[:b * rows * (t1 - t0) * frame].reshape(b, rows, -1), 0
            col8 = piece.reshape(b, c, *kshape, -1, *out_dims[1:])[:, :, :, :, :, lo:lo + t1 - t0]
            _im2col(window(xp, t0, t1), kshape, stride, (t1 - t0, *out_dims[1:]), col8)
            y = out3[:, :, t0 * frame:t1 * frame]
            np.matmul(wmat, piece[:, :, lo * frame:(lo + t1 - t0) * frame], out=y)
            if bias is not None:
                y += bias.data[:, None]

    _split(len(pieces), colbytes, conv_pieces,
           scratch=lambda: None if taped else np.empty(b * rows * per * frame, dtype=xp.dtype))
    if not batched:
        out = out[0]
    xp_shape = xp.shape  # the tape keeps the column, not the padded input

    def grad_fn(g):
        g3 = g.reshape(b, o, -1)  # [B, O, P]
        gw = None
        gxp = np.zeros(xp_shape, dtype=np.result_type(wmat, g)) if _wants_grad(x) else None
        part = np.empty((b, o, rows), dtype=np.result_type(g3, xp))
        for t0, t1 in chunks:
            gc, cc = g3[:, :, t0 * frame:t1 * frame], col[:, :, t0 * frame:t1 * frame]
            gcol = None if gxp is None else np.empty(cc.shape, dtype=np.result_type(wmat, g3))

            def column_rows(r0, r1):  # both GEMMs sum over O or P, never over rows
                np.matmul(gc, cc[:, r0:r1].transpose(0, 2, 1), out=part[:, :, r0:r1])
                if gcol is not None:
                    np.matmul(wmat[:, r0:r1].T, gc, out=gcol[:, r0:r1])

            _split_rows(rows, o * gc.shape[2], part.dtype, cc.nbytes, column_rows)
            psum = part.sum(axis=0)
            gw = psum if gw is None else np.add(gw, psum, out=gw)
            if gcol is not None:
                _col2im_add(window(gxp, t0, t1), gcol, kshape, stride, (t1 - t0, *out_dims[1:]))
        kernel._accumulate(gw.reshape(kernel.shape))
        if bias is not None:
            bias._accumulate(g3.sum(axis=(0, 2)))
        if gxp is not None:
            crop = tuple(slice(p, n - p) for p, n in zip(padding, xp_shape[2:]))
            gx = gxp[(..., *crop)]
            x._accumulate(gx if batched else gx[0])

    return _make(out, parents, grad_fn)


def _col2im_add(gxp: np.ndarray, gcol: np.ndarray, kshape, stride, out_dims) -> None:
    """col2im: add gcol = W2d.T @ g, the [B, C*kt*kh*kw, T'*H'*W'] column
    gradient in ``_im2col``'s row order, into the padded input gradient.

    Each kernel tap's rows go back through the same strided slices that
    filled them; the remainder tail that no forward window touched is left
    as it is.
    """
    b, c = gxp.shape[:2]
    gcol = gcol.reshape(b, c, *kshape, *out_dims)
    for (i, j, k), (st, sh, sw) in _taps(kshape, stride, out_dims):
        gxp[:, :, st, sh, sw] += gcol[:, :, i, j, k]


# -- 3D max-pooling ------------------------------------------------------------


def _select(out: np.ndarray, v: np.ndarray, mask: np.ndarray, d: np.ndarray) -> None:
    """out[mask] = v[mask] in place, bit for bit, as an xor blend of the raw
    bits: numpy vectorizes it, where a masked copy goes element by element.
    ``d`` is a work array of out's shape in the unsigned integer dtype of its
    width."""
    ob = out.view(d.dtype)
    np.bitwise_xor(v.view(d.dtype), ob, out=d)
    d *= mask  # keeps the differing bits where mask is true
    ob ^= d


def maxpool3d(x: Tensor, window) -> Tensor:
    """Window max with stride = window; trailing remainder is truncated.

    Gradient routes to the first maximal element of each window in
    row-major order; a window holding a NaN gives NaN and routes to it.
    The forward runs over ranges of channels split across cores by
    ``_split``.
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
    shape = (*xb.shape[:2], *out_dims)
    out = np.empty(shape, dtype=xb.dtype)
    idx = np.zeros(shape, dtype=np.min_scalar_type(len(views) - 1))
    # work arrays for every range, so the workers allocate nothing
    better, same, step = np.empty(shape, bool), np.empty(shape, bool), np.empty_like(idx)
    bits = np.empty(shape, dtype=f"u{out.itemsize}")

    def pool_channels(c0, c1):
        cs = (slice(None), slice(c0, c1))
        o, i, bt, sm, st = out[cs], idx[cs], better[cs], same[cs], step[cs]
        np.copyto(o, xb[views[0]][cs])
        for n, view in enumerate(views[1:], 1):
            v = xb[view][cs]
            np.less_equal(v, o, out=bt)
            np.invert(bt, out=bt)  # strict, so ties keep the earlier offset; true for a NaN v
            np.equal(o, o, out=sm)
            bt &= sm  # a NaN already taken stays
            _select(o, v, bt, bits[cs])
            np.multiply(bt, idx.dtype.type(n), out=st)
            np.maximum(i, st, out=i)  # n exceeds every earlier offset

    _split(shape[1], xb.nbytes, pool_channels)
    if not batched:
        out = out[0]

    def grad_fn(g):
        gb = g if batched else g[None]
        gx = np.zeros_like(xb)
        for n, view in enumerate(views):
            np.multiply(gb, idx == n, out=gx[view])
        x._accumulate(gx if batched else gx[0])

    return _make(out, (x,), grad_fn)
