"""Dense N-dimensional arrays with reverse-mode differentiation.

Every primitive the video models need lives here: elementwise math,
broadcasting binary ops, batched matmul, stabilized (maskable) softmax,
max-pooling (one ``np.maximum`` per window offset, taped or not: backward
rebuilds each window's route from the input and the output), layout ops
(reshape / transpose / roll / pad / slicing / concat), the fused
transformer ops ``linear``, ``layer_norm``, ``mha`` (multi-head
self-attention with an additive mask and bias, its logits in cache-sized
chunks, between the qkv and the output projection, all run over chunks
of whole batch rows, so untaped no full-size qkv
exists) and ``mlp`` (fc1, GELU and fc2 over blocks of rows; the tape
keeps fc1's output and Phi of it), and ``conv_pool``, a 3D convolution
(an im2col GEMM run over chunks of whole output frames, so its column is
bounded by ``CONV_CHUNK_BYTES``, not by the clip; the column is copied
from the input itself, with zeros where a tap reads the padding, so no
padded copy exists) whose output is max-pooled piece by piece, so no
full-size conv output exists (the tape keeps the input and a uint8 route
per pooled element; backward builds each chunk's column again), each one
tape node with a hand-written backward pass. ``conv_pool_relu`` is
``conv_pool`` with a ReLU run in place on each pooled piece, and
``conv3d`` is ``conv_pool``'s convolution with a one-element window.

One thread pool (``_split``), one thread per core the process may use, is
the process's only parallel runtime: before this module's first GEMM it
pins numpy's and scipy's OpenBLAS to one thread, so BLAS never runs a
thread pool beside it (where no OpenBLAS setter is found, it stays one
thread wide and BLAS keeps its own threads). Work of ``POOL_MIN_BYTES``
and more is split into ranges on that pool: the forward passes of
``linear``, ``layer_norm``, ``mha``, ``conv3d``, ``conv_pool``,
``conv_pool_relu`` and ``mlp``, and the backward of the three
convolutions. Each output element is computed as in one whole call, so
results are the same bit for bit. One budget, ``CACHE_BYTES``, bounds
what one thread works on at a time: an attention chunk's logits, an
``mlp`` block's hidden rows and a conv band's column.

When that runtime starts (``_runtime``, at the first split or GEMM, not
at import), it also has glibc serve large arrays from its heap and keep
freed memory in the process (``mallopt``: no ``mmap`` for large blocks,
a 1 GiB trim threshold), so each op's arrays reuse pages already faulted
in instead of fresh kernel-zeroed mappings. Where ``mallopt`` is not
found, the allocator is left as it is.

Forward values are numpy arrays; each op records its inputs and a
gradient closure, so calling ``backward()`` on a scalar replays the
recorded graph in reverse topological order, releasing each node's
closure and inputs once its gradient has run.

Convention: float32 for training, float64 for verification (finite
differences are meaningless in single precision).
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
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
    "mha",
    "conv3d",
    "maxpool3d",
    "conv_pool",
    "conv_pool_relu",
    "mlp",
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
        The graph is released as it runs: once a node's gradient has
        gone to its inputs, the node drops its gradient closure (and the
        arrays it saved) and its inputs, so memory falls as backward
        proceeds. An interior node's gradient goes to its closure alone,
        so a closure that replaces it (``conv_pool_relu``'s ReLU step)
        frees it there. A second ``backward`` through a released node
        raises ``RuntimeError``; build the graph again instead.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._grad_fn is _released:
            _released(None)

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
        while order:
            node = order.pop()
            if node._grad_fn is None:
                continue
            if node.grad is not None:
                # an interior node hands its gradient buffer to the closure,
                # which may then free it before it returns
                node._grad_fn(node.grad if node.requires_grad else _hand_over(node))
            node._grad_fn, node._parents = _released, ()

    def __getitem__(self, key):
        return take(self, key)


def _hand_over(node: Tensor) -> np.ndarray:
    """``node``'s gradient, cleared from the node: passed straight into a
    call, the callee's parameter holds the only reference."""
    g, node.grad = node.grad, None
    return g


def _released(g):
    """The gradient closure of a node whose graph ``backward`` released."""
    raise RuntimeError("backward through a graph that an earlier backward() released; "
                       "run the forward again to build a new graph")


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
# im2col column) runs on the calling thread. At c07 only cnn_lstm's conv
# columns (28 and 42 MB) reach it; at paper scale every swin3d_t mlp hidden
# layer (8.6 MiB and up) does
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

# glibc's mallopt parameters, and the heap top it may keep when freed
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4
_TRIM_THRESHOLD = 1 << 30

_pool: ThreadPoolExecutor | None = None
_threads = 0  # threads that take ranges, the caller included; 0 until first use
_pool_lock = threading.Lock()


def _keep_freed_memory() -> None:
    """Have glibc serve large allocations from its heap and keep freed heap
    memory for reuse, up to ``_TRIM_THRESHOLD`` at its top, instead of
    mapping each large array afresh and unmapping it when freed: a fresh
    mapping is page-faulted and zeroed by the kernel on first touch.
    Sets nothing where ``mallopt`` is not found or refuses ``M_MMAP_MAX``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(_M_MMAP_MAX, 0):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


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
    pool starts its threads at its first range, not here. Set-up also has
    glibc keep freed memory in the process (``_keep_freed_memory``),
    whether or not BLAS was pinned, so each op's large arrays reuse pages
    already faulted in rather than fresh kernel-zeroed mappings.

    ``_split`` and ``matmul`` call this before any GEMM of this module:
    OpenBLAS rounds some GEMMs differently at one and at two threads, so
    BLAS must be pinned before the first one for a GEMM's bits not to
    depend on what ran earlier in the process."""
    global _pool, _threads
    if not _threads:
        with _pool_lock:
            if not _threads:
                _keep_freed_memory()
                cores = len(os.sched_getaffinity(0))
                threads = cores if cores > 1 and _pin_blas() else 1
                if threads > 1:
                    _pool = ThreadPoolExecutor(threads, thread_name_prefix="vidmood-split")
                _threads = threads  # set last: callers outside the lock read it
    return _pool, _threads


def _width(nbytes: int) -> int:
    """The threads that ``_split`` runs work of ``nbytes`` on, when it has
    two ranges or more: all of the runtime's from ``POOL_MIN_BYTES`` on,
    else the calling thread alone."""
    return _runtime()[1] if nbytes >= POOL_MIN_BYTES else 1


def _split(n: int, nbytes: int, fn, scratch=None) -> None:
    """Run ``fn(r0, r1)`` over contiguous ranges covering [0, n) on the
    calling thread and the process's one pool of threads, one thread per
    core this process may use. The first call, of any size, pins numpy's
    and scipy's OpenBLAS to one thread (``_runtime``), so BLAS calls made
    inside ranges, or between splits, never compete with a BLAS thread
    pool. Work of ``nbytes`` under ``POOL_MIN_BYTES``, or a process where
    no OpenBLAS setter was found, runs as one range on the calling thread.

    The work runs as ``k = max(1, min(_width(nbytes), n))`` contiguous
    ranges, one per thread: range ``i`` is [n*i//k, n*(i+1)//k), range 0
    runs on the caller and each other range on a pool worker, so the
    ranges depend on ``n`` and the thread count alone. ``k`` never exceeds
    ``n``, so no range is empty and no thread builds a scratch it does not
    use; ``_split_rows`` relies on it, since it maps a range that ends at
    its last unit to the remainder rows.

    With ``scratch``, each range gets its own ``scratch()``, called on the
    calling thread, and runs as ``fn(r0, r1, s)``. ``fn`` writes into
    slices of arrays the caller allocated: a worker that allocates large
    temporaries grows its own malloc arena, and the process's resident
    memory with it. ``fn`` never calls ``_split``, so no worker waits on
    the pool. Returns once every range has finished; an exception raised
    in any range reaches the caller.
    """
    pool = _runtime()[0]
    k = max(1, min(_width(nbytes), n))
    args = [(scratch(),) if scratch else () for _ in range(k)]
    # each worker runs in a copy of the caller's context, so the caller's
    # no_grad and np.errstate hold in its range too
    futures = [pool.submit(contextvars.copy_context().run, fn, n * i // k, n * (i + 1) // k,
                           *args[i]) for i in range(1, k)]
    try:
        fn(0, n // k, *args[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _gemm_units(n: int, row_macs: int, dtype) -> tuple[int, int]:
    """(rows per unit, units) for the rows [0, n) of one ``dtype`` GEMM's
    output, each row ``row_macs`` multiply-adds: a unit is a multiple of
    ``_GEMM_ROWS`` rows holding at least ``_GEMM_MIN_MACS`` multiply-adds,
    and the last unit takes the remainder. Ranges of whole units give the
    whole GEMM's bits. Other than float32, one unit."""
    unit = _GEMM_ROWS * max(1, -(-_GEMM_MIN_MACS // (_GEMM_ROWS * max(1, row_macs))))
    return unit, max(1, n // unit) if dtype == np.float32 else 1


def _split_rows(n: int, row_macs: int, dtype, nbytes: int, fn) -> None:
    """``_split`` over the rows [0, n) of one ``dtype`` GEMM's output in
    ranges of whole ``_gemm_units``."""
    unit, units = _gemm_units(n, row_macs, dtype)
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
    d = x.data
    return _unary(x, np.maximum(d, 0), lambda: (d > 0).astype(d.dtype))


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


def _gelu_block(xb: np.ndarray, c: np.ndarray, out: np.ndarray) -> None:
    """gelu's float ops, in its order, on one cache-sized block: Phi(xb)
    into ``c``, then xb * Phi(xb) into ``out``, which may be ``c`` or
    ``xb``."""
    np.multiply(xb, _INV_SQRT2, out=c)
    erf(c, out=c)
    c += 1.0
    c *= 0.5
    np.multiply(xb, c, out=out)


def _gelu_grad(d: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """gelu's local derivative Phi(d) + d * phi(d), given Phi(d)."""
    return cdf + d * (np.exp(-0.5 * d * d) * _INV_SQRT_2PI)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x), Phi(x) = 0.5 * (1 + erf(x / sqrt(2))). Cache-sized
    blocks run the float ops of that expression in place, in its order;
    the taped call also keeps Phi(x) for backward."""
    d = x.data
    flat = np.ascontiguousarray(d).reshape(-1)
    out = np.empty(d.shape, dtype=d.dtype)
    cdf = np.empty_like(out) if _taped((x,)) else None
    of, cf = out.reshape(-1), (out if cdf is None else cdf).reshape(-1)
    for b0 in range(0, flat.size, _BLOCK):
        b1 = min(flat.size, b0 + _BLOCK)
        _gelu_block(flat[b0:b1], cf[b0:b1], of[b0:b1])
    return _unary(x, out, lambda: _gelu_grad(d, cdf))


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


def _softmax_rows_(lg: np.ndarray, axis: int = -1) -> None:
    """Softmax along ``axis``, in place: each row's max (0 where it is not
    finite) subtracted, exponentiated and divided by its sum (1 where that
    is 0), so a row whose entries are all -inf becomes zeros."""
    m = lg.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0
    lg -= m
    np.exp(lg, out=lg)
    s = lg.sum(axis=axis, keepdims=True)
    s[s == 0] = 1
    lg /= s


def softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stabilized softmax along ``axis``.

    ``mask`` is an optional boolean array (broadcastable to ``x``) marking
    permitted entries; excluded entries are treated as -inf pre-softmax and
    come out exactly zero. A fully excluded row yields all zeros.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    # the copy keeps the input's memory layout, which sets each row's summation order
    y = np.where(mask, x.data, -np.inf) if mask is not None else x.data.copy(order="K")
    _softmax_rows_(y, axis)

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
# those chains (``mha``'s bias gradient only while the batch fits one
# attention chunk: chunked, it is summed chunk by chunk).


def _linear_rows(x2: np.ndarray, w: np.ndarray, bias: np.ndarray | None, y: np.ndarray,
                 nbytes: int) -> None:
    """y = x2 @ w + bias over row ranges of whole ``_gemm_units``, split
    across cores (``_split_rows``) as work of ``nbytes``."""
    def rows(r0, r1):
        np.matmul(x2[r0:r1], w, out=y[r0:r1])
        if bias is not None:
            y[r0:r1] += bias

    _split_rows(len(x2), w.size, y.dtype, nbytes, rows)


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
    _linear_rows(x2, w, None if bias is None else bias.data, y, x2.nbytes + y.nbytes)

    def grad_fn(g):
        g2 = g.reshape(len(x2), w.shape[1])
        weight._accumulate(x2.T @ g2)
        if bias is not None:
            bias._accumulate(g2.sum(axis=0))
        if _wants_grad(x):
            x._accumulate((g2 @ w.T).reshape(x.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(y.reshape(x.shape[:-1] + (w.shape[1],)), parents, grad_fn)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` as one op over blocks of
    rows: x [..., dim], w1 [dim, hidden], w2 [hidden, dim].

    Each block of rows runs fc1's GEMM plus bias, ``gelu``'s float ops in
    cache-sized pieces and fc2's GEMM plus bias while its [rows, hidden]
    activation is in cache. A block is whole ``_gemm_units`` of rows under
    ``CACHE_BYTES`` of hidden activation (at least one unit), so both
    GEMMs give the whole GEMMs' bits; float64 runs as one block. Blocks are
    split across cores by ``_split``, each thread reusing its own
    [rows, hidden] scratch: untaped, no [N, hidden] array exists.

    Taped, the op keeps fc1's output and Phi of it, not gelu's output.
    Backward recomputes gelu's output as the same product, then runs
    ``linear``'s and ``gelu``'s backward arithmetic in the chain's order,
    as whole GEMMs, so every gradient is the chain's bit for bit.
    """
    dim, hidden = w1.shape if w1.ndim == 2 else (None, None)
    if (x.ndim < 1 or x.shape[-1] != dim or w2.shape != (hidden, dim)
            or b1.shape != (hidden,) or b2.shape != (dim,)):
        raise ShapeError(f"mlp: input {x.shape} does not match fc1 {w1.shape} + {b1.shape}, "
                         f"fc2 {w2.shape} + {b2.shape}")
    x2 = x.data.reshape(-1, dim)
    n = len(x2)
    ht = np.result_type(x2, w1.data)
    y = np.empty((n, dim), dtype=np.result_type(ht, w2.data))
    parents = (x, w1, b1, w2, b2)
    taped = _taped(parents)
    h, cdf = (np.empty((n, hidden), dtype=ht), np.empty((n, hidden), dtype=ht)) if taped \
        else (None, None)
    unit, units = _gemm_units(n, w1.size, ht)  # w2 has as many multiply-adds per row
    blocks = [(u0 * unit, n if u1 == units else u1 * unit)
              for u0, u1 in _row_chunks(units, unit * hidden * ht.itemsize)]
    widest = max(r1 - r0 for r0, r1 in blocks)

    def run(p0, p1, scratch):
        for r0, r1 in blocks[p0:p1]:
            # taped: fc1's output and Phi into the kept arrays, gelu's output
            # into scratch; untaped: fc1's output and then gelu's in scratch
            hb = h[r0:r1] if taped else scratch[0][:r1 - r0]
            np.matmul(x2[r0:r1], w1.data, out=hb)
            hb += b1.data
            ab, cf = (scratch[0][:r1 - r0], cdf[r0:r1].reshape(-1)) if taped else (hb, None)
            hf, af = hb.reshape(-1), ab.reshape(-1)
            for c0 in range(0, hf.size, _BLOCK):
                c1 = min(hf.size, c0 + _BLOCK)
                _gelu_block(hf[c0:c1], scratch[1][:c1 - c0] if cf is None else cf[c0:c1],
                            af[c0:c1])
            np.matmul(ab, w2.data, out=y[r0:r1])
            y[r0:r1] += b2.data

    _split(len(blocks), n * hidden * ht.itemsize, run, scratch=lambda: (
        np.empty((widest, hidden), dtype=ht), None if taped else np.empty(_BLOCK, dtype=ht)))

    def grad_fn(g):
        g2 = g.reshape(n, dim)
        a = h * cdf  # gelu's output, the forward's product
        w2._accumulate(a.T @ g2)
        del a
        b2._accumulate(g2.sum(axis=0))
        gh = (g2 @ w2.data.T) * _gelu_grad(h, cdf)
        w1._accumulate(x2.T @ gh)
        b1._accumulate(gh.sum(axis=0))
        if _wants_grad(x):
            x._accumulate((gh @ w1.data.T).reshape(x.shape))

    return _make(y.reshape(x.shape[:-1] + (dim,)), parents, grad_fn)


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


# one thread's working set that stays in cache: an attention chunk's logits
# (the in-place softmax passes over them), an mlp block's hidden rows and a
# conv band's column
CACHE_BYTES = 4 << 20


def _row_chunks(rows: int, row_bytes: int, budget: int | None = None):
    """[r0, r1) ranges of whole rows, each under ``budget`` bytes (default
    CACHE_BYTES) when one row fits."""
    step = max(1, (CACHE_BYTES if budget is None else budget) // row_bytes)
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _attend(qkv: np.ndarray, heads: int, mask, bias: Tensor | None, out: np.ndarray,
            probs: np.ndarray | None, row0: int, nbytes: int) -> None:
    """``mha``'s attention forward on the packed projection ``qkv`` [b, N, 3D]
    of the op's batch rows row0 to row0 + b, which pick the masks: the
    merged heads into ``out`` [b, N, D] and, when given, the probabilities
    into ``probs`` [b, heads, N, N]. Rows run in chunks whose logits fit
    ``CACHE_BYTES``, the softmax in place, split across cores by ``_split``
    as work of ``nbytes``. Each batch row's numbers depend on that row
    alone."""
    b, n, d3 = qkv.shape
    dh = d3 // (3 * heads)
    dt = out.dtype
    q, k, v = (qkv.reshape(b, n, 3, heads, dh)[:, :, i].transpose(0, 2, 1, 3)
               for i in range(3))
    kt = k.transpose(0, 1, 3, 2)
    scale = dt.type(1.0 / math.sqrt(dh))
    per = next(_row_chunks(b, heads * n * n * dt.itemsize))[1]  # rows per chunk
    out_h = out.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

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
                    m = mask[(row0 + r) % len(mask)]
                    if m is not None:
                        lg[r - c0] += m
            _softmax_rows_(lg)
            np.matmul(lg, v[c0:c1], out=out_h[c0:c1])

    # untaped, each thread reuses one chunk-sized buffer for the logits;
    # taped, they go straight into the kept probabilities
    _split(b, nbytes, attend,
           scratch=lambda: None if probs is not None else np.empty((per, heads, n, n), dtype=dt))


def _attend_grad(qkv: np.ndarray, probs: np.ndarray, g: np.ndarray, heads: int,
                 bias: Tensor | None) -> tuple[np.ndarray, np.ndarray | None]:
    """``mha``'s attention backward: the gradients of the packed projection
    ``qkv`` [B, N, 3D] and of the bias (None without one), given the kept
    probabilities and ``g``, the merged heads' gradient [B, N, D]. It runs
    the chain's arithmetic over the forward's chunks of the whole batch, so
    the bias gradient sums chunk by chunk."""
    b, n, d3 = qkv.shape
    dh = d3 // (3 * heads)
    dt = probs.dtype
    q, k, v = (qkv.reshape(b, n, 3, heads, dh)[:, :, i].transpose(0, 2, 1, 3)
               for i in range(3))
    scale = dt.type(1.0 / math.sqrt(dh))
    g_out = g.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)
    gqkv = np.empty((b, n, 3, heads, dh), dtype=dt)
    gq, gk, gv = (gqkv[:, :, i].transpose(0, 2, 1, 3) for i in range(3))
    gbias = None if bias is None else np.zeros(bias.shape, dtype=dt)
    for r0, r1 in _row_chunks(b, heads * n * n * dt.itemsize):
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
    return gqkv.reshape(b, n, d3), gbias


def _fresh_grad(like: np.ndarray, g: np.ndarray) -> np.ndarray:
    """What ``_accumulate`` leaves in the gradient of a node shaped and
    typed like ``like`` that receives ``g`` alone: zeros plus ``g``."""
    out = np.zeros_like(like)
    out += g
    return out


def mha(x: Tensor, w_qkv: Tensor, b_qkv: Tensor, w_out: Tensor, b_out: Tensor, heads: int,
        mask: Sequence[np.ndarray | None] | None = None, bias: Tensor | None = None) -> Tensor:
    """Multi-head self-attention with its input and output projections, as
    one op: x [B, N, D], w_qkv [D, 3D], w_out [D, D]. The qkv projection
    ``x @ w_qkv + b_qkv`` holds q, k and v side by side, each D = heads *
    d_head wide; per head, softmax(q k^T / sqrt(d_head) + bias + mask) v;
    the merged heads [B, N, D] go through ``@ w_out + b_out``.

    ``mask`` is a sequence of M additive masks (an [M, 1, N, N] array, or
    a list that shares arrays between rows): each entry is 0 (attend) or
    -inf (excluded) per pair, broadcastable to [heads, N, N], or None when
    nothing is excluded. Batch row r uses ``mask[r % M]``, so B must be a
    multiple of M. Excluded pairs get exactly zero weight, and a query with
    every key excluded gets zero merged heads, so its output is ``b_out``.
    ``bias`` broadcasts to [heads, N, N].

    The three phases run over chunks of whole batch rows: each chunk is
    the fewest whole ``_gemm_units`` of the qkv GEMM (and whole batch
    rows) whose qkv reaches ``POOL_MIN_BYTES``, and the last takes the
    rest; float64, or fewer rows, run as one chunk. Each phase of a chunk
    is split across cores as the whole phase would be, so both GEMMs give
    the whole GEMMs' bits and the attention gives each batch row's: the
    chunks do not change the output. The attention runs a chunk's rows in
    turn in groups whose logits fit ``CACHE_BYTES``, the softmax in place.
    Untaped, the qkv projection and the merged heads exist for one chunk
    at a time.

    Taped, the op keeps the qkv projection, the probabilities and the
    merged heads, and its backward runs the output projection's, the
    attention's (``_attend_grad``) and the qkv projection's backward in
    that order, over the whole batch, so the chunks do not change the
    gradients either.
    """
    dim = w_out.shape[0] if w_out.ndim == 2 else None
    if (x.ndim != 3 or x.shape[-1] != dim or w_out.shape != (dim, dim)
            or w_qkv.shape != (dim, 3 * dim) or b_qkv.shape != (3 * dim,)
            or b_out.shape != (dim,)):
        raise ShapeError(f"mha: input {x.shape} does not match qkv {w_qkv.shape} + "
                         f"{b_qkv.shape}, output {w_out.shape} + {b_out.shape}")
    b, n, _ = x.shape
    if dim % heads:
        raise ShapeError(f"mha: a width of {dim} is not {heads} * d_head")
    if mask is not None and b % len(mask):
        raise ShapeError(f"mha: {b} batch rows are not a multiple of {len(mask)} masks")
    x2, rows = x.data.reshape(-1, dim), b * n
    qt = np.result_type(x2, w_qkv.data)
    dt = qt if bias is None else np.result_type(qt, bias.data)
    yt = np.result_type(dt, w_out.data)
    parents = (x, w_qkv, b_qkv, w_out, b_out) + (() if bias is None else (bias,))
    taped = _taped(parents)

    unit, units = _gemm_units(rows, w_qkv.size, qt)
    step = math.lcm(unit, n) if units > 1 else rows  # rows: whole GEMM units, whole batch rows
    per = step * max(1, -(-POOL_MIN_BYTES // (step * 3 * dim * qt.itemsize))) // n  # batch rows
    cuts = [i * per for i in range(max(1, b // per))] + [b]
    widest = n * max(c1 - c0 for c0, c1 in zip(cuts, cuts[1:]))
    qkv, heads_out = (np.empty((rows if taped else widest, k * dim), dtype=t)
                      for k, t in ((3, qt), (1, dt)))
    probs = np.empty((b, heads, n, n), dtype=dt) if taped else None
    # each phase splits across cores as the whole op it replaces would
    nbytes = (x2.nbytes + rows * 3 * dim * qt.itemsize, b * heads * n * n * dt.itemsize,
              rows * dim * (dt.itemsize + yt.itemsize))
    y = None  # made after the first chunk's attention, so never beside its logits
    for c0, c1 in zip(cuts, cuts[1:]):
        r0, r1 = c0 * n, c1 * n
        qc, hc = (a[r0:r1] if taped else a[:r1 - r0] for a in (qkv, heads_out))
        _linear_rows(x2[r0:r1], w_qkv.data, b_qkv.data, qc, nbytes[0])
        _attend(qc.reshape(c1 - c0, n, 3 * dim), heads, mask, bias, hc.reshape(c1 - c0, n, dim),
                None if probs is None else probs[c0:c1], c0, nbytes[1])
        y = np.empty((rows, dim), dtype=yt) if y is None else y
        _linear_rows(hc, w_out.data, b_out.data, y[r0:r1], nbytes[2])

    def grad_fn(g):
        g2 = g.reshape(rows, dim)
        w_out._accumulate(heads_out.T @ g2)
        b_out._accumulate(g2.sum(axis=0))
        gh = _fresh_grad(heads_out, g2 @ w_out.data.T)
        gqkv, gbias = _attend_grad(qkv.reshape(b, n, 3 * dim), probs, gh.reshape(b, n, dim),
                                   heads, bias)
        del gh
        if bias is not None:
            bias._accumulate(gbias)
        gq = _fresh_grad(qkv, gqkv.reshape(rows, 3 * dim))
        del gqkv
        w_qkv._accumulate(x2.T @ gq)
        b_qkv._accumulate(gq.sum(axis=0))
        if _wants_grad(x):
            x._accumulate((gq @ w_qkv.data.T).reshape(x.shape))

    return _make(y.reshape(b, n, dim), parents, grad_fn)


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


@functools.lru_cache(maxsize=None)
def _axis_taps(n: int, k: int, s: int, p: int, a0: int, a1: int) -> tuple:
    """One axis of a convolution: input extent ``n``, kernel extent ``k``,
    stride ``s``, padding ``p``. Output position o reads input s * o + q - p
    at kernel offset q, and is zero where that falls outside [0, n).

    For the output positions [a0, a1), one entry per offset q: (dst, src,
    before, after). ``dst`` slices, relative to a0, the positions whose
    input is inside; ``src`` is the strided input slice they read; ``before``
    and ``after`` slice the positions left and right of ``dst``, or are None
    when there are none. With no position inside, ``dst`` and ``src`` are
    None and ``before`` covers them all."""
    taps = []
    for q in range(k):
        lo = min(a1, max(a0, -((q - p) // s)))  # the first o with s * o + q - p >= 0
        hi = max(lo, min(a1, (n - 1 + p - q) // s + 1))  # one past the last inside
        if lo == hi:
            taps.append((None, None, slice(0, a1 - a0), None))
            continue
        src = slice(s * lo + q - p, s * (hi - 1) + q - p + 1, s)
        taps.append((slice(lo - a0, hi - a0), src, slice(0, lo - a0) if lo > a0 else None,
                     slice(hi - a0, a1 - a0) if hi < a1 else None))
    return tuple(taps)


class _Conv:
    """One convolution's geometry and machinery, for ``_conv_pool``: the
    chunks of whole output frames whose column fits ``CONV_CHUNK_BYTES``,
    the pieces the forward GEMMs run in (bands of rows a multiple of
    ``pool_rows`` high, where frames are cut), set by the shapes and dtype
    alone, per-thread scratch and the chunk-by-chunk backward. No padded
    copy of the input exists: a column's rows are copied from the input
    where a kernel tap lands inside it and zeroed where it lands in the
    padding. A 4-D [C, T, H, W] input runs as a batch of one."""

    def __init__(self, op: str, x: Tensor, kernel: Tensor, stride, padding, pool_rows=1):
        self.stride, self.padding = _triple(stride), _triple(padding)
        self.batched = x.ndim == 5
        if x.ndim not in (4, 5):
            raise ShapeError(f"{op} input must be 4-D or 5-D, got {x.shape}")
        if x.shape[-4] != kernel.shape[1]:
            raise ShapeError(f"{op} channel mismatch: input {x.shape} vs kernel {kernel.shape}")
        self.x = xb = x.data if self.batched else x.data[None]
        self.kshape = kshape = kernel.shape[2:]
        padded = tuple(n + 2 * p for n, p in zip(xb.shape[2:], self.padding))
        if any(n < k for n, k in zip(padded, kshape)):
            raise ShapeError(f"kernel {kshape} larger than padded input {padded}")
        self.out_dims = out_dims = tuple((n - k) // s + 1 for n, k, s in
                                         zip(padded, kshape, self.stride))
        (b, self.c), o = xb.shape[:2], kernel.shape[0]
        self.b, self.o = b, o
        self.wmat = kernel.data.reshape(o, -1)
        self.rows = rows = self.wmat.shape[1]  # column rows, C * kt * kh * kw
        self.frame = frame = math.prod(out_dims[1:])  # output positions per frame
        self.dtype = np.result_type(self.wmat, xb)
        self.chunks = list(_row_chunks(out_dims[0], b * rows * frame * xb.itemsize,
                                       CONV_CHUNK_BYTES))
        self.per = self.chunks[0][1]  # output frames per chunk
        # one GEMM per piece (t0, t1, h0, h1), output rows [h0, h1) of frames
        # [t0, t1): whole frames, or where one frame's column passes
        # CACHE_BYTES (no c07 frame does), bands of a multiple of pool_rows
        # rows. In float32 a piece keeps its chunk GEMM's bits by starting
        # on a multiple of _GEMM_ROWS output positions and doing at least
        # _GEMM_MIN_MACS multiply-adds (the last frame or band takes the
        # rest); other dtypes run one piece per chunk
        self.colbytes = b * rows * out_dims[0] * frame * xb.itemsize
        cut = self.dtype == np.float32
        (h, w), macs = out_dims[1:], o * rows  # multiply-adds per output position
        align = _GEMM_ROWS // math.gcd(frame, _GEMM_ROWS)  # frames
        unit = align * max(1, -(-_GEMM_MIN_MACS // (align * frame * macs)))
        ralign = math.lcm(pool_rows, _GEMM_ROWS // math.gcd(w, _GEMM_ROWS))  # rows
        band = ralign * max(1, CACHE_BYTES // (ralign * b * rows * w * xb.itemsize),
                            -(-_GEMM_MIN_MACS // (ralign * w * macs)))
        self.pieces = []
        for t0, t1 in self.chunks:
            k = max(1, (t1 - t0) // unit) if cut else 1
            for s0, s1 in ((t0 + i * unit, t1 if i == k - 1 else t0 + (i + 1) * unit)
                           for i in range(k)):
                n = max(1, h // band) if cut and s1 - s0 == 1 else 1
                self.pieces += [(s0, s1, i * band, h if i == n - 1 else (i + 1) * band)
                                for i in range(n)]
        self.widest = max((t1 - t0) * (h1 - h0) for t0, t1, h0, h1 in self.pieces) * w  # positions

    def scratch(self, size, dtype=None):  # every buffer the op writes before it reads
        return np.empty(size, dtype=dtype or self.x.dtype)

    def columns(self, buf, n, positions):  # the head of buf as a column [n, rows, positions]
        return buf[:n * self.rows * positions].reshape(n, self.rows, positions)

    def _axes(self, piece):  # ``_axis_taps`` along T, H and W for a piece's positions
        t0, t1, h0, h1 = piece
        return [_axis_taps(n, k, s, p, a0, a1) for n, k, s, p, a0, a1 in zip(
            self.x.shape[2:], self.kshape, self.stride, self.padding, (t0, h0, 0),
            (t1, h1, self.out_dims[2]))]

    def im2col(self, col, a, piece, t_base=None):
        """Fill ``col`` [len(a), rows, P'] with ``piece``'s columns from
        batch rows ``a`` of the input: ``col`` holds the piece alone, or
        with ``t_base`` whole output frames from ``t_base`` on; returns
        ``col``.

        Its rows follow the kernel's own (C, kt, kh, kw) order, so ``wmat @
        col`` is the correlation. Per kernel tap, one strided copy running
        along contiguous W fills the positions that read the input, and the
        rest of the tap's rows, which read the zero padding, are set to
        zero."""
        t0, t1, h0, h1 = piece
        h, w = self.out_dims[1:]
        if t_base is None:
            col8 = col.reshape(len(a), self.c, *self.kshape, t1 - t0, h1 - h0, w)
        else:
            col8 = col.reshape(len(a), self.c, *self.kshape, -1, h,
                               w)[..., t0 - t_base:t1 - t_base, h0:h1, :]
        taps_t, taps_h, taps_w = self._axes(piece)
        for i, (dt, st, bt, at) in enumerate(taps_t):
            for j, (dh, sh, bh, ah) in enumerate(taps_h):
                for k, (dw, sw, bw, aw) in enumerate(taps_w):
                    tap = col8[:, :, i, j, k]
                    if st is None or sh is None or sw is None:
                        tap[...] = 0
                        continue
                    for z in (bt, at):
                        if z is not None:
                            tap[:, :, z] = 0
                    for z in (bh, ah):
                        if z is not None:
                            tap[:, :, dt, z] = 0
                    for z in (bw, aw):
                        if z is not None:
                            tap[:, :, dt, dh, z] = 0
                    tap[:, :, dt, dh, dw] = a[:, :, st, sh, sw]
        return col

    def col2im_add(self, gx, gcol, t0, t1):
        """col2im: add ``gcol`` = W2d.T @ g, the [B, C*kt*kh*kw, (t1 - t0)
        * frame] column gradient of output frames [t0, t1) in ``im2col``'s
        row order, into the input gradient ``gx``. Each kernel tap adds the
        positions that read the input back through the slices that copied
        them; what it read from the padding goes nowhere."""
        gcol8 = gcol.reshape(*gx.shape[:2], *self.kshape, t1 - t0, *self.out_dims[1:])
        taps_t, taps_h, taps_w = self._axes((t0, t1, 0, self.out_dims[1]))
        for i, (dt, st, _, _) in enumerate(taps_t):
            for j, (dh, sh, _, _) in enumerate(taps_h):
                for k, (dw, sw, _, _) in enumerate(taps_w):
                    if st is not None and sh is not None and sw is not None:
                        gx[:, :, st, sh, sw] += gcol8[:, :, i, j, k, dt, dh, dw]

    def backward(self, chunk_grad, x: Tensor, kernel: Tensor) -> None:
        """Accumulate the kernel's and x's gradients, chunk by chunk, from
        ``chunk_grad(t0, t1)``: the output gradient [B, O, (t1 - t0) *
        frame] of output frames [t0, t1).

        With at least as many batch rows as threads, each thread takes
        whole rows and runs a row's im2col, both GEMMs and col2im while its
        column is in cache; with fewer, the forward's pieces build the
        chunk's column across cores, the GEMMs split by ``_split_rows`` over
        column rows and col2im splits over input channels. Either way every
        element is summed in the same order, so the bits are the same."""
        b, o, c, rows, frame, per = self.b, self.o, self.c, self.rows, self.frame, self.per
        xb, wmat = self.x, self.wmat
        gw = None
        gx = np.zeros(xb.shape, dtype=self.dtype) if _wants_grad(x) else None
        part = self.scratch((b, o, rows), self.dtype)
        rowwise = b >= _width(self.colbytes)
        if not rowwise:  # one chunk's column and its gradient, every batch row
            whole = self.scratch(b * rows * per * frame)
            gwhole = None if gx is None else self.scratch(b * rows * per * frame, self.dtype)
        for t0, t1 in self.chunks:
            gc = chunk_grad(t0, t1)
            frames = (t0, t1, 0, self.out_dims[1])
            if rowwise:
                # each thread takes whole batch rows: it builds a row's column
                # in its scratch, then runs both GEMMs and col2im on it while
                # it is in cache; rows are disjoint, so bits are unchanged
                def batch_rows(b0, b1, bufs):
                    for bi in range(b0, b1):
                        cc = self.im2col(self.columns(bufs[0], 1, gc.shape[2]), xb[bi:bi + 1],
                                         frames)
                        np.matmul(gc[bi], cc[0].T, out=part[bi])
                        if gx is not None:
                            gcol = self.columns(bufs[1], 1, gc.shape[2])
                            np.matmul(wmat.T, gc[bi], out=gcol[0])
                            self.col2im_add(gx[bi:bi + 1], gcol, t0, t1)

                _split(b, b * rows * gc.shape[2] * xb.itemsize, batch_rows, scratch=lambda: (
                    self.scratch(rows * per * frame),
                    None if gx is None else self.scratch(rows * per * frame, self.dtype)))
            else:
                # fewer batch rows than threads: the forward's pieces build
                # the chunk's column across cores, then the GEMMs split rows
                mine = [p for p in self.pieces if t0 <= p[0] < t1]
                cc = self.columns(whole, b, gc.shape[2])
                _split(len(mine), cc.nbytes, lambda p0, p1: [
                    self.im2col(cc, xb, p, t0) for p in mine[p0:p1]])
                gcol = None if gx is None else self.columns(gwhole, b, gc.shape[2])

                def column_rows(r0, r1):  # both GEMMs sum over O or P, never over rows
                    np.matmul(gc, cc[:, r0:r1].transpose(0, 2, 1), out=part[:, :, r0:r1])
                    if gcol is not None:
                        np.matmul(wmat[:, r0:r1].T, gc, out=gcol[:, r0:r1])

                _split_rows(rows, o * gc.shape[2], part.dtype, cc.nbytes, column_rows)
                if gcol is not None:  # input channels own disjoint column rows
                    k = rows // c
                    _split(c, gcol.nbytes, lambda c0, c1: self.col2im_add(
                        gx[:, c0:c1], gcol[:, c0 * k:c1 * k], t0, t1))
            psum = part.sum(axis=0)
            gw = psum if gw is None else np.add(gw, psum, out=gw)
        kernel._accumulate(gw.reshape(kernel.shape))
        if gx is not None:
            x._accumulate(gx if self.batched else gx[0])


def conv3d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride=1, padding=0) -> Tensor:
    """Direct-sum 3D convolution (cross-correlation form).

    ``x``: [C_in, T, H, W] or [B, C_in, T, H, W];
    ``kernel``: [C_out, C_in, kt, kh, kw]; output extent per axis is
    floor((in + 2*pad - k) / stride) + 1.

    This is ``conv_pool``'s convolution with a one-element window: the
    pooling is a copy, no route is kept, and backward sends the output
    gradient straight to the convolution's. The im2col column and its GEMM
    run over chunks of whole output frames whose column fits
    ``CONV_CHUNK_BYTES`` (at least one frame), in pieces (``_Conv``) that
    ``_split`` spreads across cores, each thread building its pieces'
    columns and GEMM outputs in reused buffers, taped or not.

    The tape keeps the input, not the column nor a padded copy: the weight
    and input gradients run per chunk and build its column again
    (``_Conv.backward``).
    The chunk GEMMs give the one-chunk output bit for bit when a frame's
    output positions are a multiple of the BLAS kernel width (16 for
    OpenBLAS 0.3.31's sgemm), as every model's frames are.
    """
    return _conv_pool("conv3d", x, kernel, bias, stride, padding, (1, 1, 1))


# -- 3D max-pooling ------------------------------------------------------------


def _window_max(x: np.ndarray, out: np.ndarray, views) -> None:
    """``out`` = the maximum over ``x``'s window-offset ``views``, one
    ``np.maximum`` per view in offset order: each window's maximum, or NaN
    if it holds one."""
    np.copyto(out, x[views[0]])
    for view in views[1:]:
        np.maximum(x[view], out, out=out)


def _route(src: np.ndarray, pooled: np.ndarray, views, route: np.ndarray,
           hit: np.ndarray) -> None:
    """``route`` = each window's winning offset, an index into ``views``:
    its first element in row-major order equal to its maximum ``pooled``
    (``_window_max`` of ``src``), or its first NaN where ``pooled`` is NaN.
    ``route``'s dtype is ``np.min_scalar_type(len(views) - 1)``; ``hit`` is
    bool scratch shaped like ``pooled``."""
    for k in reversed(range(len(views))):  # the first offset that hits writes last
        np.copyto(route, k, where=np.equal(src[views[k]], pooled, out=hit))
    if np.isnan(pooled, out=hit).any():  # a window holding a NaN routes to its first NaN
        for k in reversed(range(len(views))):
            np.copyto(route, k, where=np.isnan(src[views[k]], out=hit))


def maxpool3d(x: Tensor, window) -> Tensor:
    """Window max with stride = window; trailing remainder is truncated.

    A window's value is its maximum, or NaN if it holds one. The forward
    is one ``np.maximum`` per window offset, taped or not. Backward
    rebuilds the route from the input and the output (``_route``): each
    window's gradient goes to its first element in row-major order equal
    to the maximum, or to its first NaN.
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
    ob = np.empty((*xb.shape[:2], *out_dims), dtype=xb.dtype)
    _window_max(xb, ob, views)

    def grad_fn(g):
        gb = g if batched else g[None]
        route = np.empty(ob.shape, np.min_scalar_type(len(views) - 1))
        _route(xb, ob, views, route, np.empty(ob.shape, bool))
        gx = np.zeros_like(xb)
        for k, view in enumerate(views):
            np.multiply(gb, route == k, out=gx[view])
        x._accumulate(gx if batched else gx[0])

    return _make(ob if batched else ob[0], (x,), grad_fn)


def conv_pool(x: Tensor, kernel: Tensor, bias: Tensor | None, padding, window) -> Tensor:
    """``maxpool3d(conv3d(x, kernel, bias, 1, padding), window)`` as one op,
    for a window one frame long, so each output frame pools on its own.

    Each forward piece's GEMM plus bias (whole frames, or bands of rows a
    multiple of the window's height) goes into per-thread scratch and is
    pooled from there into the output, one ``np.maximum`` per window offset:
    no full-size conv output exists. Taped, the op keeps the input (as
    ``conv3d`` does) and ``maxpool3d``'s route (``_route``), one byte
    per pooled element for windows of up to 256 offsets. Backward builds
    each chunk's conv-output gradient from the route, as ``maxpool3d``'s
    backward does, and runs the convolution's chunk backward;
    the bias gradient sums whole channels' conv-output gradients, rebuilt
    a few channels at a time, in ``conv3d``'s order. So the output and
    every gradient are those of the two ops bit for bit. ``conv3d`` is
    this op's convolution with a one-element window; ``conv_pool_relu``
    (cnn_lstm's conv blocks) is this op followed by ReLU, run in place on
    each pooled piece, so ``relu(conv_pool(...))`` need not copy the
    pooled output.
    """
    window = _triple(window)
    if window[0] != 1:
        raise ShapeError(f"conv_pool pools within frames, but window {window} spans frames")
    return _conv_pool("conv_pool", x, kernel, bias, 1, padding, window)


def conv_pool_relu(x: Tensor, kernel: Tensor, bias: Tensor | None, padding, window) -> Tensor:
    """``relu(conv_pool(x, kernel, bias, padding, window))`` as one op.

    Each forward piece is pooled and routed as in ``conv_pool``, then
    ReLU'd in place (``np.maximum(p, 0)``, as ``relu`` computes it) while
    it is in cache, so no second pooled-size array exists. Taped, the op
    keeps ``conv_pool``'s input and route and its own output, whose
    positives are the pooled positives. Backward forms ReLU's gradient as
    the ``relu`` node and ``_accumulate`` would, zeros plus ``g * (out >
    0)``, drops ``g`` and runs ``conv_pool``'s backward on it. So the
    output and every gradient are those of the two ops bit for bit, and a
    taped step peaks no higher.
    """
    window = _triple(window)
    if window[0] != 1:
        raise ShapeError(f"conv_pool_relu pools within frames, but window {window} spans frames")
    return _conv_pool("conv_pool_relu", x, kernel, bias, 1, padding, window, relu=True)


def _conv_pool(op: str, x: Tensor, kernel: Tensor, bias: Tensor | None, stride, padding,
               window, relu: bool = False) -> Tensor:
    """``conv_pool`` at any ``stride``, and with ``relu`` its ReLU after
    the pool; a window of one offset keeps no route."""
    conv = _Conv(op, x, kernel, stride, padding, pool_rows=window[1])
    b, o, frame, dims = conv.b, conv.o, conv.frame, conv.out_dims
    if any(p > n for p, n in zip(window, dims)):
        raise ShapeError(f"pool window {window} exceeds conv output {dims}")
    pdims = tuple(n // p for n, p in zip(dims, window))
    pooled = np.empty((b, o, *pdims), dtype=conv.dtype)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def views(pshape):  # one strided view of conv output per window offset, pooled to pshape
        return [(..., *sl) for _, sl in _taps(window, window, pshape)]

    route = np.empty(pooled.shape, np.min_scalar_type(math.prod(window) - 1)) \
        if math.prod(window) > 1 and _taped(parents) else None

    def run(p0, p1, scratch):
        buf, ybuf, hit = scratch
        for piece in conv.pieces[p0:p1]:
            t0, t1, h0, h1 = piece  # h0 is a multiple of the window's height
            y = ybuf[:b * o * (t1 - t0) * (h1 - h0) * dims[2]].reshape(b, o, -1)
            np.matmul(conv.wmat, conv.im2col(conv.columns(buf, b, y.shape[2]), conv.x, piece),
                      out=y)
            if bias is not None:
                y += bias.data[:, None]
            rows = slice(h0 // window[1], h0 // window[1] + (h1 - h0) // window[1])
            y5, p = y.reshape(b, o, t1 - t0, h1 - h0, dims[2]), pooled[:, :, t0:t1, rows]
            pv = views(p.shape[2:])
            _window_max(y5, p, pv)
            if route is not None:
                _route(y5, p, pv, route[:, :, t0:t1, rows], hit[:p.size].reshape(p.shape))
            if relu:
                np.maximum(p, 0, out=p)

    # each thread builds its pieces' columns and GEMM outputs in reused buffers
    _split(len(conv.pieces), conv.colbytes, run, scratch=lambda: (
        conv.scratch(b * conv.rows * conv.widest), conv.scratch(b * o * conv.widest, conv.dtype),
        None if route is None else conv.scratch(b * o * conv.widest // (window[1] * window[2]),
                                                bool)))

    out = pooled if conv.batched else pooled[0]

    def grad_fn(g):
        if relu:  # a relu node's gradient, as its input node would receive it
            g = _fresh_grad(out, g * (out > 0).astype(out.dtype))
        gb = g if conv.batched else g[None]
        hw = [n * p for n, p in zip(pdims[1:], window[1:])]  # the rows and columns pooled
        channel = b * dims[0] * frame  # one channel's conv output, every batch row
        buf = None if route is None else conv.scratch(
            max(b * o * conv.per * frame, 0 if bias is None else channel), conv.dtype)

        def unpool(o0, o1, t0, t1):
            """The conv-output gradient of channels [o0, o1) and frames
            [t0, t1), in ``buf``, as [B, o1 - o0, (t1 - t0) * frame]."""
            d = buf[:b * (o1 - o0) * (t1 - t0) * frame].reshape(b, o1 - o0, t1 - t0, *dims[1:])
            d[..., hw[0]:, :] = 0  # the remainder no window reads
            d[..., hw[1]:] = 0
            gs, rs = gb[:, o0:o1, t0:t1], route[:, o0:o1, t0:t1]
            for k, view in enumerate(views(gs.shape[2:])):
                np.multiply(gs, rs == k, out=d[view])
            return d.reshape(b, o1 - o0, -1)

        if route is None or len(conv.chunks) == 1:  # the whole conv-output gradient at once
            whole = gb.reshape(b, o, -1) if route is None else unpool(0, o, 0, dims[0])
            conv.backward(lambda t0, t1: whole[:, :, t0 * frame:t1 * frame], x, kernel)
            if bias is not None:
                bias._accumulate(whole.sum(axis=(0, 2)))
            return
        conv.backward(lambda t0, t1: unpool(0, o, t0, t1), x, kernel)
        if bias is not None:
            # whole.sum(axis=(0, 2)) above sums each (row, channel)'s whole
            # gradient alone, then adds the batch rows in order
            gbias, group = np.zeros(o, dtype=conv.dtype), len(buf) // channel
            for o0 in range(0, o, group):
                for row in unpool(o0, min(o, o0 + group), 0, dims[0]).sum(axis=2):
                    gbias[o0:o0 + group] += row
            bias._accumulate(gbias)

    return _make(out, parents, grad_fn)
