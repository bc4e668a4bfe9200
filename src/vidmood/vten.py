"""VTEN: a tiny binary tensor container for video frames and weights.

Layout: magic b"VTEN", version byte 0x01, dtype byte (0x01 = uint8,
0x02 = float32, 0x03 = float64), ndim byte, ndim little-endian u32
extents, then the raw little-endian row-major payload.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

__all__ = ["VtenError", "read_vten", "write_vten"]

MAGIC = b"VTEN"
VERSION = 1

_DTYPE_CODES = {
    np.dtype(np.uint8): 0x01,
    np.dtype(np.float32): 0x02,
    np.dtype(np.float64): 0x03,
}
_CODE_DTYPES = {
    0x01: np.dtype(np.uint8),
    0x02: np.dtype("<f4"),
    0x03: np.dtype("<f8"),
}


class VtenError(ValueError):
    """Malformed or unreadable VTEN file; message names the path."""


def write_vten(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array)
    code = _DTYPE_CODES.get(np.dtype(arr.dtype))
    if code is None:
        raise VtenError(f"{path}: unsupported dtype {arr.dtype} (u8/f32/f64 only)")
    if arr.ndim > 255:
        raise VtenError(f"{path}: too many dimensions ({arr.ndim})")
    header = MAGIC + bytes([VERSION, code, arr.ndim])
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    if arr.dtype != np.uint8:
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.data)


def read_vten(path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise VtenError(f"{path}: {exc}") from exc
    if len(raw) < 7:
        raise VtenError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise VtenError(f"{path}: bad magic {raw[:4]!r}")
    if raw[4] != VERSION:
        raise VtenError(f"{path}: unsupported version {raw[4]}")
    dtype = _CODE_DTYPES.get(raw[5])
    if dtype is None:
        raise VtenError(f"{path}: unknown dtype code {raw[5]:#x}")
    ndim = raw[6]
    header_end = 7 + 4 * ndim
    if len(raw) < header_end:
        raise VtenError(f"{path}: truncated extent list")
    shape = struct.unpack(f"<{ndim}I", raw[7:header_end])
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    payload = raw[header_end:]
    if len(payload) != expected:
        raise VtenError(
            f"{path}: payload is {len(payload)} bytes, shape {shape} needs {expected}"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return arr.astype(dtype.newbyteorder("="), copy=True)
