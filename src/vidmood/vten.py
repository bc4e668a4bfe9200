"""VTEN: a tiny binary tensor container for video frames and weights.

Layout: magic b"VTEN", version byte 0x01, dtype byte (0x01 = uint8,
0x02 = float32, 0x03 = float64), ndim byte, ndim little-endian u32
extents, then the raw little-endian row-major payload.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .atomic import atomic_write

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
    """Any byte order is accepted and stored little-endian; a 0-d array
    keeps its shape (). The file appears whole or not at all; a failed
    write raises ``VtenError`` naming ``path``."""
    arr = np.asarray(array, order="C")
    code = _DTYPE_CODES.get(arr.dtype.newbyteorder("="))
    if code is None:
        raise VtenError(f"{path}: unsupported dtype {arr.dtype} (u8/f32/f64 only)")
    if arr.ndim > 255:
        raise VtenError(f"{path}: too many dimensions ({arr.ndim})")
    header = MAGIC + bytes([VERSION, code, arr.ndim])
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    try:
        with atomic_write(path) as fh:
            fh.write(header)
            fh.write(arr.data)
    except OSError as exc:
        raise VtenError(f"{path}: {exc.strerror or exc}") from exc


def read_vten(path) -> np.ndarray:
    """Reads the payload into the returned array once the file's size
    matches the header, so a corrupt header allocates nothing."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(7)
            if len(head) < 7:
                raise VtenError(f"{path}: truncated header ({len(head)} bytes)")
            if head[:4] != MAGIC:
                raise VtenError(f"{path}: bad magic {head[:4]!r}")
            if head[4] != VERSION:
                raise VtenError(f"{path}: unsupported version {head[4]}")
            dtype = _CODE_DTYPES.get(head[5])
            if dtype is None:
                raise VtenError(f"{path}: unknown dtype code {head[5]:#x}")
            ndim = head[6]
            extents = fh.read(4 * ndim)
            if len(extents) < 4 * ndim:
                raise VtenError(f"{path}: truncated extent list")
            shape = struct.unpack(f"<{ndim}I", extents)
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size == expected:
                arr = np.empty(shape, dtype)
                size = fh.readinto(arr.reshape(-1).view(np.uint8))
            if size != expected:
                raise VtenError(f"{path}: payload is {size} bytes, shape {shape} needs {expected}")
    except OSError as exc:
        raise VtenError(f"{path}: {exc}") from exc
    return arr.astype(dtype.newbyteorder("="), copy=False)  # a copy on big-endian hosts only
