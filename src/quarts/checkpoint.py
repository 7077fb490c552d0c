"""Versioned binary container for named parameter arrays.

Layout (little-endian throughout): magic ``QRTS``, format version u32,
entry count u64, then per entry a length-prefixed UTF-8 name (u32), a
dtype tag (u8: 0=float32, 1=float64), rank u64, dims as u64, and the raw
row-major values. A save replaces the file atomically; readers reject
unknown magic or versions.
"""
from __future__ import annotations

import struct

import numpy as np

from .config import atomic_write
from .tensor import Tensor, get_default_dtype

MAGIC = b"QRTS"
VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


class CheckpointError(ValueError):
    """Raised for malformed or incompatible checkpoint files."""


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _DTYPE_TAGS:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", _DTYPE_TAGS[arr.dtype]))
            fh.write(struct.pack("<Q", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            data = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
            fh.write(data.tobytes())


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version} (expected {VERSION})")
        (count,) = struct.unpack("<Q", fh.read(8))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(4))
            name = fh.read(name_len).decode("utf-8")
            (tag,) = struct.unpack("<B", fh.read(1))
            if tag not in _TAG_DTYPES:
                raise CheckpointError(f"{path}: unknown dtype tag {tag}")
            dtype = _TAG_DTYPES[tag]
            (rank,) = struct.unpack("<Q", fh.read(8))
            shape = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(rank))
            n = int(np.prod(shape)) if shape else 1
            raw = fh.read(n * dtype.itemsize)
            if len(raw) != n * dtype.itemsize:
                raise CheckpointError(f"{path}: truncated data for {name!r}")
            arr = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype)
            out[name] = arr.reshape(shape)
        return out


def save_params(path, named: dict[str, Tensor]) -> None:
    save_arrays(path, {k: t.data for k, t in named.items()})


def assign_params(named: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Load stored arrays into live parameters, casting to the engine dtype.

    Name sets and shapes must match exactly, so a checkpoint from a
    different architecture, or one holding an array no model names, fails
    fast.
    """
    missing = sorted(set(named) - set(arrays))
    extra = sorted(set(arrays) - set(named))
    if missing or extra:
        raise CheckpointError(
            f"parameter names do not match checkpoint: missing={missing[:4]} "
            f"extra={extra[:4]}")
    dtype = get_default_dtype()
    for name, tensor in named.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(tensor.shape):
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, "
                f"model {tensor.shape}")
        tensor.data = arr.astype(dtype)
