"""Named parameter arrays as a sequence of numpy ``.npy`` records (NEP 1).

First a 1-D string array of the names, then one float32 or float64 array
per name in that order, each written by ``numpy.lib.format.write_array``.
A save refuses other dtypes and replaces the file atomically. A load
reads with ``allow_pickle=False`` and checks each record's magic string,
version, length and dtype, the names array, and that nothing follows the
last array. Any other file, the older ``QRTS`` layout included, raises
``CheckpointError`` naming the file, so every command exits 2.
"""
from __future__ import annotations

import numpy as np
from numpy.lib import format as npy

from .config import atomic_write
from .tensor import Tensor, get_default_dtype

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class CheckpointError(ValueError):
    """Raised for malformed or incompatible checkpoint files."""


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as fh:
        npy.write_array(fh, np.array(list(arrays), dtype=str), allow_pickle=False)
        for name, arr in arrays.items():
            if arr.dtype not in _FLOATS:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
            npy.write_array(fh, np.ascontiguousarray(arr), allow_pickle=False)


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        try:
            names = npy.read_array(fh, allow_pickle=False)
            if names.ndim != 1 or names.dtype.kind != "U":
                raise ValueError(f"the names are a {names.dtype} array of shape {names.shape}")
            out = {}
            for name in names.tolist():
                out[name] = arr = npy.read_array(fh, allow_pickle=False)
                if arr.dtype not in _FLOATS:
                    raise ValueError(f"unsupported dtype {arr.dtype} for {name!r}")
            if fh.read(1):
                raise ValueError("data after the last array")
        except ValueError as exc:
            raise CheckpointError(f"{path}: not a checkpoint: {exc}") from None
    return out


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
