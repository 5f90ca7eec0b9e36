"""Binary checkpoint files.

Layout: an 8-byte little-endian length followed by one UTF-8 JSON header
block, then `header["tensor_count"]` self-describing tensor records:

    u16 name length | name bytes | u8 dtype tag | u8 rank |
    u64 extent per axis | row-major little-endian payload

Only dtype tag 0 (float32) is produced. Round-trips are bitwise exact,
including optimizer state, which is what makes deterministic resume
possible.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import DataError

_DTYPE_TAGS = {0: np.dtype("<f4")}
_TAG_FOR = {np.dtype("float32"): 0}


def save_checkpoint(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a checkpoint atomically and durably: a failed or interrupted
    save leaves any previous file at `path` intact, and once the call
    returns the new file survives a crash."""
    header = dict(header)
    header["tensor_count"] = len(tensors)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                if arr.dtype not in _TAG_FOR:
                    raise DataError(f"cannot checkpoint dtype {arr.dtype} for {name!r}")
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<BB", _TAG_FOR[arr.dtype], arr.ndim))
                for ext in arr.shape:
                    f.write(struct.pack("<Q", ext))
                f.write(arr.astype("<f4", copy=False).tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    # the rename is durable only once the directory entry is on disk
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def header_count(path, header: dict, key: str) -> int:
    """`header[key]` (0 when absent) as a count: a value that is not a
    non-negative int, or is a bool, raises DataError naming `path`."""
    value = header.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DataError(f"{path}: corrupt header: {key} {value!r}")
    return value


def load_checkpoint(path):
    """Returns (header, {name: float32 array}); a truncated or corrupt
    file, a header that is not a JSON object with a non-negative integer
    `tensor_count`, or bytes after the last tensor raise DataError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            # checked against the file size, so a corrupt length cannot
            # ask for a huge buffer
            if n > size - f.tell():
                raise DataError(f"{path}: truncated checkpoint")
            return f.read(n)

        (hlen,) = struct.unpack("<Q", read(8))
        try:
            header = json.loads(read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: corrupt header: {e}") from e
        if not isinstance(header, dict):
            raise DataError(f"{path}: corrupt header: not a JSON object")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(header_count(path, header, "tensor_count")):
            (nlen,) = struct.unpack("<H", read(2))
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: corrupt tensor name: {e}") from e
            tag, rank = struct.unpack("<BB", read(2))
            if tag not in _DTYPE_TAGS:
                raise DataError(f"{path}: unknown dtype tag {tag}")
            shape = tuple(struct.unpack("<Q", read(8))[0] for _ in range(rank))
            payload = read(math.prod(shape) * 4)
            arr = np.frombuffer(payload, dtype=_DTYPE_TAGS[tag]).reshape(shape)
            tensors[name] = arr.astype(np.float32)
        if f.tell() != size:
            raise DataError(f"{path}: {size - f.tell()} bytes after the last tensor")
    return header, tensors
