import os
import re
import struct

import numpy as np
import pytest

from vtlm.checkpoint import load_checkpoint, save_checkpoint
from vtlm.errors import DataError

TENSORS = {
    "w": np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
    "b": np.array([-0.0, np.inf, 1e-40], dtype=np.float32),
    "s": np.float32(3.5).reshape(()),
}


def test_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"step": 3}, TENSORS)
    header, tensors = load_checkpoint(path)
    assert header == {"step": 3, "tensor_count": 3}
    assert list(tensors) == list(TENSORS)
    for name, arr in TENSORS.items():
        assert tensors[name].dtype == np.float32
        assert tensors[name].shape == arr.shape
        assert tensors[name].tobytes() == arr.tobytes()


def test_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"step": 1}, TENSORS)
    good = path.read_bytes()
    bad = dict(TENSORS, extra=np.zeros(2, dtype=np.float64))
    with pytest.raises(DataError, match="float64"):
        save_checkpoint(path, {"step": 2}, bad)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]


def test_save_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """The file is synced before the rename that publishes it, and its
    directory after, so the rename itself survives a crash."""
    events, real_fsync, real_replace = [], os.fsync, os.replace

    def fsync(fd):
        events.append("dir" if os.path.samestat(os.fstat(fd), os.stat(tmp_path)) else "file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_checkpoint(tmp_path / "a.ckpt", {"step": 1}, TENSORS)
    assert events == ["file", "replace", "dir"]


def test_every_truncation_raises_data_error(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"step": 1}, TENSORS)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(DataError):
            load_checkpoint(cut)


def test_corrupt_extent_raises_data_error(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {}, {"w": np.zeros(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    # the only extent is the 8 bytes before the 8-byte payload
    raw[-16:-8] = (2 ** 62).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"[]", b'"x"', b'{"tensor_count": "3"}',
                                    b'{"tensor_count": 1.5}', b'{"tensor_count": -1}',
                                    b'{"tensor_count": true}'],
                         ids=["list", "string", "count-string", "count-float", "count-negative",
                              "count-bool"])
def test_malformed_header_raises_data_error(tmp_path, header):
    """A header that is valid JSON but not an object with a non-negative
    integer `tensor_count` raises DataError naming the file."""
    path = tmp_path / "a.ckpt"
    path.write_bytes(struct.pack("<Q", len(header)) + header)
    with pytest.raises(DataError, match=f"{re.escape(str(path))}: corrupt header"):
        load_checkpoint(path)


def test_bytes_after_the_last_tensor_raise_data_error(tmp_path):
    """Garbage appended to a file, or a `tensor_count` lowered in its
    header, leaves bytes after the last record: DataError, not a valid
    load of the records before them."""
    two = {"w": TENSORS["w"], "b": TENSORS["b"]}
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"step": 1}, two)
    raw = path.read_bytes()
    path.write_bytes(raw + bytes(range(70)))
    with pytest.raises(DataError, match=f"{re.escape(str(path))}: 70 bytes after the last tensor"):
        load_checkpoint(path)

    (hlen,) = struct.unpack("<Q", raw[:8])
    header = raw[8:8 + hlen].replace(b'"tensor_count": 2', b'"tensor_count": 1')
    assert len(header) == hlen
    path.write_bytes(raw[:8] + header + raw[8 + hlen:])
    with pytest.raises(DataError, match="bytes after the last tensor"):
        load_checkpoint(path)
