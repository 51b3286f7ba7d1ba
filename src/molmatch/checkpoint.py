"""Binary checkpoint format for model parameters.

Layout (all integers little-endian):

    magic            4 bytes  b"MMCK"
    format version   u32
    metadata length  u32, then that many bytes of UTF-8 JSON
    record count     u32
    per record:
        name length  u16, then UTF-8 name bytes
        ndim         u8, then ndim u32 dims
        crc32        u32 over the payload bytes
        payload      float32 little-endian, C order

Tensors are stored as float32 regardless of compute precision, so a
load reproduces values to float32 quantisation and save(load(save(x)))
is byte-identical.  Checksum or magic mismatches are hard errors.
Writes go to a temporary file beside the target that then replaces it,
so a failed save leaves any previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = ["CheckpointError", "MAGIC", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"MMCK"
FORMAT_VERSION = 1
BUILD_TAG = "molmatch-0.1.0"


class CheckpointError(ValueError):
    """Unreadable or corrupt checkpoint file."""


def save_checkpoint(path, tensors: dict[str, np.ndarray], metadata: dict) -> None:
    """Write named arrays plus JSON metadata.  Record order is sorted by
    name and the JSON is canonicalised, so identical inputs produce
    byte-identical files.  The file is replaced atomically."""
    meta = dict(metadata)
    meta.setdefault("format_version", FORMAT_VERSION)
    meta.setdefault("build", BUILD_TAG)
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    names = sorted(tensors)
    out += struct.pack("<I", len(names))
    for name in names:
        # np.ascontiguousarray would promote 0-d arrays to shape (1,)
        arr = np.asarray(tensors[name], dtype=np.float32)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:32]}...")
        payload = arr.astype("<f4").tobytes(order="C")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        out += payload
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(out)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> float32 array, metadata)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    view = memoryview(raw)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"truncated checkpoint {path} at byte {pos}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        metadata = json.loads(bytes(take(meta_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad metadata block: {exc}") from None
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: bad tensor name: {exc}") from None
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        (crc,) = struct.unpack("<I", take(4))
        n_items = 1
        for dim in shape:
            n_items *= dim
        payload = bytes(take(4 * n_items))
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CheckpointError(f"{path}: checksum mismatch on tensor {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes")
    return tensors, metadata
