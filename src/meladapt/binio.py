"""Versioned binary container shared by corpus and checkpoint files, and
the atomic write every output file of meladapt goes through.

Layout: 8-byte magic, u32 little-endian format version, u64 little-endian
header length, canonical JSON header (sorted keys, compact separators),
then the raw array buffers concatenated in header order (C order,
little-endian). Canonical JSON plus a fixed array ordering makes
save -> load -> save byte-identical.
"""

import json
import math
import os
import struct
from contextlib import contextmanager, suppress

import numpy as np

from . import errors

_DTYPES = {"f8": "<f8", "i8": "<i8"}


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@contextmanager
def atomic_write(path, mode="wb", **open_kwargs):
    """A file, opened with `mode`, whose contents replace `path` in one
    `os.replace` when the block exits cleanly.

    The temporary file sits beside `path`, so the rename stays on one file
    system. If the block raises, the temporary file is removed and `path`
    keeps its prior contents. Nothing is fsynced: this guards against a
    writer that fails or is killed (which may leave the temporary file),
    not against a power loss.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_text(path, text):
    """Replace `path` with `text` atomically (see `atomic_write`)."""
    with atomic_write(path, "w") as fh:
        fh.write(text)


def write_container(path, magic: bytes, version: int, meta: dict, arrays: dict):
    """`arrays` maps name -> ndarray (float64 or int64); written name-sorted."""
    assert len(magic) == 8
    entries = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype == np.float64:
            code = "f8"
        elif arr.dtype == np.int64:
            code = "i8"
        else:
            raise errors.CheckpointFormatError(
                f"array '{name}' has unsupported dtype {arr.dtype}"
            )
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape)})
    header = _canonical_json({"meta": meta, "arrays": entries})
    with atomic_write(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", version))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for entry in entries:
            arr = np.ascontiguousarray(arrays[entry["name"]])
            fh.write(arr.astype(_DTYPES[entry["dtype"]], copy=False).tobytes())


def _schema_error(header):
    """What breaks the header schema, or None. A header is an object with a
    `meta` object and an `arrays` list of {"name": str, "dtype": "f8" or
    "i8", "shape": [int >= 0, ...]} entries with distinct names."""
    if not isinstance(header, dict) or not isinstance(header.get("meta"), dict):
        return "header is not an object with a 'meta' object"
    if not isinstance(header.get("arrays"), list):
        return "header 'arrays' is not a list"
    names = set()
    for entry in header["arrays"]:
        if not isinstance(entry, dict):
            return "array entry is not an object"
        name, dtype, shape = entry.get("name"), entry.get("dtype"), entry.get("shape")
        if not isinstance(name, str):
            return f"array name {name!r} is not a string"
        if name in names:
            return f"array '{name}' appears twice"
        names.add(name)
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            return f"array '{name}' has unknown dtype {dtype!r}"
        if not isinstance(shape, list) or not all(
                type(n) is int and n >= 0 for n in shape):
            return f"array '{name}' has malformed shape {shape!r}"
    return None


def read_container(path, magic: bytes, version: int):
    """Returns (meta, arrays). Raises CheckpointFormatError on bad magic, a
    wrong version, truncation, a header that breaks the schema, trailing
    garbage, or a NaN or inf, which no writer of this package stores."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20:
        raise errors.CheckpointFormatError(f"{path}: file shorter than any valid header")
    if blob[:8] != magic:
        raise errors.CheckpointFormatError(
            f"{path}: magic {blob[:8]!r} does not match expected {magic!r}"
        )
    (got_version,) = struct.unpack("<I", blob[8:12])
    if got_version != version:
        raise errors.CheckpointFormatError(
            f"{path}: format version {got_version}, this build reads {version}"
        )
    (hlen,) = struct.unpack("<Q", blob[12:20])
    if len(blob) < 20 + hlen:
        raise errors.CheckpointFormatError(f"{path}: header cut short")
    try:
        header = json.loads(blob[20:20 + hlen].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise errors.CheckpointFormatError(f"{path}: unreadable header: {exc}") from exc
    problem = _schema_error(header)
    if problem:
        raise errors.CheckpointFormatError(f"{path}: {problem}")
    arrays = {}
    offset = 20 + hlen
    for entry in header["arrays"]:
        name, dtype, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(blob):
            raise errors.CheckpointFormatError(f"{path}: array '{name}' cut short")
        arr = np.frombuffer(
            blob, dtype=_DTYPES[dtype], count=nbytes // 8, offset=offset
        ).reshape(shape).copy()
        if dtype == "f8" and not np.isfinite(arr).all():
            raise errors.CheckpointFormatError(
                f"{path}: array '{name}' holds a non-finite value")
        arrays[name] = arr
        offset += nbytes
    if offset != len(blob):
        raise errors.CheckpointFormatError(
            f"{path}: {len(blob) - offset} trailing bytes after last array"
        )
    return header["meta"], arrays
