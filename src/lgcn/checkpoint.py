"""On-disk formats: parameter checkpoints and descriptor dumps.

Checkpoint layout: magic, version, a JSON header with the model config,
then a flat archive of named tensors (UTF-8 name, dtype code 0, shape, raw
little-endian float64 scalars). Descriptor dumps: magic, version, count, dim,
precision byte 8, then row-major little-endian float64 vectors. Every file is
written through atomic_write.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

CKPT_MAGIC = b"LGCNCKPT"
DESC_MAGIC = b"LGCNDESC"
CKPT_VERSION = 1
DESC_VERSION = 1
_DESC_HEAD = "<IQQB"  # version, count, dim, precision (bytes per scalar: 8)


class CheckpointError(ValueError):
    """Raised for malformed checkpoint or descriptor files."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """open(path, mode) through a temp file beside path that replaces it on success.

    A run killed midway leaves the old file whole; an exception also removes the temp file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def save_checkpoint(path, params: dict, header: dict) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(struct.pack("<Q", len(params)))
        for name, value in params.items():
            arr = np.asarray(value, dtype="<f8")  # keeps a 0-d tensor's rank; C order
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", 0))
            fh.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def _read(fh, n: int, what: str) -> bytes:
    """Exactly n bytes of a fixed-size field; never reads past the file's end."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"{fh.name}: truncated {what}")
    return fh.read(n)


def _unpack(fh, fmt: str, what: str):
    (value,) = struct.unpack(fmt, _read(fh, struct.calcsize(fmt), what))
    return value


def load_checkpoint(path):
    """Returns (params dict, header dict)."""
    with open(path, "rb") as fh:
        if fh.read(8) != CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version = _unpack(fh, "<I", "version")
        if version != CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        raw = _read(fh, _unpack(fh, "<I", "header length"), "header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        count = _unpack(fh, "<Q", "tensor count")
        params = {}
        for _ in range(count):
            name = _read(fh, _unpack(fh, "<I", "name length"), "tensor name").decode("utf-8")
            code = _unpack(fh, "<B", f"dtype of {name!r}")
            if code != 0:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r} "
                                      "(only code 0, float64, is read)")
            ndim = _unpack(fh, "<I", f"rank of {name!r}")
            shape = tuple(_unpack(fh, "<Q", f"shape of {name!r}") for _ in range(ndim))
            n = math.prod(shape)
            data = np.frombuffer(_read(fh, n * 8, f"tensor {name!r}"), dtype="<f8")
            params[name] = data.reshape(shape).astype(np.float64)
        return params, header


def group_sha256(params: dict, prefix: str = "") -> str:
    """Stable digest of every parameter whose name starts with prefix."""
    h = hashlib.sha256()
    for name in sorted(params):
        if not name.startswith(prefix):
            continue
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def save_descriptors(path, vectors: np.ndarray) -> None:
    arr = np.ascontiguousarray(vectors)
    if arr.ndim != 2:
        raise CheckpointError("descriptor dump expects a (count, dim) array")
    with atomic_write(path, "wb") as fh:
        fh.write(DESC_MAGIC + struct.pack(_DESC_HEAD, DESC_VERSION, *arr.shape, 8))
        fh.write(arr.astype("<f8").tobytes())


def load_descriptors(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(8) != DESC_MAGIC:
            raise CheckpointError(f"{path}: not a descriptor dump")
        version, count, dim, precision = struct.unpack(
            _DESC_HEAD, _read(fh, struct.calcsize(_DESC_HEAD), "descriptor header"))
        if version != DESC_VERSION:
            raise CheckpointError(f"{path}: unsupported descriptor version {version}")
        if precision != 8:
            raise CheckpointError(f"{path}: precision byte {precision} is not 8 (float64)")
        data = np.frombuffer(_read(fh, count * dim * 8, "descriptor data"), dtype="<f8")
        return data.reshape(count, dim).astype(np.float64)
