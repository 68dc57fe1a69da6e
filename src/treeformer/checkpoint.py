"""Binary checkpoint persistence.

Layout (all integers little-endian):
  header: u32 format version, 32-byte config digest, u64 step, u32 record count
  record: u32 name length, utf-8 name, u32 rank, u64 extent per axis,
          float32 payload
  footer: u32 CRC32 of the header and records (format 2; format 1 files
          end after the last record and are still read)

Float payloads round-trip bit-exactly.  Writes go through a temp file and
an atomic rename; a write or rename that fails removes the temp file.  A
file that ends early or has another format version raises
``CheckpointError``, as does a length field that runs past the end of the
file, a record name that is not UTF-8, bytes after the last record, or a
CRC32 that does not match (a flipped payload byte).
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

FORMAT_VERSION = 2
_DIGEST_BYTES = 32


class CheckpointError(ValueError):
    """A checkpoint file is truncated or unreadable; the message names the file."""


@dataclass
class Checkpoint:
    params: Dict[str, np.ndarray]
    step: int
    config_digest: bytes


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    if len(checkpoint.config_digest) != _DIGEST_BYTES:
        raise ValueError(f"config digest must be {_DIGEST_BYTES} bytes")
    path = os.fspath(path)
    tmp = path + ".tmp"
    crc = 0
    fh = open(tmp, "wb")
    try:
        with fh:
            def write(raw) -> None:
                nonlocal crc
                crc = zlib.crc32(raw, crc)
                fh.write(raw)

            write(struct.pack("<I", FORMAT_VERSION) + checkpoint.config_digest +
                  struct.pack("<QI", checkpoint.step, len(checkpoint.params)))
            for name, value in checkpoint.params.items():
                raw = name.encode("utf-8")
                # ascontiguousarray would promote rank-0 values to rank 1
                arr = np.asarray(value, dtype="<f4", order="C")
                write(struct.pack(f"<I{len(raw)}sI{arr.ndim}Q", len(raw), raw, arr.ndim, *arr.shape))
                write(arr)   # the array's own buffer: no tobytes copy
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename leaves no temp file behind
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    path = os.fspath(path)
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        crc = 0

        def read(n: int) -> bytes:
            nonlocal crc
            # checked before reading, so a corrupt length field cannot ask for gigabytes
            if n > end - fh.tell():
                raise CheckpointError(f"checkpoint {path} is truncated (ends at byte {end}, "
                                      f"{n} bytes wanted at byte {fh.tell()})")
            raw = fh.read(n)
            crc = zlib.crc32(raw, crc)
            return raw

        version = struct.unpack("<I", read(4))[0]
        if version not in (1, FORMAT_VERSION):
            raise CheckpointError(f"checkpoint {path} has unsupported format version {version}")
        has_crc = version == FORMAT_VERSION   # format 1 has no footer
        if has_crc:
            end -= 4   # the records end where the footer starts
        digest = read(_DIGEST_BYTES)
        step, count = struct.unpack("<QI", read(12))
        params: Dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = struct.unpack("<I", read(4))[0]
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"checkpoint {path} has a record name that is not UTF-8 "
                                      f"(ends at byte {fh.tell()}): {exc}") from exc
            rank = struct.unpack("<I", read(4))[0]
            shape = struct.unpack(f"<{rank}Q", read(8 * rank)) if rank else ()
            size = math.prod(shape)  # exact: a corrupt extent cannot wrap around
            data = np.frombuffer(read(4 * size), dtype="<f4").reshape(shape)
            params[name] = data.astype(np.float32)
        if fh.tell() != end:
            raise CheckpointError(f"checkpoint {path} has {end - fh.tell()} bytes after its last "
                                  f"record (at byte {fh.tell()})")
        if has_crc:
            stored = struct.unpack("<I", fh.read(4))[0]
            if stored != crc:
                raise CheckpointError(f"checkpoint {path} is corrupt: CRC32 {crc:08x} of its "
                                      f"contents does not match the stored {stored:08x}")
    return Checkpoint(params=params, step=step, config_digest=digest)


def average_checkpoints(checkpoints: Sequence[Checkpoint]) -> Checkpoint:
    """Per-parameter arithmetic mean (accumulated in float64); step = max."""
    if not checkpoints:
        raise ValueError("cannot average zero checkpoints")
    names = set(checkpoints[0].params)
    for ckpt in checkpoints[1:]:
        if set(ckpt.params) != names:
            raise ValueError("checkpoints disagree on parameter names")
        for name in names:
            if ckpt.params[name].shape != checkpoints[0].params[name].shape:
                raise ValueError(f"checkpoints disagree on shape of {name}")
    k = len(checkpoints)
    averaged = {
        name: (
            sum(c.params[name].astype(np.float64) for c in checkpoints) / k
        ).astype(np.float32)
        for name in checkpoints[0].params
    }
    return Checkpoint(
        params=averaged,
        step=max(c.step for c in checkpoints),
        config_digest=checkpoints[0].config_digest,
    )


def list_checkpoints(directory) -> List[str]:
    """Checkpoint files ``step_<n>.ckpt`` in ``directory`` sorted by ascending step n
    (by number: ``step_1000000`` comes after ``step_999999``)."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    names = [n for n in os.listdir(directory) if re.fullmatch(r"step_\d+\.ckpt", n)]
    return [os.path.join(directory, n) for n in sorted(names, key=lambda n: (int(n[5:-5]), n))]
