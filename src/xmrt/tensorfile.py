"""Binary tensor container with a trailing payload checksum.

Byte layout, all multi-byte fields little-endian:

    magic    4 bytes  b"XMRT"
    version  u16      format version, currently 1
    rank     u8       number of dimensions
    dims     rank x u32
    payload  product(dims) x f64, row-major
    crc      u32      CRC32 (zlib) of the payload bytes

64-bit floats keep gradient-check tolerances honest downstream.  Loading
verifies magic, version, rank, byte length, and checksum, each failure
carrying its own stable error code.

Every artifact file the package writes goes through `atomic_open`, so a
write that fails partway leaves the old file byte-for-byte in place; a
set of files drops the one that completes it (`discard_file`) first and
writes it last.  Every text table goes through `_write_rows` and
`_read_rows`.  Tables and JSON artifacts (not the run config) are read
through `_read_text`, so bytes that are not UTF-8 are a DataError.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

from .errors import DataError, TensorFileError

MAGIC = b"XMRT"
VERSION = 1
MAX_RANK = 8


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """A file open for writing at a temp path next to path; a clean exit
    moves it over path with os.replace, an error removes it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        discard_file(tmp)
        raise


def discard_file(path):
    """Remove the file at path if there is one."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _write_rows(path, rows):
    """Write rows of str fields as tab-separated lines via atomic_open,
    joining one row at a time (rows may be a generator).  A field holding
    "\\t", "\\n" or "\\r", which readers split on, or a row that is only
    whitespace, which readers skip as blank, raises DataError naming path
    and field or row before any file is written."""
    lines = []
    for row in rows:
        line = "\t".join(row)
        if line.count("\t") != len(row) - 1 or "\n" in line or "\r" in line:
            field = next(f for f in row if {"\t", "\n", "\r"} & set(f))
            raise DataError(f"{path}: field {field!r} holds a tab or newline")
        if not line.strip():
            raise DataError(f"{path}: row {row!r} is only whitespace")
        lines.append(line)
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _read_text(path):
    """The UTF-8 text of the file at path, newlines translated as by open."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def _read_rows(path):
    """An iterator over the rows of the text table at path, each a list of
    str fields: its `_read_text` cut on "\n" (read at once), whitespace-only
    lines skipped, each other split on "\t"."""
    return (ln.split("\t")
            for ln in filter(str.strip, _read_text(path).split("\n")))


def save_tensor(path, array):
    """Write a float array (any rank up to 8) to the container format."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise DataError(f"rank {arr.ndim} outside [1, {MAX_RANK}]")
    if not np.all(np.isfinite(arr)):
        raise DataError("tensor values must be finite")
    payload = np.ascontiguousarray(arr).astype("<f8").tobytes()
    header = MAGIC + struct.pack("<HB", VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_tensor(path):
    """Read a container file back into a float64 array.

    Raises TensorFileError with code "bad-magic", "bad-version",
    "bad-rank", "bad-length", or "bad-crc" on the respective violation.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 7 or blob[:4] != MAGIC:
        raise TensorFileError("bad-magic", f"{path}: not a tensor file")
    version, rank = struct.unpack_from("<HB", blob, 4)
    if version != VERSION:
        raise TensorFileError(
            "bad-version", f"{path}: version {version}, expected {VERSION}")
    if rank < 1 or rank > MAX_RANK:
        raise TensorFileError(
            "bad-rank", f"{path}: rank {rank} outside [1, {MAX_RANK}]")
    offset = 7 + 4 * rank
    if len(blob) < offset:
        raise TensorFileError(
            "bad-length", f"{path}: truncated before dims")
    dims = struct.unpack_from(f"<{rank}I", blob, 7)
    n_values = 1
    for d in dims:
        n_values *= d
    expected = offset + 8 * n_values + 4
    if len(blob) != expected:
        raise TensorFileError(
            "bad-length",
            f"{path}: {len(blob)} bytes, expected {expected} for dims {dims}")
    payload = blob[offset:offset + 8 * n_values]
    (crc,) = struct.unpack_from("<I", blob, offset + 8 * n_values)
    if zlib.crc32(payload) != crc:
        raise TensorFileError("bad-crc", f"{path}: checksum mismatch")
    return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
