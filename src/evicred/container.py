"""The binary container shared by checkpoints and the word-vector cache.

A file is a 4-byte magic, a little-endian uint32 pair (format version,
header length), a UTF-8 JSON header, then raw sections.  Each section
starts at a multiple of ``ALIGN`` bytes, the gap zero-filled, so an array
can be memory-mapped in place.  A section is a bytes-like array or a
binary file, copied from its start a chunk at a time, so a section need
not fit in memory.  Header keys are sorted and nothing time-dependent is
written, so equal contents give byte-identical files.
A file is written under a temporary name beside its target and renamed
over it, so a reader never sees half a file.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import BinaryIO, Iterable, Iterator

from .errors import ParseError

__all__ = ["ALIGN", "sha256_hex", "equal_prefix", "section_offsets", "payload_chunks",
           "write", "read_header"]

ALIGN = 64
# Bytes read at a time from a file that is compared or copied into a section.
_CHUNK = 1 << 18
_PREAMBLE = struct.Struct("<II")
_MAGIC_LEN = 4


def sha256_hex(chunks: Iterable[bytes]) -> str:
    """Hex SHA-256 of the concatenated byte chunks."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def equal_prefix(fh: BinaryIO, other: BinaryIO, size: int) -> bool:
    """Whether two open buffered binary files both hold ``size`` more bytes
    and those bytes are equal.  Both are read a chunk at a time into one
    fixed buffer each."""
    # Whole bytearrays, not memoryview slices: bytearray equality is one
    # memcmp, memoryview equality compares item by item, about 100x slower.
    mine, theirs = bytearray(_CHUNK), bytearray(_CHUNK)
    while size > 0:
        if size < _CHUNK:  # the last chunk: both buffers shrink in place
            del mine[size:], theirs[size:]
        # A buffered reader's readinto fills the buffer unless the file ends.
        if fh.readinto(mine) < len(mine) or other.readinto(theirs) < len(theirs) \
                or mine != theirs:
            return False
        size -= len(mine)
    return True


def section_offsets(header_len: int, sizes: Iterable[int]) -> tuple[list[int], int]:
    """Start of each section of the given byte sizes, and the file's length."""
    offsets = []
    end = _MAGIC_LEN + _PREAMBLE.size + header_len
    for size in sizes:
        start = end + (-end % ALIGN)
        offsets.append(start)
        end = start + size
    return offsets, end


def payload_chunks(sections) -> Iterator[memoryview]:
    """The file's bytes from the first section on: sections and the zero gaps
    between them.  A section is a C-contiguous bytes-like object, or a binary
    file whose whole contents are read, from its start, a chunk at a time."""
    pos = 0
    for section in sections:
        if pos % ALIGN:
            yield memoryview(bytes(-pos % ALIGN))
            pos += -pos % ALIGN
        if hasattr(section, "read"):
            section.seek(0)
            chunks = iter(lambda: section.read(_CHUNK), b"")
        else:
            chunks = [section]
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            yield view
            pos += view.nbytes


def write(path, magic: bytes, version: int, header: dict, sections) -> None:
    """Write a container holding ``header`` and the given sections."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(_PREAMBLE.pack(version, len(blob)))
            fh.write(blob)
            fh.write(bytes(-fh.tell() % ALIGN))
            for chunk in payload_chunks(sections):
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_header(fh: BinaryIO, path, magic: bytes, version: int,
                kind: str) -> tuple[dict, int]:
    """Check magic and version; return the JSON header and its byte length.

    Every failure raises ParseError naming ``path`` and the ``kind`` of file.
    """
    if fh.read(_MAGIC_LEN) != magic:
        raise ParseError(f"{path}: not a {kind} file")
    preamble = fh.read(_PREAMBLE.size)
    if len(preamble) != _PREAMBLE.size:
        raise ParseError(f"{path}: truncated {kind} preamble")
    found, header_len = _PREAMBLE.unpack(preamble)
    if found != version:
        raise ParseError(f"{path}: unsupported {kind} version {found}")
    # Checked against the size first, so a garbled length cannot ask for gigabytes.
    size = os.fstat(fh.fileno()).st_size
    if _MAGIC_LEN + _PREAMBLE.size + header_len > size:
        raise ParseError(f"{path}: truncated {kind} header")
    blob = fh.read(header_len)
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:  # covers both bad UTF-8 and bad JSON
        raise ParseError(f"{path}: {kind} header is not UTF-8 JSON") from e
    if not isinstance(header, dict):
        raise ParseError(f"{path}: {kind} header is not a JSON object")
    return header, header_len
